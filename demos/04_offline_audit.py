"""Run the whole audit offline against the recorded mock responses.

Equivalent to:
    mg-audit all --config data/mini/config.json --mock-transport data/mini/fixtures
but with the output in a temporary directory, removed when the demo ends,
followed by a tour of the report and an inter-annotator agreement check on
the verdicts.
"""

import json
import tempfile
from pathlib import Path

from mg_audit.agreement import cohen_kappa
from mg_audit.config import load_config
from mg_audit.stages import run_all

MINI = Path(__file__).resolve().parent.parent / "data" / "mini"

with tempfile.TemporaryDirectory(prefix="mg_audit_demo_") as tmp:
    workdir = Path(tmp)
    config = load_config(MINI / "config.json")
    config.output_dir = workdir

    manifest = run_all(config, mock_transport=MINI / "fixtures")
    print(f"pipeline complete; artifacts in {workdir} (removed on exit)\n")

    report = json.loads((workdir / "report/report.json").read_text(encoding="utf-8"))
    header = f"{'unit':8s} {'n':>3s} {'bias%':>7s} {'bias%HN':>8s} {'overall':>8s} {'mean':>6s}"
    print(header)
    for unit in report["units"]:
        def fmt(value, width):
            return f"{value:{width}.3f}" if value is not None else " " * (width - 1) + "-"
        print(f"{unit['unit_id']:8s} {unit['n_responses']:3d}"
              f" {fmt(unit['bias_rate_all'], 7)} {fmt(unit['bias_rate_with_hn'], 8)}"
              f" {fmt(unit['overall_m_score'], 8)} {fmt(unit['mean_m_score'], 6)}")
        print(f"{'':8s} markers:", {k: round(v, 1) for k, v in unit["marker_rates"].items()
                                    if v})
        print(f"{'':8s} classes:", unit["class_frequencies"])

    # Agreement between the recorded verdicts and two reference annotators: a
    # perfect copy, and a baseline that accepts everything. A constant
    # annotator earns kappa 0 regardless of raw agreement, which is the point
    # of chance correction.
    verdicts = []
    for model in ("modela", "modelb"):
        with open(workdir / f"validate/{model}/verdicts.jsonl", encoding="utf-8") as fp:
            for line in fp:
                verdicts.extend(json.loads(line)["verdicts"].values())
    copy = cohen_kappa(verdicts, list(verdicts))
    baseline = cohen_kappa(verdicts, [1] * len(verdicts))
    print(f"\nagreement over {copy.n_items} occurrences:"
          f" perfect-copy kappa={copy.kappa:.3f},"
          f" accept-everything kappa={baseline.kappa:.3f}")
