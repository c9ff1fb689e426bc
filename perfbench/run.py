"""mg-audit benchmark: seeded workloads through the unchanged ``run_all``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates its inputs from ``--seed`` (see ``gen.py``), then
runs ``mg_audit.stages.run_all`` into a clean run directory, each run in a
fresh process (``child.py``), until ``--seconds`` of runs have passed. Every
run's outputs are checked; a failed check makes the result incorrect.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, as
medians over the runs. With ``--trace 1`` untraced and traced runs
alternate and the last line holds the per-layer metrics from the traced
runs plus ``trace.overhead_s``. Workloads, metrics and what each metric
should move are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.

All files are written under ``.perfbench-work/`` in the current directory,
which must be the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    # 1/10 of the paper's audit (43k instructions narrowed to 10k), two models.
    "offline_audit": {"kind": "audit", "instructions": 4300, "target": 1000,
                      "pad_pairs": 10000, "live": False},
    # 1/60 of the paper's audit, lexicon scaled down with it; every call goes
    # to the fake provider.
    "live_audit": {"kind": "audit", "instructions": 690, "target": 160,
                   "pad_pairs": 2000, "live": True},
    # 8k synthetic golden nouns x 307 features, shipped GBT depth and
    # min_child_weight; two rounds, so runs are short enough to repeat.
    "train_hscorer": {"kind": "train", "nouns": 8000, "dim": 300, "rounds": 2},
}
SETUP_PROBES = 6
CREDENTIAL_ENV = "PERFBENCH_PROVIDER_KEY"
STAGE_SUM_TOLERANCE = 0.02  # share of the traced wall time
CHILD_TIMEOUT_S = 120  # a hung run must still end the benchmark within 180 s


class CheckError(RuntimeError):
    """An output check failed: the run is incorrect, not slow."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def check_run(out: Path, model_ids: list[str], schema: dict) -> dict:
    """Check one run directory and count what it did."""
    import jsonschema

    from mg_audit.manifest import RunManifest
    from mg_audit.stages import STAGES

    manifest = RunManifest.load(out)
    incomplete = [s for s in STAGES if manifest is None or not manifest.is_complete(s)]
    if incomplete:
        raise CheckError(f"stages not complete in the manifest: {incomplete}")
    report_path = out / "report" / "report.json"
    try:
        jsonschema.validate(json.loads(report_path.read_text(encoding="utf-8")), schema)
    except jsonschema.ValidationError as err:
        raise CheckError(f"report.json does not match its schema: {err.message}") from err

    calls = errors = retries = validations = bad_validations = 0
    responses = 0
    for model in model_ids:
        for record in _jsonl(out / "dispatch" / "exchanges" / f"{model}.jsonl"):
            calls += record["attempt_count"]
            retries += record["attempt_count"] - 1
            errors += record["status"] == "error"
        for record in _jsonl(out / "validate" / model / "verdicts.jsonl"):
            if record["verdicts"] or record["missing"] or record["parse_error"]:
                validations += 1
                bad_validations += bool(record["missing"] or record["parse_error"])
        responses += len(_jsonl(out / "validate" / model / "response_filter.jsonl"))
    training = json.loads((out / "hscorer" / "training_report.json").read_text())
    return {
        "digests": {
            rel: _sha256(out / rel)
            for rel in ("report/report.json", "hscorer/lr_member.json", "hscorer/gbt_member.json")
        },
        "llm_calls": calls + validations,
        "failed_ops": errors + bad_validations,
        "retries": retries,
        "errors": errors,
        "docs": len(_jsonl(out / "filter" / "filter_report.jsonl")) + responses,
        "lr_val_accuracy": training["lr_validation_accuracy"],
        "gbt_val_accuracy": training["gbt_validation_accuracy"],
    }


class Bench:
    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def child(self, config: Path, mock: Path | None, env: dict, trace: bool = False,
              setup_only: bool = False) -> tuple[dict, Path]:
        """Run the pipeline once in a fresh process; returns its result and run dir."""
        self.count += 1
        out = self.work / f"run{self.count}"
        result = self.work / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
               "--out", str(out), "--result", str(result)]
        if mock is not None:
            cmd += ["--mock", str(mock)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        log = self.work / f"child{self.count}.log"
        with open(log, "w", encoding="utf-8") as fp:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                                      stdin=subprocess.DEVNULL, stdout=fp,
                                      stderr=subprocess.STDOUT, env=env,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as err:
                raise CheckError(f"pipeline run exceeded {CHILD_TIMEOUT_S} s") from err
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CheckError(f"pipeline run failed (exit {proc.returncode}):\n{tail}")
        return json.loads(result.read_text(encoding="utf-8")), out


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen
    from provider import ProviderProcess

    spec = WORKLOADS[name]
    data = work / "data"
    if spec["kind"] == "audit":
        generated = gen.build_audit(data, seed, spec["instructions"], spec["target"],
                                    spec["pad_pairs"])
        mock = data / "fixtures"
    else:
        generated = gen.build_train(data, seed, spec["nouns"], spec["dim"], spec["rounds"])
        mock = gen.MINI / "fixtures"
    print(json.dumps({"workload": name, "seed": seed, "generated": generated}), flush=True)

    schema = json.loads((SRC / "mg_audit/schemas/audit_report.schema.json").read_text())
    model_ids = list(gen.MODELS)
    env = {k: v for k, v in os.environ.items() if k != CREDENTIAL_ENV}
    bench = Bench(work)
    config = data / "config.json"
    pipeline_env = env
    provider = None
    try:
        if spec.get("live"):
            token = hashlib.sha256(f"token:{seed}".encode()).hexdigest()[:32]
            provider = ProviderProcess(data / "routes.json", seed, token, work)
            config = gen.live_config(data, provider.port, CREDENTIAL_ENV)
            pipeline_env = dict(env, **{CREDENTIAL_ENV: token})
            mock = None

        setups = [bench.child(config, mock, pipeline_env, setup_only=True)[0]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        plain: list[dict] = []
        traced: list[dict] = []
        counts: dict | None = None
        started = time.monotonic()
        while True:
            round_start = time.monotonic()
            for with_trace in ((False, True) if trace else (False,)):
                before = provider.requests() if provider else 0
                result, out = bench.child(config, mock, pipeline_env, trace=with_trace)
                outcome = check_run(out, model_ids, schema)
                if provider and provider.requests() - before != outcome["llm_calls"]:
                    raise CheckError(
                        f"provider saw {provider.requests() - before} requests, "
                        f"outputs record {outcome['llm_calls']}")
                if with_trace:
                    layers = result["layers"]
                    stage_sum = sum(v for k, v in layers.items() if k.startswith("stages."))
                    if abs(stage_sum - result["wall_s"]) > STAGE_SUM_TOLERANCE * result["wall_s"]:
                        raise CheckError(f"stage spans sum to {stage_sum:.3f} s, "
                                         f"traced wall is {result['wall_s']:.3f} s")
                    layers["dispatch.retries"] = outcome["retries"]
                    layers["dispatch.errors"] = outcome["errors"]
                    layers["conllu.parses_per_input_doc"] = layers["conllu.docs_read"] / outcome["docs"]
                    traced.append(result)
                else:
                    plain.append(result)
                    setups.append(result["setup_s"])
                if counts is None:
                    counts = outcome
                elif outcome != counts:
                    raise CheckError("outputs differ between repeats of the same inputs")
                shutil.rmtree(out)
            # Stop before a round that would overrun the budget; run at least one.
            now = time.monotonic()
            if now - started + (now - round_start) > seconds:
                break

        if provider is not None:
            # The live report must equal a mock-transport run on the same data.
            _, out = bench.child(data / "config.json", data / "fixtures", env)
            if check_run(out, model_ids, schema)["digests"] != counts["digests"]:
                raise CheckError("live report differs from the mock-transport report")
            shutil.rmtree(out)
    finally:
        if provider is not None:
            provider.stop()

    print(json.dumps({"wall_s_runs": [r["wall_s"] for r in plain],
                      "traced_wall_s_runs": [r["wall_s"] for r in traced],
                      "setup_s_runs": setups}), flush=True)
    runs = len(plain) + len(traced)
    attempted = counts["llm_calls"] * runs
    failed = counts["failed_ops"] * runs
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        from tracer import median_metrics

        metrics = median_metrics([r["layers"] for r in traced])
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "docs_per_s": counts["docs"] / wall,
            "llm_calls": counts["llm_calls"],
            "ok_op_share": 1.0 - counts["failed_ops"] / counts["llm_calls"],
            "lr_val_accuracy": counts["lr_val_accuracy"],
            "gbt_val_accuracy": counts["gbt_val_accuracy"],
        }
        units = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise CheckError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [SRC / "mg_audit" / "stages.py", ROOT / "data" / "mini" / "config.json",
              ROOT / "BENCHMARK.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"perfbench: not a full mg-audit checkout, missing {absent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Turn SIGTERM into an exception, so the provider and work directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except CheckError as err:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
