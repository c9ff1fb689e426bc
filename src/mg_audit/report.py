"""Aggregated audit report and its JSON/CSV/plot-data serializations.

The JSON report is a single document with one block per model or dataset.
CSV output has one row per unit; plot-data CSVs mirror the result-figure
layouts: bias-rate bars, M Score bars with overall and mean series,
class-frequency matrix and marker-rate bars. Undefined aggregates
serialize as nulls (empty cells in CSV), never as zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from pathlib import Path

from .ioutil import atomic_write_text, write_json
from .analysis import (
    TextAnalysis,
    aggregate_m_scores,
    bias_rates,
    class_frequencies,
    marker_rates,
)
from .lexicon import HumanNounDB
from .markers import MARKER_FAMILIES

REPORT_FORMAT_VERSION = 1

# One row per unit in report.csv; the per-family and per-class figures go
# to the plot-data CSVs.
CSV_COLUMNS = (
    "unit_id",
    "n_responses",
    "n_responses_with_hn",
    "bias_rate_all",
    "bias_rate_with_hn",
    "overall_m_score",
    "mean_m_score",
)


@dataclass
class UnitReport:
    unit_id: str
    n_responses: int
    n_responses_with_hn: int
    bias_rate_all: float | None
    bias_rate_with_hn: float | None
    overall_m_score: float | None
    mean_m_score: float | None
    marker_rates: dict[str, float | None]
    class_frequencies: dict[str, int]


@dataclass
class AuditReport:
    """The units, held in `unit_id` order: the order of every output."""

    units: tuple[UnitReport, ...] = ()

    def __post_init__(self) -> None:
        self.units = tuple(sorted(self.units, key=lambda u: u.unit_id))

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "units": [asdict(unit) for unit in self.units],
        }


def build_unit_report(
    unit_id: str, analyses: list[TextAnalysis], db: HumanNounDB
) -> UnitReport:
    rate_all, rate_with_hn = bias_rates(analyses)
    overall, mean = aggregate_m_scores(analyses)
    return UnitReport(
        unit_id=unit_id,
        n_responses=len(analyses),
        n_responses_with_hn=sum(1 for a in analyses if a.hn_count > 0),
        bias_rate_all=rate_all,
        bias_rate_with_hn=rate_with_hn,
        overall_m_score=overall,
        mean_m_score=mean,
        marker_rates=marker_rates(analyses),
        class_frequencies=class_frequencies(analyses, db),
    )


def build_report(
    per_unit_analyses: dict[str, list[TextAnalysis]], db: HumanNounDB
) -> AuditReport:
    return AuditReport(
        units=tuple(
            build_unit_report(unit_id, analyses, db)
            for unit_id, analyses in per_unit_analyses.items()
        )
    )


def _cell(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: str | Path, rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def write_report_csv(report: AuditReport, path: str | Path) -> None:
    _write_csv(path, [list(CSV_COLUMNS)] + [
        [_cell(getattr(unit, column)) for column in CSV_COLUMNS]
        for unit in report.units
    ])


def write_plotdata(report: AuditReport, directory: str | Path) -> list[Path]:
    """Four plot-ready CSVs: bias rates, M Scores, class matrix, marker rates."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    units = report.units
    written = []

    path = directory / "bias_rates.csv"
    _write_csv(path, [["unit_id", "bias_rate_all", "bias_rate_with_hn"]] + [
        [unit.unit_id, _cell(unit.bias_rate_all), _cell(unit.bias_rate_with_hn)]
        for unit in units
    ])
    written.append(path)

    # Two labeled series per unit: the pooled and the averaged score.
    path = directory / "m_scores.csv"
    rows: list[list] = [["unit_id", "series", "value"]]
    for unit in units:
        rows.append([unit.unit_id, "overall", _cell(unit.overall_m_score)])
        rows.append([unit.unit_id, "mean", _cell(unit.mean_m_score)])
    _write_csv(path, rows)
    written.append(path)

    path = directory / "class_frequencies.csv"
    classes = sorted({c for unit in units for c in unit.class_frequencies})
    _write_csv(path, [["unit_id"] + classes] + [
        [unit.unit_id] + [str(unit.class_frequencies.get(c, 0)) for c in classes]
        for unit in units
    ])
    written.append(path)

    path = directory / "marker_rates.csv"
    _write_csv(path, [["unit_id"] + list(MARKER_FAMILIES)] + [
        [unit.unit_id]
        + [_cell(unit.marker_rates.get(family)) for family in MARKER_FAMILIES]
        for unit in units
    ])
    written.append(path)
    return written


def emit_report(
    per_unit_analyses: dict[str, list[TextAnalysis]],
    db: HumanNounDB,
    directory: str | Path,
) -> dict[str, list[Path]]:
    """Write the report as JSON, CSV and plot data; returns the written
    paths per format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    report = build_report(per_unit_analyses, db)
    json_path = directory / "report.json"
    write_json(json_path, report.to_dict())
    csv_path = directory / "report.csv"
    write_report_csv(report, csv_path)
    return {
        "json": [json_path],
        "csv": [csv_path],
        "plotdata": write_plotdata(report, directory / "plotdata"),
    }
