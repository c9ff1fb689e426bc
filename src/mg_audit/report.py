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
from dataclasses import dataclass, field
from pathlib import Path

from .ioutil import atomic_write_text, json_text, write_json
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

    def to_dict(self) -> dict:
        return {
            "unit_id": self.unit_id,
            "n_responses": self.n_responses,
            "n_responses_with_hn": self.n_responses_with_hn,
            "bias_rate_all": self.bias_rate_all,
            "bias_rate_with_hn": self.bias_rate_with_hn,
            "overall_m_score": self.overall_m_score,
            "mean_m_score": self.mean_m_score,
            "marker_rates": self.marker_rates,
            "class_frequencies": dict(sorted(self.class_frequencies.items())),
        }


@dataclass
class AuditReport:
    units: list[UnitReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "units": [unit.to_dict() for unit in sorted(self.units, key=lambda u: u.unit_id)],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


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
        units=[
            build_unit_report(unit_id, analyses, db)
            for unit_id, analyses in sorted(per_unit_analyses.items())
        ]
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
    rows: list[list] = [[
        "unit_id",
        "n_responses",
        "n_responses_with_hn",
        "bias_rate_all",
        "bias_rate_with_hn",
        "overall_m_score",
        "mean_m_score",
    ]]
    for unit in sorted(report.units, key=lambda u: u.unit_id):
        rows.append(
            [
                unit.unit_id,
                unit.n_responses,
                unit.n_responses_with_hn,
                _cell(unit.bias_rate_all),
                _cell(unit.bias_rate_with_hn),
                _cell(unit.overall_m_score),
                _cell(unit.mean_m_score),
            ]
        )
    _write_csv(path, rows)


def write_plotdata(report: AuditReport, directory: str | Path) -> list[Path]:
    """Four plot-ready CSVs: bias rates, M Scores, class matrix, marker rates."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    units = sorted(report.units, key=lambda u: u.unit_id)
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
    formats: tuple[str, ...] = ("json", "csv", "plotdata"),
) -> dict[str, list[Path]]:
    """Write the report in the requested formats; returns written paths."""
    unknown = set(formats) - {"json", "csv", "plotdata"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    report = build_report(per_unit_analyses, db)
    written: dict[str, list[Path]] = {}
    if "json" in formats:
        path = directory / "report.json"
        write_json(path, report.to_dict())
        written["json"] = [path]
    if "csv" in formats:
        path = directory / "report.csv"
        write_report_csv(report, path)
        written["csv"] = [path]
    if "plotdata" in formats:
        written["plotdata"] = write_plotdata(report, directory / "plotdata")
    return written
