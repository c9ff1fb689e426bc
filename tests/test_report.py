import csv
import json
from pathlib import Path

import jsonschema
import pytest

from conftest import lexicon_from_pairs

import mg_audit.report as report_module
from mg_audit.analysis import TextAnalysis
from mg_audit.report import (
    AuditReport,
    build_report,
    build_unit_report,
    emit_report,
    write_plotdata,
    write_report_csv,
)

SCHEMA = json.loads(
    (Path(report_module.__file__).parent / "schemas/audit_report.schema.json").read_text(
        encoding="utf-8"
    )
)


def sample_analyses():
    a = [
        TextAnalysis(doc_id="d1", unit_id="ma", hn_count=2, mg_count=1, m_score=0.5,
                     mg_lemmas=("médecin",),
                     marker_hits={"incl_pairs": [(0, 9)]}),
        TextAnalysis(doc_id="d2", unit_id="ma", hn_count=0, mg_count=0, m_score=None),
    ]
    b = [
        TextAnalysis(doc_id="d3", unit_id="mb", hn_count=0, mg_count=0, m_score=None),
    ]
    return {"ma": a, "mb": b}


@pytest.fixture()
def db():
    return lexicon_from_pairs(("médecin", "masculine", "profession"))[0]


class TestJsonReport:
    def test_validates_and_sorted_units(self, db):
        report = build_report(sample_analyses(), db)
        document = report.to_dict()
        jsonschema.validate(document, SCHEMA)
        assert [u["unit_id"] for u in document["units"]] == ["ma", "mb"]

    def test_undefined_aggregates_are_null_not_zero(self, db):
        report = build_report(sample_analyses(), db)
        unit_b = report.to_dict()["units"][1]
        assert unit_b["overall_m_score"] is None
        assert unit_b["mean_m_score"] is None
        assert unit_b["bias_rate_with_hn"] is None
        assert unit_b["bias_rate_all"] == 0.0  # defined: no text has MG

    def test_unit_numbers(self, db):
        report = build_report(sample_analyses(), db)
        unit_a = report.to_dict()["units"][0]
        assert unit_a["n_responses"] == 2
        assert unit_a["n_responses_with_hn"] == 1
        assert unit_a["bias_rate_all"] == 50.0
        assert unit_a["bias_rate_with_hn"] == 100.0
        assert unit_a["class_frequencies"] == {"profession": 1}


class TestEmitFormats:
    def test_all_files_written(self, db, tmp_path):
        written = emit_report(sample_analyses(), db, tmp_path)
        names = {p.name for paths in written.values() for p in paths}
        assert names == {
            "report.json", "report.csv", "bias_rates.csv", "m_scores.csv",
            "class_frequencies.csv", "marker_rates.csv",
        }

    def test_m_scores_two_series_per_unit(self, db, tmp_path):
        emit_report(sample_analyses(), db, tmp_path)
        with open(tmp_path / "plotdata/m_scores.csv", encoding="utf-8") as fp:
            rows = list(csv.DictReader(fp))
        by_unit = {}
        for row in rows:
            by_unit.setdefault(row["unit_id"], []).append(row["series"])
        assert by_unit == {"ma": ["overall", "mean"], "mb": ["overall", "mean"]}

    def test_marker_csv_has_all_family_columns(self, db, tmp_path):
        emit_report(sample_analyses(), db, tmp_path)
        with open(tmp_path / "plotdata/marker_rates.csv", encoding="utf-8") as fp:
            header = next(csv.reader(fp))
        assert header == ["unit_id", "incl_greetings", "incl_pairs",
                          "neutral_prons", "fem_ending", "neutral_words"]

    def test_class_matrix_layout(self, db, tmp_path):
        emit_report(sample_analyses(), db, tmp_path)
        with open(tmp_path / "plotdata/class_frequencies.csv", encoding="utf-8") as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["unit_id", "profession"]
        assert rows[1] == ["ma", "1"]
        assert rows[2] == ["mb", "0"]

    def test_null_serialized_as_empty_cell(self, db, tmp_path):
        emit_report(sample_analyses(), db, tmp_path)
        with open(tmp_path / "report.csv", encoding="utf-8") as fp:
            rows = list(csv.DictReader(fp))
        mb = next(r for r in rows if r["unit_id"] == "mb")
        assert mb["overall_m_score"] == ""
        assert mb["bias_rate_with_hn"] == ""


class TestUnitOrder:
    def test_unsorted_units_emit_in_unit_id_order(self, db, tmp_path):
        analyses = sample_analyses()
        analyses["mc"] = analyses["mb"]
        units = [build_unit_report(unit_id, analyses[unit_id], db)
                 for unit_id in ("mc", "ma", "mb")]
        report = AuditReport(units=units)
        assert [u.unit_id for u in report.units] == ["ma", "mb", "mc"]
        assert [u["unit_id"] for u in report.to_dict()["units"]] == ["ma", "mb", "mc"]
        write_report_csv(report, tmp_path / "report.csv")
        with open(tmp_path / "report.csv", encoding="utf-8") as fp:
            assert [row["unit_id"] for row in csv.DictReader(fp)] == ["ma", "mb", "mc"]
        for path in write_plotdata(report, tmp_path / "plotdata"):
            with open(path, encoding="utf-8") as fp:
                column = [row["unit_id"] for row in csv.DictReader(fp)]
            assert column == sorted(column) and set(column) == {"ma", "mb", "mc"}, path.name

    def test_build_report_ignores_insertion_order(self, db):
        analyses = sample_analyses()
        reversed_order = dict(reversed(list(analyses.items())))
        assert build_report(reversed_order, db) == build_report(analyses, db)
