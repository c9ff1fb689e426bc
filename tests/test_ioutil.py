import json
from pathlib import Path

import pytest

from mg_audit.ioutil import read_jsonl, write_json, write_jsonl

SRC = Path(__file__).resolve().parent.parent / "src" / "mg_audit"


class TestJsonlCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"lemma": "médecin", "gender": "masculine"}, {"b": 1, "a": ["iel"]}]
        write_jsonl(path, records)
        assert path.read_text(encoding="utf-8") == (
            '{"gender": "masculine", "lemma": "médecin"}\n{"a": ["iel"], "b": 1}\n'
        )
        assert list(read_jsonl(path)) == records
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"a": 1}\n  \n\n{"a": 2}\n\n', encoding="utf-8")
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_empty(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [])
        assert path.read_bytes() == b""
        assert list(read_jsonl(path)) == []

    def test_json_document(self, tmp_path):
        path = tmp_path / "sub" / "report.json"
        write_json(path, {"z": "élève", "a": 1})
        assert path.read_text(encoding="utf-8") == '{\n  "a": 1,\n  "z": "élève"\n}\n'
        assert json.loads(path.read_text(encoding="utf-8")) == {"z": "élève", "a": 1}
        assert [p.name for p in path.parent.iterdir()] == ["report.json"]


# Each line alone in a file must read as `json.loads` reads it, or fail with
# its message and column, located in the file.
DECODER_LINES = {
    "json_whitespace_padding": ' \t {"a": 1} \t\t ',
    "leading_space": " {}",
    "two_values": "{} {}",
    "comma_joined": '{"a":1}, {"b":2}',
    "nan": "NaN",
    "number": "1",
    "array": "[1, 2]",
    "torn": '{"a":',
    "torn_after_space": '  {"a" 1}',
    "bom": '\ufeff{"a": 1}',
    "trailing_non_json_space": "{}\u00a0",
}


def _loads_outcome(text, path):
    try:
        return "ok", repr(json.loads(text))
    except json.JSONDecodeError as err:
        return ValueError, f"{path}: line 1: {err.msg} at column {err.colno}"


class TestJsonlDecoder:
    @pytest.mark.parametrize("case", sorted(DECODER_LINES))
    def test_same_as_json_loads(self, tmp_path, case):
        line = DECODER_LINES[case]
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            got = "ok", repr(list(read_jsonl(path))[0])
        except ValueError as err:
            got = type(err), str(err)
        assert got == _loads_outcome(line, path)

    def test_non_json_whitespace_line_is_blank(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\u00a0\x0b\x0c\u2003\n{"a": 1}\n\u3000\n', encoding="utf-8")
        assert list(read_jsonl(path)) == [{"a": 1}]


def test_artifact_format_lives_in_ioutil():
    """Only ioutil decides how artifacts are encoded."""
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ioutil.py" and "ensure_ascii=False" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
