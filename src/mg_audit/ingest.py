"""Adapters that turn lexical-resource dumps into LexicalEntry lists.

Each adapter reads one file format and normalizes rows into entries tagged
with the adapter id as source. Malformed rows are collected as recoverable
per-record errors in an ingestion report; an unreadable file raises.

Supported formats:
  demonette_csv       comma-separated masc_lemma,fem_lemma pairs
  wikidata_tsv        tab-separated masc_lemma,fem_lemma pairs
  nhuma_csv           comma-separated lemma,gender,hn_class rows
  wiktextract_jsonl   one JSON object per line: word, senses[] with gloss
                      strings (gender carried in an optional "gender" field
                      or a "tags" list)
  dictionary_snapshot JSONL: lemma, definitions[] (ordered), optional gender
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .lexicon import (
    DEFAULT_DEFINITION_SEEDS,
    DictionarySnapshot,
    LexicalEntry,
    definition_matches_seed,
    normalize_lemma,
)

# Wiktionary-style resources only keep senses whose human-related
# definition appears among the first two (1-based index <= 2).
MAX_HUMAN_DEFINITION_INDEX = 2


@dataclass(frozen=True)
class RecordError:
    line_no: int
    message: str


@dataclass
class IngestReport:
    adapter_id: str
    path: str
    n_records: int = 0
    n_entries: int = 0
    errors: list[RecordError] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "adapter_id": self.adapter_id,
            "path": self.path,
            "n_records": self.n_records,
            "n_entries": self.n_entries,
            "errors": [{"line_no": e.line_no, "message": e.message} for e in self.errors],
        }


def ingest_source(
    adapter_id: str,
    path: str | Path,
    options: dict | None = None,
) -> tuple[list[LexicalEntry], IngestReport]:
    """Dispatch to the adapter named by `adapter_id`."""
    adapter = ADAPTERS.get(adapter_id)
    if adapter is None:
        raise ValueError(f"unknown adapter: {adapter_id!r}")
    return adapter(Path(path), adapter_id, options or {})


def _pair_entries(
    masc: str, fem: str, source: str, line_no: int, report: IngestReport
) -> list[LexicalEntry]:
    entries = []
    masc, fem = normalize_lemma(masc), normalize_lemma(fem)
    if masc:
        entries.append(LexicalEntry(masc, "masculine", sources=frozenset({source})))
    if fem:
        entries.append(LexicalEntry(fem, "feminine", sources=frozenset({source})))
    if not entries:
        report.errors.append(RecordError(line_no, "both lemmas empty"))
    return entries


def _ingest_pairs_delimited(
    path: Path, adapter_id: str, options: dict, delimiter: str
) -> tuple[list[LexicalEntry], IngestReport]:
    report = IngestReport(adapter_id=adapter_id, path=str(path))
    entries: list[LexicalEntry] = []
    with open(path, encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp, delimiter=delimiter)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            report.n_records += 1
            if len(row) < 2:
                report.errors.append(RecordError(line_no, f"expected 2 columns, got {len(row)}"))
                continue
            entries.extend(_pair_entries(row[0], row[1], adapter_id, line_no, report))
    report.n_entries = len(entries)
    return entries, report


def _ingest_nhuma(path: Path, adapter_id: str, options: dict):
    report = IngestReport(adapter_id=adapter_id, path=str(path))
    entries: list[LexicalEntry] = []
    with open(path, encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            report.n_records += 1
            if len(row) < 3:
                report.errors.append(RecordError(line_no, f"expected 3 columns, got {len(row)}"))
                continue
            lemma, gender, hn_class = (cell.strip() for cell in row[:3])
            gender = _GENDER_ALIASES.get(gender.lower())
            if gender is None:
                report.errors.append(RecordError(line_no, f"bad gender {row[1]!r}"))
                continue
            hn_class = hn_class.lower() or None
            try:
                entries.append(
                    LexicalEntry(
                        normalize_lemma(lemma),
                        gender,
                        sources=frozenset({adapter_id}),
                        hn_class=hn_class,
                        class_provenance="human" if hn_class else "none",
                    )
                )
            except ValueError as err:
                report.errors.append(RecordError(line_no, str(err)))
    report.n_entries = len(entries)
    return entries, report


_GENDER_ALIASES = {"m": "masculine", "masc": "masculine", "masculine": "masculine",
                   "f": "feminine", "fem": "feminine", "feminine": "feminine"}


def _record_gender(record: dict) -> str | None:
    gender = _GENDER_ALIASES.get(str(record.get("gender", "")).lower())
    if gender:
        return gender
    tags = record.get("tags", [])
    if "masculine" in tags:
        return "masculine"
    if "feminine" in tags:
        return "feminine"
    return None


def _ingest_wiktextract(path: Path, adapter_id: str, options: dict):
    """Keep nouns whose human-related sense sits among the first definitions.

    A sense is human-related when its gloss starts with one of the seed
    nouns (after determiner stripping). The 1-based index of the first such
    sense must not exceed the configured maximum (default 2), mirroring the
    dictionary convention that common senses come first.
    """
    seeds = frozenset(
        normalize_lemma(s)
        for s in options.get("seeds", DEFAULT_DEFINITION_SEEDS - {"individu"})
    )
    max_index = int(options.get("max_definition_index", MAX_HUMAN_DEFINITION_INDEX))
    report = IngestReport(adapter_id=adapter_id, path=str(path))
    entries: list[LexicalEntry] = []
    with open(path, encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            report.n_records += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                report.errors.append(RecordError(line_no, f"bad JSON: {err.msg}"))
                continue
            if not isinstance(record, dict):
                report.errors.append(RecordError(line_no, "not a JSON object"))
                continue
            word = record.get("word")
            senses = record.get("senses")
            if not isinstance(word, str) or not word or not isinstance(senses, list):
                report.errors.append(RecordError(line_no, "missing word or senses"))
                continue
            human_index = None
            for index, sense in enumerate(senses, start=1):
                gloss = sense.get("gloss", "") if isinstance(sense, dict) else ""
                if gloss and definition_matches_seed(gloss, seeds):
                    human_index = index
                    break
            if human_index is None or human_index > max_index:
                continue
            gender = _record_gender(record)
            if gender is None:
                report.errors.append(RecordError(line_no, f"no gender for {word!r}"))
                continue
            try:
                entries.append(
                    LexicalEntry(normalize_lemma(word), gender, sources=frozenset({adapter_id}))
                )
            except ValueError as err:
                report.errors.append(RecordError(line_no, str(err)))
    report.n_entries = len(entries)
    return entries, report


def _ingest_dictionary_snapshot(path: Path, adapter_id: str, options: dict):
    """Emit entries for snapshot lemmas whose first definition starts with a seed."""
    seeds = frozenset(
        normalize_lemma(s) for s in options.get("seeds", DEFAULT_DEFINITION_SEEDS)
    )
    report = IngestReport(adapter_id=adapter_id, path=str(path))
    snapshot = DictionarySnapshot.load_jsonl(path)
    entries: list[LexicalEntry] = []
    for line_no, (lemma, definitions) in enumerate(sorted(snapshot.definitions.items()), 1):
        report.n_records += 1
        if not definitions or not definition_matches_seed(definitions[0], seeds):
            continue
        gender = snapshot.genders.get(lemma)
        if gender is None:
            report.errors.append(RecordError(line_no, f"no gender for {lemma!r}"))
            continue
        try:
            entries.append(LexicalEntry(lemma, gender, sources=frozenset({adapter_id})))
        except ValueError as err:
            report.errors.append(RecordError(line_no, str(err)))
    report.n_entries = len(entries)
    return entries, report


# Adapter id -> reader(path, adapter_id, options).
ADAPTERS = {
    "demonette_csv": partial(_ingest_pairs_delimited, delimiter=","),
    "wikidata_tsv": partial(_ingest_pairs_delimited, delimiter="\t"),
    "nhuma_csv": _ingest_nhuma,
    "wiktextract_jsonl": _ingest_wiktextract,
    "dictionary_snapshot": _ingest_dictionary_snapshot,
}
