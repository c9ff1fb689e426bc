"""Adapters that turn lexical-resource dumps into LexicalEntry lists.

`ingest_source` reads every format the same way: one physical line is one
record (a CSV field quoted across lines is not supported), a line that is
empty or only ASCII whitespace is skipped, and every other line counts in
`n_records`. A line the adapter cannot use (invalid UTF-8, bad JSON, a
missing field or one of the wrong type, a short row, a blank lemma) becomes
a per-record error at its 1-based line; an unreadable file raises.

Supported formats:
  demonette_csv       comma-separated masc_lemma,fem_lemma pairs
  wikidata_tsv        tab-separated masc_lemma,fem_lemma pairs
  nhuma_csv           comma-separated lemma,gender,hn_class rows
  wiktextract_jsonl   one JSON object per line: word, senses[] with gloss
                      strings (gender carried in an optional "gender" field
                      or a "tags" list)
  dictionary_snapshot one JSON object per line: lemma, definitions[]
                      (ordered), optional gender; homographs are kept
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .lexicon import (
    DEFAULT_DEFINITION_SEEDS,
    GENDERS,
    LexicalEntry,
    definition_matches_seed,
    normalize_lemma,
)


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


def ingest_source(
    adapter_id: str,
    path: str | Path,
    options: dict | None = None,
) -> tuple[list[LexicalEntry], IngestReport]:
    """Parse each record of `path` with the adapter named by `adapter_id`."""
    make_parser = ADAPTERS.get(adapter_id)
    if make_parser is None:
        raise ValueError(f"unknown adapter: {adapter_id!r}")
    parse = make_parser(frozenset({adapter_id}), options or {})
    report = IngestReport(adapter_id=adapter_id, path=str(path))
    entries: list[LexicalEntry] = []
    with open(path, "rb") as fp:
        for line_no, raw in enumerate(fp, start=1):
            if raw.isspace():
                continue
            report.n_records += 1
            try:
                entries.extend(parse(raw.decode("utf-8")))
            except (ValueError, csv.Error) as err:  # UnicodeDecodeError is a ValueError
                report.errors.append(RecordError(line_no, str(err)))
    report.n_entries = len(entries)
    return entries, report


class _CsvParser:
    """Parses each line with the file's one csv.reader, which is cheaper per
    row than a reader per line. The reader pulls only the line being parsed:
    a quoted field still open at the end of the line ends the row there."""

    def __init__(self, sources: frozenset[str], options: dict, *, delimiter: str,
                 row_entries: Callable[[list[str], frozenset[str]], list[LexicalEntry]]):
        self.sources, self.row_entries = sources, row_entries
        self.line: str | None = None
        self.reader = csv.reader(self, delimiter=delimiter)

    def __iter__(self) -> _CsvParser:
        return self

    def __next__(self) -> str:
        line, self.line = self.line, None
        if line is None:
            raise StopIteration
        return line

    def __call__(self, line: str) -> list[LexicalEntry]:
        self.line = line
        return self.row_entries(next(self.reader, []), self.sources)


def _pair_entries(row: list[str], sources: frozenset[str]) -> list[LexicalEntry]:
    if len(row) < 2:
        raise ValueError(f"expected 2 columns, got {len(row)}")
    masc, fem = normalize_lemma(row[0]), normalize_lemma(row[1])
    entries = []
    if masc:
        entries.append(LexicalEntry(masc, "masculine", sources=sources))
    if fem:
        entries.append(LexicalEntry(fem, "feminine", sources=sources))
    if not entries:
        raise ValueError("both lemmas empty")
    return entries


def _nhuma_entries(row: list[str], sources: frozenset[str]) -> list[LexicalEntry]:
    if all(not cell.strip() for cell in row):
        return []
    if len(row) < 3:
        raise ValueError(f"expected 3 columns, got {len(row)}")
    lemma, gender, hn_class = (cell.strip() for cell in row[:3])
    gender = _GENDER_ALIASES.get(gender.lower())
    if gender is None:
        raise ValueError(f"bad gender {row[1]!r}")
    hn_class = hn_class.lower() or None
    return [LexicalEntry(normalize_lemma(lemma), gender, sources=sources, hn_class=hn_class,
                         class_provenance="human" if hn_class else "none")]


_GENDER_ALIASES = {"m": "masculine", "masc": "masculine", "masculine": "masculine",
                   "f": "feminine", "fem": "feminine", "feminine": "feminine"}


def _alias_or_tag_gender(record: dict) -> str | None:
    gender = _GENDER_ALIASES.get(str(record.get("gender", "")).lower())
    if gender:
        return gender
    tags = record.get("tags", [])
    if not isinstance(tags, list):
        raise ValueError("tags is not a list")
    return next((tag for tag in GENDERS if tag in tags), None)


def _exact_gender(record: dict) -> str | None:
    gender = record.get("gender")
    return gender if gender in GENDERS else None


def _definition_led_parser(sources: frozenset[str], options: dict, *, word_key: str,
                           senses_key: str, gloss_key: str | None,
                           gender_of: Callable[[dict], str | None],
                           default_seeds: frozenset[str], max_index: int):
    """Keep a word whose first seed-led definition (one starting with a seed
    noun after determiner stripping) sits within `max_index`: dictionaries
    list common senses first. A `senses_key` element is the definition, or
    with a `gloss_key` an object holding it (other elements are skipped)."""
    seeds = frozenset(normalize_lemma(s) for s in options.get("seeds", default_seeds))

    def parse(line: str) -> list[LexicalEntry]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"bad JSON: {err.msg}") from None
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
        word, senses = record.get(word_key), record.get(senses_key)
        if not isinstance(word, str) or not word or not isinstance(senses, list):
            raise ValueError(f"missing {word_key} or {senses_key}")
        for sense in senses[:max_index]:
            if gloss_key is not None:
                sense = sense.get(gloss_key, "") if isinstance(sense, dict) else ""
            if not isinstance(sense, str):
                raise ValueError(f"non-string definition in {senses_key}: {sense!r}")
            if sense and definition_matches_seed(sense, seeds):
                break
        else:
            return []
        gender = gender_of(record)
        if gender is None:
            raise ValueError(f"no gender for {word!r}")
        return [LexicalEntry(normalize_lemma(word), gender, sources=sources)]

    return parse


def _wiktextract_parser(sources: frozenset[str], options: dict):
    # Wiktionary-style resources only keep senses whose human-related
    # definition appears among the first two (1-based index <= 2).
    return _definition_led_parser(
        sources, options, word_key="word", senses_key="senses", gloss_key="gloss",
        gender_of=_alias_or_tag_gender, default_seeds=DEFAULT_DEFINITION_SEEDS - {"individu"},
        max_index=int(options.get("max_definition_index", 2)))


# Adapter id -> make_parser(sources, options), called once per file; the
# parser maps one line to its entries or raises ValueError.
ADAPTERS = {
    "demonette_csv": partial(_CsvParser, delimiter=",", row_entries=_pair_entries),
    "wikidata_tsv": partial(_CsvParser, delimiter="\t", row_entries=_pair_entries),
    "nhuma_csv": partial(_CsvParser, delimiter=",", row_entries=_nhuma_entries),
    "wiktextract_jsonl": _wiktextract_parser,
    # The first definition alone decides, and only an exact gender counts.
    "dictionary_snapshot": partial(
        _definition_led_parser, word_key="lemma", senses_key="definitions", gloss_key=None,
        gender_of=_exact_gender,
        default_seeds=DEFAULT_DEFINITION_SEEDS, max_index=1),
}
