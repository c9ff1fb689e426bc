"""French human-noun lexicon: entries, merged database, masculine-generics subset.

The database is an immutable mapping keyed on (lemma, gender). Lemmas are
NFC-normalized and lowercased so that mixed-case source dumps do not create
false duplicates. Epicene status is computed structurally: a lemma that
exists under both genders with the same surface form is epicene.
"""

from __future__ import annotations

import logging
import unicodedata
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ioutil import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

GENDERS = ("masculine", "feminine")

HN_CLASSES = (
    "profession",
    "demonym",
    "doer",
    "speciality",
    "attribute",
    "relationship",
    "status",
    "title",
    "patient",
    "recipient",
    "other",
)

CLASS_PROVENANCES = ("human", "model", "none")

# Nouns and pronouns that open dictionary definitions of person words.
DEFAULT_DEFINITION_SEEDS = frozenset(
    {"personne", "individu", "quelqu'un", "homme", "femme"}
)

# Leading determiners stripped before the definition-prefix comparison.
_LEADING_DETERMINERS = ("un", "une", "le", "la")
_ELIDED_PREFIX = "l'"


def normalize_lemma(raw: str) -> str:
    """NFC-normalize, lowercase and trim a lemma; straighten curly apostrophes."""
    text = unicodedata.normalize("NFC", raw).strip().lower()
    return text.replace("’", "'")


@dataclass(frozen=True)
class LexicalEntry:
    """One noun lemma with its gender and bookkeeping fields."""

    lemma: str
    gender: str
    epicene: bool = False
    sources: frozenset[str] = frozenset()
    hn_class: str | None = None
    class_provenance: str = "none"

    def __post_init__(self) -> None:
        if not self.lemma or self.lemma != self.lemma.strip():
            raise ValueError(f"invalid lemma: {self.lemma!r}")
        if self.gender not in GENDERS:
            raise ValueError(f"invalid gender: {self.gender!r}")
        if not self.sources:
            raise ValueError(f"entry {self.lemma!r} has no sources")
        if self.hn_class is not None and self.hn_class not in HN_CLASSES:
            raise ValueError(f"invalid hn_class: {self.hn_class!r}")
        if self.class_provenance not in CLASS_PROVENANCES:
            raise ValueError(f"invalid provenance: {self.class_provenance!r}")
        if (self.hn_class is None) != (self.class_provenance == "none"):
            raise ValueError(
                f"entry {self.lemma!r}: hn_class must be set iff provenance != none"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.lemma, self.gender)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "gender": self.gender,
            "epicene": self.epicene,
            "sources": sorted(self.sources),
            "hn_class": self.hn_class,
            "class_provenance": self.class_provenance,
        }


def _read_entries(path: str | Path) -> Iterator[LexicalEntry]:
    """Entries of a lexicon JSONL file; equal `sources` lists share one frozenset."""
    shared: dict[tuple[str, ...], frozenset[str]] = {}
    for record in read_jsonl(path):
        names = tuple(record["sources"])
        sources = shared.get(names)
        if sources is None:
            sources = shared[names] = frozenset(names)
        yield LexicalEntry(
            record["lemma"],
            record["gender"],
            bool(record.get("epicene", False)),
            sources,
            record.get("hn_class"),
            record.get("class_provenance", "none"),
        )


@dataclass(frozen=True)
class MergeConflict:
    """Recorded disagreement between human-provenance class labels."""

    lemma: str
    gender: str
    kept: str
    discarded: str


class HumanNounDB:
    """Deduplicated human-noun database keyed on (lemma, gender)."""

    def __init__(self, entries: Iterable[LexicalEntry] = ()):
        self._entries: dict[tuple[str, str], LexicalEntry] = {}
        for entry in entries:
            key = entry.key
            if key in self._entries:
                raise ValueError(f"duplicate key: {key}")
            self._entries[key] = entry
        self._lemmas = frozenset(lemma for lemma, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return map(self._entries.__getitem__, sorted(self._entries))

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HumanNounDB):
            return NotImplemented
        return self._entries == other._entries

    def get(self, lemma: str, gender: str) -> LexicalEntry | None:
        return self._entries.get((lemma, gender))

    def has_lemma(self, lemma: str) -> bool:
        return lemma in self._lemmas

    @property
    def lemmas(self) -> frozenset[str]:
        return self._lemmas

    def class_of(self, lemma: str) -> str | None:
        """Class label for a lemma, preferring the masculine entry when both exist."""
        for gender in GENDERS:
            entry = self._entries.get((lemma, gender))
            if entry is not None and entry.hn_class is not None:
                return entry.hn_class
        return None

    def save_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, (e.to_dict() for e in self))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "HumanNounDB":
        return cls(_read_entries(path))


class MGLexicon:
    """Masculine, non-epicene subset of a HumanNounDB."""

    def __init__(self, entries: Iterable[LexicalEntry] = ()):
        self._entries: dict[str, LexicalEntry] = {}
        for entry in entries:
            if entry.gender != "masculine" or entry.epicene:
                raise ValueError(f"not a masculine-generic entry: {entry.key}")
            self._entries[entry.lemma] = entry
        self._lemmas = frozenset(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return map(self._entries.__getitem__, sorted(self._entries))

    def __contains__(self, lemma: str) -> bool:
        return lemma in self._lemmas

    @property
    def lemmas(self) -> frozenset[str]:
        return self._lemmas

    def save_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, (e.to_dict() for e in self))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "MGLexicon":
        return cls(_read_entries(path))


@dataclass
class DictionarySnapshot:
    """Pre-extracted dictionary dump: lemma -> ordered definition texts.

    Definition order is preserved from the source; index 0 is the most
    common sense.
    """

    definitions: dict[str, list[str]] = field(default_factory=dict)
    genders: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "DictionarySnapshot":
        definitions: dict[str, list[str]] = {}
        genders: dict[str, str] = {}
        for record in read_jsonl(path):
            lemma = normalize_lemma(record["lemma"])
            definitions[lemma] = list(record["definitions"])
            if record.get("gender") in GENDERS:
                genders[lemma] = record["gender"]
        return cls(definitions=definitions, genders=genders)


def strip_leading_determiner(text: str) -> str:
    """Drop one leading French determiner so the head noun starts the string."""
    lowered = normalize_lemma(text)
    if lowered.startswith(_ELIDED_PREFIX):
        return lowered[len(_ELIDED_PREFIX):]
    head, _, rest = lowered.partition(" ")
    if head in _LEADING_DETERMINERS and rest:
        return rest
    return lowered


def definition_head(definition: str) -> str:
    """First token of a definition after determiner stripping."""
    stripped = strip_leading_determiner(definition)
    head = stripped.split(None, 1)[0] if stripped.split() else ""
    return head.rstrip(",.;:")


def definition_matches_seed(definition: str, seeds: frozenset[str] | set[str]) -> bool:
    return definition_head(definition) in seeds


def recursive_definition_search(
    snapshot: DictionarySnapshot,
    seeds: set[str],
    max_depth: int = 2,
) -> set[str]:
    """Collect lemmas whose first definition starts with a seed, breadth-first.

    Lemmas accepted at one level act as seeds for the next, up to
    max_depth levels. The original seeds are not part of the result.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    normalized_seeds = {normalize_lemma(s) for s in seeds}

    heads = {
        lemma: definition_head(defs[0])
        for lemma, defs in snapshot.definitions.items()
        if defs
    }

    accepted: set[str] = set()
    frontier = set(normalized_seeds)
    for _ in range(max_depth):
        if not frontier:
            break
        found = {
            lemma
            for lemma, head in heads.items()
            if head in frontier and lemma not in accepted and lemma not in normalized_seeds
        }
        accepted |= found
        frontier = found
    return accepted


def merge_lexicons(parts: list[list[LexicalEntry]]) -> tuple[HumanNounDB, list[MergeConflict]]:
    """Merge entry lists into one database.

    Duplicates on (lemma, gender) are collapsed: sources are unioned and
    class labels resolved by provenance priority human > model > none.
    Conflicting human-provenance labels keep the first-listed one and are
    returned as recorded conflicts. Epicene flags are recomputed from
    gender-pair identity after the merge.
    """
    merged: dict[tuple[str, str], LexicalEntry] = {}
    conflicts: list[MergeConflict] = []
    rank = {"human": 2, "model": 1, "none": 0}

    for part in parts:
        for entry in part:
            key = entry.key
            current = merged.get(key)
            if current is None:
                merged[key] = entry
                continue
            sources = current.sources | entry.sources
            keep, other = current, entry
            if rank[entry.class_provenance] > rank[current.class_provenance]:
                keep, other = entry, current
            if (
                keep.class_provenance == "human"
                and other.class_provenance == "human"
                and keep.hn_class != other.hn_class
            ):
                conflicts.append(
                    MergeConflict(
                        lemma=entry.lemma,
                        gender=entry.gender,
                        kept=str(keep.hn_class),
                        discarded=str(other.hn_class),
                    )
                )
                logger.warning(
                    "conflicting human class labels for %s: kept %s, discarded %s",
                    key,
                    keep.hn_class,
                    other.hn_class,
                )
            merged[key] = replace(keep, sources=frozenset(sources))

    # Epicene: same lemma present under both genders.
    final = []
    for entry in merged.values():
        both = all((entry.lemma, g) in merged for g in GENDERS)
        final.append(entry if entry.epicene == both else replace(entry, epicene=both))
    return HumanNounDB(final), conflicts


def extract_mg_subset(db: HumanNounDB) -> MGLexicon:
    """Masculine non-epicene entries of the database."""
    return MGLexicon(
        entry for entry in db if entry.gender == "masculine" and not entry.epicene
    )


def annotate_classes(
    db: HumanNounDB,
    gold: Mapping[str, str],
    predicted: Mapping[str, str],
    mapping: Mapping[str, str],
) -> HumanNounDB:
    """Attach class labels: gold labels win, model predictions fill the gaps.

    `predicted` holds raw model labels translated through `mapping`; a raw
    label missing from the mapping is a configuration error.
    """
    unmapped = {raw for raw in predicted.values() if raw not in mapping}
    if unmapped:
        raise KeyError(f"unmapped raw class labels: {sorted(unmapped)}")

    gold_norm = {normalize_lemma(k): v for k, v in gold.items()}
    pred_norm = {normalize_lemma(k): mapping[v] for k, v in predicted.items()}

    annotated = []
    for entry in db:
        if entry.lemma in gold_norm:
            annotated.append(
                replace(entry, hn_class=gold_norm[entry.lemma], class_provenance="human")
            )
        elif entry.class_provenance == "human":
            # Pre-existing human labels (e.g. carried by a source) are kept.
            annotated.append(entry)
        elif entry.lemma in pred_norm:
            annotated.append(
                replace(entry, hn_class=pred_norm[entry.lemma], class_provenance="model")
            )
        else:
            annotated.append(entry)
    return HumanNounDB(annotated)
