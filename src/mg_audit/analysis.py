"""Occurrence counting and bias metrics over analyzed texts.

A candidate occurrence is a NOUN token whose lemma is in the human-noun
database and not stoplisted. Occurrences carry validation verdicts keyed
by the same suffixed ids used in the validation prompts; only accepted
occurrences are counted. The per-text M Score is mg_count / hn_count and
is defined only when the text contains at least one counted human noun.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .conllu import AnnotatedDocument
from .ioutil import read_jsonl, write_jsonl
from .lexicon import HumanNounDB, MGLexicon
from .markers import MarkerLexicon, detect_markers
from .validation import occurrence_ids

VALIDATED_STATES = ("accepted", "rejected", "unvalidated")

CANDIDATE_UPOS = ("NOUN",)


@dataclass(frozen=True)
class Occurrence:
    lemma: str
    form: str
    token_offset: int
    occurrence_id: str
    is_mg: bool
    validated: str = "unvalidated"


def find_candidates(
    doc: AnnotatedDocument,
    db: HumanNounDB,
    stoplist: frozenset[str] | set[str] = frozenset(),
    mg: MGLexicon | None = None,
    neutral_lemmas: frozenset[str] | set[str] = frozenset(),
) -> list[Occurrence]:
    """Candidate human-noun occurrences in textual order.

    Lemmas in `neutral_lemmas` still count as human nouns but are never
    flagged as masculine generics.
    """
    raw: list[tuple[str, str, int]] = []
    for offset, token in enumerate(doc.flat_tokens()):
        if token.upos not in CANDIDATE_UPOS:
            continue
        if token.lemma in stoplist:
            continue
        if db.has_lemma(token.lemma):
            raw.append((token.lemma, token.form, offset))
    ids = occurrence_ids([form for _, form, _ in raw])
    occurrences = []
    for (lemma, form, offset), occ_id in zip(raw, ids):
        is_mg = (
            mg is not None and lemma in mg and lemma not in neutral_lemmas
        )
        occurrences.append(
            Occurrence(
                lemma=lemma,
                form=form,
                token_offset=offset,
                occurrence_id=occ_id,
                is_mg=is_mg,
            )
        )
    return occurrences


@dataclass
class TextAnalysis:
    doc_id: str
    unit_id: str
    hn_count: int
    mg_count: int
    m_score: float | None
    mg_lemmas: tuple[str, ...] = ()
    classes: dict[str, int] = field(default_factory=dict)
    marker_hits: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    unvalidated_count: int = 0

    def __post_init__(self) -> None:
        if self.mg_count > self.hn_count:
            raise ValueError("mg_count cannot exceed hn_count")
        if (self.m_score is None) != (self.hn_count == 0):
            raise ValueError("m_score must be defined iff hn_count > 0")
        if self.m_score is not None and not (0.0 <= self.m_score <= 1.0):
            raise ValueError(f"m_score out of range: {self.m_score}")

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "unit_id": self.unit_id,
            "hn_count": self.hn_count,
            "mg_count": self.mg_count,
            "m_score": self.m_score,
            "mg_lemmas": list(self.mg_lemmas),
            "classes": dict(sorted(self.classes.items())),
            "marker_hits": {
                family: [list(span) for span in spans]
                for family, spans in self.marker_hits.items()
                if spans
            },
            "unvalidated_count": self.unvalidated_count,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TextAnalysis":
        return cls(
            doc_id=record["doc_id"],
            unit_id=record["unit_id"],
            hn_count=record["hn_count"],
            mg_count=record["mg_count"],
            m_score=record["m_score"],
            mg_lemmas=tuple(record.get("mg_lemmas", [])),
            classes=dict(record.get("classes", {})),
            marker_hits={
                family: [tuple(span) for span in spans]
                for family, spans in record.get("marker_hits", {}).items()
            },
            unvalidated_count=record.get("unvalidated_count", 0),
        )


def analyze_text(
    doc: AnnotatedDocument,
    db: HumanNounDB,
    mg: MGLexicon,
    stoplist: frozenset[str] | set[str] = frozenset(),
    verdicts: Mapping[str, int] | None = None,
    marker_lexicon: MarkerLexicon | None = None,
    unit_id: str = "",
    count_unvalidated: bool = False,
) -> TextAnalysis:
    """Count validated human-noun and masculine-generic occurrences in one text.

    `verdicts` maps occurrence ids to 0/1 from the validation step. Ids
    without a verdict follow the unvalidated policy: excluded from the
    counts by default, counted as accepted when `count_unvalidated` is
    set. Rejected occurrences never count.
    """
    neutral = marker_lexicon.neutral_lemmas if marker_lexicon else frozenset()
    candidates = find_candidates(doc, db, stoplist, mg, neutral_lemmas=neutral)
    verdicts = verdicts or {}

    hn_count = 0
    mg_count = 0
    unvalidated = 0
    mg_lemmas: set[str] = set()
    for occurrence in candidates:
        verdict = verdicts.get(occurrence.occurrence_id)
        if verdict is None:
            unvalidated += 1
            accepted = count_unvalidated
        else:
            accepted = verdict == 1
        if not accepted:
            continue
        hn_count += 1
        if occurrence.is_mg:
            mg_count += 1
            mg_lemmas.add(occurrence.lemma)

    classes: Counter[str] = Counter()
    for lemma in mg_lemmas:
        classes[db.class_of(lemma) or "unannotated"] += 1

    marker_hits = (
        detect_markers(doc.text, marker_lexicon) if marker_lexicon else {}
    )
    return TextAnalysis(
        doc_id=doc.doc_id,
        unit_id=unit_id,
        hn_count=hn_count,
        mg_count=mg_count,
        m_score=(mg_count / hn_count) if hn_count > 0 else None,
        mg_lemmas=tuple(sorted(mg_lemmas)),
        classes=dict(classes),
        marker_hits=marker_hits,
        unvalidated_count=unvalidated,
    )


def aggregate_m_scores(analyses: list[TextAnalysis]) -> tuple[float | None, float | None]:
    """Pooled and averaged M Scores over a set of analyses.

    overall = total MG / total HN across texts with at least one human
    noun; mean = average of the defined per-text scores. Both are None
    when no text has a defined score.
    """
    scored = [a for a in analyses if a.hn_count > 0]
    if not scored:
        return None, None
    total_hn = sum(a.hn_count for a in scored)
    total_mg = sum(a.mg_count for a in scored)
    overall = total_mg / total_hn
    mean = sum(a.m_score for a in scored if a.m_score is not None) / len(scored)
    return overall, mean


def bias_rates(analyses: list[TextAnalysis]) -> tuple[float | None, float | None]:
    """Percentage of texts with at least one MG, over all texts and over
    texts containing a human noun."""
    if not analyses:
        return None, None
    n_biased = sum(1 for a in analyses if a.mg_count > 0)
    n_with_hn = sum(1 for a in analyses if a.hn_count > 0)
    rate_all = 100.0 * n_biased / len(analyses)
    rate_with_hn = 100.0 * n_biased / n_with_hn if n_with_hn else None
    return rate_all, rate_with_hn


def marker_rates(analyses: list[TextAnalysis]) -> dict[str, float | None]:
    """Percentage of texts with at least one hit, per marker family."""
    from .markers import MARKER_FAMILIES

    if not analyses:
        return {family: None for family in MARKER_FAMILIES}
    rates = {}
    for family in MARKER_FAMILIES:
        hit = sum(1 for a in analyses if a.marker_hits.get(family))
        rates[family] = 100.0 * hit / len(analyses)
    return rates


def class_frequencies(
    analyses: list[TextAnalysis], db: HumanNounDB
) -> dict[str, int]:
    """Unique masculine-generic lemmas per human-noun class."""
    lemmas: set[str] = set()
    for analysis in analyses:
        lemmas.update(analysis.mg_lemmas)
    frequencies: Counter[str] = Counter()
    for lemma in lemmas:
        frequencies[db.class_of(lemma) or "unannotated"] += 1
    return dict(frequencies)


def save_analyses(analyses: list[TextAnalysis], path: str | Path) -> None:
    write_jsonl(path, (a.to_dict() for a in sorted(analyses, key=lambda a: a.doc_id)))


def load_analyses(path: str | Path) -> list[TextAnalysis]:
    return [TextAnalysis.from_dict(record) for record in read_jsonl(path)]
