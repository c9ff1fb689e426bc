"""Rules removing texts with specific (non-generic) masculine uses.

Exclusion rules drop a document: person names (NER PER, or MISC forms
found in a given-name list), the interrogative pronoun "qui", and a
singular possessive/demonstrative/definite determiner attached to a
human noun. The jargon rule is different: it only shrinks the document by
removing the sentences that contain community jargon. The mg_instruction
rule applies to instructions only: it drops one that contains a
masculine-generic lemma.

Each rule records the flat token offsets that triggered it; a document is
kept iff no exclusion rule fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .conllu import AnnotatedDocument
from .ioutil import write_jsonl
from .lexicon import HumanNounDB, MGLexicon

RULE_PER = "per"
RULE_MISC_GIVEN = "misc_given"
RULE_QUI = "qui_interrogative"
RULE_DET_HN = "det_hn"
RULE_JARGON = "jargon"
RULE_MG_INSTRUCTION = "mg_instruction"

EXCLUSION_RULES = (RULE_PER, RULE_MISC_GIVEN, RULE_QUI, RULE_DET_HN)
GENERIC_RULES = (RULE_QUI, RULE_DET_HN, RULE_JARGON)
ALL_RULES = EXCLUSION_RULES + (RULE_JARGON,)

JARGON_WORDS = frozenset({"oracle", "pythie"})


@dataclass(frozen=True)
class RuleHit:
    rule: str
    tokens: tuple[int, ...]
    detail: str | None = None

    def to_dict(self) -> dict:
        record: dict = {"rule": self.rule, "tokens": list(self.tokens)}
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class FilterDecision:
    doc_id: str
    kept: bool
    fired_rules: list[RuleHit] = field(default_factory=list)
    jargon_sentences: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "kept": self.kept,
            "fired_rules": [hit.to_dict() for hit in self.fired_rules],
        }


def detect_person_names(
    doc: AnnotatedDocument, given_names: frozenset[str] | set[str]
) -> FilterDecision:
    """Fire on NER=PER tokens, or NER=MISC tokens listed as given names.

    A clean document and an un-annotated one look the same at this level;
    the pipeline checks corpus-wide that the NER layer exists before
    enabling this rule.
    """
    names = {n.lower() for n in given_names}
    hits: list[RuleHit] = []
    for offset, token in enumerate(doc.flat_tokens()):
        if token.ner == "PER":
            hits.append(RuleHit(RULE_PER, (offset,), detail=token.form))
        elif token.ner == "MISC" and token.form.lower() in names:
            hits.append(RuleHit(RULE_MISC_GIVEN, (offset,), detail=token.form))
    return FilterDecision(doc_id=doc.doc_id, kept=not hits, fired_rules=hits)


def _is_singular(token) -> bool:
    return token.feat("Number") in (None, "Sing")


def _determiner_kind(token) -> str | None:
    if token.upos != "DET" or not _is_singular(token):
        return None
    if token.feat("Poss") == "Yes":
        return "poss"
    if token.feat("PronType") == "Dem":
        return "dem"
    if token.feat("Definite") == "Def":
        return "def"
    return None


def apply_generic_filters(
    doc: AnnotatedDocument,
    mg: MGLexicon,
    hn_db: HumanNounDB,
    rules: tuple[str, ...] = GENERIC_RULES,
    det_attachment: str = "dep",
    jargon_dataset_tags: frozenset[str] | set[str] = frozenset({"oracle"}),
) -> FilterDecision:
    """Run the grammar-level rules over one document.

    det_attachment selects how "determiner + human noun" is detected:
    "dep" (the determiner's det arc points at the noun, default) or
    "adjacent" (the determiner immediately precedes the noun). The fired
    sub-rule is recorded in the hit detail.
    """
    unknown = set(rules) - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    if det_attachment not in ("dep", "adjacent"):
        raise ValueError(f"unknown det attachment mode: {det_attachment!r}")

    hits: list[RuleHit] = []
    jargon_sentences: list[int] = []
    offset = 0
    for s_idx, sentence in enumerate(doc.sentences):
        for t_idx, token in enumerate(sentence):
            flat = offset + t_idx
            if (
                RULE_QUI in rules
                and token.lemma == "qui"
                and token.feat("PronType") == "Int"
            ):
                hits.append(RuleHit(RULE_QUI, (flat,), detail=token.form))
            if RULE_DET_HN in rules:
                kind = _determiner_kind(token)
                if kind is not None:
                    noun = None
                    noun_idx = None
                    if det_attachment == "dep":
                        if token.deprel == "det" and 1 <= token.head <= len(sentence):
                            candidate = sentence[token.head - 1]
                            if hn_db.has_lemma(candidate.lemma):
                                noun, noun_idx = candidate, token.head - 1
                    else:
                        if t_idx + 1 < len(sentence):
                            candidate = sentence[t_idx + 1]
                            if hn_db.has_lemma(candidate.lemma):
                                noun, noun_idx = candidate, t_idx + 1
                    if noun is not None and noun_idx is not None:
                        hits.append(
                            RuleHit(
                                RULE_DET_HN,
                                (flat, offset + noun_idx),
                                detail=f"{kind}:{det_attachment}:{noun.lemma}",
                            )
                        )
        if RULE_JARGON in rules and doc.dataset_tag in jargon_dataset_tags:
            jargon_offsets = tuple(
                offset + t_idx
                for t_idx, token in enumerate(sentence)
                if token.lemma in JARGON_WORDS or token.form.lower() in JARGON_WORDS
            )
            if jargon_offsets:
                jargon_sentences.append(s_idx)
                hits.append(RuleHit(RULE_JARGON, jargon_offsets, detail=f"sentence:{s_idx}"))
        offset += len(sentence)

    exclusion_hits = [h for h in hits if h.rule in EXCLUSION_RULES]
    return FilterDecision(
        doc_id=doc.doc_id,
        kept=not exclusion_hits,
        fired_rules=hits,
        jargon_sentences=tuple(jargon_sentences),
    )


def strip_jargon(doc: AnnotatedDocument, decision: FilterDecision) -> AnnotatedDocument:
    """Materialize the jargon removal recorded in a decision."""
    if not decision.jargon_sentences:
        return doc
    return doc.without_sentences(set(decision.jargon_sentences))


def filter_document(
    doc: AnnotatedDocument,
    mg: MGLexicon,
    hn_db: HumanNounDB,
    given_names: frozenset[str] | set[str],
    det_attachment: str = "dep",
    jargon_dataset_tags: frozenset[str] | set[str] = frozenset({"oracle"}),
) -> tuple[AnnotatedDocument, FilterDecision]:
    """Full rule set over one document: returns the (possibly shrunk) doc and decision."""
    name_decision = detect_person_names(doc, given_names)
    generic_decision = apply_generic_filters(
        doc,
        mg,
        hn_db,
        det_attachment=det_attachment,
        jargon_dataset_tags=jargon_dataset_tags,
    )
    decision = FilterDecision(
        doc_id=doc.doc_id,
        kept=name_decision.kept and generic_decision.kept,
        fired_rules=name_decision.fired_rules + generic_decision.fired_rules,
        jargon_sentences=generic_decision.jargon_sentences,
    )
    return strip_jargon(doc, decision), decision


def mg_instruction_hit(
    doc: AnnotatedDocument,
    mg: MGLexicon,
    stoplist: frozenset[str] | set[str] = frozenset(),
) -> RuleHit | None:
    """The mg_instruction hit listing the document's masculine-generic
    lemmas, or None when it has none.

    Stoplisted lemmas are not treated as MG hits, mirroring the occurrence
    pipeline.
    """
    offsets = tuple(
        i
        for i, token in enumerate(doc.flat_tokens())
        if token.lemma in mg and token.lemma not in stoplist
    )
    return RuleHit(RULE_MG_INSTRUCTION, offsets) if offsets else None


def remove_mg_instructions(
    instructions: list[AnnotatedDocument],
    mg: MGLexicon,
    stoplist: frozenset[str] | set[str] = frozenset(),
) -> list[AnnotatedDocument]:
    """Drop instructions that fire the mg_instruction rule."""
    return [doc for doc in instructions if mg_instruction_hit(doc, mg, stoplist) is None]


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One lowercase word per line, UTF-8; blank lines and # comments ignored."""
    words = set()
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word.lower())
    return frozenset(words)


def write_filter_report(decisions: list[FilterDecision], path: str | Path) -> None:
    write_jsonl(path, (d.to_dict() for d in sorted(decisions, key=lambda d: d.doc_id)))
