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

JARGON_WORDS = frozenset({"oracle", "pythie"})

# How "determiner + human noun" is detected; see filter_document.
DET_ATTACHMENTS = ("dep", "adjacent")


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

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "kept": self.kept,
            "fired_rules": [hit.to_dict() for hit in self.fired_rules],
        }


def _determiner_kind(token) -> str | None:
    if token.upos != "DET" or token.feat("Number") not in (None, "Sing"):
        return None
    if token.feat("Poss") == "Yes":
        return "poss"
    if token.feat("PronType") == "Dem":
        return "dem"
    if token.feat("Definite") == "Def":
        return "def"
    return None


def filter_document(
    doc: AnnotatedDocument,
    mg: MGLexicon,
    hn_db: HumanNounDB,
    given_names: frozenset[str] | set[str],
    det_attachment: str = "dep",
    jargon_dataset_tags: frozenset[str] | set[str] = frozenset({"oracle"}),
) -> tuple[AnnotatedDocument, FilterDecision]:
    """Run the full rule set over one document in a single pass; returns the
    document without its jargon sentences, and the decision.

    given_names holds lowercase forms, as load_wordlist returns them. A
    clean document and one without NER labels look the same here; the
    pipeline checks corpus-wide that the NER layer exists. det_attachment
    selects how "determiner + human noun" is detected: "dep" (the
    determiner's det arc points at the noun, default) or "adjacent" (the
    determiner immediately precedes the noun); the hit detail records which.
    `mg` is not read.

    fired_rules lists the person-name hits first, then the other hits in
    token order, each sentence's jargon hit after its tokens.
    """
    if det_attachment not in DET_ATTACHMENTS:
        raise ValueError(f"unknown det attachment mode: {det_attachment!r}")
    check_jargon = doc.dataset_tag in jargon_dataset_tags
    names: list[RuleHit] = []
    others: list[RuleHit] = []
    drop: set[int] = set()
    offset = 0
    for s_idx, sentence in enumerate(doc.sentences):
        jargon_offsets = []
        for t_idx, token in enumerate(sentence):
            flat = offset + t_idx
            if token.ner == "PER":
                names.append(RuleHit(RULE_PER, (flat,), detail=token.form))
            elif token.ner == "MISC" and token.form.lower() in given_names:
                names.append(RuleHit(RULE_MISC_GIVEN, (flat,), detail=token.form))
            if token.lemma == "qui" and token.feat("PronType") == "Int":
                others.append(RuleHit(RULE_QUI, (flat,), detail=token.form))
            kind = _determiner_kind(token)
            if kind is not None:
                if det_attachment == "dep":
                    noun_idx = token.head - 1 if token.deprel == "det" else -1
                else:
                    noun_idx = t_idx + 1
                if 0 <= noun_idx < len(sentence):
                    noun = sentence[noun_idx].lemma
                    if hn_db.has_lemma(noun):
                        others.append(RuleHit(RULE_DET_HN, (flat, offset + noun_idx),
                                              detail=f"{kind}:{det_attachment}:{noun}"))
            if check_jargon and (
                token.lemma in JARGON_WORDS or token.form.lower() in JARGON_WORDS
            ):
                jargon_offsets.append(flat)
        if jargon_offsets:
            drop.add(s_idx)
            others.append(
                RuleHit(RULE_JARGON, tuple(jargon_offsets), detail=f"sentence:{s_idx}")
            )
        offset += len(sentence)

    hits = names + others
    decision = FilterDecision(
        doc_id=doc.doc_id,
        kept=not any(hit.rule in EXCLUSION_RULES for hit in hits),
        fired_rules=hits,
    )
    if drop:
        doc = doc.without_sentences(drop)
    return doc, decision


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
