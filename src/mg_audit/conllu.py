"""Annotated documents and CoNLL-U input/output.

Corpora arrive pre-annotated (any tagger may produce them): 10-column
CoNLL-U, NER labels carried in the MISC column as NER=<label>, documents
delimited by "# newdoc id = ..." comments. Multiword-token ranges and
empty nodes are skipped; only plain word lines are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .ioutil import atomic_write_text

NER_LABELS = ("PER", "MISC", "ORG", "LOC")


@dataclass(frozen=True)
class AnnotatedToken:
    form: str
    lemma: str
    upos: str
    feats: dict[str, str] = field(default_factory=dict)
    head: int = 0
    deprel: str = "dep"
    ner: str | None = None
    space_after: bool = True

    def feat(self, name: str) -> str | None:
        return self.feats.get(name)


@dataclass(frozen=True)
class AnnotatedDocument:
    doc_id: str
    sentences: tuple[tuple[AnnotatedToken, ...], ...]
    dataset_tag: str = ""
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            object.__setattr__(self, "text", self.reconstruct_text())

    def flat_tokens(self) -> list[AnnotatedToken]:
        return [token for sentence in self.sentences for token in sentence]

    def reconstruct_text(self) -> str:
        parts: list[str] = []
        for sentence in self.sentences:
            for i, token in enumerate(sentence):
                parts.append(token.form)
                last = i == len(sentence) - 1
                if token.space_after and not last:
                    parts.append(" ")
            parts.append(" ")
        return "".join(parts).strip()

    def without_sentences(self, drop: set[int]) -> "AnnotatedDocument":
        """Copy with the given sentence indices removed and text rebuilt."""
        kept = tuple(s for i, s in enumerate(self.sentences) if i not in drop)
        doc = replace(self, sentences=kept, text="")
        return doc


def _parse_feats(raw: str) -> dict[str, str]:
    if raw in ("_", ""):
        return {}
    feats = {}
    for item in raw.split("|"):
        key, _, value = item.partition("=")
        if key:
            feats[key] = value
    return feats


def _parse_misc(raw: str) -> tuple[str | None, bool]:
    ner = None
    space_after = True
    if raw not in ("_", ""):
        for item in raw.split("|"):
            key, _, value = item.partition("=")
            if key == "NER" and value in NER_LABELS:
                ner = value
            elif key == "SpaceAfter" and value == "No":
                space_after = False
    return ner, space_after


def read_conllu(path: str | Path, dataset_tag: str = "") -> list[AnnotatedDocument]:
    documents: list[AnnotatedDocument] = []
    doc_id: str | None = None
    doc_text = ""
    sentences: list[tuple[AnnotatedToken, ...]] = []
    current: list[AnnotatedToken] = []

    def flush_sentence() -> None:
        nonlocal current
        if current:
            sentences.append(tuple(current))
            current = []

    def flush_document() -> None:
        nonlocal sentences, doc_text, doc_id
        flush_sentence()
        if doc_id is not None:
            documents.append(
                AnnotatedDocument(
                    doc_id=doc_id,
                    sentences=tuple(sentences),
                    dataset_tag=dataset_tag,
                    text=doc_text,
                )
            )
        sentences = []
        doc_text = ""

    with open(path, encoding="utf-8") as fp:
        for raw_line in fp:
            line = raw_line.rstrip("\n")
            if line.startswith("# newdoc id = "):
                flush_document()
                doc_id = line[len("# newdoc id = "):].strip()
                continue
            if line.startswith("# text = "):
                continue
            if line.startswith("#"):
                continue
            if not line.strip():
                flush_sentence()
                continue
            columns = line.split("\t")
            if len(columns) != 10:
                raise ValueError(f"{path}: expected 10 columns, got {len(columns)}")
            token_id = columns[0]
            if "-" in token_id or "." in token_id:
                continue
            ner, space_after = _parse_misc(columns[9])
            current.append(
                AnnotatedToken(
                    form=columns[1],
                    lemma=columns[2].lower(),
                    upos=columns[3],
                    feats=_parse_feats(columns[5]),
                    head=int(columns[6]) if columns[6] != "_" else 0,
                    deprel=columns[7],
                    ner=ner,
                    space_after=space_after,
                )
            )
    flush_document()
    return documents


def write_conllu(documents: list[AnnotatedDocument], path: str | Path) -> None:
    lines: list[str] = []
    for doc in documents:
        lines.append(f"# newdoc id = {doc.doc_id}")
        for sentence in doc.sentences:
            for index, token in enumerate(sentence, start=1):
                feats = (
                    "|".join(f"{k}={v}" for k, v in sorted(token.feats.items()))
                    or "_"
                )
                misc_items = []
                if token.ner:
                    misc_items.append(f"NER={token.ner}")
                if not token.space_after:
                    misc_items.append("SpaceAfter=No")
                misc = "|".join(misc_items) or "_"
                lines.append(
                    "\t".join(
                        [
                            str(index),
                            token.form,
                            token.lemma,
                            token.upos,
                            "_",
                            feats,
                            str(token.head),
                            token.deprel,
                            "_",
                            misc,
                        ]
                    )
                )
            lines.append("")
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")
