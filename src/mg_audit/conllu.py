"""Annotated documents and CoNLL-U input/output.

Corpora arrive pre-annotated (any tagger may produce them): 10-column
CoNLL-U, NER labels carried in the MISC column as NER=<label>, documents
delimited by "# newdoc id = ..." comments. Multiword-token ranges and
empty nodes are skipped; only plain word lines are kept. Other comments,
"# text = ..." included, are ignored: a document's text is rebuilt from
FORM and SpaceAfter=No.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, TypeVar

from .ioutil import atomic_write_text

NER_LABELS = ("PER", "MISC", "ORG", "LOC")


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    form: str
    lemma: str
    upos: str
    feats: Mapping[str, str] = field(default_factory=dict)
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
        return _document_text(self.sentences)

    def without_sentences(self, drop: set[int]) -> "AnnotatedDocument":
        """Copy with the given sentence indices removed and text rebuilt."""
        kept = tuple(s for i, s in enumerate(self.sentences) if i not in drop)
        doc = replace(self, sentences=kept, text="")
        return doc


def _sentence_text(sentence: Sequence[AnnotatedToken]) -> str:
    """Forms joined by a space except where SpaceAfter=No, none after the last."""
    if not sentence:
        return ""
    *head, last = sentence
    return "".join([t.form + " " if t.space_after else t.form for t in head]) + last.form


def _document_text(sentences: Iterable[Sequence[AnnotatedToken]]) -> str:
    return " ".join([_sentence_text(s) for s in sentences]).strip()


def _parse_feats(raw: str) -> Mapping[str, str]:
    """Read-only FEATS mapping, so one parse can be shared by many tokens."""
    feats = {}
    if raw not in ("_", ""):
        for item in raw.split("|"):
            key, _, value = item.partition("=")
            if key:
                feats[key] = value
    return MappingProxyType(feats)


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


_NEWDOC = "# newdoc id = "

_Item = TypeVar("_Item")
_Doc = TypeVar("_Doc")


def _read_documents(
    path: str | Path,
    word: Callable[[list[str]], _Item],
    document: Callable[[str, list[tuple[_Item, ...]]], _Doc],
) -> list[_Doc]:
    """The reader loop shared by `read_conllu` and `read_texts`.

    `word` turns the 10 columns of a word line into one item; `document`
    turns a document id and its sentences into one result.
    """
    documents: list[_Doc] = []
    doc_id: str | None = None
    sentences: list[tuple[_Item, ...]] = []
    current: list[_Item] = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line[0] == "#":
                if line.startswith(_NEWDOC):
                    if current:
                        sentences.append(tuple(current))
                    if doc_id is not None:
                        documents.append(document(doc_id, sentences))
                    doc_id = line[len(_NEWDOC):].strip()
                    sentences = []
                    current = []
                continue
            if line.isspace():
                if current:
                    sentences.append(tuple(current))
                    current = []
                continue
            columns = line.rstrip("\n").split("\t")
            if len(columns) != 10:
                raise ValueError(f"{path}: expected 10 columns, got {len(columns)}")
            token_id = columns[0]
            if "-" in token_id or "." in token_id:
                continue
            current.append(word(columns))
    if current:
        sentences.append(tuple(current))
    if doc_id is not None:
        documents.append(document(doc_id, sentences))
    return documents


def read_conllu(path: str | Path, dataset_tag: str = "") -> list[AnnotatedDocument]:
    feats_cache: dict[str, Mapping[str, str]] = {}
    misc_cache: dict[str, tuple[str | None, bool]] = {}

    def token(columns: list[str]) -> AnnotatedToken:
        feats = feats_cache.get(columns[5])
        if feats is None:
            feats = feats_cache[columns[5]] = _parse_feats(columns[5])
        misc = misc_cache.get(columns[9])
        if misc is None:
            misc = misc_cache[columns[9]] = _parse_misc(columns[9])
        return AnnotatedToken(
            columns[1],
            columns[2].lower(),
            columns[3],
            feats,
            int(columns[6]) if columns[6] != "_" else 0,
            columns[7],
            misc[0],
            misc[1],
        )

    def document(doc_id: str, sentences: list[tuple[AnnotatedToken, ...]]) -> AnnotatedDocument:
        return AnnotatedDocument(doc_id, tuple(sentences), dataset_tag, _document_text(sentences))

    return _read_documents(path, token, document)


class _Word(NamedTuple):
    form: str
    space_after: bool


def read_texts(path: str | Path) -> list[tuple[str, str]]:
    """(doc id, text) per document, the text rebuilt as `read_conllu` does.

    Only FORM and the SpaceAfter flag of each word line are kept, so no
    token is built; the line checks are those of `read_conllu`.
    """
    return _read_documents(
        path,
        lambda columns: _Word(columns[1], _parse_misc(columns[9])[1]),
        lambda doc_id, sentences: (doc_id, _document_text(sentences)),
    )


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
