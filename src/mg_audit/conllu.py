"""Annotated documents and CoNLL-U input/output.

Corpora arrive pre-annotated (any tagger may produce them): 10-column
CoNLL-U, NER labels carried in the MISC column as NER=<label>, documents
delimited by "# newdoc id = ..." comments. Multiword-token ranges and
empty nodes are skipped; only plain word lines are kept. Other comments,
"# text = ..." included, are ignored: a document's text is rebuilt from
FORM and SpaceAfter=No.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType

from .ioutil import atomic_write_bytes, read_built

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


# AnnotatedToken's slot setters in field order. `read_conllu` builds tokens
# through them, which skips the frozen __init__'s per-field attribute lookups
# and halves the cost of a token. That equals AnnotatedToken(...) only while
# the class has no __post_init__; a test checks it has none.
_TOKEN_SETTERS = tuple(getattr(AnnotatedToken, f.name).__set__ for f in fields(AnnotatedToken))


def _document_text(sentences: Iterable[Sequence[AnnotatedToken]]) -> str:
    """Sentences joined by a space; within one, forms joined by a space
    except where SpaceAfter=No, none after the last."""
    return " ".join([
        "".join([t.form + " " if t.space_after else t.form for t in s[:-1]]) + s[-1].form
        if s else ""
        for s in sentences
    ]).strip()


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

def read_conllu(path: str | Path, dataset_tag: str = "") -> list[AnnotatedDocument]:
    """Every document of a CoNLL-U file, in file order.

    A token is built once per distinct word line, the ID column aside: a
    repeated line of a parsed file reuses the token built for its first
    occurrence, so equal tokens of one parse are one object. Inside
    `ioutil.handoff()`, a file `write_conllu` wrote returns the documents
    it was given, which need not share tokens that way, if its bytes hash
    to what was written and each document's tag is `dataset_tag`; the slot
    is dropped once read. Any other file is streamed, not hashed.
    """
    return read_built(
        path, lambda lines: _parse_conllu(lines, path, dataset_tag), keep=False,
        fits=lambda documents: all(doc.dataset_tag == dataset_tag for doc in documents))


def _parse_conllu(
    lines: Iterable[str], path: str | Path, dataset_tag: str
) -> list[AnnotatedDocument]:
    """The documents of CoNLL-U `lines` read from `path`, tagged `dataset_tag`."""
    (set_form, set_lemma, set_upos, set_feats, set_head, set_deprel, set_ner,
     set_space_after) = _TOKEN_SETTERS
    new = object.__new__
    feats_cache: dict[str, Mapping[str, str]] = {}
    misc_cache: dict[str, tuple[str | None, bool]] = {}
    documents: list[AnnotatedDocument] = []
    doc_id: str | None = None
    seen: set[str] = set()
    sentences: list[tuple[AnnotatedToken, ...]] = []
    current: list[AnnotatedToken] = []
    # Word line text after the ID column -> its token. A key holds nine tabs,
    # so a line that hits it has ten columns and needs no split or check.
    tokens: dict[str, AnnotatedToken] = {}
    for line in lines:
        if line[0] == "#":
            if line.startswith(_NEWDOC):
                if current:
                    sentences.append(tuple(current))
                if doc_id is not None:
                    documents.append(AnnotatedDocument(
                        doc_id, tuple(sentences), dataset_tag, _document_text(sentences)))
                doc_id = line[len(_NEWDOC):].strip()
                if doc_id in seen:
                    raise ValueError(f"{path}: repeated doc id {doc_id!r}")
                seen.add(doc_id)
                sentences = []
                current = []
            continue
        if line.isspace():
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        token_id, _, rest = line.partition("\t")
        token = tokens.get(rest)
        if token is None:
            columns = line.rstrip("\n").split("\t")
            if len(columns) != 10:
                raise ValueError(f"{path}: expected 10 columns, got {len(columns)}")
            if "-" in token_id or "." in token_id:
                continue
            feats = feats_cache.get(columns[5])
            if feats is None:
                feats = feats_cache[columns[5]] = _parse_feats(columns[5])
            misc = misc_cache.get(columns[9])
            if misc is None:
                misc = misc_cache[columns[9]] = _parse_misc(columns[9])
            token = tokens[rest] = new(AnnotatedToken)
            set_form(token, columns[1])
            set_lemma(token, columns[2].lower())
            set_upos(token, columns[3])
            set_feats(token, feats)
            set_head(token, int(columns[6]) if columns[6] != "_" else 0)
            set_deprel(token, columns[7])
            set_ner(token, misc[0])
            set_space_after(token, misc[1])
        elif "-" in token_id or "." in token_id:
            continue
        current.append(token)
    if current:
        sentences.append(tuple(current))
    if doc_id is not None:
        documents.append(
            AnnotatedDocument(doc_id, tuple(sentences), dataset_tag, _document_text(sentences)))
    return documents


def write_conllu(documents: list[AnnotatedDocument], path: str | Path) -> None:
    lines: list[str] = []
    append = lines.append
    # Tokens read from one file share a FEATS mapping per distinct string, so
    # each mapping is formatted once. The documents keep every mapping alive
    # for the whole call, so no id() is reused while the cache lives.
    feats_cache: dict[int, str] = {}
    for doc in documents:
        append(f"# newdoc id = {doc.doc_id}")
        for sentence in doc.sentences:
            for index, token in enumerate(sentence, start=1):
                feats = feats_cache.get(id(token.feats))
                if feats is None:
                    feats = feats_cache[id(token.feats)] = (
                        "|".join(f"{k}={v}" for k, v in sorted(token.feats.items()))
                        or "_"
                    )
                if token.ner:
                    misc = f"NER={token.ner}"
                    if not token.space_after:
                        misc += "|SpaceAfter=No"
                else:
                    misc = "_" if token.space_after else "SpaceAfter=No"
                append(f"{index}\t{token.form}\t{token.lemma}\t{token.upos}\t_\t{feats}"
                       f"\t{token.head}\t{token.deprel}\t_\t{misc}")
            append("")
    data = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    atomic_write_bytes(path, data, built=list(documents))
