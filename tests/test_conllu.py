import dataclasses

import pytest
from conftest import DATA_DIR, doc, tok

from mg_audit.conllu import (
    NER_LABELS,
    AnnotatedDocument,
    AnnotatedToken,
    read_conllu,
    read_texts,
    write_conllu,
)

SAMPLE = """\
# newdoc id = d1
# text = Qui a inventé le téléphone ?
1\tQui\tqui\tPRON\t_\tPronType=Int\t3\tnsubj\t_\t_
2\ta\tavoir\tAUX\t_\t_\t3\taux\t_\t_
3\tinventé\tinventer\tVERB\t_\t_\t0\troot\t_\t_
4\tle\tle\tDET\t_\tDefinite=Def|Number=Sing\t5\tdet\t_\t_
5\ttéléphone\ttéléphone\tNOUN\t_\tNumber=Sing\t3\tobj\t_\t_
6\t?\t?\tPUNCT\t_\t_\t3\tpunct\t_\t_

# newdoc id = d2
1\tMarie\tMarie\tPROPN\t_\t_\t2\tnsubj\t_\tNER=PER
2\tchante\tchanter\tVERB\t_\t_\t0\troot\t_\tSpaceAfter=No
3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_

"""


class TestReader:
    def test_documents_and_tokens(self, tmp_path):
        path = tmp_path / "c.conllu"
        path.write_text(SAMPLE, encoding="utf-8")
        docs = read_conllu(path, dataset_tag="demo")
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[0].dataset_tag == "demo"
        qui = docs[0].sentences[0][0]
        assert qui.lemma == "qui"
        assert qui.feat("PronType") == "Int"
        assert docs[1].sentences[0][0].ner == "PER"

    def test_space_after(self, tmp_path):
        path = tmp_path / "c.conllu"
        path.write_text(SAMPLE, encoding="utf-8")
        docs = read_conllu(path)
        assert docs[0].text == "Qui a inventé le téléphone ?"
        assert docs[1].text == "Marie chante."

    def test_multiword_ranges_skipped(self, tmp_path):
        text = (
            "# newdoc id = d1\n"
            "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
            "2\tle\tle\tDET\t_\t_\t3\tdet\t_\t_\n"
            "3\tpain\tpain\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        )
        path = tmp_path / "c.conllu"
        path.write_text(text, encoding="utf-8")
        docs = read_conllu(path)
        assert [t.form for t in docs[0].flat_tokens()] == ["de", "le", "pain"]


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        original = [
            doc(
                "a1",
                [
                    [
                        tok("Le", "le", "DET", {"Definite": "Def", "Number": "Sing"},
                            head=2, deprel="det"),
                        tok("chat", "chat", "NOUN", {"Number": "Sing"}, head=0,
                            deprel="root"),
                    ],
                    [
                        tok("Camille", "Camille", "PROPN", ner="MISC"),
                        tok("dort", "dormir", "VERB"),
                    ],
                ],
                dataset_tag="x",
            )
        ]
        path = tmp_path / "out.conllu"
        write_conllu(original, path)
        loaded = read_conllu(path, dataset_tag="x")
        assert len(loaded) == 1
        assert loaded[0].doc_id == "a1"
        assert len(loaded[0].sentences) == 2
        flat = loaded[0].flat_tokens()
        assert [t.form for t in flat] == ["Le", "chat", "Camille", "dort"]
        assert flat[0].feats == {"Definite": "Def", "Number": "Sing"}
        assert flat[2].ner == "MISC"
        assert loaded[0].text == original[0].text

    def test_text_reconstruction_uses_space_after(self):
        d = doc(
            "t",
            [[tok("Bonjour", "bonjour", "INTJ"),
              tok("!", "!", "PUNCT")]],
        )
        # default space_after=True between tokens
        assert d.text == "Bonjour !"


def _reference_read_conllu(path, dataset_tag=""):
    """The reader before parse caches and shared tokens, kept as the oracle."""

    def parse_feats(raw):
        if raw in ("_", ""):
            return {}
        feats = {}
        for item in raw.split("|"):
            key, _, value = item.partition("=")
            if key:
                feats[key] = value
        return feats

    def parse_misc(raw):
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

    def text_of(sentences):
        parts = []
        for sentence in sentences:
            for i, token in enumerate(sentence):
                parts.append(token.form)
                last = i == len(sentence) - 1
                if token.space_after and not last:
                    parts.append(" ")
            parts.append(" ")
        return "".join(parts).strip()

    documents = []
    doc_id = None
    sentences = []
    current = []

    def flush_sentence():
        nonlocal current
        if current:
            sentences.append(tuple(current))
            current = []

    def flush_document():
        nonlocal sentences
        flush_sentence()
        if doc_id is not None:
            documents.append(
                AnnotatedDocument(
                    doc_id=doc_id,
                    sentences=tuple(sentences),
                    dataset_tag=dataset_tag,
                    text=text_of(sentences),
                )
            )
        sentences = []

    with open(path, encoding="utf-8") as fp:
        for raw_line in fp:
            line = raw_line.rstrip("\n")
            if line.startswith("# newdoc id = "):
                flush_document()
                doc_id = line[len("# newdoc id = "):].strip()
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
            ner, space_after = parse_misc(columns[9])
            current.append(
                AnnotatedToken(
                    form=columns[1],
                    lemma=columns[2].lower(),
                    upos=columns[3],
                    feats=parse_feats(columns[5]),
                    head=int(columns[6]) if columns[6] != "_" else 0,
                    deprel=columns[7],
                    ner=ner,
                    space_after=space_after,
                )
            )
    flush_document()
    return documents


def _line(*columns):
    return "\t".join(columns) + "\n"


# Each case is one file body; every one must read as the reference reads it.
EDGE_CASES = {
    "sample": SAMPLE,
    "range_and_empty_node": (
        "# newdoc id = r\n"
        + _line("1-2", "du", "_", "_", "_", "_", "_", "_", "_", "_")
        + _line("1", "de", "de", "ADP", "_", "_", "3", "case", "_", "_")
        + _line("2", "le", "le", "DET", "_", "Definite=Def", "3", "det", "_", "_")
        + _line("2.1", "pain", "pain", "NOUN", "_", "_", "_", "_", "_", "_")
        + _line("3", "pain", "pain", "NOUN", "_", "Number=Sing", "0", "root", "_", "_")
        + _line("4-5", "de", "de", "ADP", "_", "_", "3", "case", "_", "_")
        + "\n"
    ),
    "space_after_no_at_sentence_end": (
        "# newdoc id = s\n"
        + _line("1", "Fin", "fin", "NOUN", "_", "_", "0", "root", "_", "SpaceAfter=No")
        + "\n"
        + _line("1", "Suite", "suite", "NOUN", "_", "_", "0", "root", "_", "SpaceAfter=No")
        + _line("2", "!", "!", "PUNCT", "_", "_", "1", "punct", "_", "SpaceAfter=No")
        + "\n"
    ),
    "non_ner_misc": (
        "# newdoc id = m\n"
        + _line("1", "Paris", "Paris", "PROPN", "_", "_", "0", "root", "_",
                "Translit=Paris|NER=GPE")
        + _line("2", "Anne", "Anne", "PROPN", "_", "_", "1", "flat", "_",
                "NER=MISC|SpaceAfter=No|Gloss=x")
        + _line("3", "y", "y", "X", "_", "Foreign=Yes|=bad|Empty=", "1", "dep", "_", "NER")
        + "\n"
    ),
    "text_comments_ignored": (
        "# newdoc id = t\n# sent_id = 1\n# text = Autre chose entièrement .\n"
        + _line("1", "Bonjour", "Bonjour", "INTJ", "_", "_", "0", "root", "_", "_")
        + "\n# newdoc id =  t2  \n# text =\n#\n"
        + _line("1", "Salut", "salut", "INTJ", "_", "_", "0", "root", "_", "_")
        + "\n"
    ),
    "whitespace_only_lines": (
        "# newdoc id = w\n"
        + _line("1", "Un", "un", "NUM", "_", "_", "0", "root", "_", "_")
        + "   \n"
        + _line("1", "Deux", "deux", "NUM", "_", "_", "0", "root", "_", "_")
        + "\t" * 9 + "\n"
        + _line("1", "Trois", "trois", "NUM", "_", "_", "0", "root", "_", "_")
        + "\n\n\n"
    ),
    "spaces_in_forms": (
        "# newdoc id = sp\n"
        + _line("1", " Bon", "bon", "ADJ", "_", "_", "2", "amod", "_", "_")
        + _line("2", "jour ", "jour", "NOUN", "_", "_", "0", "root", "_", "_")
        + "\n"
    ),
    "no_trailing_newline": (
        "# newdoc id = n\n"
        + _line("1", "Dernier", "dernier", "ADJ", "_", "_", "0", "root", "_", "_")
        + _line("2", "mot", "mot", "NOUN", "_", "_", "1", "dep", "_", "_").rstrip("\n")
    ),
    "shared_feats_and_misc": (
        "# newdoc id = a\n"
        + _line("1", "le", "le", "DET", "_", "Definite=Def", "2", "det", "_", "_")
        + _line("2", "chat", "chat", "NOUN", "_", "Number=Sing", "0", "root", "_", "NER=ORG")
        + "\n# newdoc id = b\n"
        + _line("1", "la", "le", "DET", "_", "Definite=Def", "2", "det", "_", "_")
        + _line("2", "Chatte", "Chatte", "NOUN", "_", "Number=Sing", "0", "root", "_", "NER=ORG")
        + "\n"
    ),
    "tokens_before_first_document": (
        _line("1", "Perdu", "perdu", "ADJ", "_", "_", "0", "root", "_", "_")
        + "\n# newdoc id = e\n# newdoc id = f\n"
        + _line("1", "Trouvé", "trouvé", "ADJ", "_", "_", "0", "root", "_", "_")
    ),
    "crlf": "# newdoc id = c\r\n" + _line("1", "Oui", "oui", "INTJ", "_", "_", "0", "root",
                                          "_", "_").replace("\n", "\r\n") + "\r\n",
}


def _write(tmp_path, body, name="c.conllu"):
    path = tmp_path / name
    path.write_bytes(body.encode("utf-8"))
    return path


class TestReaderEquivalence:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, tmp_path, case):
        path = _write(tmp_path, EDGE_CASES[case])
        expected = _reference_read_conllu(path, dataset_tag="x")
        assert expected  # every case holds at least one document
        assert read_conllu(path, dataset_tag="x") == expected
        assert read_texts(path) == [(d.doc_id, d.text) for d in expected]

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("corpus/*.conllu")),
                             ids=lambda p: p.stem)
    def test_mini_corpus(self, path):
        expected = _reference_read_conllu(path, dataset_tag=path.stem)
        docs = read_conllu(path, dataset_tag=path.stem)
        assert docs == expected
        assert [d.text for d in docs] == [d.reconstruct_text() for d in docs]
        assert read_texts(path) == [(d.doc_id, d.text) for d in docs]

    @pytest.mark.parametrize("reader", [read_conllu, read_texts, _reference_read_conllu])
    @pytest.mark.parametrize("columns", [9, 11])
    def test_wrong_column_count_names_path(self, tmp_path, reader, columns):
        body = (
            "# newdoc id = d\n"
            + _line("1", "ok", "ok", "X", "_", "_", "0", "root", "_", "_")
            + "\t".join(["2", "court", "court", "ADJ", "_", "_", "1", "amod", "_", "_"][:columns]
                        + ["_"] * (columns - 10))
            + "\n"
        )
        path = _write(tmp_path, body, name="bad.conllu")
        with pytest.raises(ValueError, match=f"bad.conllu: expected 10 columns, got {columns}"):
            reader(path)


class TestTokenImmutability:
    def test_replace_still_works(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        token = read_conllu(path)[1].sentences[0][0]
        glued = dataclasses.replace(token, space_after=False)
        assert glued.space_after is False and token.space_after is True
        assert (glued.form, glued.ner, glued.feats) == (token.form, token.ner, token.feats)

    def test_fields_cannot_be_assigned(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        token = read_conllu(path)[0].sentences[0][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.form = "Quoi"
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.feats = {}

    def test_shared_feats_cannot_be_mutated(self, tmp_path):
        body = (
            "# newdoc id = f\n"
            + _line("1", "chat", "chat", "NOUN", "_", "Number=Sing", "0", "root", "_", "_")
            + _line("2", "chien", "chien", "NOUN", "_", "Number=Sing", "1", "conj", "_", "_")
            + "\n"
        )
        chat, chien = read_conllu(_write(tmp_path, body))[0].sentences[0]
        assert chat.feats is chien.feats
        with pytest.raises(TypeError):
            chat.feats["Number"] = "Plur"
        with pytest.raises(AttributeError):
            chat.feats.clear()
        assert chien.feat("Number") == "Sing"
        assert chat.feats == {"Number": "Sing"}


def _reference_write_conllu(documents, path):
    """The writer before the per-mapping FEATS cache, kept as the oracle."""
    lines = []
    for d in documents:
        lines.append(f"# newdoc id = {d.doc_id}")
        for sentence in d.sentences:
            for index, token in enumerate(sentence, start=1):
                feats = "|".join(f"{k}={v}" for k, v in sorted(token.feats.items())) or "_"
                misc_items = []
                if token.ner:
                    misc_items.append(f"NER={token.ner}")
                if not token.space_after:
                    misc_items.append("SpaceAfter=No")
                misc = "|".join(misc_items) or "_"
                lines.append("\t".join([str(index), token.form, token.lemma, token.upos, "_",
                                        feats, str(token.head), token.deprel, "_", misc]))
            lines.append("")
    path.write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")


class TestWriterEquivalence:
    def _assert_same_bytes(self, tmp_path, documents):
        write_conllu(documents, tmp_path / "new.conllu")
        _reference_write_conllu(documents, tmp_path / "ref.conllu")
        assert (tmp_path / "new.conllu").read_bytes() == (tmp_path / "ref.conllu").read_bytes()

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("corpus/*.conllu")),
                             ids=lambda p: p.stem)
    def test_mini_corpus(self, tmp_path, path):
        self._assert_same_bytes(tmp_path, read_conllu(path, dataset_tag=path.stem))

    def test_empty_single_and_multi_key_feats(self, tmp_path):
        shared = {"Number": "Sing", "Gender": "Fem", "Definite": "Def"}
        documents = [
            doc("f1", [[
                tok("la", "le", "DET", feats=shared),
                tok("porte", "porte", "NOUN", feats={"Number": "Sing"}),
                tok("ouverte", "ouvert", "ADJ"),
            ], [
                tok("une", "un", "DET", feats=shared),
                tok("table", "table", "NOUN", feats={"Gender": "Fem", "Number": "Sing"}),
            ]]),
            doc("f2", [[tok("ici", "ici", "ADV", feats={})]]),
            doc("f3", []),
        ]
        self._assert_same_bytes(tmp_path, documents)

    def test_no_documents(self, tmp_path):
        self._assert_same_bytes(tmp_path, [])
