import json
import multiprocessing
from pathlib import Path

import pytest

from mg_audit.conllu import AnnotatedDocument, AnnotatedToken
from mg_audit.lexicon import LexicalEntry, merge_lexicons, extract_mg_subset

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "mini"

# Exchange-store lines that are valid JSON but no exchange record, each made
# from the good line it replaces.
MISFIT_LINES = {
    "missing-fields": lambda line: '{"instruction_id": "i1", "model_id": "m"}',
    "not-an-object": lambda line: "[1, 2]",
    "unknown-key": lambda line: json.dumps({**json.loads(line), "extra": 1}),
}


def tok(form, lemma=None, upos="NOUN", feats=None, head=0, deprel="dep", ner=None):
    return AnnotatedToken(
        form=form,
        lemma=(lemma if lemma is not None else form.lower()),
        upos=upos,
        feats=feats or {},
        head=head,
        deprel=deprel,
        ner=ner,
    )


def doc(doc_id, sentences, dataset_tag=""):
    return AnnotatedDocument(
        doc_id=doc_id,
        sentences=tuple(tuple(s) for s in sentences),
        dataset_tag=dataset_tag,
    )


def lexicon_from_pairs(*pairs):
    """pairs: (lemma, gender) or (lemma, gender, hn_class)."""
    entries = []
    for pair in pairs:
        lemma, gender = pair[0], pair[1]
        hn_class = pair[2] if len(pair) > 2 else None
        entries.append(
            LexicalEntry(
                lemma=lemma,
                gender=gender,
                sources=frozenset({"test"}),
                hn_class=hn_class,
                class_provenance="human" if hn_class else "none",
            )
        )
    db, _ = merge_lexicons([entries])
    return db, extract_mg_subset(db)


@pytest.fixture()
def toy_lexicon():
    return lexicon_from_pairs(
        ("médecin", "masculine", "profession"),
        ("avocat", "masculine", "profession"),
        ("avocate", "feminine"),
        ("chanteur", "masculine", "doer"),
        ("chanteuse", "feminine"),
        ("artiste", "masculine"),
        ("artiste", "feminine"),
        ("personne", "feminine"),
        ("boulanger", "masculine", "profession"),
        ("citoyen", "masculine", "status"),
    )


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live multiprocessing child, such as a GBT
    split-search worker; the child is stopped first."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child process(es) left running: {[child.name for child in left]}")
