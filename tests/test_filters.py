import random

import pytest

from conftest import doc, lexicon_from_pairs, tok

from mg_audit.filters import (
    RULE_DET_HN,
    RULE_JARGON,
    RULE_MISC_GIVEN,
    RULE_PER,
    RULE_QUI,
    apply_generic_filters,
    detect_person_names,
    filter_document,
    remove_mg_instructions,
    strip_jargon,
)

GIVEN_NAMES = frozenset({"camille", "dominique"})


class TestPersonNames:
    def test_per_label_fires(self):
        d = doc("x", [[tok("Marie", "Marie", "PROPN", ner="PER"), tok("chante", "chanter", "VERB")]])
        decision = detect_person_names(d, GIVEN_NAMES)
        assert not decision.kept
        assert decision.fired_rules[0].rule == RULE_PER

    def test_misc_with_given_name_fires(self):
        d = doc("x", [[tok("Camille", "Camille", "PROPN", ner="MISC")]])
        decision = detect_person_names(d, GIVEN_NAMES)
        assert not decision.kept
        assert decision.fired_rules[0].rule == RULE_MISC_GIVEN

    def test_misc_not_in_list_passes(self):
        d = doc("x", [[tok("Paris", "Paris", "PROPN", ner="MISC")]])
        assert detect_person_names(d, GIVEN_NAMES).kept

    def test_clean_document_kept(self):
        d = doc("x", [[tok("Le", "le", "DET"), tok("chat", "chat", "NOUN")]])
        decision = detect_person_names(d, GIVEN_NAMES)
        assert decision.kept and decision.fired_rules == []


def qui_doc(prontype="Int"):
    feats = {"PronType": prontype} if prontype else {}
    return doc(
        "q",
        [[tok("Qui", "qui", "PRON", feats, head=3, deprel="nsubj"),
          tok("a", "avoir", "AUX"),
          tok("inventé", "inventer", "VERB"),
          tok("le", "le", "DET", {"Definite": "Def", "Number": "Sing"}, head=5,
              deprel="det"),
          tok("téléphone", "téléphone", "NOUN", {"Number": "Sing"})]],
    )


class TestGenericFilters:
    @pytest.fixture(autouse=True)
    def lexicons(self, toy_lexicon):
        self.db, self.mg = toy_lexicon

    def test_interrogative_qui_fires(self):
        decision = apply_generic_filters(qui_doc(), self.mg, self.db)
        assert not decision.kept
        assert [h.rule for h in decision.fired_rules] == [RULE_QUI]

    def test_relative_qui_passes(self):
        decision = apply_generic_filters(qui_doc(prontype="Rel"), self.mg, self.db)
        assert decision.kept

    def test_possessive_det_hn_fires_dep(self):
        d = doc(
            "p",
            [[tok("mon", "mon", "DET", {"Poss": "Yes", "Number": "Sing"}, head=2,
                  deprel="det"),
              tok("médecin", "médecin", "NOUN", {"Number": "Sing"}),
              tok("parle", "parler", "VERB")]],
        )
        decision = apply_generic_filters(d, self.mg, self.db)
        assert not decision.kept
        hit = decision.fired_rules[0]
        assert hit.rule == RULE_DET_HN
        assert hit.detail.startswith("poss:dep")

    def test_demonstrative_det_hn_fires(self):
        d = doc(
            "p",
            [[tok("ce", "ce", "DET", {"PronType": "Dem", "Number": "Sing"}, head=2,
                  deprel="det"),
              tok("chanteur", "chanteur", "NOUN", {"Number": "Sing"})]],
        )
        decision = apply_generic_filters(d, self.mg, self.db)
        assert not decision.kept
        assert decision.fired_rules[0].detail.startswith("dem:")

    def test_det_non_hn_passes(self):
        d = doc(
            "p",
            [[tok("ce", "ce", "DET", {"PronType": "Dem", "Number": "Sing"}, head=2,
                  deprel="det"),
              tok("moteur", "moteur", "NOUN", {"Number": "Sing"})]],
        )
        assert apply_generic_filters(d, self.mg, self.db).kept

    def test_plural_det_passes(self):
        d = doc(
            "p",
            [[tok("ces", "ce", "DET", {"PronType": "Dem", "Number": "Plur"}, head=2,
                  deprel="det"),
              tok("médecins", "médecin", "NOUN", {"Number": "Plur"})]],
        )
        assert apply_generic_filters(d, self.mg, self.db).kept

    def test_adjacency_mode(self):
        # determiner not attached via det arc, but directly before the noun
        d = doc(
            "p",
            [[tok("mon", "mon", "DET", {"Poss": "Yes", "Number": "Sing"}, head=0,
                  deprel="dep"),
              tok("médecin", "médecin", "NOUN", {"Number": "Sing"})]],
        )
        assert apply_generic_filters(d, self.mg, self.db).kept
        decision = apply_generic_filters(d, self.mg, self.db, det_attachment="adjacent")
        assert not decision.kept
        assert decision.fired_rules[0].detail.startswith("poss:adjacent")

    def test_jargon_shrinks_oracle_docs_only(self):
        sentences = [
            [tok("Bonjour", "bonjour", "INTJ")],
            [tok("cher", "cher", "ADJ"), tok("oracle", "oracle", "NOUN")],
        ]
        oracle_doc = doc("o1", sentences, dataset_tag="oracle")
        other_doc = doc("o2", sentences, dataset_tag="alpaca")

        decision = apply_generic_filters(oracle_doc, self.mg, self.db)
        assert decision.kept  # jargon never excludes
        assert [h.rule for h in decision.fired_rules] == [RULE_JARGON]
        shrunk = strip_jargon(oracle_doc, decision)
        assert len(shrunk.sentences) == 1
        assert "oracle" not in shrunk.text

        assert apply_generic_filters(other_doc, self.mg, self.db).fired_rules == []

    def test_pythie_also_jargon(self):
        d = doc("o", [[tok("la", "le", "DET"), tok("pythie", "pythie", "NOUN")]],
                dataset_tag="oracle")
        decision = apply_generic_filters(d, self.mg, self.db)
        assert decision.fired_rules and decision.fired_rules[0].rule == RULE_JARGON

    def test_unknown_rule_id_fatal(self):
        with pytest.raises(ValueError):
            apply_generic_filters(qui_doc(), self.mg, self.db, rules=("bogus",))


class TestStoplist:
    def test_drops_stoplisted(self, toy_lexicon):
        from mg_audit.analysis import find_candidates

        db, mg = toy_lexicon
        d = doc("s", [[tok("temps", "temps", "NOUN"), tok("médecin", "médecin", "NOUN")]])
        db2, mg2 = lexicon_from_pairs(("temps", "masculine"), ("médecin", "masculine"))
        assert [o.lemma for o in find_candidates(d, db2)] == ["temps", "médecin"]
        filtered = find_candidates(d, db2, frozenset({"temps"}))
        assert [o.lemma for o in filtered] == ["médecin"]

    def test_empty_stoplist_identity(self, toy_lexicon):
        from mg_audit.analysis import find_candidates

        db, _ = toy_lexicon
        d = doc("s", [[tok("médecin", "médecin", "NOUN")]])
        assert [o.lemma for o in find_candidates(d, db, frozenset())] == ["médecin"]


class TestRemoveMGInstructions:
    def test_mg_lemma_drops_instruction(self, toy_lexicon):
        db, mg = toy_lexicon
        with_mg = doc("i1", [[tok("les", "le", "DET"),
                              tok("avocats", "avocat", "NOUN", {"Number": "Plur"})]])
        without = doc("i2", [[tok("une", "un", "DET"),
                              tok("avocate", "avocate", "NOUN")]])
        kept = remove_mg_instructions([with_mg, without], mg)
        assert [d.doc_id for d in kept] == ["i2"]

    def test_epicene_and_feminine_kept(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("i", [[tok("artiste", "artiste", "NOUN"),
                       tok("personne", "personne", "NOUN")]])
        assert remove_mg_instructions([d], mg) == [d]

    def test_empty_input(self, toy_lexicon):
        _, mg = toy_lexicon
        assert remove_mg_instructions([], mg) == []

    def test_no_mg_left_by_rescan(self, toy_lexicon):
        db, mg = toy_lexicon
        rng = random.Random(13)
        nouns = ["avocat", "médecin", "avocate", "artiste", "table", "chanteur"]
        docs = []
        for i in range(100):
            words = rng.sample(nouns, k=rng.randint(1, 4))
            docs.append(doc(f"d{i}", [[tok(w, w, "NOUN") for w in words]]))
        kept = remove_mg_instructions(docs, mg)
        for d in kept:
            assert not any(t.lemma in mg for t in d.flat_tokens())


def random_corpus(db, rng, n_docs=200):
    """Mix of firing and non-firing documents for idempotence checks."""
    docs = []
    for i in range(n_docs):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            choice = rng.random()
            if choice < 0.15:
                sentences.append([tok("Marie", "Marie", "PROPN", ner="PER"),
                                  tok("chante", "chanter", "VERB")])
            elif choice < 0.3:
                sentences.append([tok("Qui", "qui", "PRON", {"PronType": "Int"}),
                                  tok("vient", "venir", "VERB")])
            elif choice < 0.45:
                sentences.append([
                    tok("mon", "mon", "DET", {"Poss": "Yes", "Number": "Sing"},
                        head=2, deprel="det"),
                    tok("médecin", "médecin", "NOUN")])
            elif choice < 0.55:
                sentences.append([tok("cher", "cher", "ADJ"),
                                  tok("oracle", "oracle", "NOUN")])
            else:
                sentences.append([tok("le", "le", "DET",
                                      {"Definite": "Def", "Number": "Sing"},
                                      head=2, deprel="det"),
                                  tok("moteur", "moteur", "NOUN")])
        tag = "oracle" if rng.random() < 0.5 else "alpaca"
        docs.append(doc(f"r{i}", sentences, dataset_tag=tag))
    return docs


class TestIdempotence:
    def test_full_rule_set_idempotent_on_200_docs(self, toy_lexicon):
        db, mg = toy_lexicon
        rng = random.Random(99)
        corpus = random_corpus(db, rng)

        survivors = []
        for d in corpus:
            filtered_doc, decision = filter_document(d, mg, db, GIVEN_NAMES)
            if decision.kept:
                survivors.append(filtered_doc)

        second_pass = []
        for d in survivors:
            filtered_doc, decision = filter_document(d, mg, db, GIVEN_NAMES)
            assert decision.kept
            assert decision.fired_rules == []
            second_pass.append(filtered_doc)
        assert second_pass == survivors

    def test_filters_do_not_mutate_tokens(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("m", [[tok("Marie", "Marie", "PROPN", ner="PER")],
                      [tok("cher", "cher", "ADJ"), tok("oracle", "oracle", "NOUN")]],
                dataset_tag="oracle")
        before = [t for t in d.flat_tokens()]
        filter_document(d, mg, db, GIVEN_NAMES)
        assert d.flat_tokens() == before
