import json
import random
import re

import pytest

from conftest import doc, lexicon_from_pairs, tok

from mg_audit.analysis import (
    TextAnalysis,
    aggregate_m_scores,
    analyze_text,
    bias_rates,
    class_frequencies,
    find_candidates,
    load_analyses,
    marker_rates,
    save_analyses,
)
from mg_audit.markers import DEFAULT_MARKER_LEXICON
from mg_audit.validation import occurrence_ids


class TestAnalyzeText:
    def test_direct_counting(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("médecin", "médecin", "NOUN"),
                       tok("personne", "personne", "NOUN")]])
        analysis = analyze_text(
            d, db, mg, verdicts={"médecin": 1, "personne": 1}
        )
        assert analysis.hn_count == 2
        assert analysis.mg_count == 1
        assert analysis.m_score == pytest.approx(0.5)

    def test_rejected_excluded_everywhere(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("avocat", "avocat", "NOUN")]])
        analysis = analyze_text(d, db, mg, verdicts={"avocat": 0})
        assert analysis.hn_count == 0
        assert analysis.mg_count == 0
        assert analysis.m_score is None

    def test_no_hn_lemmas(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("table", "table", "NOUN"), tok("dort", "dormir", "VERB")]])
        analysis = analyze_text(d, db, mg)
        assert analysis.hn_count == 0 and analysis.mg_count == 0
        assert analysis.m_score is None

    def test_unvalidated_excluded_by_default(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("médecin", "médecin", "NOUN")]])
        analysis = analyze_text(d, db, mg, verdicts={})
        assert analysis.hn_count == 0
        assert analysis.unvalidated_count == 1

    def test_unvalidated_counted_when_policy_allows(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("médecin", "médecin", "NOUN")]])
        analysis = analyze_text(d, db, mg, verdicts={}, count_unvalidated=True)
        assert analysis.hn_count == 1
        assert analysis.unvalidated_count == 1

    def test_plural_counts_via_lemma(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("avocats", "avocat", "NOUN", {"Number": "Plur"})]])
        analysis = analyze_text(d, db, mg, verdicts={"avocats": 1})
        assert analysis.mg_count == 1

    def test_neutral_word_never_mg(self):
        db, mg = lexicon_from_pairs(("individu", "masculine"), ("personne", "feminine"))
        assert "individu" in mg
        d = doc("t", [[tok("individu", "individu", "NOUN")]])
        analysis = analyze_text(
            d, db, mg, verdicts={"individu": 1}, marker_lexicon=DEFAULT_MARKER_LEXICON
        )
        assert analysis.hn_count == 1
        assert analysis.mg_count == 0

    def test_stoplisted_candidate_skipped(self):
        db, mg = lexicon_from_pairs(("temps", "masculine"))
        d = doc("t", [[tok("temps", "temps", "NOUN")]])
        analysis = analyze_text(d, db, mg, stoplist=frozenset({"temps"}),
                                verdicts={"temps": 1})
        assert analysis.hn_count == 0

    def test_occurrence_ids_match_validation_scheme(self, toy_lexicon):
        db, mg = toy_lexicon
        d = doc("t", [[tok("facteurs", "facteur", "NOUN"),
                       tok("facteurs", "facteur", "NOUN")]])
        db2, mg2 = lexicon_from_pairs(("facteur", "masculine"))
        candidates = find_candidates(d, db2)
        assert [c.occurrence_id for c in candidates] == ["facteurs", "facteurs_2"]
        assert [c.occurrence_id for c in candidates] == occurrence_ids(
            [c.form for c in candidates]
        )


class TestAggregates:
    def analysis(self, doc_id, mg_count, hn_count):
        return TextAnalysis(
            doc_id=doc_id,
            unit_id="m",
            hn_count=hn_count,
            mg_count=mg_count,
            m_score=(mg_count / hn_count) if hn_count else None,
        )

    def test_hand_computed_case(self):
        # (1 MG / 2 HN) and (3 MG / 4 HN): overall 4/6, mean 0.625
        overall, mean = aggregate_m_scores(
            [self.analysis("a", 1, 2), self.analysis("b", 3, 4)]
        )
        assert overall == pytest.approx(4 / 6)
        assert mean == pytest.approx(0.625)

    def test_zero_numerator(self):
        overall, mean = aggregate_m_scores([self.analysis("a", 0, 3)])
        assert overall == 0.0
        assert mean == 0.0

    def test_undefined_when_no_hn(self):
        assert aggregate_m_scores([self.analysis("a", 0, 0)]) == (None, None)
        assert aggregate_m_scores([]) == (None, None)

    def test_overall_is_weighted_mean_identity(self):
        rng = random.Random(31)
        for _ in range(100):
            analyses = []
            for i in range(rng.randint(1, 20)):
                hn = rng.randint(0, 6)
                mg = rng.randint(0, hn) if hn else 0
                analyses.append(self.analysis(f"d{i}", mg, hn))
            overall, _ = aggregate_m_scores(analyses)
            scored = [a for a in analyses if a.hn_count > 0]
            if not scored:
                assert overall is None
                continue
            weighted = sum(a.m_score * a.hn_count for a in scored) / sum(
                a.hn_count for a in scored
            )
            assert overall == pytest.approx(weighted)

    def test_bias_rates_direct(self):
        analyses = [self.analysis("a", 1, 2), self.analysis("b", 2, 2),
                    self.analysis("c", 0, 1)]
        rate_all, rate_with_hn = bias_rates(analyses)
        assert rate_all == pytest.approx(100 * 2 / 3)

    def test_bias_rates_hand_case(self):
        # 4 texts, 2 with HN, both of those have MG
        analyses = [self.analysis("a", 1, 1), self.analysis("b", 2, 3),
                    self.analysis("c", 0, 0), self.analysis("d", 0, 0)]
        rate_all, rate_with_hn = bias_rates(analyses)
        assert rate_all == pytest.approx(50.0)
        assert rate_with_hn == pytest.approx(100.0)
        assert rate_with_hn >= rate_all

    def test_bias_rates_empty(self):
        assert bias_rates([]) == (None, None)

    def test_rate_with_hn_dominates_when_some_texts_lack_hn(self):
        rng = random.Random(5)
        for _ in range(100):
            analyses = []
            for i in range(rng.randint(1, 15)):
                hn = rng.randint(0, 3)
                mg = rng.randint(0, hn) if hn else 0
                analyses.append(self.analysis(f"d{i}", mg, hn))
            rate_all, rate_with_hn = bias_rates(analyses)
            if rate_with_hn is not None and any(a.hn_count == 0 for a in analyses):
                assert rate_with_hn >= rate_all


class TestClassFrequencies:
    def test_unique_lemma_counting(self, toy_lexicon):
        db, _ = toy_lexicon
        analyses = [
            TextAnalysis(doc_id="a", unit_id="m", hn_count=3, mg_count=3,
                         m_score=1.0, mg_lemmas=("médecin", "avocat", "chanteur")),
            TextAnalysis(doc_id="b", unit_id="m", hn_count=1, mg_count=1,
                         m_score=1.0, mg_lemmas=("médecin",)),
        ]
        frequencies = class_frequencies(analyses, db)
        assert frequencies == {"profession": 2, "doer": 1}

    def test_same_lemma_many_texts_counted_once(self, toy_lexicon):
        db, _ = toy_lexicon
        analyses = [
            TextAnalysis(doc_id=f"d{i}", unit_id="m", hn_count=1, mg_count=1,
                         m_score=1.0, mg_lemmas=("médecin",))
            for i in range(10)
        ]
        assert class_frequencies(analyses, db) == {"profession": 1}

    def test_unannotated_bucket(self, toy_lexicon):
        db, _ = toy_lexicon
        analyses = [
            TextAnalysis(doc_id="a", unit_id="m", hn_count=1, mg_count=1,
                         m_score=1.0, mg_lemmas=("artiste",))
        ]
        assert class_frequencies(analyses, db) == {"unannotated": 1}


class BruteForce:
    """Independent exhaustive scanner used as the metrics oracle."""

    def __init__(self, db_lemmas, mg_lemmas, stoplist):
        self.db_lemmas = set(db_lemmas)
        self.mg_lemmas = set(mg_lemmas)
        self.stoplist = set(stoplist)

    def scan(self, docs_tokens, verdict_lookup):
        """docs_tokens: list of (doc_id, [(lemma, form, upos), ...])."""
        per_text = []
        for doc_id, tokens in docs_tokens:
            forms = []
            lemma_of = {}
            for lemma, form, upos in tokens:
                if upos != "NOUN" or lemma in self.stoplist:
                    continue
                if lemma in self.db_lemmas:
                    forms.append(form)
                    lemma_of[len(forms) - 1] = lemma
            hn = 0
            mg = 0
            counters = {}
            for index, form in enumerate(forms):
                counters[form] = counters.get(form, 0) + 1
                occ_id = form if counters[form] == 1 else f"{form}_{counters[form]}"
                verdict = verdict_lookup.get((doc_id, occ_id))
                if verdict != 1:
                    continue
                hn += 1
                if lemma_of[index] in self.mg_lemmas:
                    mg += 1
            per_text.append((doc_id, hn, mg, (mg / hn) if hn else None))
        total_hn = sum(hn for _, hn, _, _ in per_text if hn)
        total_mg = sum(mg for _, _, mg, _ in per_text)
        overall = (total_mg / total_hn) if total_hn else None
        defined = [s for _, _, _, s in per_text if s is not None]
        mean = sum(defined) / len(defined) if defined else None
        return per_text, overall, mean


class TestBruteForceEquivalence:
    def test_random_mini_corpora(self):
        rng = random.Random(123)
        lexicon_pairs = [
            ("médecin", "masculine"), ("avocat", "masculine"),
            ("avocate", "feminine"), ("artiste", "masculine"),
            ("artiste", "feminine"), ("personne", "feminine"),
            ("chanteur", "masculine"), ("facteur", "masculine"),
            ("citoyen", "masculine"), ("boulanger", "masculine"),
        ]
        db, mg = lexicon_from_pairs(*lexicon_pairs)
        vocabulary = [p[0] for p in lexicon_pairs] + ["table", "moteur", "temps"]
        stoplist = frozenset({"temps"})
        oracle = BruteForce(db.lemmas, mg.lemmas, stoplist)

        for trial in range(50):
            docs = []
            docs_tokens = []
            verdict_lookup = {}
            verdict_maps = {}
            for d_idx in range(rng.randint(1, 10)):
                doc_id = f"t{trial}_{d_idx}"
                n_tokens = rng.randint(1, 20)
                tokens = []
                raw = []
                for _ in range(n_tokens):
                    lemma = rng.choice(vocabulary)
                    upos = rng.choice(["NOUN", "NOUN", "VERB"])
                    form = lemma + ("s" if rng.random() < 0.3 else "")
                    tokens.append(tok(form, lemma, upos))
                    raw.append((lemma, form, upos))
                d = doc(doc_id, [tokens])
                candidates = find_candidates(d, db, stoplist, mg)
                verdict_map = {}
                for c in candidates:
                    v = rng.choice([0, 1, 1, None])
                    if v is not None:
                        verdict_map[c.occurrence_id] = v
                        verdict_lookup[(doc_id, c.occurrence_id)] = v
                verdict_maps[doc_id] = verdict_map
                docs.append(d)
                docs_tokens.append((doc_id, raw))

            analyses = [
                analyze_text(d, db, mg, stoplist, verdicts=verdict_maps[d.doc_id])
                for d in docs
            ]
            expected_rows, expected_overall, expected_mean = oracle.scan(
                docs_tokens, verdict_lookup
            )
            for analysis, (doc_id, hn, mg_n, m_score) in zip(analyses, expected_rows):
                assert analysis.doc_id == doc_id
                assert analysis.hn_count == hn
                assert analysis.mg_count == mg_n
                assert analysis.m_score == m_score
            overall, mean = aggregate_m_scores(analyses)
            assert overall == expected_overall
            assert mean == expected_mean


class TestMarkerRates:
    def test_counts_texts_not_hits(self):
        a1 = TextAnalysis(doc_id="a", unit_id="m", hn_count=0, mg_count=0,
                          m_score=None,
                          marker_hits={"incl_pairs": [(0, 5), (6, 12)]})
        a2 = TextAnalysis(doc_id="b", unit_id="m", hn_count=0, mg_count=0,
                          m_score=None, marker_hits={})
        rates = marker_rates([a1, a2])
        assert rates["incl_pairs"] == pytest.approx(50.0)
        assert rates["fem_ending"] == 0.0


class TestAnalysisRecords:
    ANALYSIS = TextAnalysis(doc_id="d", unit_id="m", hn_count=2, mg_count=1, m_score=0.5,
                            mg_lemmas=("avocat",), classes={"profession": 1},
                            marker_hits={"incl_pairs": [(0, 5)], "fem_ending": []},
                            unvalidated_count=1)

    def test_round_trip_drops_empty_marker_families(self, tmp_path):
        path = tmp_path / "analyses.jsonl"
        save_analyses([self.ANALYSIS], path)
        assert json.loads(path.read_text(encoding="utf-8"))["marker_hits"] == {
            "incl_pairs": [[0, 5]]}
        [loaded] = load_analyses(path)
        assert loaded == TextAnalysis(**{**vars(self.ANALYSIS),
                                         "marker_hits": {"incl_pairs": [(0, 5)]}})

    @pytest.mark.parametrize("edit, message", [
        (lambda record: record.pop("classes"), "missing key(s) ['classes']"),
        (lambda record: record.update(extra=1), "unknown key(s) ['extra']"),
        (lambda record: record.update(mg_lemmas=3), "'int' object is not iterable"),
        (lambda record: record.update(marker_hits=[]), "'list' object has no attribute 'items'"),
        (lambda record: record.update(hn_count="2"),
         "'>' not supported between instances of 'int' and 'str'"),
    ], ids=["missing", "unknown", "int-for-list", "list-for-object", "str-for-int"])
    def test_misfit_record_names_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "analyses.jsonl"
        save_analyses([self.ANALYSIS], path)
        record = json.loads(path.read_text(encoding="utf-8"))
        edit(record)
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {message}")):
            load_analyses(path)
