"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import csv
import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import DATA_DIR, doc, lexicon_from_pairs, tok

import mg_audit.report as report_module
from mg_audit.agreement import cohen_kappa
from mg_audit.analysis import aggregate_m_scores, analyze_text, find_candidates
from mg_audit.boosting import GBTParams, GradientBoostedTrees
from mg_audit.config import load_config
from mg_audit.ensemble import ensemble_classify, train_member
from mg_audit.filters import filter_document, remove_mg_instructions
from mg_audit.logistic import log_loss, log_loss_grad
from mg_audit.markers import DEFAULT_MARKER_LEXICON, detect_markers
from mg_audit.narrowing import narrow_proportional
from mg_audit.report import build_report, emit_report
from mg_audit.stages import run_all


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ----------------------------------------------------------------------
# 1. M Score oracle equivalence on 1,000 random mini-texts
# ----------------------------------------------------------------------

def test_m_score_oracle_equivalence():
    with criterion("m_score_oracle_equivalence"):
        started = time.monotonic()
        lexicon_pairs = [
            ("médecin", "masculine"), ("avocat", "masculine"),
            ("avocate", "feminine"), ("artiste", "masculine"),
            ("artiste", "feminine"), ("personne", "feminine"),
            ("chanteur", "masculine"), ("facteur", "masculine"),
            ("citoyen", "masculine"), ("boulanger", "masculine"),
        ]
        db, mg = lexicon_from_pairs(*lexicon_pairs)
        assert len(db) == 10
        vocabulary = sorted({p[0] for p in lexicon_pairs}) + ["table", "moteur", "vent"]
        db_lemmas, mg_lemmas = set(db.lemmas), set(mg.lemmas)

        rng = random.Random(2024)
        docs = []
        verdict_maps = {}
        raw_tokens = {}
        for index in range(1000):
            doc_id = f"txt{index:04d}"
            tokens = []
            raw = []
            for _ in range(rng.randint(1, 20)):
                lemma = rng.choice(vocabulary)
                upos = rng.choice(["NOUN", "NOUN", "NOUN", "VERB", "ADJ"])
                form = lemma + ("s" if rng.random() < 0.3 else "")
                tokens.append(tok(form, lemma, upos))
                raw.append((lemma, form, upos))
            d = doc(doc_id, [tokens])
            verdict_map = {}
            for candidate in find_candidates(d, db, mg=mg):
                choice = rng.random()
                if choice < 0.6:
                    verdict_map[candidate.occurrence_id] = 1
                elif choice < 0.8:
                    verdict_map[candidate.occurrence_id] = 0
            docs.append(d)
            verdict_maps[doc_id] = verdict_map
            raw_tokens[doc_id] = raw

        analyses = [
            analyze_text(d, db, mg, verdicts=verdict_maps[d.doc_id]) for d in docs
        ]

        # Independent brute-force scan over the raw token tuples.
        expected = {}
        total_hn = total_mg = 0
        scores = []
        for d in docs:
            hn = mg_count = 0
            seen_forms = {}
            for lemma, form, upos in raw_tokens[d.doc_id]:
                if upos != "NOUN" or lemma not in db_lemmas:
                    continue
                seen_forms[form] = seen_forms.get(form, 0) + 1
                occ = form if seen_forms[form] == 1 else f"{form}_{seen_forms[form]}"
                if verdict_maps[d.doc_id].get(occ) != 1:
                    continue
                hn += 1
                if lemma in mg_lemmas:
                    mg_count += 1
            expected[d.doc_id] = (hn, mg_count, (mg_count / hn) if hn else None)
            total_hn += hn
            total_mg += mg_count
            if hn:
                scores.append(mg_count / hn)
        expected_overall = (total_mg / total_hn) if total_hn else None
        expected_mean = (sum(scores) / len(scores)) if scores else None

        for analysis in analyses:
            hn, mg_count, m_score = expected[analysis.doc_id]
            assert analysis.hn_count == hn
            assert analysis.mg_count == mg_count
            assert analysis.m_score == m_score
        overall, mean = aggregate_m_scores(analyses)
        assert overall == expected_overall
        assert mean == expected_mean

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. Apportionment on the published dataset sizes
# ----------------------------------------------------------------------

def test_apportionment():
    with criterion("apportionment"):
        started = time.monotonic()
        groups = {
            "alpaca": list(range(29179)),
            "hh_rlhf": list(range(10806)),
            "oracle": list(range(2600)),
            "oasst2": list(range(311)),
        }
        sampled = narrow_proportional(groups, 10000, seed=42)
        sizes = {name: len(items) for name, items in sampled.items()}
        assert sum(sizes.values()) == 10000
        expected = {"alpaca": 6803, "hh_rlhf": 2520, "oracle": 605, "oasst2": 72}
        for name, value in expected.items():
            assert abs(sizes[name] - value) <= 2, (name, sizes[name])
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 3. Marker detection on the documented examples plus a clean control set
# ----------------------------------------------------------------------

MARKER_EXAMPLES = [
    ("mesdames et messieurs", "incl_greetings"),
    ("il ou elle", "incl_pairs"),
    ("iel", "neutral_prons"),
    ("auteur·ice", "fem_ending"),
    ("auteur(ice)", "fem_ending"),
    ("auteurICE", "fem_ending"),
    ("utilisateur·ices", "fem_ending"),
]


def test_marker_detection():
    from test_markers import CONTROL_CORPUS

    with criterion("marker_detection"):
        for needle, family in MARKER_EXAMPLES:
            text = f"Voici {needle} dans une phrase."
            hits = detect_markers(text, DEFAULT_MARKER_LEXICON)
            spans = hits[family]
            assert any(text[s:e] == needle for s, e in spans), (needle, family, hits)
        assert len(CONTROL_CORPUS) == 50
        for sentence in CONTROL_CORPUS:
            hits = detect_markers(sentence, DEFAULT_MARKER_LEXICON)
            assert not any(hits.values()), (sentence, hits)


# ----------------------------------------------------------------------
# 4. Classifier properties: gradient check, separable training, ensemble
# ----------------------------------------------------------------------

def test_hscorer_properties():
    with criterion("hscorer_properties"):
        # analytic gradient vs central differences, 100 random instances
        rng = np.random.RandomState(7)
        for _ in range(100):
            n, d = rng.randint(5, 25), rng.randint(2, 8)
            X = rng.randn(n, d)
            y = rng.randint(0, 2, size=n).astype(float)
            w = rng.randn(d)
            analytic = log_loss_grad(w, X, y)
            h = 1e-6
            numeric = np.zeros(d)
            for i in range(d):
                up, down = w.copy(), w.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (log_loss(up, X, y) - log_loss(down, X, y)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

        # linearly separable set: perfect LR validation accuracy
        blob = np.random.RandomState(0)
        pos = blob.randn(100, 2) * 0.3 + [3.0, 3.0]
        neg = blob.randn(100, 2) * 0.3 + [-3.0, -3.0]
        X = np.vstack([pos, neg])
        y = np.array([1] * 100 + [0] * 100)
        member = train_member("logistic_regression", X, y, split_seed=42)
        assert member.validation_accuracy == 1.0

        # GBT training log-loss non-increasing for 50 rounds
        params = GBTParams(n_estimators=50, max_depth=3, min_child_weight=1.0,
                           learning_rate=0.2, early_stopping_rounds=None)
        model = GradientBoostedTrees(params=params).fit(X, y)
        assert len(model.train_losses) == 50
        for earlier, later in zip(model.train_losses, model.train_losses[1:]):
            assert later <= earlier + 1e-12

        # full-agreement over every vote combination, k <= 3
        class Fixed:
            def __init__(self, vote, kind):
                self._vote, self.kind = vote, kind

            def vote(self, x):
                return self._vote

        for k in (1, 2, 3):
            for bits in range(2**k):
                votes = [(bits >> i) & 1 == 1 for i in range(k)]
                members = [Fixed(v, f"m{i}") for i, v in enumerate(votes)]
                verdict = ensemble_classify(np.zeros(1), members)
                assert verdict.accepted == all(votes)


# ----------------------------------------------------------------------
# 5. Cohen's kappa
# ----------------------------------------------------------------------

def test_cohen_kappa():
    with criterion("cohen_kappa"):
        assert abs(cohen_kappa([1, 0, 1, 0], [1, 0, 1, 0]).kappa - 1.0) < 1e-9
        assert abs(cohen_kappa([1, 1, 0, 0], [1, 0, 0, 1]).kappa - 0.0) < 1e-9
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 50)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            assert abs(cohen_kappa(a, b).kappa - cohen_kappa(b, a).kappa) < 1e-9


# ----------------------------------------------------------------------
# 6. Filter suite: per-rule fixtures, idempotence, MG-free output
# ----------------------------------------------------------------------

def test_filter_suite():
    from mg_audit.filters import apply_generic_filters, detect_person_names

    with criterion("filter_suite"):
        db, mg = lexicon_from_pairs(
            ("médecin", "masculine"), ("avocat", "masculine"),
            ("avocate", "feminine"), ("chanteur", "masculine"),
        )
        names = frozenset({"camille"})

        per_pos = doc("p+", [[tok("Marie", "Marie", "PROPN", ner="PER")]])
        per_neg = doc("p-", [[tok("Paris", "Paris", "PROPN", ner="LOC")]])
        assert not detect_person_names(per_pos, names).kept
        assert detect_person_names(per_neg, names).kept

        misc_pos = doc("m+", [[tok("Camille", "Camille", "PROPN", ner="MISC")]])
        misc_neg = doc("m-", [[tok("Bretagne", "Bretagne", "PROPN", ner="MISC")]])
        assert not detect_person_names(misc_pos, names).kept
        assert detect_person_names(misc_neg, names).kept

        qui_pos = doc("q+", [[tok("Qui", "qui", "PRON", {"PronType": "Int"})]])
        qui_neg = doc("q-", [[tok("qui", "qui", "PRON", {"PronType": "Rel"})]])
        assert not apply_generic_filters(qui_pos, mg, db).kept
        assert apply_generic_filters(qui_neg, mg, db).kept

        det_pos = doc("d+", [[
            tok("mon", "mon", "DET", {"Poss": "Yes", "Number": "Sing"}, head=2,
                deprel="det"),
            tok("médecin", "médecin", "NOUN")]])
        det_neg = doc("d-", [[
            tok("mon", "mon", "DET", {"Poss": "Yes", "Number": "Sing"}, head=2,
                deprel="det"),
            tok("vélo", "vélo", "NOUN")]])
        assert not apply_generic_filters(det_pos, mg, db).kept
        assert apply_generic_filters(det_neg, mg, db).kept

        jargon_pos = doc("j+", [[tok("cher", "cher", "ADJ"),
                                 tok("oracle", "oracle", "NOUN")],
                                [tok("Bonne", "bon", "ADJ"),
                                 tok("question", "question", "NOUN")]],
                        dataset_tag="oracle")
        jargon_neg = doc("j-", [[tok("Bonne", "bon", "ADJ"),
                                 tok("question", "question", "NOUN")]],
                        dataset_tag="oracle")
        pos_decision = apply_generic_filters(jargon_pos, mg, db)
        assert pos_decision.kept and pos_decision.jargon_sentences == (0,)
        neg_decision = apply_generic_filters(jargon_neg, mg, db)
        assert neg_decision.kept and neg_decision.fired_rules == []

        # idempotence over a 200-document corpus
        rng = random.Random(5)
        corpus = []
        for i in range(200):
            roll = rng.random()
            if roll < 0.2:
                sentences = [[tok("Marie", "Marie", "PROPN", ner="PER")]]
            elif roll < 0.4:
                sentences = [[tok("Qui", "qui", "PRON", {"PronType": "Int"})]]
            elif roll < 0.6:
                sentences = [[tok("cher", "cher", "ADJ"),
                              tok("oracle", "oracle", "NOUN")],
                             [tok("merci", "merci", "NOUN")]]
            else:
                sentences = [[tok("le", "le", "DET",
                                  {"Definite": "Def", "Number": "Sing"},
                                  head=2, deprel="det"),
                              tok("vent", "vent", "NOUN")]]
            corpus.append(doc(f"c{i}", sentences,
                              dataset_tag="oracle" if i % 2 else "alpaca"))
        survivors = []
        for d in corpus:
            filtered_doc, decision = filter_document(d, mg, db, names)
            if decision.kept:
                survivors.append(filtered_doc)
        for d in survivors:
            filtered_doc, decision = filter_document(d, mg, db, names)
            assert decision.kept and decision.fired_rules == []
            assert filtered_doc == d

        # remove_mg_instructions leaves no MG lemma behind
        noun_pool = ["médecin", "avocat", "avocate", "chanteur", "table", "vent"]
        instructions = [
            doc(f"i{i}", [[tok(w, w, "NOUN")
                           for w in rng.sample(noun_pool, k=rng.randint(1, 4))]])
            for i in range(100)
        ]
        kept = remove_mg_instructions(instructions, mg)
        for d in kept:
            assert not any(t.lemma in mg for t in d.flat_tokens())


# ----------------------------------------------------------------------
# 7. End-to-end determinism on the bundled mini-corpus
# ----------------------------------------------------------------------

def test_end_to_end_determinism(tmp_path):
    with criterion("end_to_end_determinism"):
        started = time.monotonic()
        report_bytes = []
        for name in ("run1", "run2"):
            config = load_config(DATA_DIR / "config.json")
            config.output_dir = tmp_path / name
            run_all(config, mock_transport=DATA_DIR / "fixtures")
            report_dir = config.output_dir / "report"
            content = {
                str(p.relative_to(report_dir)): p.read_bytes()
                for p in sorted(report_dir.rglob("*")) if p.is_file()
            }
            report_bytes.append(content)
        assert report_bytes[0] == report_bytes[1]
        assert report_bytes[0], "report directory is empty"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 8. Fixture replay with hand-computed ground truth
# ----------------------------------------------------------------------

def replay_db():
    return lexicon_from_pairs(
        ("médecin", "masculine", "profession"),
        ("avocat", "masculine", "profession"),
        ("avocate", "feminine"),
        ("chanteur", "masculine", "doer"),
        ("artiste", "masculine"),
        ("artiste", "feminine"),
        ("personne", "feminine"),
        ("facteur", "masculine", "profession"),
        ("citoyen", "masculine", "status"),
    )


def replay_responses():
    """Recorded responses with designed occurrences and verdicts."""
    modela = [
        (doc("a1", [[tok("Les", "le", "DET", {"Definite": "Def", "Number": "Plur"},
                         head=2, deprel="det"),
                     tok("médecins", "médecin", "NOUN", {"Number": "Plur"}),
                     tok("écoutent", "écouter", "VERB"),
                     tok("chaque", "chaque", "DET", {"Number": "Sing"}, head=5,
                         deprel="det"),
                     tok("personne", "personne", "NOUN", {"Number": "Sing"})]]),
         {"médecins": 1, "personne": 1}),
        (doc("a2", [[tok("Des", "un", "DET", {"Definite": "Ind", "Number": "Plur"},
                         head=2, deprel="det"),
                     tok("avocats", "avocat", "NOUN", {"Number": "Plur"}),
                     tok("et", "et", "CCONJ"),
                     tok("des", "un", "DET", {"Definite": "Ind", "Number": "Plur"},
                         head=5, deprel="det"),
                     tok("artistes", "artiste", "NOUN", {"Number": "Plur"}),
                     tok("débattent", "débattre", "VERB")]]),
         {"avocats": 1, "artistes": 1}),
        (doc("a3", [[tok("La", "le", "DET", {"Definite": "Def", "Number": "Sing"},
                         head=2, deprel="det"),
                     tok("recette", "recette", "NOUN", {"Number": "Sing"}),
                     tok("est", "être", "AUX"),
                     tok("simple", "simple", "ADJ")]]),
         {}),
        (doc("a4", [[tok("Il", "il", "PRON"),
                     tok("ou", "ou", "CCONJ"),
                     tok("elle", "elle", "PRON"),
                     tok("choisit", "choisir", "VERB"),
                     tok("un", "un", "DET", {"Definite": "Ind", "Number": "Sing"},
                         head=6, deprel="det"),
                     tok("chanteur", "chanteur", "NOUN", {"Number": "Sing"})]]),
         {"chanteur": 1}),
        (doc("a5", [[tok("Chaque", "chaque", "DET", {"Number": "Sing"}, head=2,
                         deprel="det"),
                     tok("personne", "personne", "NOUN", {"Number": "Sing"}),
                     tok("décide", "décider", "VERB")]]),
         {"personne": 1}),
    ]
    modelb = [
        (doc("b1", [[tok("Un", "un", "DET", {"Definite": "Ind", "Number": "Sing"},
                         head=2, deprel="det"),
                     tok("facteur", "facteur", "NOUN", {"Number": "Sing"}),
                     tok("distribue", "distribuer", "VERB"),
                     tok("le", "le", "DET", {"Definite": "Def", "Number": "Sing"},
                         head=5, deprel="det"),
                     tok("courrier", "courrier", "NOUN", {"Number": "Sing"})]]),
         {"facteur": 1}),
        (doc("b2", [[tok("Plusieurs", "plusieurs", "DET", {"Number": "Plur"},
                         head=2, deprel="det"),
                     tok("facteurs", "facteur", "NOUN", {"Number": "Plur"}),
                     tok("expliquent", "expliquer", "VERB"),
                     tok("la", "le", "DET", {"Definite": "Def", "Number": "Sing"},
                         head=5, deprel="det"),
                     tok("situation", "situation", "NOUN", {"Number": "Sing"})]]),
         {"facteurs": 0}),
        (doc("b3", [[tok("Mesdames", "mesdames", "NOUN", {"Number": "Plur"}),
                     tok("et", "et", "CCONJ"),
                     tok("messieurs", "messieurs", "NOUN", {"Number": "Plur"}),
                     tok(",", ",", "PUNCT"),
                     tok("les", "le", "DET", {"Definite": "Def", "Number": "Plur"},
                         head=6, deprel="det"),
                     tok("citoyens", "citoyen", "NOUN", {"Number": "Plur"}),
                     tok("votent", "voter", "VERB")]]),
         {"citoyens": 1}),
        (doc("b4", [[tok("Une", "un", "DET", {"Definite": "Ind", "Number": "Sing"},
                         head=2, deprel="det"),
                     tok("avocate", "avocate", "NOUN", {"Number": "Sing"}),
                     tok("défend", "défendre", "VERB"),
                     tok("le", "le", "DET", {"Definite": "Def", "Number": "Sing"},
                         head=5, deprel="det"),
                     tok("dossier", "dossier", "NOUN", {"Number": "Sing"})]]),
         {"avocate": 1}),
        (doc("b5", [[tok("Les", "le", "DET", {"Definite": "Def", "Number": "Plur"},
                         head=2, deprel="det"),
                     tok("utilisateur·ices", "utilisateur", "NOUN",
                         {"Number": "Plur"}),
                     tok("participent", "participer", "VERB")]]),
         {}),
    ]
    return modela, modelb


def test_fixture_replay(tmp_path):
    with criterion("fixture_replay"):
        db, mg = replay_db()
        modela, modelb = replay_responses()
        per_unit = {}
        for unit_id, responses in (("modela", modela), ("modelb", modelb)):
            per_unit[unit_id] = [
                analyze_text(d, db, mg, verdicts=verdicts,
                             marker_lexicon=DEFAULT_MARKER_LEXICON, unit_id=unit_id)
                for d, verdicts in responses
            ]

        report = build_report(per_unit, db)
        units = {u.unit_id: u for u in report.units}

        # modela, by hand: texts a1(2 HN, 1 MG), a2(2,1), a3(0,0), a4(1,1),
        # a5(1,0) -> 4/5 with HN, 3/5 biased, overall 3/6, mean
        # (0.5+0.5+1+0)/4
        a = units["modela"]
        assert a.n_responses == 5
        assert a.n_responses_with_hn == 4
        assert a.bias_rate_all == 100.0 * 3 / 5
        assert a.bias_rate_with_hn == 100.0 * 3 / 4
        assert a.overall_m_score == 3 / 6
        assert a.mean_m_score == (0.5 + 0.5 + 1.0 + 0.0) / 4
        assert a.marker_rates["incl_pairs"] == 100.0 * 1 / 5
        assert a.marker_rates["neutral_words"] == 100.0 * 2 / 5
        assert a.marker_rates["incl_greetings"] == 0.0
        assert a.marker_rates["fem_ending"] == 0.0
        assert a.marker_rates["neutral_prons"] == 0.0
        assert a.class_frequencies == {"profession": 2, "doer": 1}

        # modelb, by hand: b1(1,1), b2 rejected -> (0,0), b3(1,1), b4(1,0),
        # b5(0,0) -> 3/5 with HN, 2/5 biased, overall 2/3, mean (1+1+0)/3
        b = units["modelb"]
        assert b.n_responses == 5
        assert b.n_responses_with_hn == 3
        assert b.bias_rate_all == 100.0 * 2 / 5
        assert b.bias_rate_with_hn == 100.0 * 2 / 3
        assert b.overall_m_score == 2 / 3
        assert b.mean_m_score == (1.0 + 1.0 + 0.0) / 3
        assert b.marker_rates["incl_greetings"] == 100.0 * 1 / 5
        assert b.marker_rates["fem_ending"] == 100.0 * 1 / 5
        assert b.marker_rates["neutral_words"] == 0.0
        assert b.class_frequencies == {"profession": 1, "status": 1}

        # report layout mirrors the four result figures
        written = emit_report(per_unit, db, tmp_path)
        schema = json.loads(
            (Path(report_module.__file__).parent / "schemas/audit_report.schema.json")
            .read_text(encoding="utf-8")
        )
        document = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        jsonschema.validate(document, schema)

        plot_names = {p.name for p in written["plotdata"]}
        assert plot_names == {"bias_rates.csv", "m_scores.csv",
                              "class_frequencies.csv", "marker_rates.csv"}
        with open(tmp_path / "plotdata/m_scores.csv", encoding="utf-8") as fp:
            rows = list(csv.DictReader(fp))
        assert [(r["unit_id"], r["series"]) for r in rows] == [
            ("modela", "overall"), ("modela", "mean"),
            ("modelb", "overall"), ("modelb", "mean"),
        ]
        with open(tmp_path / "plotdata/bias_rates.csv", encoding="utf-8") as fp:
            header = next(csv.reader(fp))
        assert header == ["unit_id", "bias_rate_all", "bias_rate_with_hn"]
        with open(tmp_path / "plotdata/marker_rates.csv", encoding="utf-8") as fp:
            header = next(csv.reader(fp))
        assert header == ["unit_id", "incl_greetings", "incl_pairs",
                          "neutral_prons", "fem_ending", "neutral_words"]


# ----------------------------------------------------------------------
# 9. Full-data training run (documented, optional; not run in CI)
# ----------------------------------------------------------------------

FULL_DATA_ENV = "MG_AUDIT_FULL_DATA"


@pytest.mark.skipif(
    not os.environ.get(FULL_DATA_ENV),
    reason=f"full-data run: set {FULL_DATA_ENV} to a directory holding the "
    "reconstructed golden sets and resources (see README)",
)
def test_full_data_training_accuracy():
    """Reconstructed golden sets should reach ~0.914 (LR) / ~0.937 (GBT).

    The directory named by MG_AUDIT_FULL_DATA must hold golden_hn.txt,
    golden_non_hn.txt, wordnet.jsonl, indicators.json, prototypes.json,
    suffixes.txt and embeddings.vec at full scale.
    """
    with criterion("full_data_training"):
        base = Path(os.environ[FULL_DATA_ENV])
        from mg_audit.features import FeatureResources, feature_matrix
        from mg_audit.filters import load_wordlist
        from mg_audit.resources import (
            EmbeddingTable,
            IndicatorLexicon,
            PrototypeLexicon,
            SuffixSet,
        )
        from mg_audit.wordnet import WordNetSnapshot

        resources = FeatureResources(
            wordnet=WordNetSnapshot.load_jsonl(base / "wordnet.jsonl"),
            indicators=IndicatorLexicon.load_json(base / "indicators.json"),
            prototypes=PrototypeLexicon.load_json(base / "prototypes.json"),
            embeddings=EmbeddingTable.load_text(base / "embeddings.vec"),
            suffixes=SuffixSet.load_text(base / "suffixes.txt"),
        )
        positives = sorted(load_wordlist(base / "golden_hn.txt"))
        negatives = sorted(load_wordlist(base / "golden_non_hn.txt"))
        X = feature_matrix(positives + negatives, resources)
        y = np.array([1] * len(positives) + [0] * len(negatives))
        lr = train_member("logistic_regression", X, y, split_seed=42)
        gbt = train_member("gradient_boosted_trees", X, y, split_seed=42)
        assert abs(lr.validation_accuracy - 0.914) <= 0.02
        assert abs(gbt.validation_accuracy - 0.937) <= 0.02
