import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest

from mg_audit import features
from mg_audit.features import (
    FeatureResources,
    definition_score,
    feature_matrix,
    hypernym_score,
    suffix_score,
)
from mg_audit.resources import (
    EmbeddingTable,
    IndicatorLexicon,
    PrototypeLexicon,
    SuffixSet,
)
from mg_audit.wordnet import Synset, WordNetSnapshot


def snapshot(records, human=(), nonhuman=()):
    synsets = {
        r["id"]: Synset(
            id=r["id"],
            lemmas=tuple(r.get("lemmas", [])),
            definition=r.get("definition", ""),
            hypernyms=tuple(r.get("hypernyms", [])),
        )
        for r in records
    }
    return WordNetSnapshot(
        synsets=synsets,
        human_synsets=frozenset(human),
        nonhuman_synsets=frozenset(nonhuman),
    )


class TestHypernymScore:
    def test_absent_word_scores_zero(self):
        wn = snapshot([])
        assert hypernym_score("fantôme", wn) == (0.0, 0.0)

    def test_single_path_one_human_anchor(self):
        # path: plumber.n.01 -> person.n.01 -> entity.n.01 (3 nodes, 1 human)
        wn = snapshot(
            [
                {"id": "entity.n.01"},
                {"id": "person.n.01", "hypernyms": ["entity.n.01"]},
                {"id": "plumber.n.01", "lemmas": ["plumber"],
                 "hypernyms": ["person.n.01"]},
            ],
            human={"person.n.01"},
        )
        assert hypernym_score("plumber", wn) == (1.0, 0.0)

    def test_two_paths_split_anchors(self):
        # second sense adds a 2-node path with one non-human anchor:
        # by hand, h_s = (1+0)/2 and n_s = (0+1)/2
        wn = snapshot(
            [
                {"id": "entity.n.01"},
                {"id": "person.n.01", "hypernyms": ["entity.n.01"]},
                {"id": "artifact.n.01"},
                {"id": "plumber.n.01", "lemmas": ["plumber"],
                 "hypernyms": ["person.n.01"]},
                {"id": "tool.n.01", "lemmas": ["plumber"],
                 "hypernyms": ["artifact.n.01"]},
            ],
            human={"person.n.01"},
            nonhuman={"artifact.n.01"},
        )
        assert hypernym_score("plumber", wn) == (0.5, 0.5)

    def test_counts_equal_enumerated_paths(self):
        # Multiple inheritance: paths share their tails, and a lemma
        # names several synsets.
        records, names = _random_dag(9, n=60, lemmas=20)
        wn = snapshot(records, human=names[1:60:4], nonhuman=names[:60:3])
        scored = 0
        for i in range(21):
            paths = [path for synset in wn.synsets_of(f"mot{i}")
                     for path in wn.hypernym_paths(synset.id)]
            if not paths:
                assert hypernym_score(f"mot{i}", wn) == (0.0, 0.0)
                continue
            human = sum(node in wn.human_synsets for path in paths for node in path)
            nonhuman = sum(node in wn.nonhuman_synsets for path in paths for node in path)
            assert hypernym_score(f"mot{i}", wn) == (human / len(paths), nonhuman / len(paths))
            scored += len(paths) > 20
        assert scored >= 4  # "mot20" names no synset

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            snapshot(
                [
                    {"id": "a", "hypernyms": ["b"]},
                    {"id": "b", "hypernyms": ["a"]},
                ]
            )


def _fixed_point_descendants(wn, root_ids):
    """The pass-until-nothing-changes closure, kept as the reference."""
    result = set(root_ids)
    changed = True
    while changed:
        changed = False
        for synset in wn.synsets.values():
            if synset.id not in result and any(h in result for h in synset.hypernyms):
                result.add(synset.id)
                changed = True
    return frozenset(result)


def _random_dag(seed, n=400, lemmas=150):
    """Records of a hypernym DAG with multiple inheritance, and its ids in
    topological order; the records are shuffled, so dict order is not."""
    rng = np.random.RandomState(seed)
    names = [f"s{i}.n.01" for i in rng.permutation(n)]
    records = []
    for i, name in enumerate(names):
        parents = rng.choice(i, size=min(i, rng.randint(0, 4)), replace=False) if i else []
        records.append({"id": name, "lemmas": [f"mot{i % lemmas}"],
                        "hypernyms": [names[j] for j in parents]})
    rng.shuffle(records)
    assert sum(len(r["hypernyms"]) > 1 for r in records) > n // 4
    return records, names


class TestDescendants:
    def test_agrees_with_fixed_point_on_a_multiple_inheritance_dag(self):
        records, names = _random_dag(8)
        wn = snapshot(records)
        for roots in ({names[0]}, {names[3], names[50], names[51]}, set(names[::7]),
                      {"absent.n.01", names[200]}, set()):
            assert wn.descendants(roots) == _fixed_point_descendants(wn, roots)
        assert len(wn.descendants({names[0]})) > 50

    def test_expand_anchors_on_load(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        records = [
            {"id": "entity.n.01"},
            {"id": "person.n.01", "hypernyms": ["entity.n.01"]},
            {"id": "artifact.n.01", "hypernyms": ["entity.n.01"]},
            {"id": "worker.n.01", "hypernyms": ["person.n.01"]},
            {"id": "robot.n.01", "hypernyms": ["artifact.n.01", "worker.n.01"]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        wn = WordNetSnapshot.load_jsonl(path, {"person.n.01"}, {"artifact.n.01"},
                                        expand_anchors=True)
        assert wn.human_synsets == {"person.n.01", "worker.n.01", "robot.n.01"}
        assert wn.nonhuman_synsets == {"artifact.n.01", "robot.n.01"}



class TestSnapshotRecords:
    """A snapshot record whose values do not fit is refused, naming the file
    and the line."""

    def test_string_for_a_list_names_file_and_line(self, tmp_path):
        # Read as a list, "médecin" would index the synset under seven letters.
        path = tmp_path / "wn.jsonl"
        records = [{"id": "entity.n.01"}, {"id": "doctor.n.01", "lemmas": "médecin"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: expected a string id")):
            WordNetSnapshot.load_jsonl(path)

    @pytest.mark.parametrize("record", [
        {"lemmas": ["médecin"]}, {"id": 3}, {"id": "d.n.01", "definition": 3},
        {"id": "d.n.01", "hypernyms": [["entity.n.01"]]}, ["d.n.01"],
    ], ids=["no-id", "int-id", "int-definition", "nested-hypernyms", "not-an-object"])
    def test_bad_record_is_refused(self, tmp_path, record):
        path = tmp_path / "wn.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: ")):
            WordNetSnapshot.load_jsonl(path)


class TestResourceJson:
    """Indicator and prototype files go through the config's schema reader:
    a message names the file, the key and the offending value."""

    @pytest.mark.parametrize("cls, content, message", [
        (IndicatorLexicon, {"human": ["who"], "nonhuman": ["object"], "humans": ["x"]},
         ": unknown key(s) ['humans']"),
        (IndicatorLexicon, {"human": "personne", "nonhuman": ["object"]},
         ".human: expected a list, got 'personne'"),
        (PrototypeLexicon, {"human": "médecin", "nonhuman": ["objet"]},
         ".human: expected a list, got 'médecin'"),
        (PrototypeLexicon, {"human": ["médecin"]}, ".nonhuman: missing required key"),
    ], ids=["indicators-unknown-key", "indicators-string-for-list",
            "prototypes-string-for-list", "prototypes-missing-key"])
    def test_bad_file_is_refused(self, tmp_path, cls, content, message):
        path = tmp_path / "resource.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            cls.load_json(path)

    def test_indicators_lowercased(self, tmp_path):
        path = tmp_path / "indicators.json"
        path.write_text(json.dumps({"human": ["Who"], "nonhuman": ["OBJECT"]}), encoding="utf-8")
        assert IndicatorLexicon.load_json(path) == IndicatorLexicon(
            frozenset({"who"}), frozenset({"object"}))
        with pytest.raises(ValueError, match="indicator sets must be disjoint"):
            IndicatorLexicon(frozenset({"Who"}), frozenset({"who"}))


class TestDefinitionScore:
    indicators = IndicatorLexicon(
        human_indicators=frozenset({"someone", "person", "who"}),
        nonhuman_indicators=frozenset({"object", "plant", "chemical"}),
    )

    def test_absent_word(self):
        assert definition_score("x", snapshot([]), self.indicators) == (0.0, 0.0)

    def test_hand_count(self):
        wn = snapshot(
            [{"id": "s1", "lemmas": ["plumber"],
              "definition": "someone who repairs pipes"}]
        )
        h_d, n_d = definition_score("plumber", wn, self.indicators)
        assert h_d == 2.0
        assert n_d == 0.0

    def test_token_match_not_substring(self):
        # "who" must not match inside "whole"
        wn = snapshot(
            [{"id": "s1", "lemmas": ["cake"], "definition": "a whole baked item"}]
        )
        assert definition_score("cake", wn, self.indicators) == (0.0, 0.0)

    def test_average_over_synsets(self):
        wn = snapshot(
            [
                {"id": "s1", "lemmas": ["x"], "definition": "someone strong"},
                {"id": "s2", "lemmas": ["x"], "definition": "an object and a plant"},
            ]
        )
        h_d, n_d = definition_score("x", wn, self.indicators)
        assert h_d == 0.5
        assert n_d == 1.0


def feature_row(word, resources):
    """The feature vector of one word: its row of `feature_matrix`."""
    return feature_matrix([word], resources)[0]


def embedding_features(word, emb, proto):
    """The (h_f, n_f) cosine scores of `word` with only embeddings and
    prototypes set."""
    resources = FeatureResources(
        wordnet=snapshot([]),
        indicators=IndicatorLexicon(frozenset(), frozenset()),
        prototypes=proto,
        embeddings=emb,
        suffixes=SuffixSet(frozenset()),
    )
    return tuple(feature_row(word, resources)[4:6])


class TestEmbeddingScore:
    def test_identical_prototype(self):
        emb = EmbeddingTable(2, {"mot": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("mot",), nonhuman_prototypes=())
        h_f, n_f = embedding_features("mot", emb, proto)
        assert h_f == pytest.approx(1.0)
        assert n_f == 0.0

    def test_orthogonal(self):
        emb = EmbeddingTable(
            2, {"mot": np.array([1.0, 0.0]), "chose": np.array([0.0, 1.0])}
        )
        proto = PrototypeLexicon(human_prototypes=("chose",), nonhuman_prototypes=())
        assert embedding_features("mot", emb, proto)[0] == pytest.approx(0.0)

    def test_mean_of_two_cosines(self):
        # prototypes at cosine 0.8 and 0.4 from the word: mean is 0.6
        emb = EmbeddingTable(
            2,
            {
                "mot": np.array([1.0, 0.0]),
                "p1": np.array([0.8, 0.6]),
                "p2": np.array([0.4, math.sqrt(1 - 0.16)]),
            },
        )
        proto = PrototypeLexicon(human_prototypes=("p1", "p2"), nonhuman_prototypes=())
        assert embedding_features("mot", emb, proto)[0] == pytest.approx(0.6)

    def test_oov_scores_zero(self):
        emb = EmbeddingTable(2, {"p": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("p",), nonhuman_prototypes=())
        assert embedding_features("absent", emb, proto) == (0.0, 0.0)

    def test_missing_prototype_raises(self):
        emb = EmbeddingTable(2, {"mot": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("absent",), nonhuman_prototypes=())
        with pytest.raises(ValueError, match="prototype 'absent' has no embedding vector"):
            embedding_features("mot", emb, proto)

    def test_zero_norm_contributes_zero(self):
        emb = EmbeddingTable(
            2, {"mot": np.array([1.0, 0.0]), "vide": np.array([0.0, 0.0])}
        )
        proto = PrototypeLexicon(human_prototypes=("vide",), nonhuman_prototypes=())
        assert embedding_features("mot", emb, proto)[0] == 0.0

    def test_bounds(self):
        rng = np.random.RandomState(5)
        vectors = {f"w{i}": rng.randn(8) for i in range(20)}
        emb = EmbeddingTable(8, vectors)
        proto = PrototypeLexicon(
            human_prototypes=("w0", "w1", "w2"), nonhuman_prototypes=("w3", "w4")
        )
        for i in range(5, 20):
            h_f, n_f = embedding_features(f"w{i}", emb, proto)
            assert -1.0 <= h_f <= 1.0
            assert -1.0 <= n_f <= 1.0


class TestSuffixScore:
    def test_match(self):
        assert suffix_score("chanteur", SuffixSet(frozenset({"eur"}))) == 1

    def test_no_match(self):
        assert suffix_score("table", SuffixSet(frozenset({"eur", "iste"}))) == 0

    def test_whole_word_suffix(self):
        assert suffix_score("eur", SuffixSet(frozenset({"eur"}))) == 1

    def test_prefix_invariance(self):
        sfx = SuffixSet(frozenset({"eur", "iste", "ien"}))
        for word in ("chanteur", "dentiste", "musicien", "table", "pomme"):
            base = suffix_score(word, sfx)
            assert suffix_score("xyz" + word, sfx) == base


def toy_resources(dim=4):
    wn = snapshot(
        [
            {"id": "entity.n.01"},
            {"id": "person.n.01", "hypernyms": ["entity.n.01"]},
            {"id": "singer.n.01", "lemmas": ["chanteur"],
             "definition": "someone who sings", "hypernyms": ["person.n.01"]},
        ],
        human={"person.n.01"},
    )
    indicators = IndicatorLexicon(
        human_indicators=frozenset({"someone", "who"}),
        nonhuman_indicators=frozenset({"object"}),
    )
    vectors = {
        "chanteur": np.array([1.0, 0.0, 0.0, 0.0]),
        "personne": np.array([1.0, 0.1, 0.0, 0.0]),
        "objet": np.array([0.0, 0.0, 1.0, 0.0]),
    }
    return FeatureResources(
        wordnet=wn,
        indicators=indicators,
        prototypes=PrototypeLexicon(
            human_prototypes=("personne",), nonhuman_prototypes=("objet",)
        ),
        embeddings=EmbeddingTable(dim, vectors),
        suffixes=SuffixSet(frozenset({"eur"})),
    )


class TestFeatureVector:
    def test_length_is_seven_plus_dim(self):
        resources = toy_resources()
        assert feature_row("chanteur", resources).shape == (11,)

    def test_length_with_300_dims(self):
        emb = EmbeddingTable(300, {"w": np.zeros(300) + 0.5})
        resources = FeatureResources(
            wordnet=snapshot([]),
            indicators=IndicatorLexicon(frozenset(), frozenset()),
            prototypes=PrototypeLexicon((), ()),
            embeddings=emb,
            suffixes=SuffixSet(frozenset({"eur"})),
        )
        assert len(feature_row("w", resources)) == 307

    def test_unknown_word_all_zero_flagged(self):
        resources = toy_resources()
        assert np.allclose(feature_row("zzz", resources), 0.0)

    def test_order_and_values(self):
        resources = toy_resources()
        arr = feature_row("chanteur", resources)
        assert arr[0] == 1.0  # one 3-node path with one human anchor
        assert arr[1] == 0.0
        assert arr[2] == 2.0  # someone + who
        assert arr[3] == 0.0
        assert arr[6] == 1.0  # -eur suffix
        assert np.allclose(arr[7:], [1.0, 0.0, 0.0, 0.0])

    def test_deterministic(self):
        resources = toy_resources()
        a = feature_row("chanteur", resources)
        b = feature_row("chanteur", resources)
        assert np.array_equal(a, b)

    def test_invariant_ranges(self):
        resources = toy_resources()
        for word in ("chanteur", "personne", "objet", "zzz"):
            h_s, n_s, h_d, n_d, h_f, n_f, s = feature_row(word, resources)[:7]
            assert h_s >= 0 and n_s >= 0
            assert h_d >= 0 and n_d >= 0
            assert -1.0 <= h_f <= 1.0 and -1.0 <= n_f <= 1.0
            assert s in (0, 1)


    def test_matrix_equals_stacked_vectors(self, caplog):
        rng = np.random.RandomState(4)
        resources = toy_resources()
        vectors = {w: resources.embeddings.get(w) for w in ("chanteur", "personne", "objet")}
        vectors.update({f"mot{i}": rng.randn(4) for i in range(20)})
        vectors["vide"] = np.zeros(4)
        resources = dataclasses.replace(resources, embeddings=EmbeddingTable(4, vectors))
        words = [*vectors, "inconnu", "chanteur"]  # an out-of-vocabulary word, a repeat
        expected = np.stack([feature_row(w, resources) for w in words])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mg_audit.features"):
            X = feature_matrix(words, resources)
        assert X.dtype == expected.dtype and X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()
        # "vide" against each of the two prototypes
        assert caplog.text.count("zero-norm vector in cosine") == 2


def _reference_cosine(a, b, norm_a, norm_b):
    norm = float(norm_a * norm_b)
    if norm == 0.0:
        features.logger.warning("zero-norm vector in cosine; contributing 0")
        return 0.0
    return float(np.clip(np.dot(a, b) / norm, -1.0, 1.0))


def _reference_mean_cosines(vec, tables):
    """The per-pair numpy form of the embedding scores, kept as the byte reference."""
    norm = np.linalg.norm(vec)

    def mean_cos(table):
        if not table:
            return 0.0
        return float(np.mean([_reference_cosine(vec, pvec, norm, pnorm) for pvec, pnorm in table]))

    return (mean_cos(tables[0]), mean_cos(tables[1]))


def _scored_wordnet():
    """Two senses of "maire" whose hypernym paths share person.n.01 and
    entity.n.01; the second lists the lemma twice, so `synsets_of` returns
    it twice."""
    return snapshot(
        [
            {"id": "entity.n.01"},
            {"id": "person.n.01", "hypernyms": ["entity.n.01"]},
            {"id": "artifact.n.01", "hypernyms": ["entity.n.01"]},
            {"id": "official.n.01", "hypernyms": ["person.n.01"]},
            {"id": "maire.n.01", "lemmas": ["maire"], "definition": "someone who leads a town",
             "hypernyms": ["official.n.01", "person.n.01"]},
            {"id": "maire.n.02", "lemmas": ["Maire", "maire"], "definition": "an object",
             "hypernyms": ["official.n.01", "artifact.n.01"]},
        ],
        human={"person.n.01"},
        nonhuman={"artifact.n.01"},
    )


def _prototype_resources(vectors, n_human, n_nonhuman):
    names = [w for w in vectors if w.startswith("p")]
    return FeatureResources(
        wordnet=_scored_wordnet(),
        indicators=IndicatorLexicon(frozenset({"someone", "who"}), frozenset({"object"})),
        prototypes=PrototypeLexicon(
            human_prototypes=tuple(names[:n_human]),
            nonhuman_prototypes=tuple(names[n_human:n_human + n_nonhuman]),
        ),
        embeddings=EmbeddingTable(16, vectors),
        suffixes=SuffixSet(frozenset({"ire", "7"})),
    )


def _reference_row(word, resources):
    """One feature row from the score functions and the per-pair cosines."""
    wn, emb = resources.wordnet, resources.embeddings
    tables = tuple(
        [(emb.get(name), np.linalg.norm(emb.get(name))) for name in names]
        for names in (resources.prototypes.human_prototypes,
                      resources.prototypes.nonhuman_prototypes)
    )
    vec = emb.get(word)
    h_f, n_f = (0.0, 0.0) if vec is None else _reference_mean_cosines(vec, tables)
    scalars = [*hypernym_score(word, wn), *definition_score(word, wn, resources.indicators),
               h_f, n_f, float(suffix_score(word, resources.suffixes))]
    return np.concatenate([scalars, np.zeros(emb.dimension) if vec is None else vec])


# An out-of-vocabulary word, an embedded word without synsets and "maire",
# whose senses share hypernym paths.
_SCORED_WORDS = ("absent", "w07", "maire")


class TestFeatureMatrixBytes:
    """`feature_matrix` has the bytes of the per-word, per-pair numpy reference."""

    def _assert_same(self, caplog, words, resources):
        with caplog.at_level(logging.WARNING, logger="mg_audit.features"):
            caplog.clear()
            X = feature_matrix(words, resources)
            warnings = caplog.text.count("zero-norm vector in cosine")
            caplog.clear()
            expected = np.stack([_reference_row(w, resources) for w in words])
            expected_warnings = caplog.text.count("zero-norm vector in cosine")
        assert X.dtype == expected.dtype and X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()
        assert warnings == expected_warnings
        return X, warnings

    @pytest.mark.parametrize("k", [0, 1, 3, 8, 9, 17])
    def test_prototypes_per_class(self, caplog, k):
        # 8 or more values are summed pairwise by numpy, not left to right
        rng = np.random.RandomState(100 + k)
        vectors = {f"p{i:02d}": rng.randn(16) * rng.uniform(0.1, 3.0) for i in range(2 * k)}
        vectors.update({f"w{i:02d}": rng.randn(16) * rng.uniform(0.1, 3.0) for i in range(80)})
        vectors["maire"] = rng.randn(16)
        words = [*vectors, *_SCORED_WORDS]
        X, _ = self._assert_same(caplog, words, _prototype_resources(vectors, k, k))
        if k == 0:
            assert not X[:, 4:6].any()
        # maire: 3 senses in `synsets_of` (maire.n.02 twice) with 2 paths each,
        # holding 2 + 1 + 1 human and 0 + 1 + 1 non-human anchors; definitions
        # hold 2 + 0 + 0 human and 0 + 1 + 1 non-human indicators; -ire suffix.
        maire = X[words.index("maire")]
        assert maire[[0, 1, 2, 3, 6]].tolist() == [4 / 6, 2 / 6, 2 / 3, 2 / 3, 1.0]
        assert not X[words.index("absent")].any()
        assert not X[words.index("w07"), :4].any() and X[words.index("w07"), 6] == 1.0

    def test_parallel_word_clipped(self, caplog):
        rng = np.random.RandomState(6)
        prototypes = {f"p{i}": rng.randn(16) for i in range(6)}
        vectors = dict(prototypes)
        for name, vec in prototypes.items():
            vectors[f"{name}_par"] = 3.0 * vec
            vectors[f"{name}_anti"] = -3.0 * vec
        vectors["maire"] = rng.randn(16)
        vectors["w07"] = rng.randn(16)
        resources = _prototype_resources(vectors, 1, 0)
        raw = [np.dot(vectors[w], prototypes["p0"])
               / float(np.linalg.norm(vectors[w]) * np.linalg.norm(prototypes["p0"]))
               for w in ("p0_par", "p0_anti")]
        assert raw[0] > 1.0 and raw[1] < -1.0  # both clips are exercised
        words = [*vectors, _SCORED_WORDS[0]]
        X, _ = self._assert_same(caplog, words, resources)
        assert X[words.index("p0_par"), 4] == 1.0
        assert X[words.index("p0_anti"), 4] == -1.0

    def test_zero_norm_word_and_prototype(self, caplog):
        rng = np.random.RandomState(3)
        vectors = {f"p{i}": rng.randn(16) for i in range(4)}
        vectors["p1"] = np.zeros(16)
        vectors.update({f"w{i}": rng.randn(16) for i in range(5)})
        vectors["w_zero"] = np.zeros(16)
        _, warnings = self._assert_same(caplog, list(vectors),
                                        _prototype_resources(vectors, 2, 2))
        # "p1" against each of the 10 words, and each zero-norm word
        # ("p1", "w_zero") against the other 3 prototypes
        assert warnings == 16

    def test_out_of_vocabulary_word_ignores_prototype_values(self, caplog):
        # 0 * inf is NaN: the zero row of a word without a vector must not
        # meet the prototypes at all
        vectors = {"p0": np.full(16, np.inf), "p1": np.zeros(16)}
        X, warnings = self._assert_same(caplog, ["absent"], _prototype_resources(vectors, 1, 1))
        assert not X.any() and warnings == 0


class TestEmbeddingTableIO:
    def test_load_text_format(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("2 3\nmot 1.0 0.0 0.5\nchose 0.0 1.0 0.5\n", encoding="utf-8")
        table = EmbeddingTable.load_text(path)
        assert table.dimension == 3
        assert np.allclose(table.get("mot"), [1.0, 0.0, 0.5])

    def test_vocab_size_mismatch(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("3 2\nmot 1.0 0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header declares 3 vectors, file has 1"):
            EmbeddingTable.load_text(path)

    def test_same_bytes_as_float_per_token(self, tmp_path):
        values = [
            "-0.0", "0.0", "5e-324", "2.2250738585072009e-308", "1.7976931348623157e308",
            "0.1000000000000000055511151231257827021181583404541015625",
            "9007199254740993", "-3.3333333333333333333333333333", "1e-400", "+2.5", ".5",
            "1E5", "-0.000123456789012345678901234567890",
        ]
        rows = [values[i:] + values[:i] for i in range(len(values))]
        body = f"{len(rows)} {len(values)}\n" + "".join(
            f"w{i} {' '.join(row)}\n" for i, row in enumerate(rows)
        )
        path = tmp_path / "emb.vec"
        path.write_text(body, encoding="utf-8")
        table = EmbeddingTable.load_text(path)
        assert len(table) == len(rows)
        for i, row in enumerate(rows):
            expected = np.array([float(x) for x in row], dtype=np.float64)
            got = table.get(f"w{i}")
            assert got.dtype == np.float64 and got.shape == (len(values),)
            assert got.tobytes() == expected.tobytes()

    def test_single_row(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("1 2\nmot -0.0 1e-310\n", encoding="utf-8")
        vec = EmbeddingTable.load_text(path).get("mot")
        assert vec.tobytes() == np.array([-0.0, 1e-310]).tobytes()

    def test_empty_table(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("0 3\n", encoding="utf-8")
        table = EmbeddingTable.load_text(path)
        assert len(table) == 0 and table.dimension == 3

    @pytest.mark.parametrize("header", ["3\n", "1 2 3\n", "\n"])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "emb.vec"
        path.write_text(header + "mot 1.0 0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="embedding header must be"):
            EmbeddingTable.load_text(path)

    def test_rows_ending_in_a_space_load(self, tmp_path):
        # fastText writes a space after every value
        path = tmp_path / "emb.vec"
        path.write_text("2 3\nmédecin 0.1 0.2 0.3 \npersonne 0.4 0.5 0.6 \n", encoding="utf-8")
        table = EmbeddingTable.load_text(path)
        assert table.get("médecin").tolist() == [0.1, 0.2, 0.3]
        assert table.get("personne").tolist() == [0.4, 0.5, 0.6]

    @pytest.mark.parametrize(
        "row", ["chose 1.0", "chose 1.0 0.0 0.5", "chose", "chose 1.0  0.0",
                "chose 1.0 ", "chose 1.0 0.0 0.5 "]
    )
    def test_bad_row_width_names_word(self, tmp_path, row):
        path = tmp_path / "emb.vec"
        path.write_text(f"2 2\nmot 1.0 0.0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad embedding row for 'chose'"):
            EmbeddingTable.load_text(path)
