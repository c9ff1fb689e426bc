import dataclasses
import logging
import math

import numpy as np
import pytest

from mg_audit.features import (
    FeatureResources,
    build_feature_vector,
    definition_score,
    embedding_score,
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

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            snapshot(
                [
                    {"id": "a", "hypernyms": ["b"]},
                    {"id": "b", "hypernyms": ["a"]},
                ]
            )


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


class TestEmbeddingScore:
    def test_identical_prototype(self):
        emb = EmbeddingTable(2, {"mot": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("mot",), nonhuman_prototypes=())
        h_f, n_f = embedding_score("mot", emb, proto)
        assert h_f == pytest.approx(1.0)
        assert n_f == 0.0

    def test_orthogonal(self):
        emb = EmbeddingTable(
            2, {"mot": np.array([1.0, 0.0]), "chose": np.array([0.0, 1.0])}
        )
        proto = PrototypeLexicon(human_prototypes=("chose",), nonhuman_prototypes=())
        assert embedding_score("mot", emb, proto)[0] == pytest.approx(0.0)

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
        assert embedding_score("mot", emb, proto)[0] == pytest.approx(0.6)

    def test_oov_scores_zero(self):
        emb = EmbeddingTable(2, {"p": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("p",), nonhuman_prototypes=())
        assert embedding_score("absent", emb, proto) == (0.0, 0.0)

    def test_missing_prototype_raises(self):
        emb = EmbeddingTable(2, {"mot": np.array([1.0, 0.0])})
        proto = PrototypeLexicon(human_prototypes=("absent",), nonhuman_prototypes=())
        with pytest.raises(KeyError):
            embedding_score("mot", emb, proto)

    def test_zero_norm_contributes_zero(self):
        emb = EmbeddingTable(
            2, {"mot": np.array([1.0, 0.0]), "vide": np.array([0.0, 0.0])}
        )
        proto = PrototypeLexicon(human_prototypes=("vide",), nonhuman_prototypes=())
        assert embedding_score("mot", emb, proto)[0] == 0.0

    def test_bounds(self):
        rng = np.random.RandomState(5)
        vectors = {f"w{i}": rng.randn(8) for i in range(20)}
        emb = EmbeddingTable(8, vectors)
        proto = PrototypeLexicon(
            human_prototypes=("w0", "w1", "w2"), nonhuman_prototypes=("w3", "w4")
        )
        for i in range(5, 20):
            h_f, n_f = embedding_score(f"w{i}", emb, proto)
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
        vec = build_feature_vector("chanteur", resources)
        assert len(vec) == 11
        assert vec.to_array().shape == (11,)

    def test_length_with_300_dims(self):
        emb = EmbeddingTable(300, {"w": np.zeros(300) + 0.5})
        resources = FeatureResources(
            wordnet=snapshot([]),
            indicators=IndicatorLexicon(frozenset(), frozenset()),
            prototypes=PrototypeLexicon((), ()),
            embeddings=emb,
            suffixes=SuffixSet(frozenset({"eur"})),
        )
        assert len(build_feature_vector("w", resources).to_array()) == 307

    def test_unknown_word_all_zero_flagged(self):
        resources = toy_resources()
        vec = build_feature_vector("zzz", resources)
        assert vec.missing_embedding
        assert np.allclose(vec.to_array(), 0.0)

    def test_order_and_values(self):
        resources = toy_resources()
        vec = build_feature_vector("chanteur", resources)
        arr = vec.to_array()
        assert arr[0] == 1.0  # one 3-node path with one human anchor
        assert arr[1] == 0.0
        assert arr[2] == 2.0  # someone + who
        assert arr[3] == 0.0
        assert arr[6] == 1.0  # -eur suffix
        assert np.allclose(arr[7:], [1.0, 0.0, 0.0, 0.0])

    def test_deterministic(self):
        resources = toy_resources()
        a = build_feature_vector("chanteur", resources).to_array()
        b = build_feature_vector("chanteur", resources).to_array()
        assert np.array_equal(a, b)

    def test_invariant_ranges(self):
        resources = toy_resources()
        for word in ("chanteur", "personne", "objet", "zzz"):
            vec = build_feature_vector(word, resources)
            assert vec.h_s >= 0 and vec.n_s >= 0
            assert vec.h_d >= 0 and vec.n_d >= 0
            assert -1.0 <= vec.h_f <= 1.0 and -1.0 <= vec.n_f <= 1.0
            assert vec.s in (0, 1)


    def test_matrix_equals_stacked_vectors(self, caplog):
        rng = np.random.RandomState(4)
        resources = toy_resources()
        vectors = {w: resources.embeddings.get(w) for w in ("chanteur", "personne", "objet")}
        vectors.update({f"mot{i}": rng.randn(4) for i in range(20)})
        vectors["vide"] = np.zeros(4)
        resources = dataclasses.replace(resources, embeddings=EmbeddingTable(4, vectors))
        words = [*vectors, "inconnu", "chanteur"]  # an out-of-vocabulary word, a repeat
        expected = np.stack([build_feature_vector(w, resources).to_array() for w in words])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mg_audit.features"):
            X = feature_matrix(words, resources)
        assert X.dtype == expected.dtype and X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()
        # "vide" against each of the two prototypes
        assert caplog.text.count("zero-norm vector in cosine") == 2


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

    @pytest.mark.parametrize(
        "row", ["chose 1.0", "chose 1.0 0.0 0.5", "chose", "chose 1.0  0.0", "chose 1.0 0.0 "]
    )
    def test_bad_row_width_names_word(self, tmp_path, row):
        path = tmp_path / "emb.vec"
        path.write_text(f"2 2\nmot 1.0 0.0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad embedding row for 'chose'"):
            EmbeddingTable.load_text(path)
