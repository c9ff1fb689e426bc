"""Per-word feature scores for the human-noun classifier.

Four score families feed the classifiers: hypernym-path counts against
human/non-human anchor synsets, indicator-word counts over synset
definitions, mean cosine similarity to prototype words, and a binary
suffix flag. The feature vector concatenates the seven scalars with the
word's embedding.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

import numpy as np

from .resources import EmbeddingTable, IndicatorLexicon, PrototypeLexicon, SuffixSet
from .wordnet import WordNetSnapshot

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def hypernym_score(word: str, wn: WordNetSnapshot) -> tuple[float, float]:
    """Average count of anchor synsets per hypernym path.

    Every hypernym path of every synset of the word contributes the number
    of its nodes that are human (resp. non-human) anchors; both sums are
    divided by the number of paths. A word without synsets scores (0, 0).
    """
    paths: list[list[str]] = []
    for synset in wn.synsets_of(word):
        paths.extend(wn.hypernym_paths(synset.id))
    if not paths:
        return (0.0, 0.0)
    human = sum(1 for path in paths for node in path if node in wn.human_synsets)
    nonhuman = sum(1 for path in paths for node in path if node in wn.nonhuman_synsets)
    return (human / len(paths), nonhuman / len(paths))


def definition_score(
    word: str, wn: WordNetSnapshot, indicators: IndicatorLexicon
) -> tuple[float, float]:
    """Average indicator-token count over the word's synset definitions.

    Counting is whole-token and case-insensitive, so "who" does not match
    inside "whole". A word without synsets scores (0, 0).
    """
    synsets = wn.synsets_of(word)
    if not synsets:
        return (0.0, 0.0)
    human = 0
    nonhuman = 0
    for synset in synsets:
        tokens = _tokens(synset.definition)
        human += sum(1 for t in tokens if t in indicators.human_indicators)
        nonhuman += sum(1 for t in tokens if t in indicators.nonhuman_indicators)
    return (human / len(synsets), nonhuman / len(synsets))


def _cosine(a: np.ndarray, b: np.ndarray, norm_a: float, norm_b: float) -> float:
    norm = float(norm_a * norm_b)
    if norm == 0.0:
        logger.warning("zero-norm vector in cosine; contributing 0")
        return 0.0
    return float(np.clip(np.dot(a, b) / norm, -1.0, 1.0))


def _prototype_norms(emb: EmbeddingTable, proto: PrototypeLexicon) -> tuple[list, list]:
    """(vector, norm) of each human and of each non-human prototype."""

    def table(prototypes: tuple[str, ...]) -> list[tuple[np.ndarray, float]]:
        rows = []
        for p in prototypes:
            pvec = emb.get(p)
            if pvec is None:
                raise KeyError(f"prototype {p!r} has no embedding vector")
            rows.append((pvec, np.linalg.norm(pvec)))
        return rows

    return table(proto.human_prototypes), table(proto.nonhuman_prototypes)


def _mean_cosines(vec: np.ndarray, tables: tuple[list, list]) -> tuple[float, float]:
    norm = np.linalg.norm(vec)

    def mean_cos(table: list[tuple[np.ndarray, float]]) -> float:
        if not table:
            return 0.0
        return float(np.mean([_cosine(vec, pvec, norm, pnorm) for pvec, pnorm in table]))

    return (mean_cos(tables[0]), mean_cos(tables[1]))


def embedding_score(
    word: str, emb: EmbeddingTable, proto: PrototypeLexicon
) -> tuple[float, float]:
    """Mean cosine similarity between the word vector and each prototype set.

    A word without a vector scores (0, 0); a missing prototype vector is a
    configuration error.
    """
    vec = emb.get(word)
    if vec is None:
        return (0.0, 0.0)
    return _mean_cosines(vec, _prototype_norms(emb, proto))


def suffix_score(word: str, sfx: SuffixSet) -> int:
    """1 iff the word ends with one of the configured suffixes."""
    return 1 if any(word.endswith(s) for s in sfx.suffixes) else 0


@dataclass(frozen=True)
class FeatureResources:
    wordnet: WordNetSnapshot
    indicators: IndicatorLexicon
    prototypes: PrototypeLexicon
    embeddings: EmbeddingTable
    suffixes: SuffixSet


@dataclass(frozen=True)
class FeatureVector:
    h_s: float
    n_s: float
    h_d: float
    n_d: float
    h_f: float
    n_f: float
    s: int
    embedding: np.ndarray
    missing_embedding: bool

    def to_array(self) -> np.ndarray:
        scalars = np.array(
            [self.h_s, self.n_s, self.h_d, self.n_d, self.h_f, self.n_f, float(self.s)],
            dtype=np.float64,
        )
        return np.concatenate([scalars, self.embedding])

    def __len__(self) -> int:
        return 7 + len(self.embedding)


def build_feature_vector(word: str, resources: FeatureResources) -> FeatureVector:
    """Assemble the fixed-order feature vector for one word.

    Order: [h_s, n_s, h_d, n_d, h_f, n_f, s, embedding]. Out-of-vocabulary
    words get a zero embedding and the missing flag.
    """
    return _feature_vector(
        word, resources, _prototype_norms(resources.embeddings, resources.prototypes)
    )


def _feature_vector(
    word: str, resources: FeatureResources, prototypes: tuple[list, list]
) -> FeatureVector:
    h_s, n_s = hypernym_score(word, resources.wordnet)
    h_d, n_d = definition_score(word, resources.wordnet, resources.indicators)
    vec = resources.embeddings.get(word)
    missing = vec is None
    h_f, n_f = (0.0, 0.0) if missing else _mean_cosines(vec, prototypes)
    s = suffix_score(word, resources.suffixes)
    if missing:
        vec = np.zeros(resources.embeddings.dimension, dtype=np.float64)
    return FeatureVector(
        h_s=h_s,
        n_s=n_s,
        h_d=h_d,
        n_d=n_d,
        h_f=h_f,
        n_f=n_f,
        s=s,
        embedding=np.asarray(vec, dtype=np.float64),
        missing_embedding=missing,
    )


def feature_matrix(words: list[str], resources: FeatureResources) -> np.ndarray:
    """Stack feature vectors for a word list into an (n, 7+d) matrix.

    Equal to stacking `build_feature_vector` rows; each prototype norm is
    computed once per call and each word norm once per word.
    """
    prototypes = _prototype_norms(resources.embeddings, resources.prototypes)
    return np.stack([_feature_vector(w, resources, prototypes).to_array() for w in words])
