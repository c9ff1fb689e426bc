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


def _path_counts(synset_id: str, wn: WordNetSnapshot, memo: dict) -> tuple[int, int, int]:
    """(hypernym paths, human anchor nodes, non-human anchor nodes) over the
    paths that start at the synset, memoized in `memo`.

    Each path is the synset followed by a path of one of its hypernyms, so
    the counts are the hypernyms' sums plus, for an anchor, one node per
    path: the integers that enumerating `wn.hypernym_paths` would count.
    """
    if synset_id not in memo:
        hypernyms = wn.synsets[synset_id].hypernyms
        paths = human = nonhuman = 0
        for hyper in hypernyms:
            p, h, n = _path_counts(hyper, wn, memo)
            paths, human, nonhuman = paths + p, human + h, nonhuman + n
        paths = paths or 1
        if synset_id in wn.human_synsets:
            human += paths
        if synset_id in wn.nonhuman_synsets:
            nonhuman += paths
        memo[synset_id] = (paths, human, nonhuman)
    return memo[synset_id]


def _indicator_counts(definition: str, indicators: IndicatorLexicon) -> tuple[int, int]:
    """(human, non-human) indicator tokens in one definition."""
    tokens = _tokens(definition)
    return (sum(map(indicators.human_indicators.__contains__, tokens)),
            sum(map(indicators.nonhuman_indicators.__contains__, tokens)))


def hypernym_score(word: str, wn: WordNetSnapshot) -> tuple[float, float]:
    """Average count of anchor synsets per hypernym path.

    Every hypernym path of every synset of the word contributes the number
    of its nodes that are human (resp. non-human) anchors; both sums are
    divided by the number of paths. A word without synsets scores (0, 0).
    """
    synsets = wn.synsets_of(word)
    if not synsets:
        return (0.0, 0.0)
    memo: dict = {}
    paths, human, nonhuman = map(sum, zip(*(_path_counts(s.id, wn, memo) for s in synsets)))
    return (human / paths, nonhuman / paths)


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
    human, nonhuman = map(sum, zip(*(_indicator_counts(s.definition, indicators)
                                     for s in synsets)))
    return (human / len(synsets), nonhuman / len(synsets))


def _row_norms(M: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of M: the square root of its `ddot` with itself."""
    return np.sqrt(np.matmul(M[:, None, :], M[:, :, None])[:, 0, 0])


def _prototype_matrix(emb: EmbeddingTable, prototypes: tuple[str, ...]) -> np.ndarray:
    """The prototypes' vectors, one row each."""
    rows = []
    for p in prototypes:
        pvec = emb.get(p)
        if pvec is None:
            raise ValueError(f"prototype {p!r} has no embedding vector")
        rows.append(pvec)
    return np.array(rows, dtype=np.float64).reshape(len(rows), emb.dimension)


def _mean_cosine_column(V: np.ndarray, norms: np.ndarray, P: np.ndarray,
                        embedded: np.ndarray) -> np.ndarray:
    """Mean clipped cosine between each row of V (of norm `norms`) and the rows of P.

    Each pair's dot is its own `ddot`, as a stacked (1, d) @ (d, 1) matmul
    computes it, so it has the bytes of `np.dot` on the two vectors; a
    (d, k) gemm need not. Each row is averaged as `np.mean` averages
    (`np.add.reduce`, pairwise from 8 values on, then a division). A zero
    norm contributes 0 and logs one warning per pair. A row that
    `embedded` leaves out scores 0 without a warning.
    """
    if not len(P):
        return np.zeros(len(V))
    with np.errstate(divide="ignore", invalid="ignore"):
        dots = np.matmul(V[:, None, None, :], P[None, :, :, None])[:, :, 0, 0]
        denom = norms[:, None] * _row_norms(P)[None, :]
        cosines = np.minimum(np.maximum(dots / denom, -1.0), 1.0)
    zero = denom == 0.0
    for _ in range(np.count_nonzero(zero[embedded])):
        logger.warning("zero-norm vector in cosine; contributing 0")
    cosines[zero | ~embedded[:, None]] = 0.0
    return np.add.reduce(cosines, axis=1) / len(P)


def suffix_score(word: str, sfx: SuffixSet) -> int:
    """1 iff the word ends with one of the configured suffixes."""
    return 1 if word.endswith(tuple(sfx.suffixes)) else 0


@dataclass(frozen=True)
class FeatureResources:
    wordnet: WordNetSnapshot
    indicators: IndicatorLexicon
    prototypes: PrototypeLexicon
    embeddings: EmbeddingTable
    suffixes: SuffixSet


def feature_matrix(words: list[str], resources: FeatureResources) -> np.ndarray:
    """The (n, 7+d) feature rows of a word list, one per word, in the order
    [h_s, n_s, h_d, n_d, h_f, n_f, s, embedding]. An out-of-vocabulary word
    gets a zero embedding and zero cosine scores.

    Each synset's path and indicator counts are computed once per call and
    summed as integers per word, over `synsets_of`'s list with its
    duplicates, then divided as the score functions divide. The embedding
    rows are gathered once, straight into the matrix, and the cosine
    columns come from one batched kernel with the bytes of per-pair
    `np.dot`.
    """
    wn, emb = resources.wordnet, resources.embeddings
    human_p = _prototype_matrix(emb, resources.prototypes.human_prototypes)
    nonhuman_p = _prototype_matrix(emb, resources.prototypes.nonhuman_prototypes)
    paths: dict = {}
    counts: dict[str, tuple[int, ...]] = {}

    def synset_counts(synset) -> tuple[int, ...]:
        """(paths, human nodes, non-human nodes, 1, human tokens, non-human tokens)."""
        if synset.id not in counts:
            counts[synset.id] = (*_path_counts(synset.id, wn, paths), 1,
                                 *_indicator_counts(synset.definition, resources.indicators))
        return counts[synset.id]

    rows, row_counts = [], []
    for i, synsets in enumerate(map(wn.synsets_of, words)):
        for synset in synsets:
            rows.append(i)
            row_counts.append(synset_counts(synset))
    totals = np.zeros((len(words), 6), dtype=np.int64)
    np.add.at(totals, rows, np.array(row_counts, dtype=np.int64).reshape(len(rows), 6))
    X = np.zeros((len(words), 7 + emb.dimension))
    # A word without synsets has zero counts over a divisor of 1: it scores 0.0.
    X[:, 0:2] = totals[:, 1:3] / np.maximum(totals[:, 0:1], 1)
    X[:, 2:4] = totals[:, 4:6] / np.maximum(totals[:, 3:4], 1)
    suffixes = tuple(resources.suffixes.suffixes)
    X[:, 6] = [word.endswith(suffixes) for word in words]
    E = X[:, 7:]
    embedded = np.zeros(len(words), dtype=bool)
    for i, word in enumerate(words):
        vec = emb.get(word)
        if vec is not None:
            E[i] = vec
            embedded[i] = True
    norms = _row_norms(E)
    X[:, 4] = _mean_cosine_column(E, norms, human_p, embedded)
    X[:, 5] = _mean_cosine_column(E, norms, nonhuman_p, embedded)
    return X
