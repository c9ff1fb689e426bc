"""Lexical resources backing the noun-feature scores."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class IndicatorLexicon:
    """Words searched in WordNet definitions (English, whole-token match)."""

    human_indicators: frozenset[str]
    nonhuman_indicators: frozenset[str]

    def __post_init__(self) -> None:
        if self.human_indicators & self.nonhuman_indicators:
            raise ValueError("indicator sets must be disjoint")

    @classmethod
    def load_json(cls, path: str | Path) -> "IndicatorLexicon":
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
        return cls(
            human_indicators=frozenset(w.lower() for w in data["human"]),
            nonhuman_indicators=frozenset(w.lower() for w in data["nonhuman"]),
        )


@dataclass(frozen=True)
class PrototypeLexicon:
    """Prototype words compared to candidates in embedding space."""

    human_prototypes: tuple[str, ...]
    nonhuman_prototypes: tuple[str, ...]

    def __post_init__(self) -> None:
        if set(self.human_prototypes) & set(self.nonhuman_prototypes):
            raise ValueError("prototype sets must be disjoint")

    @classmethod
    def load_json(cls, path: str | Path) -> "PrototypeLexicon":
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
        return cls(
            human_prototypes=tuple(data["human"]),
            nonhuman_prototypes=tuple(data["nonhuman"]),
        )


@dataclass(frozen=True)
class SuffixSet:
    suffixes: frozenset[str]

    def __post_init__(self) -> None:
        if any(not s for s in self.suffixes):
            raise ValueError("suffixes must be non-empty strings")

    @classmethod
    def load_text(cls, path: str | Path) -> "SuffixSet":
        with open(path, encoding="utf-8") as fp:
            suffixes = frozenset(line.strip() for line in fp if line.strip())
        return cls(suffixes=suffixes)


class EmbeddingTable:
    """Word vectors in the plain fastText text format.

    First line: "vocab_size dimension"; then one "token c1 ... cd" line per
    word, space-separated.
    """

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        self.dimension = dimension
        for token, vec in vectors.items():
            if vec.shape != (dimension,):
                raise ValueError(f"vector for {token!r} has wrong shape {vec.shape}")
        self._vectors = vectors

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token)

    @classmethod
    def load_text(cls, path: str | Path) -> "EmbeddingTable":
        with open(path, encoding="utf-8") as fp:
            header = fp.readline().split()
            if len(header) != 2:
                raise ValueError("embedding header must be 'vocab_size dimension'")
            vocab_size, dimension = int(header[0]), int(header[1])
            words: list[str] = []

            def tails():
                for line in fp:
                    row = line.rstrip("\n")
                    word, _, tail = row.partition(" ")
                    if row.count(" ") != dimension:
                        raise ValueError(f"bad embedding row for {word!r}")
                    words.append(word)
                    yield tail

            # One C-level parse streams every row into one matrix, whose
            # rows become the vectors; no list of row strings is held.
            rows = tails()
            first = next(rows, None)
            if first is None:  # loadtxt warns on empty input
                matrix = np.empty((0, dimension))
            else:
                matrix = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64,
                                    delimiter=" ", comments=None, quotechar=None, ndmin=2)
        vectors = dict(zip(words, matrix))
        if len(vectors) != vocab_size:
            raise ValueError(
                f"header declares {vocab_size} vectors, file has {len(vectors)}"
            )
        return cls(dimension=dimension, vectors=vectors)
