"""Classifier members, training on an 80/20 split, full-agreement voting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import GBTParams, GradientBoostedTrees
from .ioutil import atomic_write_text, jsonl_line
from .logistic import LogisticRegressionL1

# The model class of each member kind.
MEMBER_MODELS = {"logistic_regression": LogisticRegressionL1,
                 "gradient_boosted_trees": GradientBoostedTrees}

ARTIFACT_FORMAT_VERSION = 1

VALIDATION_FRACTION = 0.2


def stratified_split(
    y: np.ndarray, validation_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index split keeping the class ratio in both halves."""
    rng = np.random.RandomState(seed)
    train_idx: list[np.ndarray] = []
    valid_idx: list[np.ndarray] = []
    for label in np.unique(y):
        members = np.nonzero(y == label)[0]
        members = members[rng.permutation(len(members))]
        n_valid = max(1, int(round(validation_fraction * len(members))))
        valid_idx.append(members[:n_valid])
        train_idx.append(members[n_valid:])
    train = np.sort(np.concatenate(train_idx))
    valid = np.sort(np.concatenate(valid_idx))
    return train, valid


@dataclass
class ClassifierMember:
    """One trained ensemble member plus its held-out accuracy."""

    kind: str
    model: LogisticRegressionL1 | GradientBoostedTrees
    validation_accuracy: float
    split_seed: int
    data_checksum: str | None = None

    def vote(self, x: np.ndarray) -> bool:
        return bool(self.model.predict(np.atleast_2d(x))[0] == 1)

    def save(self, path: str | Path) -> None:
        """One JSON line: the fields, the model as its dict, and the format version."""
        payload = {**vars(self), "model": self.model.to_dict(),
                   "format_version": ARTIFACT_FORMAT_VERSION}
        atomic_write_text(path, jsonl_line(payload))

    @classmethod
    def load(cls, path: str | Path) -> "ClassifierMember":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.pop("format_version", None)
        if version != ARTIFACT_FORMAT_VERSION:
            raise ValueError(f"unsupported artifact version: {version}")
        if payload["kind"] not in MEMBER_MODELS:
            raise ValueError(f"unknown member kind: {payload['kind']}")
        payload["model"] = MEMBER_MODELS[payload["kind"]].from_dict(payload["model"])
        return cls(**payload)


def train_member(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: dict | None = None,
    split_seed: int = 42,
    data_checksum: str | None = None,
) -> ClassifierMember:
    """Train one member on an 80/20 stratified split and score the held-out part.

    Raises on single-class data. Hyperparameters default to the tuned
    values shipped with the package.
    """
    if kind not in MEMBER_MODELS:
        raise ValueError(f"unknown member kind: {kind!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")

    train_idx, valid_idx = stratified_split(y, VALIDATION_FRACTION, split_seed)
    hyperparams = hyperparams or {}

    if kind == "logistic_regression":
        model: LogisticRegressionL1 | GradientBoostedTrees = LogisticRegressionL1(**hyperparams)
        model.fit(X[train_idx], y[train_idx])
    else:
        model = GradientBoostedTrees(params=GBTParams(**hyperparams))
        model.fit(X[train_idx], y[train_idx], eval_set=(X[valid_idx], y[valid_idx]))

    predictions = model.predict(X[valid_idx])
    accuracy = float(np.mean(predictions == y[valid_idx]))
    return ClassifierMember(
        kind=kind,
        model=model,
        validation_accuracy=accuracy,
        split_seed=split_seed,
        data_checksum=data_checksum,
    )


@dataclass(frozen=True)
class EnsembleVerdict:
    votes: dict[str, bool]
    accepted: bool

    def __post_init__(self) -> None:
        if self.accepted != all(self.votes.values()):
            raise ValueError("accepted must equal the conjunction of votes")


def ensemble_classify(x: np.ndarray, members: list[ClassifierMember]) -> EnsembleVerdict:
    """Full-agreement decision: feature row `x` is accepted only if every
    member votes human."""
    if not members:
        raise ValueError("at least one member is required")
    votes: dict[str, bool] = {}
    for index, member in enumerate(members):
        votes[f"{member.kind}_{index}"] = member.vote(x)
    return EnsembleVerdict(votes=votes, accepted=all(votes.values()))
