"""Gradient-boosted regression trees for binary classification.

Second-order boosting on the logistic loss: each round fits a tree to the
per-sample gradients g = p - y and hessians h = p(1 - p), with exact
greedy split search and Newton leaf weights -G/(H + lambda). Supports
min-child-weight (hessian mass), L1/L2 leaf regularization, gamma split
threshold, row subsampling and early stopping on a validation set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logistic import _sigmoid


@dataclass
class GBTParams:
    learning_rate: float = 0.22394632872649503
    max_depth: int = 10
    min_child_weight: float = 78.0
    n_estimators: int = 912
    early_stopping_rounds: int | None = 20
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    gamma: float = 0.0
    reg_alpha: float = 0.0
    reg_lambda: float = 0.0
    seed: int = 42

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        assert self.left is not None and self.right is not None
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_Node":
        if "value" in data:
            return cls(value=data["value"])
        return cls(
            feature=data["feature"],
            threshold=data["threshold"],
            left=cls.from_dict(data["left"]),
            right=cls.from_dict(data["right"]),
        )


def _leaf_value(G: float, H: float, alpha: float, lam: float) -> float:
    denom = H + lam
    if denom <= 1e-12:
        return 0.0
    if alpha > 0.0:
        G = np.sign(G) * max(abs(G) - alpha, 0.0)
    return -G / denom


def _gain_term(G: np.ndarray, H: np.ndarray, lam: float) -> np.ndarray:
    return G * G / np.maximum(H + lam, 1e-12)


class _TreeBuilder:
    def __init__(self, params: GBTParams, feature_ids: np.ndarray):
        self.p = params
        self.feature_ids = feature_ids  # columns considered at this tree

    def build(self, X: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int = 0) -> _Node:
        p = self.p
        G, H = float(g.sum()), float(h.sum())
        leaf = _Node(value=_leaf_value(G, H, p.reg_alpha, p.reg_lambda))
        if depth >= p.max_depth or len(g) < 2:
            return leaf

        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        parent_term = _gain_term(np.array(G), np.array(H), p.reg_lambda)
        for feature in self.feature_ids:
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            x_sorted = column[order]
            g_cum = np.cumsum(g[order])
            h_cum = np.cumsum(h[order])
            # Split between consecutive distinct values only.
            boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
            if boundaries.size == 0:
                continue
            GL, HL = g_cum[boundaries], h_cum[boundaries]
            GR, HR = G - GL, H - HL
            valid = (HL >= p.min_child_weight) & (HR >= p.min_child_weight)
            if not valid.any():
                continue
            gains = 0.5 * (
                _gain_term(GL, HL, p.reg_lambda)
                + _gain_term(GR, HR, p.reg_lambda)
                - parent_term
            ) - p.gamma
            gains = np.where(valid, gains, -np.inf)
            idx = int(np.argmax(gains))
            if gains[idx] > best_gain + 1e-12:
                best_gain = float(gains[idx])
                best_feature = int(feature)
                cut = int(boundaries[idx])
                best_threshold = float((x_sorted[cut] + x_sorted[cut + 1]) / 2.0)

        if best_feature < 0:
            return leaf
        mask = X[:, best_feature] < best_threshold
        node = _Node(feature=best_feature, threshold=best_threshold)
        node.left = self.build(X[mask], g[mask], h[mask], depth + 1)
        node.right = self.build(X[~mask], g[~mask], h[~mask], depth + 1)
        return node


def _predict_tree(node: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        current, idx = stack.pop()
        if current.is_leaf:
            out[idx] = current.value
            continue
        assert current.left is not None and current.right is not None
        mask = X[idx, current.feature] < current.threshold
        stack.append((current.left, idx[mask]))
        stack.append((current.right, idx[~mask]))
    return out


def _binary_log_loss(raw: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


@dataclass
class GradientBoostedTrees:
    params: GBTParams = field(default_factory=GBTParams)
    trees: list[_Node] = field(default_factory=list)
    base_score: float = 0.0
    best_iteration: int = 0
    train_losses: list[float] = field(default_factory=list)
    eval_losses: list[float] = field(default_factory=list)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostedTrees":
        p = self.params
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be 0/1")
        rng = np.random.RandomState(p.seed)
        n, d = X.shape

        self.trees = []
        self.train_losses = []
        self.eval_losses = []
        raw = np.full(n, self.base_score)
        raw_eval = None
        if eval_set is not None:
            X_eval = np.asarray(eval_set[0], dtype=np.float64)
            y_eval = np.asarray(eval_set[1], dtype=np.float64)
            raw_eval = np.full(X_eval.shape[0], self.base_score)

        best_eval = np.inf
        rounds_since_best = 0
        for _ in range(p.n_estimators):
            prob = _sigmoid(raw)
            g = prob - y
            h = np.maximum(prob * (1.0 - prob), 1e-16)

            rows = np.arange(n)
            if p.subsample < 1.0:
                keep = max(1, int(round(p.subsample * n)))
                rows = rng.choice(n, size=keep, replace=False)
                rows.sort()
            cols = np.arange(d)
            if p.colsample_bytree < 1.0:
                keep = max(1, int(round(p.colsample_bytree * d)))
                cols = rng.choice(d, size=keep, replace=False)
                cols.sort()

            tree = _TreeBuilder(p, cols).build(X[rows], g[rows], h[rows])
            self.trees.append(tree)
            raw = raw + p.learning_rate * _predict_tree(tree, X)
            self.train_losses.append(_binary_log_loss(raw, y))

            if raw_eval is not None:
                raw_eval = raw_eval + p.learning_rate * _predict_tree(tree, X_eval)
                loss = _binary_log_loss(raw_eval, y_eval)
                self.eval_losses.append(loss)
                if loss < best_eval - 1e-12:
                    best_eval = loss
                    self.best_iteration = len(self.trees)
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        p.early_stopping_rounds is not None
                        and rounds_since_best >= p.early_stopping_rounds
                    ):
                        self.trees = self.trees[: self.best_iteration]
                        break
            else:
                self.best_iteration = len(self.trees)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            raw += self.params.learning_rate * _predict_tree(tree, X)
        return raw

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "base_score": self.base_score,
            "best_iteration": self.best_iteration,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedTrees":
        model = cls(params=GBTParams(**data["params"]))
        model.base_score = float(data["base_score"])
        model.best_iteration = int(data["best_iteration"])
        model.trees = [_Node.from_dict(t) for t in data["trees"]]
        return model
