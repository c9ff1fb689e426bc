"""Gradient-boosted regression trees for binary classification.

Second-order boosting on the logistic loss: each round fits a tree to the
per-sample gradients g = p - y and hessians h = p(1 - p), with exact
greedy split search and Newton leaf weights -G/(H + lambda). The search
is presorted (XGBoost's column blocks, arXiv:1603.02754): each column is
sorted stably once per fit and its row list is split stably at each node,
which gives the trees of a stable sort at every node. Supports
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


_BLOCK_ELEMENTS = 1 << 16  # values per gathered block, so a block's arrays stay in cache


def _select(lists: np.ndarray, ranks: np.ndarray, rows: np.ndarray, n: int):
    """Keep only `rows` in every feature's sorted list, in list order."""
    keep = np.zeros(n, dtype=bool)
    keep[rows] = True
    flags = keep[lists].ravel()
    return (np.compress(flags, lists).reshape(len(lists), -1),
            np.compress(flags, ranks).reshape(len(lists), -1))


class _TreeBuilder:
    """Exact greedy split search over the columns of X, each sorted once."""

    def __init__(self, X: np.ndarray, params: GBTParams):
        n, d = X.shape
        self.X, self.p = X, params
        dtype = np.min_scalar_type(max(n - 1, 0))
        self.order = np.empty((d, n), dtype=dtype)
        self.rank = np.zeros((d, n), dtype=dtype)  # dense rank of each sorted value
        for j in range(d):
            self.order[j] = np.argsort(X[:, j], kind="stable")
            x_sorted = X[self.order[j], j]
            np.cumsum(x_sorted[:-1] < x_sorted[1:], dtype=dtype, out=self.rank[j, 1:])

    def build(self, g: np.ndarray, h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> _Node:
        """One tree on the ascending row subset `rows` and the columns `cols`."""
        p, n = self.p, len(self.X)
        lists, ranks = self.order[cols], self.rank[cols]
        if len(rows) < n:
            lists, ranks = _select(lists, ranks, rows, n)
        root = _Node()
        stack = [(root, rows, lists, ranks, 0)]
        while stack:
            # Rebinding on pop frees the parent's lists before a child is searched.
            node, rows, lists, ranks, depth = stack.pop()
            G, H = float(g[rows].sum()), float(h[rows].sum())
            node.value = _leaf_value(G, H, p.reg_alpha, p.reg_lambda)
            if depth >= p.max_depth or len(rows) < 2:
                continue
            split = self._best_split(G, H, g, h, lists, ranks, cols)
            if split is None:
                continue
            node.feature, node.threshold = split
            mask = self.X[rows, node.feature] < node.threshold
            node.left, node.right = _Node(), _Node()
            for child, side in ((node.right, rows[~mask]), (node.left, rows[mask])):
                stack.append((child, side, *_select(lists, ranks, side, n), depth + 1))
        return root

    def _best_split(self, G, H, g, h, lists, ranks, cols) -> tuple[int, float] | None:
        p = self.p
        parent_term = _gain_term(np.array(G), np.array(H), p.reg_lambda)
        best_gain, best = 0.0, None
        step = max(1, _BLOCK_ELEMENTS // lists.shape[1])
        for start in range(0, len(cols), step):
            block, rank = lists[start:start + step].astype(np.intp), ranks[start:start + step]
            g_cum = np.cumsum(g[block], axis=1)
            h_cum = np.cumsum(h[block], axis=1)
            # Split between consecutive distinct values only, leaving both
            # children min_child_weight.
            at = np.zeros(block.shape, dtype=bool)
            np.not_equal(rank[:, :-1], rank[:, 1:], out=at[:, :-1])
            at &= (h_cum >= p.min_child_weight) & (H - h_cum >= p.min_child_weight)
            at = np.flatnonzero(at)
            GL, HL = g_cum.ravel()[at], h_cum.ravel()[at]
            GR, HR = G - GL, H - HL
            gains = np.full(block.shape, -np.inf)
            gains.ravel()[at] = 0.5 * (
                _gain_term(GL, HL, p.reg_lambda)
                + _gain_term(GR, HR, p.reg_lambda)
                - parent_term
            ) - p.gamma
            for j, cut in enumerate(gains.argmax(axis=1).tolist()):
                if gains[j, cut] > best_gain + 1e-12:
                    best_gain, best = float(gains[j, cut]), (start + j, cut)
        if best is None:
            return None
        j, cut = best
        feature = int(cols[j])
        x_lo, x_hi = self.X[lists[j, cut], feature], self.X[lists[j, cut + 1], feature]
        return feature, float((x_lo + x_hi) / 2.0)


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
        if np.isnan(X).any():
            raise ValueError("features must not be NaN")  # ranks need a total order
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

        builder = _TreeBuilder(X, p)
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

            tree = builder.build(g, h, rows, cols)
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
