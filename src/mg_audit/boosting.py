"""Gradient-boosted regression trees for binary classification.

Second-order boosting on the logistic loss: each round fits a tree to the
per-sample gradients g = p - y and hessians h = p(1 - p), with exact
greedy split search and Newton leaf weights -G/(H + lambda). The search
is presorted (XGBoost's column blocks, arXiv:1603.02754): each column is
ranked once per fit and stably radix-sorted by rank, and its row list is
split stably at each node, which gives the trees of a stable sort at every
node. On a search wider than one block, a forked worker process searches
half the columns, as XGBoost searches its blocks in parallel. Supports
min-child-weight (hessian mass), L1/L2 leaf regularization, gamma split
threshold, row subsampling and early stopping on a validation set.
"""

from __future__ import annotations

import os
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

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        for ok, message in (
            (self.learning_rate > 0, "learning_rate must be > 0"),
            (self.max_depth >= 0, "max_depth must be >= 0"),
            (self.min_child_weight >= 0, "min_child_weight must be >= 0"),
            (self.n_estimators >= 1, "n_estimators must be >= 1"),
            (self.early_stopping_rounds is None or self.early_stopping_rounds >= 1,
             "early_stopping_rounds must be >= 1 or null"),
            (0 < self.subsample <= 1, "subsample must be in (0, 1]"),
            (0 < self.colsample_bytree <= 1, "colsample_bytree must be in (0, 1]"),
            (self.gamma >= 0, "gamma must be >= 0"),
            (self.reg_alpha >= 0, "reg_alpha must be >= 0"),
            (self.reg_lambda >= 0, "reg_lambda must be >= 0"),
            (0 <= self.seed < 2**32, "seed must be in [0, 2**32)"),
        ):
            if not ok:
                raise ValueError(message)

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's stable sort order and the dense rank of each sorted value, one row per column."""
    n, d = X.shape
    dtype = np.min_scalar_type(max(n - 1, 0))
    order = np.empty((d, n), dtype=dtype)
    rank = np.empty((d, n), dtype=dtype)
    for j in range(d):
        # Equal values, -0.0 and 0.0 included, share a dense rank, so a
        # stable sort of the ranks is the column's stable sort, and numpy
        # radix-sorts integers of 16 bits or fewer.
        ranks = np.unique(X[:, j], return_inverse=True)[1].astype(dtype)
        order[j] = np.argsort(ranks, kind="stable")
        np.take(ranks, order[j], out=rank[j])
    return order, rank


def _partition(lists: np.ndarray, ranks: np.ndarray, flags: np.ndarray, size: int):
    """Keep the `size` entries where `flags` is set in every feature's sorted list, in list order."""
    flags = flags.ravel()
    return (np.compress(flags, lists).reshape(len(lists), size),
            np.compress(flags, ranks).reshape(len(lists), size))


def _pick(gains: np.ndarray, below: np.ndarray, above: np.ndarray, features: np.ndarray,
          X: np.ndarray) -> tuple[int, float] | None:
    """The split at the best column cut, scanning columns in order: a later
    column must beat the best so far by more than 1e-12, so near-ties go to
    the lower column. `below` and `above` are the rows either side of each
    column's cut."""
    best_gain, best = 0.0, None
    for j, gain in enumerate(gains.tolist()):
        if gain > best_gain + 1e-12:
            best_gain, best = gain, j
    if best is None:
        return None
    feature = int(features[best])
    return feature, float((X[below[best], feature] + X[above[best], feature]) / 2.0)


class _TreeBuilder:
    """Exact greedy split search over the columns of X, each ranked and sorted once.

    When the root search spans more than one block and the process may run
    on two CPUs, a forked worker process presorts and searches the upper
    half of the columns while this process does the lower half; per node
    the worker sends each of its columns' best cut and this process picks
    the split, so the trees are those of a single process. It is a process,
    not a thread, because the search holds the GIL between its numpy calls.
    Use the builder as a context manager: leaving it stops the worker.
    """

    def __init__(self, X: np.ndarray, params: GBTParams):
        n, d = X.shape
        self.X, self.p = X, params
        self._worker = self._conn = None
        self._split_at = d  # columns from here on are the worker's
        if n * d > _BLOCK_ELEMENTS and d >= 2 and hasattr(os, "fork") and _usable_cpus() >= 2:
            self._start_worker(d // 2)
        try:
            self.order, self.rank = _presort(X[:, :self._split_at])
        except BaseException:
            self.close()
            raise

    def _start_worker(self, split_at: int) -> None:
        # Imported here so that runs that never fork do not pay for it; fork
        # and not spawn, as a spawned worker would import numpy again. The
        # worker runs only single-threaded array code and takes no lock a
        # thread of this process could hold.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        conn, worker_conn = ctx.Pipe()
        worker = ctx.Process(target=_serve, name="gbt-split-search",
                             args=(self.X, self.p, split_at, worker_conn, conn))
        try:
            worker.start()
        except BaseException:
            conn.close()
            raise
        finally:
            worker_conn.close()
        self._worker, self._conn, self._split_at = worker, conn, split_at

    def __enter__(self) -> "_TreeBuilder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the worker, if any: it exits when this end of the pipe closes."""
        if self._worker is None:
            return
        self._conn.close()
        self._worker.join(5.0)
        if self._worker.is_alive():
            self._worker.terminate()
            self._worker.join()
        self._worker.close()
        self._worker = self._conn = None

    def _call(self, method, *args):
        """One send to or receive from the worker; its death is an error that says so."""
        try:
            return method(*args)
        except (EOFError, BrokenPipeError, ConnectionResetError) as err:
            self._worker.join(1.0)
            raise RuntimeError("the GBT split-search worker process died "
                               f"(exit code {self._worker.exitcode})") from err

    def build(self, g: np.ndarray, h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> _Node:
        """One tree on the ascending row subset `rows` and the ascending columns `cols`."""
        own = cols
        if self._conn is not None:
            theirs = cols >= self._split_at
            self._call(self._conn.send, (g, h, rows, cols[theirs] - self._split_at))
            own = cols[~theirs]
        return self._grow(g, h, rows, own, cols)

    def _grow(self, g, h, rows, cols, features) -> _Node:
        """The node loop: `cols` index this process's presorted lists, and
        `features` names the columns in the order `_choose` ranks them."""
        p, n = self.p, len(self.X)
        lists, ranks = self.order[cols], self.rank[cols]
        member = np.zeros(n, dtype=bool)  # row mask, cleared after each use
        if len(rows) < n:
            member[rows] = True
            lists, ranks = _partition(lists, ranks, member[lists], len(rows))
            member[rows] = False

        def leaf(side: np.ndarray, depth: int) -> tuple[_Node, tuple[float, float] | None]:
            """The node valued as a leaf, and its (G, H) if a search may split it."""
            G, H = float(g[side].sum()), float(h[side].sum())
            node = _Node(value=_leaf_value(G, H, p.reg_alpha, p.reg_lambda))
            # A cut needs HL >= min_child_weight and H - HL >= min_child_weight.
            # Below twice that mass HL > H / 2, so H - HL is exact (Sterbenz)
            # and under min_child_weight: no search could split the node.
            grows = depth < p.max_depth and len(side) >= 2 and H >= 2.0 * p.min_child_weight
            return node, ((G, H) if grows else None)

        root, sums = leaf(rows, 0)
        stack = [(root, sums, rows, lists, ranks, 0)] if sums else []
        while stack:
            # Rebinding on pop frees the parent's lists before a child is searched.
            node, (G, H), rows, lists, ranks, depth = stack.pop()
            split = self._choose(G, H, g, h, lists, ranks, features)
            if split is None:
                continue
            node.feature, node.threshold = split
            mask = self.X[rows, node.feature] < node.threshold
            left, right = rows[mask], rows[~mask]
            node.left, left_sums = leaf(left, depth + 1)
            node.right, right_sums = leaf(right, depth + 1)
            if left_sums is None and right_sums is None:
                continue
            # One gather through the parent's lists serves both children.
            member[left] = True
            goes_left = member[lists]
            member[left] = False
            if right_sums is not None:
                stack.append((node.right, right_sums, right,
                              *_partition(lists, ranks, ~goes_left, len(right)), depth + 1))
            if left_sums is not None:
                stack.append((node.left, left_sums, left,
                              *_partition(lists, ranks, goes_left, len(left)), depth + 1))
        return root

    def _choose(self, G, H, g, h, lists, ranks, features) -> tuple[int, float] | None:
        """The node's split over this process's columns and the worker's."""
        bests = self._column_bests(G, H, g, h, lists, ranks)
        if self._conn is not None:
            bests = [np.concatenate(pair) for pair in zip(bests, self._call(self._conn.recv))]
        split = _pick(*bests, features, self.X)
        if self._conn is not None:
            self._call(self._conn.send, split)
        return split

    def _column_bests(self, G, H, g, h, lists, ranks):
        """Each column's best gain (-inf without an allowed cut) and the rows either side of its cut."""
        p = self.p
        parent_term = _gain_term(np.array(G), np.array(H), p.reg_lambda)
        best = np.empty(len(lists))
        below = np.empty(len(lists), dtype=np.intp)
        above = np.empty(len(lists), dtype=np.intp)
        step = max(1, _BLOCK_ELEMENTS // lists.shape[1])
        for start in range(0, len(lists), step):
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
            cut = gains.argmax(axis=1)
            col = np.arange(len(block))
            stop = start + len(block)
            best[start:stop] = gains[col, cut]
            below[start:stop], above[start:stop] = block[col, cut], block[col, cut + 1]
        return best, below, above


class _WorkerBuilder(_TreeBuilder):
    """The forked side of a builder: it grows each tree on columns `split_at`
    and up, sends each node's column bests and follows the split it gets back."""

    def __init__(self, X: np.ndarray, params: GBTParams, split_at: int, conn):
        self.X, self.p, self._conn = X, params, conn
        self.order, self.rank = _presort(X[:, split_at:])

    def _choose(self, G, H, g, h, lists, ranks, features):
        self._conn.send(self._column_bests(G, H, g, h, lists, ranks))
        return self._conn.recv()


def _serve(X: np.ndarray, params: GBTParams, split_at: int, conn, parent_conn) -> None:
    """The worker process: grow the trees the parent starts until it closes the pipe."""
    import signal

    parent_conn.close()  # the fork's copy of it would keep the pipe open
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and closes the pipe
    builder = _WorkerBuilder(X, params, split_at, conn)
    try:
        while True:
            g, h, rows, cols = conn.recv()
            builder._grow(g, h, rows, cols, None)
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the fit is over


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

        best_eval = np.inf
        rounds_since_best = 0
        with _TreeBuilder(X, p) as builder:
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
