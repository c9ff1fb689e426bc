import json
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from mg_audit import boosting, logistic
from mg_audit.boosting import GBTParams, GradientBoostedTrees
from mg_audit.ensemble import (
    ClassifierMember,
    EnsembleVerdict,
    ensemble_classify,
    stratified_split,
    train_member,
)
from mg_audit.logistic import LogisticRegressionL1, log_loss, log_loss_grad


def finite_difference_grad(w, X, y, h=1e-6):
    """Central-difference oracle for the log-loss gradient."""
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up = w.copy()
        down = w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (log_loss(up, X, y) - log_loss(down, X, y)) / (2 * h)
    return grad


def separable_set(n=200, seed=0):
    """Two well-separated 2-D Gaussian blobs; separable by construction."""
    rng = np.random.RandomState(seed)
    pos = rng.randn(n // 2, 2) * 0.3 + np.array([3.0, 3.0])
    neg = rng.randn(n // 2, 2) * 0.3 + np.array([-3.0, -3.0])
    X = np.vstack([pos, neg])
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    order = rng.permutation(n)
    return X[order], y[order]


class TestLogLossGradient:
    def test_matches_finite_differences_on_100_instances(self):
        rng = np.random.RandomState(42)
        for _ in range(100):
            n = rng.randint(5, 30)
            d = rng.randint(2, 10)
            X = rng.randn(n, d)
            y = rng.randint(0, 2, size=n).astype(float)
            w = rng.randn(d)
            analytic = log_loss_grad(w, X, y)
            numeric = finite_difference_grad(w, X, y)
            rel_err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(numeric), 1e-12
            )
            assert rel_err < 1e-5

    def test_fit_steps_along_this_gradient(self, monkeypatch):
        # The fit restates the gradient on its carried products. From the zero
        # start z_v is exactly Xe @ v, so its first iterate is one proximal
        # step through log_loss_grad; a try fraction of 1 takes it at L_max.
        X, y = _sparse_logistic_set(n=400, d=30, seed=5)
        n, d = X.shape
        model = LogisticRegressionL1(C=0.02, max_iter=1)
        monkeypatch.setattr(logistic, "L_TRY_FRACTION", 1.0)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            model.fit(X, y)
        Xe = np.hstack([X, np.ones((n, 1))])
        L = float(np.vdot(Xe, Xe)) / (4.0 * n)
        w = -log_loss_grad(np.zeros(d + 1), Xe, y) / L
        w[:d] = np.sign(w[:d]) * np.maximum(np.abs(w[:d]) - 1.0 / (model.C * n * L), 0.0)
        assert 0 < np.count_nonzero(w[:d]) < d  # the threshold bites, but not everywhere
        assert np.array_equal(model.weights == 0.0, w[:d] == 0.0)
        np.testing.assert_allclose(model.weights, w[:d], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(model.intercept, w[d], rtol=1e-12, atol=0.0)


class TestLogisticRegression:
    def test_perfect_accuracy_on_separable_set(self):
        X, y = separable_set()
        member = train_member("logistic_regression", X, y, split_seed=42)
        assert member.validation_accuracy == 1.0

    def test_deterministic_under_fixed_seed(self):
        X, y = separable_set(seed=3)
        a = train_member("logistic_regression", X, y, split_seed=7)
        b = train_member("logistic_regression", X, y, split_seed=7)
        assert a.validation_accuracy == b.validation_accuracy
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_single_class_is_fatal(self):
        X = np.random.RandomState(0).randn(10, 2)
        with pytest.raises(ValueError):
            train_member("logistic_regression", X, np.ones(10))

    def test_nonconvergence_warns_keeps_model(self):
        X, y = separable_set(seed=1)
        model = LogisticRegressionL1(max_iter=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model.fit(X, y)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert model.weights is not None
        assert not model.converged

    def test_l1_shrinks_noise_features(self):
        rng = np.random.RandomState(0)
        n = 300
        signal = rng.randn(n)
        X = np.column_stack([signal, rng.randn(n, 5) * 0.01])
        y = (signal > 0).astype(float)
        strong = LogisticRegressionL1(C=0.01).fit(X, y)
        weak = LogisticRegressionL1(C=100.0).fit(X, y)
        assert np.abs(strong.weights).sum() < np.abs(weak.weights).sum()

    def test_artifact_round_trip(self, tmp_path):
        X, y = separable_set(seed=5)
        member = train_member(
            "logistic_regression", X, y, split_seed=11, data_checksum="abc"
        )
        path = tmp_path / "lr.json"
        member.save(path)
        loaded = ClassifierMember.load(path)
        assert loaded.validation_accuracy == member.validation_accuracy
        assert loaded.data_checksum == "abc"
        assert np.array_equal(loaded.model.weights, member.model.weights)


def _masked_sigmoid(z):
    """The sigmoid before the branch-free form, kept as the oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_fit(X, y, C=100.0, max_iter=20000, tol=1e-6):
    """Plain FISTA as fitted before adaptive restart: (weights, intercept, n_iter)."""
    n, d = X.shape
    Xe = np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (C * n)
    step = 1.0 / max(np.linalg.norm(Xe, 2) ** 2 / (4.0 * n), 1e-12)
    w = np.zeros(d + 1)
    w_prev = w.copy()
    t = 1.0
    for iteration in range(1, max_iter + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        v = w + ((t - 1.0) / t_next) * (w - w_prev)
        w_new = v - step * (Xe.T @ (_masked_sigmoid(Xe @ v) - y) / n)
        w_new[:d] = np.sign(w_new[:d]) * np.maximum(np.abs(w_new[:d]) - step * lam, 0.0)
        w_prev, w, t = w, w_new, t_next
        if np.max(np.abs(w - w_prev)) < tol:
            break
    return w[:d], float(w[d]), iteration


def _objective(weights, intercept, X, y, C):
    w = np.append(weights, intercept)
    Xe = np.hstack([X, np.ones((X.shape[0], 1))])
    return log_loss(w, Xe, y) + np.abs(weights).sum() / (C * X.shape[0])


def _sparse_logistic_set(n=2000, d=50, seed=0):
    """Noisy labels from a sparse linear model; not separable."""
    rng = np.random.RandomState(seed)
    X = rng.randn(n, d)
    true_w = rng.randn(d) * (rng.rand(d) < 0.3)
    y = (X @ true_w + rng.randn(n) > 0).astype(float)
    return X, y


@pytest.mark.parametrize("kwargs, message", [
    ({"C": 0.0}, "C must be > 0"), ({"C": -1.0}, "C must be > 0"),
    ({"C": float("nan")}, "C must be > 0"), ({"max_iter": 0}, "max_iter must be >= 1"),
    ({"tol": 0.0}, "tol must be > 0"), ({"tol": -1.0}, "tol must be > 0"),
])
def test_logistic_hyperparameter_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LogisticRegressionL1(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"learning_rate": 0.0}, "learning_rate must be > 0"),
    ({"max_depth": -1}, "max_depth must be >= 0"),
    ({"min_child_weight": -1.0}, "min_child_weight must be >= 0"),
    ({"n_estimators": 0}, "n_estimators must be >= 1"),
    ({"early_stopping_rounds": 0}, "early_stopping_rounds must be >= 1 or null"),
    ({"subsample": 0.0}, "subsample must be in (0, 1]"),
    ({"subsample": 1.5}, "subsample must be in (0, 1]"),
    ({"colsample_bytree": 0.0}, "colsample_bytree must be in (0, 1]"),
    ({"colsample_bytree": float("nan")}, "colsample_bytree must be in (0, 1]"),
    ({"gamma": -0.1}, "gamma must be >= 0"),
    ({"reg_alpha": -0.1}, "reg_alpha must be >= 0"),
    ({"reg_lambda": -0.1}, "reg_lambda must be >= 0"),
    ({"seed": -1}, "seed must be in [0, 2**32)"),
])
def test_gbt_hyperparameter_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GBTParams(**kwargs)


class TestAdaptiveRestartFista:
    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    def test_lower_objective_in_fewer_iterations(self, tol):
        X, y = _sparse_logistic_set()
        ref_w, ref_b, ref_iter = _reference_fit(X, y, tol=tol)
        model = LogisticRegressionL1(tol=tol).fit(X, y)
        assert model.converged
        assert model.n_iter < ref_iter
        assert _objective(model.weights, model.intercept, X, y, model.C) <= (
            _objective(ref_w, ref_b, X, y, model.C) + 1e-9
        )

    def test_restart_fires(self, monkeypatch):
        X, y = _sparse_logistic_set()
        fired = []
        original = logistic._should_restart

        def counting(v, w_new, w):
            restart = original(v, w_new, w)
            fired.append(restart)
            return restart

        monkeypatch.setattr(logistic, "_should_restart", counting)
        model = LogisticRegressionL1().fit(X, y)
        assert len(fired) == model.n_iter
        assert any(fired)

    def test_sigmoid_bit_equal_to_masked_form(self):
        special = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
                            36.7, -36.7, 709.8, -709.8, 5e-324, -5e-324])
        z = np.concatenate([special, np.random.RandomState(0).randn(1000) * 40.0])
        assert logistic._sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()


def _fixed_step_fit(X, y, C=100.0, max_iter=20000, tol=1e-6):
    """Adaptive-restart FISTA with the fixed step 1/L, L taken from the Gram
    matrix's largest eigenvalue, as fitted before the backtracking step:
    (weights, intercept, n_iter)."""
    n, d = X.shape
    Xe = np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (C * n)
    gram = Xe.T @ Xe if n >= d + 1 else Xe @ Xe.T
    step = 1.0 / max(float(np.linalg.eigvalsh(gram)[-1]) / (4.0 * n), 1e-12)
    w = np.zeros(d + 1)
    w_prev = w.copy()
    t = 1.0
    for iteration in range(1, max_iter + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        v = w + ((t - 1.0) / t_next) * (w - w_prev)
        w_new = v - step * log_loss_grad(v, Xe, y)
        w_new[:d] = np.sign(w_new[:d]) * np.maximum(np.abs(w_new[:d]) - step * lam, 0.0)
        if float(np.dot(v - w_new, w_new - w)) > 0.0:
            t_next = 1.0
        w_prev, w, t = w, w_new, t_next
        if np.max(np.abs(w - w_prev)) < tol:
            break
    return w[:d], float(w[d]), iteration


def _separable_design(n, d, seed=0):
    """Labels from the sign of a dense linear model: separable by construction."""
    rng = np.random.RandomState(seed)
    X = rng.randn(n, d)
    return X, (X @ rng.randn(d) > 0).astype(float)


class TestBacktrackingFista:
    @pytest.mark.parametrize("design, tol", [
        (_sparse_logistic_set, 1e-6),
        (_sparse_logistic_set, 1e-4),
        (lambda: _separable_design(32, 23), 1e-6),   # the mini golden set's shape
        (lambda: _separable_design(20, 300), 1e-6),  # fewer rows than features
    ], ids=["sparse-1e-6", "sparse-1e-4", "separable-32x23", "wide-20x300"])
    def test_fewer_iterations_than_fixed_step(self, design, tol):
        X, y = design()
        ref_w, ref_b, ref_iter = _fixed_step_fit(X, y, tol=tol)
        model = LogisticRegressionL1(tol=tol).fit(X, y)
        assert model.converged
        assert model.n_iter < ref_iter
        if tol == 1e-6:
            assert _objective(model.weights, model.intercept, X, y, model.C) <= (
                _objective(ref_w, ref_b, X, y, model.C) + 1e-9
            )

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit decomposed a matrix")

        for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for X, y in (_sparse_logistic_set(), _separable_design(20, 300)):
            assert LogisticRegressionL1().fit(X, y).converged

    @pytest.mark.parametrize("where, value", [
        ("X", np.nan), ("X", np.inf), ("X", -np.inf), ("X", 1e200),
        ("y", np.nan), ("y", np.inf),
    ])
    def test_bad_design_rejected_before_iterating(self, monkeypatch, where, value):
        X, y = _separable_design(32, 23)
        if where == "X":
            X[3, 5] = value
        else:
            y[3] = value
        # Reaching an iteration would raise TypeError, not ValueError.
        monkeypatch.setattr(logistic, "_should_restart", None)
        with pytest.raises(ValueError):
            LogisticRegressionL1().fit(X, y)

    def test_softplus_divergence_matches_logaddexp_form(self):
        rng = np.random.RandomState(0)
        for scale in (0.01, 1.0, 20.0):
            z = rng.randn(500) * scale
            z_new = z + rng.randn(500) * scale
            expected = np.mean(np.logaddexp(0.0, z_new) - np.logaddexp(0.0, z)
                               - _masked_sigmoid(z) * (z_new - z))
            assert logistic._softplus_divergence(z, z_new) == pytest.approx(expected, rel=1e-9)

    def test_softplus_divergence_of_far_moves(self):
        # sigmoid(40) rounds to 1, but the divergence of a move to -10 is
        # still softplus(-10) - 40 + 50.
        far = logistic._softplus_divergence(np.array([40.0]), np.array([-10.0]))
        assert far == pytest.approx(np.logaddexp(0.0, -10.0) + 10.0, rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = logistic._softplus_divergence(np.array([0.0, -800.0]),
                                                 np.array([1000.0, 100.0]))
        assert not np.isfinite(huge)  # so the sufficient-decrease test refuses the step


class TestGradientBoostedTrees:
    def test_train_loss_non_increasing_50_rounds(self):
        X, y = separable_set()
        params = GBTParams(
            n_estimators=50, max_depth=3, min_child_weight=1.0,
            learning_rate=0.2, early_stopping_rounds=None,
        )
        model = GradientBoostedTrees(params=params).fit(X, y)
        losses = model.train_losses
        assert len(losses) == 50
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_separable_set_high_accuracy(self):
        X, y = separable_set(seed=2)
        params = GBTParams(
            n_estimators=50, max_depth=3, min_child_weight=1.0, learning_rate=0.3,
            early_stopping_rounds=None,
        )
        member = train_member("gradient_boosted_trees", X, y,
                              hyperparams=params.to_dict(), split_seed=42)
        assert member.validation_accuracy == 1.0

    def test_tied_binary_feature_splits_at_midpoint(self):
        # A 0/1 column with many ties: the cut lies between the two
        # distinct values, not between two sorted rows that happen to be
        # neighbours.
        rng = np.random.RandomState(3)
        y = np.array([0, 1] * 40)
        X = np.column_stack([y.astype(float), rng.randn(80) * 0.01])
        params = GBTParams(n_estimators=5, max_depth=2, min_child_weight=1.0,
                           learning_rate=0.3, early_stopping_rounds=None)
        model = GradientBoostedTrees(params=params).fit(X, y)
        root = model.trees[0]
        assert (root.feature, root.threshold) == (0, 0.5)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_early_stopping_trims_rounds(self):
        X, y = separable_set(seed=4)
        params = GBTParams(
            n_estimators=400, max_depth=3, min_child_weight=1.0,
            learning_rate=0.3, early_stopping_rounds=5,
        )
        model = GradientBoostedTrees(params=params)
        model.fit(X[:160], y[:160], eval_set=(X[160:], y[160:]))
        assert len(model.trees) < 400
        assert len(model.trees) == model.best_iteration

    def test_deterministic(self):
        X, y = separable_set(seed=6)
        params = GBTParams(n_estimators=20, max_depth=3, min_child_weight=1.0,
                           subsample=0.8, seed=42, early_stopping_rounds=None)
        a = GradientBoostedTrees(params=params).fit(X, y)
        b = GradientBoostedTrees(params=params).fit(X, y)
        assert a.train_losses == b.train_losses
        assert np.array_equal(a.decision_function(X), b.decision_function(X))

    def test_min_child_weight_blocks_splits(self):
        X, y = separable_set(n=100)
        # hessian mass at the root is ~25, so a 78 threshold forbids any split
        params = GBTParams(n_estimators=3, min_child_weight=78.0,
                           early_stopping_rounds=None)
        model = GradientBoostedTrees(params=params).fit(X, y)
        assert all(tree.is_leaf for tree in model.trees)

    def test_artifact_round_trip(self, tmp_path):
        X, y = separable_set(seed=8)
        params = GBTParams(n_estimators=10, max_depth=3, min_child_weight=1.0,
                           early_stopping_rounds=None)
        member = train_member("gradient_boosted_trees", X, y,
                              hyperparams=params.to_dict(), split_seed=5)
        path = tmp_path / "gbt.json"
        member.save(path)
        loaded = ClassifierMember.load(path)
        assert np.array_equal(loaded.model.predict(X), member.model.predict(X))


class _ReferenceTreeBuilder:
    """Split search that argsorts every column at every node.

    The builder the presorted one replaced, kept as the reference its trees
    must equal; it takes the presorted builder's interface.
    """

    def __init__(self, X, params):
        self.X, self.p = X, params

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def build(self, g, h, rows, cols):
        self.feature_ids = cols
        return self._build(self.X[rows], g[rows], h[rows])

    def _build(self, X, g, h, depth=0):
        p = self.p
        G, H = float(g.sum()), float(h.sum())
        leaf = boosting._Node(value=boosting._leaf_value(G, H, p.reg_alpha, p.reg_lambda))
        if depth >= p.max_depth or len(g) < 2:
            return leaf

        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        parent_term = boosting._gain_term(np.array(G), np.array(H), p.reg_lambda)
        for feature in self.feature_ids:
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            x_sorted = column[order]
            g_cum = np.cumsum(g[order])
            h_cum = np.cumsum(h[order])
            boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
            if boundaries.size == 0:
                continue
            GL, HL = g_cum[boundaries], h_cum[boundaries]
            GR, HR = G - GL, H - HL
            valid = (HL >= p.min_child_weight) & (HR >= p.min_child_weight)
            if not valid.any():
                continue
            gains = 0.5 * (
                boosting._gain_term(GL, HL, p.reg_lambda)
                + boosting._gain_term(GR, HR, p.reg_lambda)
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
        node = boosting._Node(feature=best_feature, threshold=best_threshold)
        node.left = self._build(X[mask], g[mask], h[mask], depth + 1)
        node.right = self._build(X[~mask], g[~mask], h[~mask], depth + 1)
        return node


def _tied_set(n, d, seed):
    """Continuous columns plus tied 0/1 and few-valued ones, with a noisy label."""
    rng = np.random.RandomState(seed)
    X = rng.randn(n, d)
    X[:, 0::5] = rng.randint(0, 2, size=X[:, 0::5].shape)
    X[:, 1::5] = rng.randint(0, 4, size=X[:, 1::5].shape) / 3.0
    X[:, 2::5] = np.round(X[:, 2::5], 1)
    # gains of a mirrored column differ from its twin's only by rounding,
    # which the 1e-12 tie rule settles in favour of the first
    X[:, -2] = -X[:, -1]
    signal = X[:, 0] + X[:, 1] + 0.5 * X[:, 2] + 0.3 * X[:, -1]
    y = (signal + 0.7 * rng.randn(n) > 1.2).astype(int)
    return X, y


def _split_features(node):
    if node.is_leaf:
        return []
    return [node.feature, *_split_features(node.left), *_split_features(node.right)]


@pytest.mark.parametrize("cpu_count, usable", [(None, 1), (3, 3)])
def test_usable_cpus_without_affinity(monkeypatch, cpu_count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert boosting._usable_cpus() == usable


@pytest.fixture()
def worker_starts(monkeypatch):
    """Count the split-search workers started; fits see two usable CPUs, so
    a search wider than one block forks on any host."""
    starts = []
    start_worker = boosting._TreeBuilder._start_worker

    def counted(builder, split_at):
        starts.append(split_at)
        start_worker(builder, split_at)

    monkeypatch.setattr(boosting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(boosting._TreeBuilder, "_start_worker", counted)
    return starts


@pytest.mark.usefixtures("worker_starts")
class TestPresortedBuilder:
    def _fit_both(self, monkeypatch, X, y, params, eval_set=None):
        fast = GradientBoostedTrees(params=params).fit(X, y, eval_set=eval_set)
        with monkeypatch.context() as patch:
            patch.setattr(boosting, "_TreeBuilder", _ReferenceTreeBuilder)
            slow = GradientBoostedTrees(params=params).fit(X, y, eval_set=eval_set)
        assert json.dumps(fast.to_dict()) == json.dumps(slow.to_dict())
        assert fast.train_losses == slow.train_losses
        return fast

    @pytest.mark.parametrize("params", [
        GBTParams(n_estimators=25),
        GBTParams(n_estimators=25, subsample=0.7, colsample_bytree=0.6, seed=3),
    ], ids=["defaults", "subsampled"])
    def test_same_trees_as_per_node_sort(self, monkeypatch, params):
        X, y = _tied_set(2000, 50, seed=11)
        model = self._fit_both(monkeypatch, X, y, params)
        splits = [f for tree in model.trees for f in _split_features(tree)]
        assert len(splits) > 40
        assert {f % 5 for f in splits} >= {0, 1, 2, 4}  # tied and continuous columns

    def test_same_leaves_when_root_split_blocked(self, monkeypatch):
        X, y = _tied_set(2000, 50, seed=12)
        # root hessian mass is at most 2000 * 0.25 = 500, so no child reaches 300
        model = self._fit_both(monkeypatch, X, y, GBTParams(n_estimators=3, min_child_weight=300.0))
        assert all(tree.is_leaf for tree in model.trees)

    def test_same_trees_when_stopping_early(self, monkeypatch):
        X, y = _tied_set(2000, 50, seed=13)
        params = GBTParams(learning_rate=1.0, min_child_weight=1.0, early_stopping_rounds=3)
        model = self._fit_both(monkeypatch, X[:1600], y[:1600], params,
                               eval_set=(X[1600:], y[1600:]))
        assert len(model.trees) == model.best_iteration < len(model.train_losses)

    @pytest.mark.parametrize("mcw, splits", [
        (float(np.nextafter(50.0, 0.0)), True), (50.0, True),
        (float(np.nextafter(50.0, 100.0)), False),
    ], ids=["ulp-below-half", "half", "ulp-above-half"])
    def test_same_trees_at_half_the_root_mass(self, monkeypatch, mcw, splits):
        # Round one has h = 0.25 on each of the 400 rows: the root mass is
        # exactly 100. At min_child_weight 50 only a cut into two halves of
        # 200 rows is allowed, and column 0's 0/1 boundary is the best one;
        # one ulp more and no cut is, so the root is a leaf without a search.
        rng = np.random.RandomState(21)
        X = np.column_stack([np.repeat([0.0, 1.0], 200), rng.randn(400)])
        y = ((X[:, 0] + 0.5 * rng.randn(400)) > 0.5).astype(int)
        params = GBTParams(n_estimators=2, max_depth=3, min_child_weight=mcw)
        root = self._fit_both(monkeypatch, X, y, params).trees[0]
        if splits:
            assert (root.feature, root.threshold) == (0, 0.5)
        else:
            assert root.is_leaf

    @pytest.mark.parametrize("n, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32),
    ])
    def test_same_trees_either_side_of_index_width(self, monkeypatch, n, dtype):
        rng = np.random.RandomState(n)
        X = np.column_stack([
            rng.randint(0, 2, size=n),
            rng.randn(n),
            rng.choice([-0.0, 0.0, 1.0], size=n),  # -0.0 == 0.0: one value
            rng.choice([-np.inf, -1.0, 2.0, np.inf], size=n),
            np.full(n, 3.5),
        ])
        y = (X[:, 0] + X[:, 1] + X[:, 2] + rng.randn(n) > 1.0).astype(int)
        params = GBTParams(n_estimators=2, max_depth=4, min_child_weight=1.0)
        orders, ranks = boosting._presort(X)
        assert orders.dtype == ranks.dtype == dtype
        assert np.array_equal(orders, np.argsort(X, axis=0, kind="stable").T)
        for j, order in enumerate(orders):
            x_sorted = X[order, j]
            # the dense rank: how many strict increases precede each sorted value
            assert np.array_equal(
                ranks[j], np.concatenate([[0], np.cumsum(x_sorted[:-1] < x_sorted[1:])]))
        assert ranks[4].max() == 0
        self._fit_both(monkeypatch, X, y, params)

    def test_one_half_without_a_column(self, monkeypatch, worker_starts):
        # 17,000 x 4 values span two blocks; each tree gets one column, so
        # one process or the other searches none
        X, y = _tied_set(17000, 4, seed=14)
        params = GBTParams(n_estimators=8, max_depth=4, min_child_weight=1.0,
                           colsample_bytree=0.25, seed=5)
        model = self._fit_both(monkeypatch, X, y, params)
        assert worker_starts == [2]
        roots = {tree.feature for tree in model.trees}
        assert roots & {0, 1} and roots & {2, 3}

    def test_one_cpu_starts_no_worker(self, monkeypatch, worker_starts):
        X, y = _tied_set(2000, 50, seed=11)
        params = GBTParams(n_estimators=5)
        two = GradientBoostedTrees(params=params).fit(X, y)
        assert worker_starts == [25]
        monkeypatch.setattr(boosting, "_usable_cpus", lambda: 1)
        one = self._fit_both(monkeypatch, X, y, params)
        assert worker_starts == [25]
        assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())

    def test_one_block_starts_no_worker(self, monkeypatch, worker_starts):
        X, y = _tied_set(1000, 65, seed=11)  # 65,000 values: one block
        self._fit_both(monkeypatch, X, y, GBTParams(n_estimators=3, min_child_weight=1.0))
        assert worker_starts == []

    def test_no_child_left_after_fit(self, worker_starts):
        X, y = _tied_set(2000, 50, seed=11)
        GradientBoostedTrees(params=GBTParams(n_estimators=2)).fit(X, y)
        assert worker_starts and not multiprocessing.active_children()

    def test_no_child_left_after_error_mid_build(self, monkeypatch, worker_starts):
        pick, calls = boosting._pick, []

        def failing_pick(*args):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("search failed")
            return pick(*args)

        monkeypatch.setattr(boosting, "_pick", failing_pick)
        X, y = _tied_set(2000, 50, seed=11)
        with pytest.raises(RuntimeError, match="search failed"):
            GradientBoostedTrees(params=GBTParams(n_estimators=2)).fit(X, y)
        assert worker_starts and not multiprocessing.active_children()

    def test_worker_death_is_an_error(self, monkeypatch, worker_starts):
        def die(*args):
            os._exit(3)

        # the worker is forked with this patch; the parent never calls it
        monkeypatch.setattr(boosting._WorkerBuilder, "_column_bests", die)
        X, y = _tied_set(2000, 50, seed=11)
        with pytest.raises(RuntimeError, match=r"worker process died \(exit code 3\)"):
            GradientBoostedTrees(params=GBTParams(n_estimators=2)).fit(X, y)
        assert worker_starts and not multiprocessing.active_children()

    def test_nan_feature_rejected(self):
        X, y = _tied_set(100, 3, seed=1)
        X[5, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            GradientBoostedTrees().fit(X, y)


class TestStratifiedSplit:
    def test_preserves_classes_and_partitions(self):
        y = np.array([0] * 40 + [1] * 10)
        train, valid = stratified_split(y, 0.2, seed=0)
        assert len(train) + len(valid) == 50
        assert set(train) & set(valid) == set()
        assert (y[valid] == 1).sum() == 2
        assert (y[valid] == 0).sum() == 8


class _FixedVoteMember:
    """Test double standing in for a trained member with a fixed vote."""

    def __init__(self, vote, kind="fixed"):
        self._vote = vote
        self.kind = kind

    def vote(self, x):
        return self._vote


class TestEnsemble:
    def test_all_vote_combinations_up_to_k3(self):
        # enumeration oracle: accepted iff every vote is true
        x = np.zeros(2)
        for k in (1, 2, 3):
            for bits in range(2**k):
                votes = [(bits >> i) & 1 == 1 for i in range(k)]
                members = [_FixedVoteMember(v, kind=f"m{i}") for i, v in enumerate(votes)]
                verdict = ensemble_classify(x, members)
                assert verdict.accepted == all(votes)

    def test_monotone_in_votes(self):
        x = np.zeros(2)
        rng = np.random.RandomState(1)
        for _ in range(50):
            k = rng.randint(1, 4)
            votes = [bool(rng.randint(0, 2)) for _ in range(k)]
            base = ensemble_classify(
                x, [_FixedVoteMember(v, kind=f"m{i}") for i, v in enumerate(votes)]
            )
            for flip in range(k):
                if not votes[flip]:
                    continue
                flipped = list(votes)
                flipped[flip] = False
                worse = ensemble_classify(
                    x,
                    [_FixedVoteMember(v, kind=f"m{i}") for i, v in enumerate(flipped)],
                )
                assert not (worse.accepted and not base.accepted)
                assert not worse.accepted or base.accepted

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            EnsembleVerdict(votes={"a": True, "b": False}, accepted=True)

    def test_requires_members(self):
        with pytest.raises(ValueError):
            ensemble_classify(np.zeros(1), [])
