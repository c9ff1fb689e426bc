import json
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

    @pytest.mark.parametrize("shape", [(300, 20), (20, 300), (50, 50)])
    def test_gram_eigenvalue_matches_spectral_norm(self, shape):
        X = np.random.RandomState(1).randn(*shape)
        expected = np.linalg.norm(X, 2) ** 2
        assert abs(logistic._largest_gram_eigenvalue(X) - expected) <= 1e-12 * expected


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

    @pytest.mark.parametrize("n, dtype", [
        (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    ])
    def test_same_trees_either_side_of_index_width(self, monkeypatch, n, dtype):
        rng = np.random.RandomState(n)
        X = np.column_stack([rng.randint(0, 2, size=n), rng.randn(n)])
        y = (X[:, 0] + X[:, 1] + rng.randn(n) > 1.0).astype(int)
        params = GBTParams(n_estimators=2, max_depth=4, min_child_weight=1.0)
        order = boosting._TreeBuilder(X, params).order
        assert order.dtype == dtype
        assert np.array_equal(order, np.argsort(X, axis=0, kind="stable").T)
        self._fit_both(monkeypatch, X, y, params)

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
