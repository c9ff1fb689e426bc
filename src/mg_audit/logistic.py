"""L1-penalized logistic regression trained with proximal gradient descent.

The smooth part of the objective is the mean binary log-loss; its analytic
gradient is exposed separately so it can be checked against finite
differences. The L1 penalty follows the inverse-regularization convention:
objective = mean log-loss + ||w||_1 / (C * n), intercept unpenalized.

The solver is FISTA with a backtracking step that may also grow again
(Beck & Teboulle 2009; Scheinberg, Goldfarb & Bai 2014), so the step
follows the local curvature of the log-loss instead of a worst-case bound,
and no eigendecomposition of the design is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# Each iteration first tries this fraction of the last accepted curvature
# estimate L, a step 1.25 times as long, so the step can grow back after a
# backtrack. On the designs in the tests, 0.8 took fewer iterations than
# the fixed worst-case step; 0.9 did not on every one.
L_TRY_FRACTION = 0.8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch divides by a value in [1, 2].
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean binary log-loss of the linear model Xw (no penalty term)."""
    z = X @ w
    # log(1 + e^z) - y z, computed stably
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def log_loss_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of `log_loss` with respect to w."""
    z = X @ w
    return X.T @ (_sigmoid(z) - y) / X.shape[0]


def _soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)


def _softplus_divergence(z: np.ndarray, z_new: np.ndarray) -> float:
    """Mean of softplus(z_new) - softplus(z) - sigmoid(z) (z_new - z).

    With z = X @ v and z_new = X @ w this is log_loss(w) - log_loss(v)
    minus the gradient term at v: the label terms cancel. Each element is
    computed as log1p(a expm1(m)) - a m, where a = sigmoid(-|z|) <= 1/2
    and m is the move of z towards the side where its sigmoid is a. That
    form is accurate for small moves and never subtracts two large losses.
    A move too large to represent gives inf or NaN, never a wrong finite
    value, so the sufficient-decrease test refuses that step.
    """
    e = np.exp(-np.abs(z))
    a = e / (1.0 + e)
    move = np.where(z >= 0.0, z - z_new, z_new - z)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(np.log1p(a * np.expm1(move)) - a * move))


def _should_restart(v: np.ndarray, w_new: np.ndarray, w: np.ndarray) -> bool:
    """Gradient restart test (O'Donoghue & Candes 2015): the step from the
    momentum point v to w_new points back against the last move w -> w_new."""
    return float(np.dot(v - w_new, w_new - w)) > 0.0


@dataclass
class LogisticRegressionL1:
    """Binary classifier with lasso penalty, fit by FISTA with a backtracking
    step and adaptive restart.

    C is the inverse regularization strength; larger C means weaker
    penalty. The intercept is handled as an extra unpenalized coordinate.
    Each iteration searches for a curvature estimate L: it first tries
    `L_TRY_FRACTION` of the last accepted L and doubles it until the
    proximal step passes the sufficient-decrease test. L never exceeds
    ||X_e||_F^2 / (4n), where X_e is X with the intercept's column of ones:
    an upper bound on the gradient's Lipschitz constant. The test holds
    there in exact arithmetic, so a step at that L is taken untested and
    the search always ends.
    """

    C: float = 100.0
    max_iter: int = 20000
    tol: float = 1e-6
    # Fit state, set by `fit` and `from_dict`: not constructor arguments.
    weights: np.ndarray | None = field(default=None, init=False, repr=False)
    intercept: float = field(default=0.0, init=False)
    converged: bool = field(default=False, init=False)
    n_iter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # Written so that a NaN C or tol fails too.
        if not self.C > 0:
            raise ValueError("C must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionL1":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be 0/1")
        n, d = X.shape
        Xe = np.hstack([X, np.ones((n, 1))])
        lam = 1.0 / (self.C * n)
        # ||Xe||_F^2 >= ||Xe||_2^2, so this bounds the Lipschitz constant of
        # the log-loss gradient, ||Xe||_2^2 / (4n), from above. A NaN or an
        # infinity in X makes it NaN or inf, as an overflowing norm does.
        L_max = float(np.vdot(Xe, Xe)) / (4.0 * n)
        if not np.isfinite(L_max):
            raise ValueError("design matrix has a NaN or an infinity, or its squared "
                             "Frobenius norm overflows")

        w = w_prev = np.zeros(d + 1)
        z = z_prev = np.zeros(n)  # Xe @ w and Xe @ w_prev, from accepted trials
        t = 1.0
        L = L_max
        self.converged = False
        for iteration in range(1, self.max_iter + 1):
            L_new = L_TRY_FRACTION * L
            while True:
                # Scheinberg-Goldfarb-Bai momentum: t grows more slowly when
                # the step grows, which keeps the accelerated rate.
                t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t * L_new / L)) / 2.0
                beta = (t - 1.0) / t_next
                v = w + beta * (w - w_prev)
                z_v = (1.0 + beta) * z - beta * z_prev  # Xe @ v
                p = _sigmoid(z_v)
                w_new = v - (Xe.T @ (p - y)) / (n * L_new)
                w_new[:d] = _soft_threshold(w_new[:d], lam / L_new)
                z_new = Xe @ w_new
                if L_new >= L_max:
                    break
                step = w_new - v
                # Sufficient decrease: f(w_new) <= f(v) + grad f(v).(w_new - v)
                # + L/2 ||w_new - v||^2.
                if _softplus_divergence(z_v, z_new) <= 0.5 * L_new * float(step @ step):
                    break
                L_new = min(2.0 * L_new, L_max)
            if _should_restart(v, w_new, w):
                t_next = 1.0  # drop the momentum once it overshoots
            w_prev, w, z_prev, z, t, L = w, w_new, z, z_new, t_next, L_new
            if np.max(np.abs(w - w_prev)) < self.tol:
                self.converged = True
                self.n_iter = iteration
                break
        else:
            self.n_iter = self.max_iter
            warnings.warn(
                "logistic regression did not converge; keeping best-so-far weights",
                RuntimeWarning,
                stacklevel=2,
            )
        self.weights = w[:d]
        self.intercept = float(w[d])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def to_dict(self) -> dict:
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        return {**vars(self), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "LogisticRegressionL1":
        model = cls(C=data["C"], max_iter=data["max_iter"], tol=data["tol"])
        model.weights = np.array(data["weights"], dtype=np.float64)
        model.intercept = float(data["intercept"])
        model.converged = bool(data["converged"])
        model.n_iter = int(data["n_iter"])
        return model
