"""L1-penalized logistic regression trained with proximal gradient descent.

The smooth part of the objective is the mean binary log-loss; its analytic
gradient is exposed separately so it can be checked against finite
differences. The L1 penalty follows the inverse-regularization convention:
objective = mean log-loss + ||w||_1 / (C * n), intercept unpenalized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


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


def _largest_gram_eigenvalue(X: np.ndarray) -> float:
    """||X||_2^2, from whichever of X^T X and X X^T is smaller."""
    gram = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
    return float(np.linalg.eigvalsh(gram)[-1])


def _should_restart(v: np.ndarray, w_new: np.ndarray, w: np.ndarray) -> bool:
    """Gradient restart test (O'Donoghue & Candes 2015): the step from the
    momentum point v to w_new points back against the last move w -> w_new."""
    return float(np.dot(v - w_new, w_new - w)) > 0.0


@dataclass
class LogisticRegressionL1:
    """Binary classifier with lasso penalty, fit by FISTA with adaptive restart.

    C is the inverse regularization strength; larger C means weaker
    penalty. The intercept is handled as an extra unpenalized coordinate.
    """

    C: float = 100.0
    max_iter: int = 20000
    tol: float = 1e-6
    weights: np.ndarray | None = field(default=None, repr=False)
    intercept: float = 0.0
    converged: bool = False
    n_iter: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionL1":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be 0/1")
        n, d = X.shape
        Xe = np.hstack([X, np.ones((n, 1))])
        lam = 1.0 / (self.C * n)

        # Lipschitz constant of the log-loss gradient: ||X||^2 / (4n).
        step = 1.0 / max(_largest_gram_eigenvalue(Xe) / (4.0 * n), 1e-12)

        w = np.zeros(d + 1)
        w_prev = w.copy()
        t = 1.0
        self.converged = False
        for iteration in range(1, self.max_iter + 1):
            # FISTA momentum point
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v = w + ((t - 1.0) / t_next) * (w - w_prev)
            grad = log_loss_grad(v, Xe, y)
            w_new = v - step * grad
            w_new[:d] = _soft_threshold(w_new[:d], step * lam)
            if _should_restart(v, w_new, w):
                t_next = 1.0  # drop the momentum once it overshoots
            w_prev, w, t = w, w_new, t_next
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
        return {
            "C": self.C,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "converged": self.converged,
            "n_iter": self.n_iter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogisticRegressionL1":
        model = cls(C=data["C"], max_iter=data["max_iter"], tol=data["tol"])
        model.weights = np.array(data["weights"], dtype=np.float64)
        model.intercept = float(data["intercept"])
        model.converged = bool(data["converged"])
        model.n_iter = int(data["n_iter"])
        return model
