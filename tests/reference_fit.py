"""The gradient-descent loop that ``LogisticClassifier.fit`` replaced, kept
verbatim as the reference it must equal byte for byte: numpy temporaries
allocated every iteration, a masked sigmoid, and one loss per iteration.
"""

from __future__ import annotations

import numpy as np

from vgsynth.evaluate import LogisticClassifier


class ReferenceLogisticClassifier(LogisticClassifier):
    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceLogisticClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        classes = np.unique(y)
        if classes.size < 2:
            raise ValueError("training set must contain both classes")
        m, d = X.shape
        self.mean_ = X.mean(axis=0)
        self.scale_ = X.std(axis=0)
        self.scale_[self.scale_ == 0] = 1.0
        Z = self._standardize(X)

        # Lipschitz bound for the mean logistic loss plus the L2 term
        A = np.hstack([Z, np.ones((m, 1))])
        lip = float(np.linalg.eigvalsh(A.T @ A / m).max()) / 4.0 + 2.0 * self.l2
        step = 1.0 / lip

        w = np.zeros(d)
        b = 0.0
        self.loss_history_ = []
        for _ in range(self.max_iter):
            logits = Z @ w + b
            p = reference_sigmoid(logits)
            self.loss_history_.append(self._loss(p, y, w))
            residual = p - y
            grad_w = Z.T @ residual / m + 2.0 * self.l2 * w
            grad_b = residual.mean()
            grad_norm = float(np.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b))
            if grad_norm < self.tol:
                break
            w -= step * grad_w
            b -= step * grad_b
        self.weights = w
        self.bias = b
        return self

    def _loss(self, p: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        eps = 1e-12
        ce = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        return float(ce + self.l2 * np.dot(w, w))


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
