"""Downstream classification task: feature extraction over the first n-1
values of a window, an up/down label from the final step, a reference
logistic-regression classifier, ROC AUC, and the real/synthetic/mixed
experiment protocol.

The classifier trains on three variants of the data (real, synthetic, mixed)
and is always evaluated on a held-out real-only test split; splits are
chronological per ticker so no future window leaks into training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import UndefinedMetricError
from .generate import SyntheticSequence
from .ingest import Window

FEATURE_NAMES = (
    "linear_trend_slope",
    "quadratic_coeff",
    "average_change",
    "rsi",
    "num_peaks",
    "mean",
    "variance",
    "value_range",
)

# Bound on the probabilities LogisticClassifier.fit keeps for one block of
# iterations until it computes their losses: 2^16 float64, 512 KiB
_LOSS_BLOCK_ELEMENTS = 2**16


@dataclass
class FeatureRow:
    """Feature vector of one window plus its up/down label."""

    linear_trend_slope: float
    quadratic_coeff: float
    average_change: float
    rsi: float
    num_peaks: int
    mean: float
    variance: float
    value_range: float
    label: int
    origin: str = "real"  # real | synthetic
    group: str = ""  # ticker

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


def _ols_slope(y: np.ndarray) -> float:
    x = np.arange(y.size, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.dot(xc, xc)
    return float(np.dot(xc, yc) / denom) if denom > 0 else 0.0


def _quadratic_coeff(y: np.ndarray) -> float:
    if y.size < 3:
        return 0.0
    return float(np.polyfit(np.arange(y.size, dtype=float), y, 2)[0])


def relative_strength_index(y: np.ndarray) -> float:
    """RSI over the whole window with single-period average gains/losses.

    All-gain windows score 100, all-loss windows 0, flat windows 50.
    """
    diffs = np.diff(np.asarray(y, dtype=float))
    gains = float(diffs[diffs > 0].sum())
    losses = float(-diffs[diffs < 0].sum())
    if gains == 0.0 and losses == 0.0:
        return 50.0
    if losses == 0.0:
        return 100.0
    if gains == 0.0:
        return 0.0
    rs = gains / losses
    return 100.0 - 100.0 / (1.0 + rs)


def count_peaks(y: np.ndarray) -> int:
    """Strict local maxima; endpoints excluded."""
    inner = y[1:-1]
    return int(np.sum((inner > y[:-2]) & (inner > y[2:])))


def extract_features(values: np.ndarray, origin: str = "real", group: str = "") -> FeatureRow:
    """Features over the first n-1 values; label from the final step.

    The label is 1 if the last value strictly exceeds the one before it,
    otherwise 0 (ties count as down).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError(f"need at least 3 values, got {values.size}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    head = values[:-1]
    return FeatureRow(
        linear_trend_slope=_ols_slope(head),
        quadratic_coeff=_quadratic_coeff(head),
        average_change=float(np.diff(head).mean()),
        rsi=relative_strength_index(head),
        num_peaks=count_peaks(head),
        mean=float(head.mean()),
        variance=float(head.var()),
        value_range=float(head.max() - head.min()),
        label=int(values[-1] > values[-2]),
        origin=origin,
        group=group,
    )


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative;
    ties count one half (Mann-Whitney formulation)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=float)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_bruteforce(scores, labels) -> float:
    """Pairwise positive-negative count; test oracle for roc_auc."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("auc_bruteforce needs both classes present")
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


class LogisticClassifier:
    """L2-regularized logistic regression fit by batch gradient descent.

    The step size is set from the Lipschitz constant of the gradient, which
    makes the training loss non-increasing. Features are standardized with
    training-set statistics inside the model.
    """

    def __init__(self, l2: float = 1e-3, max_iter: int = 10000, tol: float = 1e-6):
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.weights = None
        self.bias = 0.0
        self.mean_ = None
        self.scale_ = None
        self.loss_history_: list[float] = []

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            return X
        return (X - self.mean_) / self.scale_

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticClassifier":
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
        # Each iteration works in buffers allocated here. Its probabilities
        # and L2 penalty wait in a block of rows, whose losses are computed
        # together once the block fills or the loop ends.
        block = max(1, min(self.max_iter, _LOSS_BLOCK_ELEMENTS // m))
        probs = np.empty((block, m))
        penalties = np.empty(block)
        logits, residual = np.empty(m), np.empty(m)
        grad_w, scaled = np.empty(d), np.empty(d)
        Zt = Z.T
        one_minus_y = 1 - y
        two_l2 = 2.0 * self.l2
        self.loss_history_ = []
        row = 0
        for _ in range(self.max_iter):
            np.matmul(Z, w, out=logits)
            logits += b
            p = _sigmoid(logits, out=probs[row])
            penalties[row] = self.l2 * np.dot(w, w)
            row += 1
            np.subtract(p, y, out=residual)
            np.matmul(Zt, residual, out=grad_w)
            grad_w /= m
            np.multiply(two_l2, w, out=scaled)
            grad_w += scaled
            grad_b = np.add.reduce(residual) / m
            grad_norm = math.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b)
            if grad_norm < self.tol:
                break
            np.multiply(step, grad_w, out=scaled)
            w -= scaled
            b -= step * grad_b
            if row == block:
                self.loss_history_ += _losses(probs, penalties, y, one_minus_y)
                row = 0
        if row:
            self.loss_history_ += _losses(probs[:row], penalties[:row], y, one_minus_y)
        self.weights = w
        self.bias = b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.weights is None:
            return np.full(X.shape[0], 0.5)
        Z = self._standardize(X)
        return _sigmoid(Z @ self.weights + self.bias)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: with e = exp(-|z|), 1 / (1 + e)
    where z >= 0 and e / (1 + e) where z < 0.

    -|z| is taken as min(z, -z), which returns a NaN unchanged where
    -abs(z) would flip its sign bit.
    """
    e = np.exp(np.minimum(z, -z))
    denom = 1.0 + e
    out = np.divide(1.0, denom, out=out)
    return np.divide(e, denom, out=out, where=z < 0)


def _losses(probs: np.ndarray, penalties: np.ndarray, y: np.ndarray,
            one_minus_y: np.ndarray) -> list[float]:
    """Training loss of each row of iteration probabilities: mean
    cross-entropy plus that iteration's L2 penalty."""
    eps = 1e-12
    ce = -np.mean(y * np.log(probs + eps) + one_minus_y * np.log(1 - probs + eps), axis=1)
    return (ce + penalties).tolist()


@dataclass
class MethodEval:
    """AUC triple (and optional mixing score) for one generation method."""

    auc_real: float
    auc_synthetic: float | None
    auc_mixed: float | None
    mixing_score: float | None = None
    n_synthetic_rows: int = 0
    annotation: str = ""


@dataclass
class EvalReport:
    methods: dict[str, MethodEval] = field(default_factory=dict)
    runtime_totals: dict[str, int] = field(default_factory=dict)  # method -> ms
    config: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "runtime_totals_ms": dict(self.runtime_totals),
            "methods": {
                name: {
                    "auc_real": ev.auc_real,
                    "auc_synthetic": ev.auc_synthetic,
                    "auc_mixed": ev.auc_mixed,
                    "mixing_score": ev.mixing_score,
                    "n_synthetic_rows": ev.n_synthetic_rows,
                    "annotation": ev.annotation,
                }
                for name, ev in self.methods.items()
            },
        }

    def write(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        report = cls(seed=data.get("seed", 0), config=data.get("config", {}),
                     runtime_totals=dict(data.get("runtime_totals_ms", {})))
        for name, ev in data.get("methods", {}).items():
            report.methods[name] = MethodEval(
                auc_real=ev["auc_real"],
                auc_synthetic=ev["auc_synthetic"],
                auc_mixed=ev["auc_mixed"],
                mixing_score=ev.get("mixing_score"),
                n_synthetic_rows=ev.get("n_synthetic_rows", 0),
                annotation=ev.get("annotation", ""),
            )
        return report


def chronological_split(
    windows: list[Window], ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
) -> tuple[list[Window], list[Window], list[Window]]:
    """Per-ticker chronological split: earliest windows train, latest test."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    by_ticker: dict[str, list[Window]] = {}
    for w in windows:
        by_ticker.setdefault(w.ticker, []).append(w)
    train, val, test = [], [], []
    for ticker in sorted(by_ticker):
        ws = sorted(by_ticker[ticker], key=lambda w: w.start_index)
        n = len(ws)
        n_train = int(np.floor(ratios[0] * n))
        n_val = int(np.floor(ratios[1] * n))
        train.extend(ws[:n_train])
        val.extend(ws[n_train : n_train + n_val])
        test.extend(ws[n_train + n_val :])
    return train, val, test


def run_experiment(
    real_windows: list[Window],
    synthetic_by_method: dict[str, list[SyntheticSequence]],
    split: tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
    **hyperparams,
) -> EvalReport:
    """Train on real / synthetic / mixed data, evaluate on real test data.

    Synthetic rows enter training only when their source window belongs to
    the training portion of its ticker. A method with no usable synthetic
    sequences is skipped and annotated in the report.
    """
    train_windows, _, test_windows = chronological_split(real_windows, split)
    if not train_windows or not test_windows:
        raise ValueError("not enough windows for a chronological split")

    real_train = [extract_features(w.raw_values, "real", w.ticker) for w in train_windows]
    test_rows = [extract_features(w.raw_values, "real", w.ticker) for w in test_windows]
    test_X = np.array([r.vector() for r in test_rows])
    test_y = np.array([r.label for r in test_rows])

    train_starts = {}
    for w in train_windows:
        train_starts.setdefault(w.ticker, set()).add(w.start_index)

    auc_real = _fit_and_score(hyperparams, real_train, test_X, test_y)

    report = EvalReport(seed=seed)
    for method, sequences in synthetic_by_method.items():
        usable = [s for s in sequences
                  if s.window_start in train_starts.get(s.ticker, ())]
        synth_rows = [extract_features(s.values, "synthetic", s.ticker) for s in usable]
        if not synth_rows:
            # mixing zero synthetic rows degenerates to the real training set
            report.methods[method] = MethodEval(
                auc_real=auc_real, auc_synthetic=None, auc_mixed=auc_real,
                n_synthetic_rows=0,
                annotation="skipped: no synthetic rows in the training range",
            )
            continue
        auc_mixed = _fit_and_score(hyperparams, real_train + synth_rows, test_X, test_y)
        if len({r.label for r in synth_rows}) < 2:
            report.methods[method] = MethodEval(
                auc_real=auc_real, auc_synthetic=None, auc_mixed=auc_mixed,
                n_synthetic_rows=len(synth_rows),
                annotation="skipped synthetic-only training: single-class labels",
            )
            continue
        auc_synth = _fit_and_score(hyperparams, synth_rows, test_X, test_y)
        report.methods[method] = MethodEval(
            auc_real=auc_real,
            auc_synthetic=auc_synth,
            auc_mixed=auc_mixed,
            n_synthetic_rows=len(synth_rows),
        )
    return report


def _fit_and_score(hyperparams: dict, rows: list[FeatureRow], test_X: np.ndarray,
                   test_y: np.ndarray) -> float:
    model = LogisticClassifier(**hyperparams)
    X = np.array([r.vector() for r in rows])
    y = np.array([r.label for r in rows])
    model.fit(X, y)
    return roc_auc(model.predict_proba(test_X), test_y)
