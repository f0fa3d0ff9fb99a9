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
from dataclasses import MISSING, asdict, dataclass, field, fields
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


def relative_strength_index(head: np.ndarray) -> np.ndarray:
    """RSI of each row of ``head`` over the whole row, with single-period
    average gains and losses.

    All-gain rows score 100, all-loss rows 0, flat rows 50.
    """
    diffs = np.diff(head, axis=1)
    gains = np.where(diffs > 0, diffs, 0.0).sum(axis=1)
    losses = -np.where(diffs < 0, diffs, 0.0).sum(axis=1)
    rs = np.divide(gains, losses, out=np.full(gains.shape, np.inf), where=losses > 0)
    return np.where(gains + losses > 0, 100.0 - 100.0 / (1.0 + rs), 50.0)


def count_peaks(head: np.ndarray) -> np.ndarray:
    """Strict local maxima of each row of ``head``; endpoints excluded."""
    inner = head[:, 1:-1]
    return ((inner > head[:, :-2]) & (inner > head[:, 2:])).sum(axis=1)


def extract_features(values) -> tuple[np.ndarray, np.ndarray]:
    """Features of each row of an (n, L) array: ``X`` (n, 8), columns in
    ``FEATURE_NAMES`` order, over the row's first h = L-1 values, and the
    label ``y``, 1 if the last value strictly exceeds the one before it
    (ties count as down).

    The slope and the quadratic coefficient are least-squares fits over the
    index: the centred rows times two fixed columns, the centred index
    x - m, m = (h-1)/2, and p2 = (x-m)^2 - (h^2-1)/12, each over its squared
    norm. p2 is 0 at h = 2, and so is its fit.
    """
    values = np.asarray(values, dtype=float)  # a ragged input raises ValueError here
    if values.ndim != 2:
        raise ValueError(f"values must be an (n, L) array, got {values.ndim} dimension(s)")
    if values.shape[1] < 3:
        raise ValueError(f"need at least 3 values per row, got {values.shape[1]}")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"values must be finite; row {np.flatnonzero(bad)[0]} is not")
    head = values[:, :-1]
    h = head.shape[1]
    mean = head.mean(axis=1)
    xc = np.arange(h) - (h - 1) / 2.0
    basis = np.stack([xc, xc * xc - (h * h - 1) / 12.0], axis=1)
    norms = (basis * basis).sum(axis=0)
    fits = np.divide((head - mean[:, None]) @ basis, norms,
                     out=np.zeros((len(head), 2)), where=norms > 0)
    X = np.column_stack([
        fits,
        np.diff(head, axis=1).mean(axis=1),
        relative_strength_index(head),
        count_peaks(head),
        mean,
        head.var(axis=1),
        head.max(axis=1) - head.min(axis=1),
    ])
    return X, (values[:, -1] > values[:, -2]).astype(int)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative;
    ties count one half (Mann-Whitney formulation)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    # 1-based ranks, each tie group's average: its last rank minus half its span
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(cnt)
    ranks = (ends - (cnt - 1) / 2)[inv]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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
        self.n_iter_ = 0

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            return X
        return (X - self.mean_) / self.scale_

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticClassifier":
        fit_classifiers([self], [(X, y)])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.weights is None:
            return np.full(X.shape[0], 0.5)
        Z = self._standardize(X)
        return _sigmoid(Z @ self.weights + self.bias)


def fit_classifiers(models: list[LogisticClassifier],
                    training_sets: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Fit ``models[i]`` on ``training_sets[i] = (X, y)``.

    Training sets of one shape whose models share their hyperparameters
    descend together in one loop, so an iteration costs the same numpy
    calls for the whole group as for one set. Each set keeps its own step
    size and tol stop. Its weights, bias and stop iteration are the bytes a
    fit on that set alone gives, whatever the grouping; ``n_iter_`` is its
    number of gradient evaluations. Every set is checked before any
    descent: a set without both classes raises ValueError.
    """
    prepared = [_prepare(model, X, y)
                for model, (X, y) in zip(models, training_sets, strict=True)]
    groups: dict[tuple, list[int]] = {}
    for i, (model, (Z, _, _)) in enumerate(zip(models, prepared)):
        key = (Z.shape, model.l2, model.max_iter, model.tol)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        Z, y, steps = (np.stack(parts) for parts in zip(*(prepared[i] for i in members)))
        head = models[members[0]]
        fits = _descend(Z, y, steps, head.l2, head.max_iter, head.tol)
        for i, (w, b, n_iter) in zip(members, fits):
            models[i].weights, models[i].bias, models[i].n_iter_ = w, b, n_iter


def _prepare(model: LogisticClassifier, X: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Set ``model``'s standardization from ``X`` and return the
    standardized features, the labels as floats and the step size."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(y).size < 2:
        raise ValueError("training set must contain both classes")
    m = X.shape[0]
    model.mean_ = X.mean(axis=0)
    model.scale_ = X.std(axis=0)
    model.scale_[model.scale_ == 0] = 1.0
    Z = model._standardize(X)

    # Lipschitz bound for the mean logistic loss plus the L2 term
    A = np.hstack([Z, np.ones((m, 1))])
    lip = float(np.linalg.eigvalsh(A.T @ A / m).max()) / 4.0 + 2.0 * model.l2
    return Z, y, 1.0 / lip


def _descend(Z: np.ndarray, y: np.ndarray, steps: np.ndarray, l2: float, max_iter: int,
             tol: float) -> list[tuple[np.ndarray, float, int]]:
    """Gradient descent on a group of training sets: standardized features
    ``Z`` (B, m, d), labels ``y`` (B, m) and step sizes ``steps`` (B,).
    Returns each set's weights, bias and number of gradient evaluations.

    Each set gets the reductions a loop over that set alone makes: a
    matrix-vector matmul for Z @ w and Z.T @ r, a (1, d) @ (d, 1) matmul,
    which is BLAS's dot, for g.g, and add.reduce over its m contiguous
    residuals. A set whose gradient norm falls below ``tol`` leaves the
    group before its update, and the group's arrays are then compacted;
    with ``tol`` 0 no set can leave, and the norm is not computed.
    """
    n, m, d = Z.shape
    live = list(range(n))  # input position of each set still descending
    fits: list = [None] * n
    # Per-set vectors carry a trailing axis of 1, so that they are the
    # stacked matmul's operands as they stand.
    y, steps = y[:, :, None], steps[:, None, None]
    w, grad_w = np.zeros((n, d, 1)), np.empty((n, d, 1))
    b, grad_b, gg = np.zeros((n, 1, 1)), np.empty((n, 1, 1)), np.empty((n, 1, 1))
    logits, residual, scaled = np.empty((n, m, 1)), np.empty((n, m, 1)), np.empty((n, d, 1))
    two_l2 = 2.0 * l2
    Zt = Z.transpose(0, 2, 1)
    for iteration in range(1, max_iter + 1):
        np.matmul(Z, w, out=logits)
        logits += b
        _sigmoid(logits, out=residual)
        residual -= y
        np.matmul(Zt, residual, out=grad_w)
        grad_w /= m
        np.multiply(two_l2, w, out=scaled)
        grad_w += scaled
        np.add.reduce(residual, axis=1, keepdims=True, out=grad_b)
        grad_b /= m
        if tol > 0:  # no norm, and no NaN, is below a tol <= 0
            np.matmul(grad_w.transpose(0, 2, 1), grad_w, out=gg)
            stop = np.sqrt(gg + grad_b * grad_b) < tol
            if np.count_nonzero(stop):
                stop = stop.ravel()
                for j in np.flatnonzero(stop):
                    fits[live[j]] = (w[j, :, 0].copy(), float(b[j, 0, 0]), iteration)
                keep = ~stop
                live = [i for i, kept in zip(live, keep) if kept]
                if not live:
                    return fits
                Z, y, steps, w, grad_w, b, grad_b = (
                    a[keep] for a in (Z, y, steps, w, grad_w, b, grad_b))
                k = len(live)
                logits, residual, scaled, gg = logits[:k], residual[:k], scaled[:k], gg[:k]
                Zt = Z.transpose(0, 2, 1)
        np.multiply(steps, grad_w, out=scaled)
        w -= scaled
        b -= steps * grad_b
    for j, i in enumerate(live):
        fits[i] = (w[j, :, 0].copy(), float(b[j, 0, 0]), max_iter)
    return fits


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
            "methods": {name: asdict(ev) for name, ev in self.methods.items()},
        }

    def write(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        if not isinstance(data, dict):
            raise ValueError("report is not a JSON object")
        for key in ("runtime_totals_ms", "methods"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f"{key!r} is not a JSON object")
        report = cls(seed=data.get("seed", 0), config=data.get("config", {}),
                     runtime_totals=dict(data.get("runtime_totals_ms", {})))
        # an older report may lack an optional field or hold one no longer read
        names = [f.name for f in fields(MethodEval)]
        required = [f.name for f in fields(MethodEval) if f.default is MISSING]
        for name, ev in data.get("methods", {}).items():
            if not isinstance(ev, dict):
                raise ValueError(f"method {name!r} is not a JSON object")
            missing = [k for k in required if k not in ev]
            if missing:
                raise ValueError(f"method {name!r} lacks {', '.join(missing)}")
            report.methods[name] = MethodEval(**{k: ev[k] for k in names if k in ev})
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

    real_X, real_y = extract_features([w.raw_values for w in train_windows])
    test_X, test_y = extract_features([w.raw_values for w in test_windows])

    train_starts = {}
    for w in train_windows:
        train_starts.setdefault(w.ticker, set()).add(w.start_index)

    # Every training set first, real then each method's mixed and synthetic
    # sets, so that fit_classifiers can fit sets of one shape together.
    training_sets = [(real_X, real_y)]
    plans = {}  # method -> (synthetic rows, index of its mixed set, of its synthetic set)
    for method, sequences in synthetic_by_method.items():
        usable = [s.values for s in sequences
                  if s.window_start in train_starts.get(s.ticker, ())]
        if not usable:
            # mixing zero synthetic rows degenerates to the real training set
            plans[method] = (0, 0, None)
            continue
        synth_X, synth_y = extract_features(usable)
        training_sets.append((np.concatenate([real_X, synth_X]),
                              np.concatenate([real_y, synth_y])))
        mixed = len(training_sets) - 1
        synth = None
        if np.unique(synth_y).size > 1:
            training_sets.append((synth_X, synth_y))
            synth = len(training_sets) - 1
        plans[method] = (len(usable), mixed, synth)

    models = [LogisticClassifier(**hyperparams) for _ in training_sets]
    fit_classifiers(models, training_sets)
    aucs = [roc_auc(model.predict_proba(test_X), test_y) for model in models]

    report = EvalReport(seed=seed)
    for method, (n_synthetic, mixed, synth) in plans.items():
        if not n_synthetic:
            annotation = "skipped: no synthetic rows in the training range"
        elif synth is None:
            annotation = "skipped synthetic-only training: single-class labels"
        else:
            annotation = ""
        report.methods[method] = MethodEval(
            auc_real=aucs[0],
            auc_synthetic=None if synth is None else aucs[synth],
            auc_mixed=aucs[mixed],
            n_synthetic_rows=n_synthetic,
            annotation=annotation,
        )
    return report

