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
from itertools import groupby
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import UndefinedMetricError
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
    ties count one half (Mann-Whitney formulation). A NaN score, which
    ranks against nothing, raises ValueError."""
    scores, labels = _checked_scores(scores), np.asarray(labels, dtype=int)
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
    scores, labels = _checked_scores(scores), np.asarray(labels, dtype=int)
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


def _checked_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if np.isnan(scores).any():
        raise ValueError("AUC scores must not be NaN")
    return scores


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

    Every set whose model shares its feature count and hyperparameters
    descends in one loop, whatever its number of rows, so an iteration's
    elementwise work is one numpy call for all of them. Each set keeps its
    own step size and tol stop. Its weights, bias and stop iteration are the
    bytes a fit on that set alone gives; ``n_iter_`` is its number of
    gradient evaluations. Every set is checked before any descent: a set
    without both classes raises ValueError.
    """
    prepared = [_prepare(model, X, y)
                for model, (X, y) in zip(models, training_sets, strict=True)]
    groups: dict[tuple, list[int]] = {}
    for i, (model, (Z, _, _)) in enumerate(zip(models, prepared)):
        key = (Z.shape[1], model.l2, model.max_iter, model.tol)
        groups.setdefault(key, []).append(i)
    for (_, l2, max_iter, tol), members in groups.items():
        fits = _descend([prepared[i] for i in members], l2, max_iter, tol)
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


def _descend(sets: list[tuple[np.ndarray, np.ndarray, float]], l2: float, max_iter: int,
             tol: float) -> list[tuple[np.ndarray, float, int]]:
    """Gradient descent on training sets of d features each, given as
    standardized features (m, d), labels (m,) and step size. Returns each
    set's weights, bias and number of gradient evaluations.

    Each set gets the reductions a loop over that set alone makes: a
    matrix-vector matmul for Z @ w and Z.T @ r, a (1, d) @ (d, 1) matmul,
    which is BLAS's dot, for g.g, and add.reduce over its m contiguous
    residuals. Only these calls, and adding b to the logits, are made once
    per row count, on views of two flat buffers that hold every set's
    logits and residuals in order of row count; each other step is one
    call for all sets. A set whose gradient norm falls below ``tol`` stops
    before its update, and the buffers are rebuilt for the sets still
    descending; with ``tol`` 0 no set can stop, and the norm is not computed.
    """
    d = sets[0][0].shape[1]
    live = sorted(range(len(sets)), key=lambda i: sets[i][0].shape[0])
    fits: list = [None] * len(sets)
    # One (d + 1, 1) column per set, w then b, so that one update moves both.
    # Per-set vectors carry a trailing axis of 1, as a stacked matmul takes them.
    params, grad = np.zeros((len(live), d + 1, 1)), np.empty((len(live), d + 1, 1))
    two_l2, iteration = 2.0 * l2, 0
    while live:
        Zs, ys, steps = zip(*(sets[i] for i in live))
        y = np.concatenate(ys)
        logits, residual, scaled = np.empty_like(y), np.empty_like(y), np.empty_like(params)
        rows = [len(labels) for labels in ys]
        blocks, first, end = [], 0, 0  # per row count: its sets' operands and views
        for m, members in groupby(rows):
            k = len(list(members))
            part, Z = slice(first, first + k), np.stack(Zs[first:first + k])
            z, r = (a[end:end + k * m].reshape(k, m, 1) for a in (logits, residual))
            blocks.append((Z, Z.transpose(0, 2, 1), params[part, :d], params[part, d:],
                           grad[part, :d], grad[part, d:], z, r))
            first, end = first + k, end + k * m
        rows, steps = np.array(rows, dtype=float)[:, None, None], np.array(steps)[:, None, None]
        w, grad_w, grad_b, scaled_w = params[:, :d], grad[:, :d], grad[:, d:], scaled[:, :d]
        while iteration < max_iter:
            iteration += 1
            for Z, _, w_part, b_part, _, _, z, _ in blocks:
                np.matmul(Z, w_part, out=z)
                z += b_part
            _sigmoid(logits, out=residual)
            residual -= y
            for _, Zt, _, _, grad_w_part, grad_b_part, _, r in blocks:
                np.matmul(Zt, r, out=grad_w_part)
                np.add.reduce(r, axis=1, keepdims=True, out=grad_b_part)
            grad /= rows
            np.multiply(two_l2, w, out=scaled_w)
            grad_w += scaled_w
            if tol > 0:  # no norm, and no NaN, is below a tol <= 0
                gg = np.matmul(grad_w.transpose(0, 2, 1), grad_w)
                stop = (np.sqrt(gg + grad_b * grad_b) < tol).ravel()
                if np.count_nonzero(stop):
                    for j in np.flatnonzero(stop):
                        fits[live[j]] = (params[j, :d, 0].copy(), float(params[j, d, 0]),
                                         iteration)
                    keep = ~stop
                    live = [i for i, kept in zip(live, keep) if kept]
                    # the sets still descending make this iteration's update
                    # before the buffers are rebuilt for them
                    params, grad = params[keep], grad[keep]
                    params -= steps[keep] * grad
                    break
            np.multiply(steps, grad, out=scaled)
            params -= scaled
        else:
            break
    for j, i in enumerate(live):
        fits[i] = (params[j, :d, 0].copy(), float(params[j, d, 0]), max_iter)
    return fits


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: with e = exp(-|z|), the
    numerator max(e, z >= 0) over 1 + e, which is 1 / (1 + e) where z >= 0
    and e / (1 + e) where z < 0.

    -|z| is taken as min(z, -z), which returns a NaN unchanged where
    -abs(z) would flip its sign bit. e is a NaN or lies in [+0, 1], never
    -0, so the maximum passes e's NaN and zeros on with their bits.
    """
    e = np.exp(np.minimum(z, -z))
    out = np.maximum(e, z >= 0, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


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
            for key in ("auc_real", "auc_synthetic", "auc_mixed", "mixing_score"):
                value = ev.get(key)
                number = isinstance(value, Real) and not isinstance(value, bool)
                if not (number or (value is None and key != "auc_real")):
                    allowed = "a number" if key == "auc_real" else "a number or null"
                    raise ValueError(f"method {name!r}: {key} must be {allowed}, got {value!r}")
            report.methods[name] = MethodEval(**{k: ev[k] for k in names if k in ev})
        return report


def chronological_split(
    windows: list[Window], ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
) -> tuple[list[Window], list[Window], list[Window]]:
    """Per-ticker chronological split: earliest windows train, latest test.
    Ratios that are not three values, do not sum to 1, or hold a negative
    one, raise ValueError."""
    if len(ratios) != 3:
        raise ValueError(f"split ratios must be 3 values, got {len(ratios)}: {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if min(ratios) < 0:
        raise ValueError(f"split ratios must be >= 0, got {ratios}")
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
    synthetic_by_method: dict[str, tuple[np.ndarray, np.ndarray]],
    split: tuple[float, float, float] = (0.7, 0.15, 0.15),
    **hyperparams,
) -> EvalReport:
    """Train on real / synthetic / mixed data, evaluate on real test data.

    A method's ``(values, sources)`` are its ``(N, L)`` prices and each row's
    source window as a position in ``real_windows``. A row enters training
    only when its source window belongs to the training portion of its
    ticker. A method with no usable rows is skipped and annotated.
    """
    train_windows, _, test_windows = chronological_split(real_windows, split)
    if not train_windows or not test_windows:
        raise ValueError("not enough windows for a chronological split")

    real_X, real_y = extract_features([w.raw_values for w in train_windows])
    test_X, test_y = extract_features([w.raw_values for w in test_windows])
    if np.unique(test_y).size < 2:
        raise UndefinedMetricError(f"the real test split's {test_y.size} windows all have "
                                   f"label {test_y[0]}; the AUC needs both classes")

    train_set = set(train_windows)  # a Window hashes by identity
    in_train = np.array([w in train_set for w in real_windows], dtype=bool)

    # Every training set first, real then each method's mixed and synthetic
    # sets, so that fit_classifiers can fit them all in one descent.
    training_sets = [(real_X, real_y)]
    plans = {}  # method -> (synthetic rows, index of its mixed set, of its synthetic set)
    for method, (values, sources) in synthetic_by_method.items():
        usable = values[in_train[sources]]
        if not len(usable):
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

    report = EvalReport()
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

