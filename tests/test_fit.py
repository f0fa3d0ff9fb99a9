"""``LogisticClassifier.fit`` and ``fit_classifiers`` against the reference
loop: weights and bias byte for byte and the stop iteration, across row
counts, iteration limits, early stops, sets of several row counts that
descend together, the sigmoid's two branches and the BLAS thread count."""

import numpy as np
import pytest

from vgsynth import evaluate
from vgsynth.evaluate import LogisticClassifier, _sigmoid, fit_classifiers

from fresh_python import needs_two_cpus, outputs_per_blas_thread_count
from reference_fit import ReferenceLogisticClassifier, reference_sigmoid


def fit_data(seed, m, d=8, positive_rate=0.5, signal=1.0):
    """Features on unequal scales and offsets, labels from a noisy linear
    score; both classes are present."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d)) * rng.uniform(0.1, 20.0, d) + rng.uniform(-5.0, 5.0, d)
    score = signal * (X - X.mean(axis=0)) @ rng.standard_normal(d) / (X.std(axis=0).sum() + 1.0)
    threshold = np.quantile(score + rng.logistic(size=m), 1.0 - positive_rate)
    y = (score + rng.logistic(size=m) > threshold).astype(int)
    y[0], y[1] = 0, 1
    return X, y


def fit_both(X, y, **params):
    return (LogisticClassifier(**params).fit(X, y),
            ReferenceLogisticClassifier(**params).fit(X, y))


def fit_group(sets, **params):
    models = [LogisticClassifier(**params) for _ in sets]
    fit_classifiers(models, sets)
    return models


def assert_same_as_alone(models, sets, **params):
    """Each grouped fit equals the reference fit on its set alone."""
    for model, (X, y) in zip(models, sets, strict=True):
        assert_same_fit(model, ReferenceLogisticClassifier(**params).fit(X, y))


def spy_on_descent(monkeypatch):
    """Record the row counts of the sets each descent is given."""
    calls = []
    descend = evaluate._descend

    def spy(sets, *args):
        calls.append([Z.shape[0] for Z, _, _ in sets])
        return descend(sets, *args)

    monkeypatch.setattr(evaluate, "_descend", spy)
    return calls


def assert_same_fit(model, reference):
    assert model.weights.tobytes() == reference.weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(reference.bias).tobytes()
    assert model.n_iter_ == len(reference.loss_history_)


@pytest.mark.parametrize("m", [40, 80])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_shapes_at_tol_zero(seed, m):
    """The benchmark's fits: 40-80 rows, 1500 iterations, no early stop."""
    X, y = fit_data(seed, m)
    model, reference = fit_both(X, y, max_iter=1500, tol=0.0)
    assert len(reference.loss_history_) == 1500
    assert_same_fit(model, reference)


@pytest.mark.parametrize("m", [5, 37, 333, 2000])
def test_default_tol(m):
    X, y = fit_data(m, m)
    assert_same_fit(*fit_both(X, y))


@pytest.mark.parametrize("data, params", [
    pytest.param(dict(seed=10, m=2000), dict(max_iter=100, tol=0.0), id="2000_rows"),
    pytest.param(dict(seed=3, m=150), dict(max_iter=40, tol=0.0), id="150_rows"),
    *(pytest.param(dict(seed=5, m=50), dict(max_iter=k, tol=0.0), id=f"max_iter_{k}")
      for k in (1, 299, 300, 301, 1000)),
])
def test_stop_iteration(data, params):
    """At tol 0 every fit runs to max_iter."""
    model, reference = fit_both(*fit_data(**data), **params)
    assert len(reference.loss_history_) == params["max_iter"]
    assert_same_fit(model, reference)


@pytest.mark.parametrize("where", ["inside", "last_row", "first_row"])
def test_tol_stop_against_block_boundary(where):
    """A tol stop against the run's boundary, max_iter: inside the run, on
    its last iteration (the stop makes no update) and on the first
    iteration after it (the run ends on an update, one short of the stop)."""
    X, y = fit_data(4, 60, signal=0.5)
    stop = len(ReferenceLogisticClassifier(tol=1e-4).fit(X, y).loss_history_)
    assert 20 < stop < 10000
    max_iter = {"inside": 10000, "last_row": stop, "first_row": stop - 1}[where]
    model, reference = fit_both(X, y, max_iter=max_iter, tol=1e-4)
    assert len(reference.loss_history_) == min(stop, max_iter)
    assert_same_fit(model, reference)


def test_zero_variance_column():
    X, y = fit_data(6, 70)
    X[:, 3] = 2.5
    assert_same_fit(*fit_both(X, y))


@pytest.mark.parametrize("positive_rate", [0.95, 0.05])
def test_logits_of_one_sign(positive_rate):
    """Labels nearly all one class and features without signal: after the
    first iteration (all logits 0) every training logit takes the sign of
    the bias, so only one branch of the sigmoid runs."""
    X, y = fit_data(7, 200, positive_rate=positive_rate, signal=0.0)
    model, reference = fit_both(X, y, max_iter=200, tol=0.0)
    logits = model._standardize(X) @ model.weights + model.bias
    assert np.all(logits >= 0) if positive_rate > 0.5 else np.all(logits < 0)
    assert_same_fit(model, reference)


def test_no_l2():
    X, y = fit_data(8, 90)
    assert_same_fit(*fit_both(X, y, l2=0.0))


def test_stop_on_first_iteration():
    """A tol above the first gradient norm stops before any update."""
    X, y = fit_data(9, 30)
    model, reference = fit_both(X, y, tol=10.0)
    assert len(reference.loss_history_) == 1
    assert_same_fit(model, reference)


@pytest.mark.parametrize("sign", ["mixed", "nonnegative", "negative"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 1001])
def test_sigmoid_matches_masked(n, sign):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) * 40.0
    z[: n // 3] = rng.choice([0.0, -0.0, 745.0, -745.0, 1e-320, -1e-320, np.inf, -np.inf,
                              np.nan, -np.nan], size=n // 3)
    if sign == "nonnegative":
        z = np.abs(z)
    elif sign == "negative":
        z = -np.abs(z) - 1e-9
    assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    out = np.empty(n)
    assert _sigmoid(z, out=out) is out
    assert out.tobytes() == reference_sigmoid(z).tobytes()


@pytest.mark.parametrize("m", [40, 80])
@pytest.mark.parametrize("size", [1, 2, 5])
def test_group_at_benchmark_shapes(size, m, monkeypatch):
    """The benchmark's groups: up to five sets of 40 or 80 rows, 1500
    iterations, no early stop, in one descent."""
    calls = spy_on_descent(monkeypatch)
    sets = [fit_data(seed, m) for seed in range(size)]
    models = fit_group(sets, max_iter=1500, tol=0.0)
    assert calls == [[m] * size]
    assert_same_as_alone(models, sets, max_iter=1500, tol=0.0)


def group_stopping_apart(m=60):
    """Sets of one shape that reach the default tol at different
    iterations (88, 46, 146 and 54 at 60 rows), so that sets leave the
    group from its middle."""
    sets = [fit_data(11, m, signal=signal) for signal in (1.0, 0.2, 2.0, 0.5)]
    stops = [len(ReferenceLogisticClassifier().fit(X, y).loss_history_) for X, y in sets]
    return sets, stops


def assert_group_stops(sets, stops, max_iter):
    """Each set leaves the group at its own tol stop or at max_iter."""
    models = fit_group(sets, max_iter=max_iter)
    assert (sorted(model.n_iter_ for model in models)
            == sorted(min(stop, max_iter) for stop in stops))
    assert_same_as_alone(models, sets, max_iter=max_iter)


def test_sets_stop_apart_and_one_runs_to_max_iter():
    """With max_iter between the last two stops one set runs to it."""
    sets, stops = group_stopping_apart()
    assert len(set(stops)) == len(stops) and max(stops) < 10000
    assert_group_stops(sets, stops, max_iter=sorted(stops)[-2] + 7)


@pytest.mark.parametrize("where", ["inside", "last_row", "first_row"])
def test_group_stop_against_block_boundary(where):
    """The first set's tol stop against the group's max_iter: inside the run
    (the default max_iter, every set stops on tol), on its last iteration,
    and on the first iteration after it (every set runs to max_iter)."""
    sets, stops = group_stopping_apart()
    first = min(stops)
    assert 20 < first and max(stops) < 10000
    max_iter = {"inside": 10000, "last_row": first, "first_row": first - 1}[where]
    assert_group_stops(sets, stops, max_iter)


def test_mixed_row_counts_in_input_order(monkeypatch):
    """Sets of three row counts descend in one loop per hyperparameter set,
    whatever their row counts; each model gets its own set's fit."""
    calls = spy_on_descent(monkeypatch)
    rows = [40, 80, 40, 33, 80, 40]
    sets = [fit_data(seed, m) for seed, m in enumerate(rows)]
    models = fit_group(sets, max_iter=300, tol=0.0)
    assert calls == [rows]
    assert_same_as_alone(models, sets, max_iter=300, tol=0.0)

    calls.clear()
    l2s = [1e-3, 0.0, 0.0, 1e-3, 1e-3, 0.0]
    models = [LogisticClassifier(l2=l2, max_iter=300, tol=0.0) for l2 in l2s]
    fit_classifiers(models, sets)
    assert calls == [[40, 33, 80], [80, 40, 40]]
    for model, (X, y), l2 in zip(models, sets, l2s):
        assert_same_fit(model, ReferenceLogisticClassifier(l2=l2, max_iter=300,
                                                           tol=0.0).fit(X, y))


def rows_stopping_apart():
    """Sets of three row counts that reach the default tol at different
    iterations (88, 422, 146, 22, 124 and 33), so that the sets that stop
    first have the most rows and the layout is rebuilt across row counts."""
    data = [(60, 1.0), (33, 0.2), (60, 2.0), (90, 0.5), (33, 3.0), (90, 1.5)]
    sets = [fit_data(11, m, signal=signal) for m, signal in data]
    stops = [len(ReferenceLogisticClassifier().fit(X, y).loss_history_) for X, y in sets]
    return sets, stops


@pytest.mark.parametrize("where", ["inside", "second_last", "first", "before_first"])
def test_default_tol_across_row_counts(where):
    """At the default tol, sets of several row counts stop apart: every set
    stops on tol, one runs to max_iter, the first stop lands on max_iter,
    or every set runs to max_iter one iteration before it."""
    sets, stops = rows_stopping_apart()
    assert len(set(stops)) == len(stops) and max(stops) < 10000
    ordered = sorted(stops)
    max_iter = {"inside": 10000, "second_last": ordered[-2] + 3,
                "first": ordered[0], "before_first": ordered[0] - 1}[where]
    assert_group_stops(sets, stops, max_iter)


def test_single_class_set_raises_before_any_descent(monkeypatch):
    calls = spy_on_descent(monkeypatch)
    sets = [fit_data(seed, 40) for seed in range(3)]
    X, _ = sets[1]
    sets[1] = (X, np.ones(40, dtype=int))
    with pytest.raises(ValueError, match="training set must contain both classes"):
        fit_group(sets)
    assert calls == []


@needs_two_cpus
def test_fit_independent_of_blas_threads():
    """Weights, biases and stop iterations have the same bits with one BLAS
    thread as with two, at row counts up to 5000, where a threaded
    matrix-vector product could split its sums over the threads."""
    code = """
import hashlib
import numpy as np
from vgsynth.evaluate import LogisticClassifier, fit_classifiers
sets = []
for m in (340, 680, 2000, 5000):
    rng = np.random.default_rng(m)
    X = rng.standard_normal((m, 8)) * rng.uniform(0.1, 20.0, 8) + rng.uniform(-5.0, 5.0, 8)
    y = ((X - X.mean(axis=0)) / X.std(axis=0) @ rng.standard_normal(8)
         + rng.logistic(size=m) > 0).astype(int)
    sets.append((X, y))
models = [LogisticClassifier(max_iter=1500, tol=0.0) for _ in sets]
fit_classifiers(models, sets)
digest = hashlib.sha256()
for model in models:
    digest.update(model.weights.tobytes() + np.float64(model.bias).tobytes())
    digest.update(str(model.n_iter_).encode())
print(digest.hexdigest())
"""
    digests = outputs_per_blas_thread_count(code, timeout=120)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
