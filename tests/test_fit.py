"""``LogisticClassifier.fit`` and ``fit_classifiers`` against the reference
loop byte for byte: weights, bias and every loss of the history, across
block sizes, early stops, groups of training sets and the sigmoid's two
branches."""

import numpy as np
import pytest

from vgsynth import evaluate
from vgsynth.evaluate import LogisticClassifier, _sigmoid, fit_classifiers

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
    """Record the (sets, rows) shape of each group that descends."""
    groups = []
    descend = evaluate._descend

    def spy(Z, *args):
        groups.append(Z.shape[:2])
        return descend(Z, *args)

    monkeypatch.setattr(evaluate, "_descend", spy)
    return groups


def assert_same_fit(model, reference):
    assert model.weights.tobytes() == reference.weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(reference.bias).tobytes()
    assert len(model.loss_history_) == len(reference.loss_history_)
    assert all(type(loss) is float for loss in model.loss_history_)
    assert (np.array(model.loss_history_).tobytes()
            == np.array(reference.loss_history_).tobytes())


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


def test_large_m_spans_blocks():
    """2000 rows give blocks of 32 iterations: three full ones and a tail."""
    X, y = fit_data(10, 2000)
    assert_same_fit(*fit_both(X, y, max_iter=100, tol=0.0))


def test_block_holds_at_most_the_bound(monkeypatch):
    """With more rows than one block's bound, each block is one iteration."""
    monkeypatch.setattr(evaluate, "_LOSS_BLOCK_ELEMENTS", 100)
    X, y = fit_data(3, 150)
    assert_same_fit(*fit_both(X, y, max_iter=40, tol=0.0))


@pytest.mark.parametrize("where", ["inside", "last_row", "first_row"])
def test_tol_stop_against_block_boundary(where, monkeypatch):
    """A tol stop inside a block, on a block's last row (flushed after the
    loop) and on the first row after a full block (flushed in the loop)."""
    m = 60
    X, y = fit_data(4, m, signal=0.5)
    stop = len(ReferenceLogisticClassifier(tol=1e-4).fit(X, y).loss_history_)
    assert 20 < stop < 10000
    block = {"inside": stop // 2 + 3, "last_row": stop, "first_row": stop - 1}[where]
    monkeypatch.setattr(evaluate, "_LOSS_BLOCK_ELEMENTS", m * block)
    model, reference = fit_both(X, y, tol=1e-4)
    assert len(reference.loss_history_) == stop
    assert_same_fit(model, reference)


@pytest.mark.parametrize("max_iter", [1, 299, 300, 301, 1000])
def test_max_iter_not_a_block_multiple(max_iter, monkeypatch):
    m = 50
    monkeypatch.setattr(evaluate, "_LOSS_BLOCK_ELEMENTS", m * 300)
    X, y = fit_data(5, m)
    assert_same_fit(*fit_both(X, y, max_iter=max_iter, tol=0.0))


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
    groups = spy_on_descent(monkeypatch)
    sets = [fit_data(seed, m) for seed in range(size)]
    models = fit_group(sets, max_iter=1500, tol=0.0)
    assert groups == [(size, m)]
    assert_same_as_alone(models, sets, max_iter=1500, tol=0.0)


def group_stopping_apart(m=60):
    """Sets of one shape that reach the default tol at different
    iterations (88, 46, 146 and 54 at 60 rows), so that sets leave the
    group from its middle."""
    sets = [fit_data(11, m, signal=signal) for signal in (1.0, 0.2, 2.0, 0.5)]
    stops = [len(ReferenceLogisticClassifier().fit(X, y).loss_history_) for X, y in sets]
    return sets, stops


def test_sets_stop_apart_and_one_runs_to_max_iter():
    sets, stops = group_stopping_apart()
    assert len(set(stops)) == len(stops) and max(stops) < 10000
    max_iter = sorted(stops)[-2] + 7  # above every stop but the last
    models = fit_group(sets, max_iter=max_iter)
    assert sorted(len(model.loss_history_) for model in models) == sorted(stops)[:-1] + [max_iter]
    assert_same_as_alone(models, sets, max_iter=max_iter)


@pytest.mark.parametrize("where", ["inside", "last_row", "first_row"])
def test_group_stop_against_block_boundary(where, monkeypatch):
    """The first set to stop does so inside a block, on a block's last row
    or on the first row after a full block; the bound counts the whole
    group's probabilities, and the block keeps its length as sets leave."""
    m = 60
    sets, stops = group_stopping_apart(m)
    first = min(stops)
    assert 20 < first
    block = {"inside": first // 2 + 3, "last_row": first, "first_row": first - 1}[where]
    monkeypatch.setattr(evaluate, "_LOSS_BLOCK_ELEMENTS", len(sets) * m * block)
    assert_same_as_alone(fit_group(sets), sets)


def test_mixed_row_counts_in_input_order(monkeypatch):
    """Sets of three row counts descend in three groups, in order of first
    appearance; each model gets its own set's fit."""
    groups = spy_on_descent(monkeypatch)
    sets = [fit_data(seed, m) for seed, m in enumerate([40, 80, 40, 33, 80, 40])]
    models = fit_group(sets, max_iter=300, tol=0.0)
    assert groups == [(3, 40), (2, 80), (1, 33)]
    assert_same_as_alone(models, sets, max_iter=300, tol=0.0)


def test_single_class_set_raises_before_any_descent(monkeypatch):
    groups = spy_on_descent(monkeypatch)
    sets = [fit_data(seed, 40) for seed in range(3)]
    X, _ = sets[1]
    sets[1] = (X, np.ones(40, dtype=int))
    with pytest.raises(ValueError, match="training set must contain both classes"):
        fit_group(sets)
    assert groups == []
