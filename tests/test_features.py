"""``extract_features`` over an (n, L) array against the per-row reference
it replaced (``tests/reference_features.py``): labels and six columns byte
for byte, the two least-squares coefficients within rounding scaled to each
window's value range, the closed-form quadratic coefficient against exact
rational arithmetic, input errors, and the experiment's fits and AUCs."""

from fractions import Fraction

import numpy as np
import pytest

from vgsynth import evaluate
from vgsynth.corpus import make_desk_corpus
from vgsynth.evaluate import FEATURE_NAMES, extract_features, fit_classifiers, run_experiment
from vgsynth.ingest import slice_windows
from vgsynth.pipeline import RunConfig, prepare_windows, run_generation

from reference_features import reference_feature_matrix

FITTED = ("linear_trend_slope", "quadratic_coeff")
EXACT = [j for j, name in enumerate(FEATURE_NAMES) if name not in FITTED]


def desk_windows(length, rounded=False):
    series = make_desk_corpus(n_tickers=6, n_days=200, seed=2024)
    values = np.array([w.raw_values for s in series for w in slice_windows(s, length, 1)])
    return np.round(values) if rounded else values


def special_windows(length):
    """Flat, all-up and all-down windows, at two offsets and scales."""
    ramp = np.arange(length, dtype=float)
    return np.array([np.full(length, 3.0), np.full(length, 101.37), ramp, 50.0 + 0.25 * ramp,
                     ramp[::-1], 7.5 - 0.1 * ramp])


FAMILIES = {
    **{f"desk_{length}": (desk_windows, length) for length in (3, 10, 20, 60)},
    **{f"desk_rounded_{length}": (lambda n: desk_windows(n, rounded=True), length)
       for length in (3, 10, 20, 60)},
    **{f"special_{length}": (special_windows, length) for length in (3, 4, 5, 20)},
}


def assert_matches_reference(values):
    X, y = extract_features(values)
    ref_X, ref_y = reference_feature_matrix(values)
    assert X.shape == ref_X.shape == (len(values), len(FEATURE_NAMES))
    assert y.dtype == ref_y.dtype and y.tobytes() == ref_y.tobytes()
    for j in EXACT:
        assert X[:, j].tobytes() == ref_X[:, j].tobytes(), FEATURE_NAMES[j]
    # Both fits are linear in the values; the reference's polyfit rounds
    # relative to their magnitude, which a flat window's range does not see.
    head = values[:, :-1]
    atol = 1e-10 * np.ptp(head, axis=1) + 1e-12 * np.abs(head).max(axis=1)
    for j in range(len(FITTED)):
        assert np.all(np.abs(X[:, j] - ref_X[:, j]) <= atol), FITTED[j]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_per_row_reference(family):
    make, length = FAMILIES[family]
    assert_matches_reference(make(length))


def test_off_grid_values():
    """Values of many magnitudes, whose gain and loss sums round: the sums
    add the same terms in another order, so RSI may move in its low bits,
    and every other exact column stays byte-equal."""
    rng = np.random.default_rng(3)
    steps = rng.standard_normal((500, 40)) * np.exp(3 * rng.standard_normal((500, 40)))
    values = np.cumsum(steps, axis=1)
    X, y = extract_features(values)
    ref_X, ref_y = reference_feature_matrix(values)
    rsi = FEATURE_NAMES.index("rsi")
    assert y.tobytes() == ref_y.tobytes()
    for j in EXACT:
        if j != rsi:
            assert X[:, j].tobytes() == ref_X[:, j].tobytes(), FEATURE_NAMES[j]
    np.testing.assert_allclose(X[:, rsi], ref_X[:, rsi], rtol=0, atol=1e-11)


def test_flat_windows_fit_exactly_zero():
    X, _ = extract_features(special_windows(12)[:2])
    assert np.all(X[:, :2] == 0.0)


def exact_quadratic(y):
    """Leading coefficient of the least-squares quadratic through
    (i, y_i), i = 0..h-1, from the normal equations in exact arithmetic."""
    h = len(y)
    powers = [[Fraction(i) ** k for k in (2, 1, 0)] for i in range(h)]
    A = [[sum(p[r] * p[c] for p in powers) for c in range(3)] for r in range(3)]
    b = [sum(p[r] * Fraction(v) for p, v in zip(powers, y)) for r in range(3)]
    for col in range(3):  # Gauss-Jordan; the Gram matrix is positive definite
        pivot = A[col][col]
        A[col] = [a / pivot for a in A[col]]
        b[col] /= pivot
        for row in range(3):
            if row != col:
                factor = A[row][col]
                A[row] = [a - factor * p for a, p in zip(A[row], A[col])]
                b[row] -= factor * b[col]
    return b[0]


def closed_form_quadratic(y):
    """<p2, y> / <p2, p2> with p2 = (x - m)^2 - (h^2 - 1) / 12, m = (h - 1) / 2."""
    h = len(y)
    m = Fraction(h - 1, 2)
    p2 = [(i - m) ** 2 - Fraction(h * h - 1, 12) for i in range(h)]
    return (sum(p * Fraction(v) for p, v in zip(p2, y))
            / sum(p * p for p in p2))


@pytest.mark.parametrize("h", [3, 4, 5, 8, 19, 59])
def test_closed_form_quadratic_is_exact_least_squares(h):
    """In exact arithmetic the closed form is the least-squares fit's
    leading coefficient; the float result is within rounding of it."""
    rng = np.random.default_rng(h)
    for _ in range(5):
        y = rng.integers(-50, 50, size=h).astype(float) + rng.integers(0, 4, size=h) / 4.0
        exact = exact_quadratic(y)
        assert closed_form_quadratic(y) == exact
        X, _ = extract_features([np.append(y, 0.0)])
        assert abs(Fraction(X[0, 1]) - exact) <= Fraction(1e-13) * Fraction(np.ptp(y))


def test_rsi_column_cases():
    """Flat rows score 50, all-gain rows 100, all-loss rows 0; a row with
    gains and losses scores 100 - 100 / (1 + gains / losses)."""
    X, _ = extract_features([[3.0, 3.0, 3.0, 0.0], [1.0, 2.0, 4.0, 0.0],
                             [4.0, 2.0, 1.0, 0.0], [1.0, 4.0, 3.0, 0.0]])
    rsi = X[:, FEATURE_NAMES.index("rsi")]
    assert rsi.tolist() == [50.0, 100.0, 0.0, 100.0 - 100.0 / (1.0 + 3.0)]


class TestInputErrors:
    """Fewer than 3 columns: ``TestExtractFeatures.test_too_short_rejected``."""

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]], 5.0],
                             ids=["1d", "3d", "scalar"])
    def test_not_2d(self, values):
        with pytest.raises(ValueError, match=r"\(n, L\) array"):
            extract_features(values)

    def test_ragged(self):
        with pytest.raises(ValueError):
            extract_features([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_first_bad_row(self, bad):
        values = np.ones((5, 4))
        values[3, 1] = values[4, 0] = bad
        with pytest.raises(ValueError, match="values must be finite; row 3 is not"):
            extract_features(values)


@pytest.fixture(scope="module")
def evaluation_inputs():
    """The golden evaluation's corpus and configuration (tests/test_golden.py):
    its windows, and each method's sequences as ``run_experiment`` takes them."""
    corpus = make_desk_corpus(n_tickers=6, n_days=120, seed=5)
    config = RunConfig(seed=17, window_length=10, methods=("nvg", "hvg", "nvmg", "vrp"),
                       sequences_per_window=10, downsample_k=1, downsample_mode="simds")
    by_method, _ = run_generation(config, corpus)
    windows = [w for ws in prepare_windows(config, corpus).values() for w in ws]
    position = {(w.ticker, w.start_index): i for i, w in enumerate(windows)}
    return windows, {method: (np.array([s.values for s in sequences]),
                              np.array([position[s.ticker, s.window_start] for s in sequences]))
                     for method, sequences in by_method.items()}


def experiment(windows, by_method, monkeypatch, features):
    """The report and every model's ``n_iter_`` of one default-tol run."""
    monkeypatch.setattr(evaluate, "extract_features", features)
    fitted = []

    def spy(models, training_sets):
        fit_classifiers(models, training_sets)
        fitted.extend(model.n_iter_ for model in models)

    monkeypatch.setattr(evaluate, "fit_classifiers", spy)
    report = run_experiment(windows, by_method)
    return report.to_dict(), fitted


def test_experiment_equals_per_row_reference(evaluation_inputs, monkeypatch):
    """Matrix features and the per-row reference fit every model in the
    same number of iterations and give the same AUCs."""
    windows, by_method = evaluation_inputs
    matrix = experiment(windows, by_method, monkeypatch, extract_features)
    reference = experiment(windows, by_method, monkeypatch, reference_feature_matrix)
    assert len(matrix[1]) == 1 + 2 * len(by_method)
    assert matrix == reference
