import math

import numpy as np
import pytest

from vgsynth.errors import UndefinedMetricError
from vgsynth.evaluate import (FEATURE_NAMES, EvalReport, LogisticClassifier, MethodEval,
                              auc_bruteforce, chronological_split, extract_features,
                              relative_strength_index, roc_auc, run_experiment)
from vgsynth.generate import SyntheticSequence
from vgsynth.ingest import Window


def one_row(values):
    """Named features and label of one window, through the matrix form."""
    X, y = extract_features([values])
    return dict(zip(FEATURE_NAMES, X[0]), label=y[0])


class TestExtractFeatures:
    def test_strictly_increasing(self):
        row = one_row(np.arange(1.0, 21.0))
        assert row["rsi"] == 100.0
        assert row["num_peaks"] == 0
        assert row["label"] == 1
        assert row["linear_trend_slope"] == pytest.approx(1.0)

    def test_alternating_rsi_is_50(self):
        # [1,2,1,2,1] has gains summing 2 and losses summing 2 (RS = 1)
        assert relative_strength_index(np.array([[1.0, 2.0, 1.0, 2.0, 1.0]]))[0] == \
            pytest.approx(50.0)
        row = one_row([1.0, 2.0, 1.0, 2.0, 1.0, 9.0])
        assert row["rsi"] == pytest.approx(50.0)

    def test_strictly_decreasing_rsi_is_0(self):
        row = one_row(np.arange(20.0, 0.0, -1.0))
        assert row["rsi"] == 0.0
        assert row["label"] == 0

    def test_flat_window_rsi_is_50(self):
        row = one_row([3.0, 3.0, 3.0, 3.0])
        assert row["rsi"] == 50.0

    def test_slope_examples(self):
        assert one_row([2.0, 4.0, 6.0, 1.0])["linear_trend_slope"] == pytest.approx(2.0)
        assert one_row([5.0, 5.0, 5.0, 9.0])["linear_trend_slope"] == 0.0

    def test_tie_labels_down(self):
        assert one_row([1.0, 2.0, 3.0, 3.0])["label"] == 0

    def test_peaks_are_strict_interior_maxima(self):
        row = one_row([0, 2, 1, 3, 3, 1, 9])  # head [0,2,1,3,3,1]
        assert row["num_peaks"] == 1

    def test_features_ignore_final_value(self):
        X, y = extract_features([[1.0, 4.0, 2.0, 8.0, 100.0], [1.0, 4.0, 2.0, 8.0, -100.0]])
        np.testing.assert_array_equal(X[0], X[1])
        assert y[0] != y[1]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="need at least 3 values per row, got 2"):
            extract_features([[1.0, 2.0], [3.0, 4.0]])

    def test_population_variance_and_range(self):
        row = one_row([1.0, 3.0, 5.0, 0.0])
        head = np.array([1.0, 3.0, 5.0])
        assert row["variance"] == pytest.approx(head.var())
        assert row["value_range"] == 4.0


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.1, 0.9], [0, 1]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_hand_computed_three_quarters(self):
        assert roc_auc([0.2, 0.8, 0.4, 0.6], [0, 1, 1, 0]) == 0.75

    def test_ties_count_half(self):
        assert roc_auc([0.5, 0.5], [0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("scores, labels", [
        ([math.nan, 0.1, 0.2], [1, 0, 1]), ([0.3, math.nan, 0.2, 0.9], [0, 1, 1, 0])])
    def test_nan_score_rejected_by_both(self, scores, labels):
        """np.unique ranks NaN above every value, where the pairwise count
        ranks it against nothing: both refuse it instead of disagreeing."""
        for auc in (roc_auc, auc_bruteforce):
            with pytest.raises(ValueError, match="must not be NaN"):
                auc(scores, labels)

    def test_infinite_scores_agree_with_bruteforce(self):
        scores, labels = [math.inf, -math.inf, 0.2, math.inf], [1, 0, 1, 0]
        assert roc_auc(scores, labels) == auc_bruteforce(scores, labels) == 0.625

    def test_matches_bruteforce(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 1)
            assert roc_auc(scores, labels) == auc_bruteforce(scores, labels)

    def test_score_negation_complements(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.random(n)  # continuous, ties have measure zero
            total = roc_auc(scores, labels) + roc_auc(-scores, labels)
            assert total == pytest.approx(1.0, abs=1e-12)


def blob_data(rng, n=100, separation=6.0):
    """Two Gaussian blobs of n // 2 rows each in 8 features: the feature
    matrix and its labels, 0 for the first blob and 1 for the second."""
    X, labels = [], []
    for label in (0, 1):
        center = np.zeros(8) if label == 0 else np.full(8, separation)
        for _ in range(n // 2):
            X.append(center + rng.standard_normal(8))
            labels.append(label)
    return np.array(X), np.array(labels)


class TestClassifier:
    def test_separable_blobs_train_auc_one(self, rng):
        X, labels = blob_data(rng)
        model = LogisticClassifier().fit(X, labels)
        assert roc_auc(model.predict_proba(X), labels) == 1.0

    def test_untrained_model_scores_half(self):
        model = LogisticClassifier()
        assert model.predict_proba(np.arange(1.0, 9.0)[None, :])[0] == 0.5

    def test_duplicated_training_set_identical_weights(self, rng):
        X, labels = blob_data(rng, n=60, separation=2.0)
        a = LogisticClassifier(max_iter=500).fit(X, labels)
        b = LogisticClassifier(max_iter=500).fit(np.concatenate([X, X]),
                                                 np.concatenate([labels, labels]))
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)
        assert a.bias == pytest.approx(b.bias, abs=1e-9)

    def test_loss_non_increasing(self, rng):
        """The regularised cross-entropy of each iterate, from fits that stop
        after 1, 2, ..., 300 iterations on the same rows."""
        X, labels = blob_data(rng, n=80, separation=1.0)
        losses = []
        for k in range(1, 301):
            model = LogisticClassifier(max_iter=k).fit(X, labels)
            p = model.predict_proba(X)
            ce = -np.mean(labels * np.log(p + 1e-12) + (1 - labels) * np.log(1 - p + 1e-12))
            losses.append(ce + model.l2 * np.dot(model.weights, model.weights))
        assert model.n_iter_ == 300
        assert np.all(np.diff(losses) <= 1e-12)

    def test_single_class_rejected(self, rng):
        X, labels = blob_data(rng)
        with pytest.raises(ValueError):
            LogisticClassifier().fit(X[labels == 1], labels[labels == 1])


def trending_windows(rng, n_tickers=4, n_windows=30, length=10):
    """Windows with a momentum signal: trending windows keep trending."""
    windows = []
    for t in range(n_tickers):
        for i in range(n_windows):
            drift = rng.choice([-0.5, 0.5])
            noise = rng.standard_normal(length) * 0.3
            values = 50 + drift * np.arange(length) + noise
            windows.append(Window(ticker=f"T{t}", start_index=i * length,
                                  raw_values=values))
    return windows


def as_sequences(windows, method="copy"):
    return [SyntheticSequence(values=w.raw_values.copy(), scaled_values=None,
                              method=method, ticker=w.ticker,
                              window_start=w.start_index, seed=0)
            for w in windows]


class TestChronologicalSplit:
    def test_train_before_test_per_ticker(self, rng):
        windows = trending_windows(rng)
        train, val, test = chronological_split(windows)
        for ticker in {w.ticker for w in windows}:
            train_max = max(w.start_index for w in train if w.ticker == ticker)
            test_min = min(w.start_index for w in test if w.ticker == ticker)
            assert train_max < test_min

    def test_ratios(self, rng):
        windows = trending_windows(rng, n_tickers=1, n_windows=20)
        train, val, test = chronological_split(windows, (0.7, 0.15, 0.15))
        assert (len(train), len(val), len(test)) == (14, 3, 3)


class TestRunExperiment:
    def test_synthetic_copy_of_real_matches_real_auc(self, rng):
        windows = trending_windows(rng)
        train, _, _ = chronological_split(windows)
        report = run_experiment(windows, {"copy": as_sequences(train)})
        ev = report.methods["copy"]
        assert ev.auc_synthetic == pytest.approx(ev.auc_real, abs=1e-12)

    def test_empty_synthetic_method_is_annotated(self, rng):
        windows = trending_windows(rng)
        report = run_experiment(windows, {"ghost": []})
        ev = report.methods["ghost"]
        assert ev.auc_synthetic is None
        assert ev.auc_mixed == ev.auc_real
        assert "skipped" in ev.annotation

    def test_real_auc_beats_chance_on_momentum_data(self, rng):
        windows = trending_windows(rng)
        # auc_real is reported per method, so a dummy method carries it
        report = run_experiment(windows, {"copy": as_sequences(windows)})
        assert report.methods["copy"].auc_real > 0.8

    def test_shuffled_test_labels_give_chance_auc(self, rng):
        windows = trending_windows(rng)
        train, _, test = chronological_split(windows)
        model = LogisticClassifier().fit(*extract_features([w.raw_values for w in train]))
        test_X, labels = extract_features([w.raw_values for w in test])
        aucs = []
        for seed in range(20):
            shuffled = np.random.default_rng(seed).permutation(labels)
            if shuffled.min() == shuffled.max():
                continue
            aucs.append(roc_auc(model.predict_proba(test_X), shuffled))
        assert abs(np.mean(aucs) - 0.5) <= 0.05

    def test_report_round_trip(self, rng, tmp_path):
        windows = trending_windows(rng)
        report = run_experiment(windows, {"copy": as_sequences(windows)})
        report.seed = 3
        report.write(tmp_path / "report.json")
        import json

        with (tmp_path / "report.json").open() as fh:
            back = EvalReport.from_dict(json.load(fh))
        assert back.methods["copy"].auc_real == report.methods["copy"].auc_real
        assert back.seed == report.seed
        assert back.to_dict() == report.to_dict()

    def test_older_report_reads_with_defaults(self):
        old = {"methods": {"nvg": {"auc_real": 0.6, "auc_synthetic": 0.4, "auc_mixed": None,
                                   "retired_field": 1}}}
        back = EvalReport.from_dict(old)
        assert back.methods["nvg"] == MethodEval(auc_real=0.6, auc_synthetic=0.4,
                                                 auc_mixed=None)
        assert back.seed == 0 and back.config == {} and back.runtime_totals == {}
