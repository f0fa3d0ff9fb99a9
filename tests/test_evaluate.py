import numpy as np
import pytest

from vgsynth.errors import UndefinedMetricError
from vgsynth.evaluate import (EvalReport, FeatureRow, LogisticClassifier,
                              auc_bruteforce, chronological_split,
                              extract_features, roc_auc, run_experiment)
from vgsynth.generate import SyntheticSequence
from vgsynth.ingest import Window


class TestExtractFeatures:
    def test_strictly_increasing(self):
        row = extract_features(np.arange(1.0, 21.0))
        assert row.rsi == 100.0
        assert row.num_peaks == 0
        assert row.label == 1
        assert row.linear_trend_slope == pytest.approx(1.0)

    def test_alternating_rsi_is_50(self):
        from vgsynth.evaluate import relative_strength_index

        # [1,2,1,2,1] has gains summing 2 and losses summing 2 (RS = 1)
        assert relative_strength_index([1.0, 2.0, 1.0, 2.0, 1.0]) == pytest.approx(50.0)
        row = extract_features([1.0, 2.0, 1.0, 2.0, 1.0, 9.0])
        assert row.rsi == pytest.approx(50.0)

    def test_strictly_decreasing_rsi_is_0(self):
        row = extract_features(np.arange(20.0, 0.0, -1.0))
        assert row.rsi == 0.0
        assert row.label == 0

    def test_flat_window_rsi_is_50(self):
        row = extract_features([3.0, 3.0, 3.0, 3.0])
        assert row.rsi == 50.0

    def test_slope_examples(self):
        assert extract_features([2.0, 4.0, 6.0, 1.0]).linear_trend_slope == pytest.approx(2.0)
        assert extract_features([5.0, 5.0, 5.0, 9.0]).linear_trend_slope == 0.0

    def test_tie_labels_down(self):
        assert extract_features([1.0, 2.0, 3.0, 3.0]).label == 0

    def test_peaks_are_strict_interior_maxima(self):
        row = extract_features([0, 2, 1, 3, 3, 1, 9])  # head [0,2,1,3,3,1]
        assert row.num_peaks == 1

    def test_features_ignore_final_value(self):
        a = extract_features([1.0, 4.0, 2.0, 8.0, 100.0])
        b = extract_features([1.0, 4.0, 2.0, 8.0, -100.0])
        np.testing.assert_array_equal(a.vector(), b.vector())
        assert a.label != b.label

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_features([1.0, 2.0])

    def test_population_variance_and_range(self):
        row = extract_features([1.0, 3.0, 5.0, 0.0])
        head = np.array([1.0, 3.0, 5.0])
        assert row.variance == pytest.approx(head.var())
        assert row.value_range == 4.0


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


def blob_rows(rng, n=100, separation=6.0):
    rows = []
    for label in (0, 1):
        center = np.zeros(8) if label == 0 else np.full(8, separation)
        for _ in range(n // 2):
            vec = center + rng.standard_normal(8)
            rows.append(FeatureRow(*vec, label=label))
    return rows


def xy(rows):
    """Feature matrix and label vector of a list of feature rows."""
    return np.array([r.vector() for r in rows]), np.array([r.label for r in rows])


class TestClassifier:
    def test_separable_blobs_train_auc_one(self, rng):
        X, labels = xy(blob_rows(rng))
        model = LogisticClassifier().fit(X, labels)
        assert roc_auc(model.predict_proba(X), labels) == 1.0

    def test_untrained_model_scores_half(self):
        model = LogisticClassifier()
        row = FeatureRow(1, 2, 3, 4, 5, 6, 7, 8, label=0)
        assert model.predict_proba(row.vector()[None, :])[0] == 0.5

    def test_duplicated_training_set_identical_weights(self, rng):
        rows = blob_rows(rng, n=60, separation=2.0)
        a = LogisticClassifier(max_iter=500).fit(*xy(rows))
        b = LogisticClassifier(max_iter=500).fit(*xy(rows + rows))
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)
        assert a.bias == pytest.approx(b.bias, abs=1e-9)

    def test_loss_non_increasing(self, rng):
        """The regularised cross-entropy of each iterate, from fits that stop
        after 1, 2, ..., 300 iterations on the same rows."""
        X, labels = xy(blob_rows(rng, n=80, separation=1.0))
        losses = []
        for k in range(1, 301):
            model = LogisticClassifier(max_iter=k).fit(X, labels)
            p = model.predict_proba(X)
            ce = -np.mean(labels * np.log(p + 1e-12) + (1 - labels) * np.log(1 - p + 1e-12))
            losses.append(ce + model.l2 * np.dot(model.weights, model.weights))
        assert model.n_iter_ == 300
        assert np.all(np.diff(losses) <= 1e-12)

    def test_single_class_rejected(self, rng):
        rows = [r for r in blob_rows(rng) if r.label == 1]
        with pytest.raises(ValueError):
            LogisticClassifier().fit(*xy(rows))


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
                              window_start=w.start_index, seed=0,
                              scale_min=0.0, scale_max=1.0)
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
        report = run_experiment(windows, {"copy": as_sequences(train)}, seed=1)
        ev = report.methods["copy"]
        assert ev.auc_synthetic == pytest.approx(ev.auc_real, abs=1e-12)

    def test_empty_synthetic_method_is_annotated(self, rng):
        windows = trending_windows(rng)
        report = run_experiment(windows, {"ghost": []}, seed=1)
        ev = report.methods["ghost"]
        assert ev.auc_synthetic is None
        assert ev.auc_mixed == ev.auc_real
        assert "skipped" in ev.annotation

    def test_real_auc_beats_chance_on_momentum_data(self, rng):
        windows = trending_windows(rng)
        report = run_experiment(windows, {}, seed=1)
        # grab auc_real via a dummy method
        report = run_experiment(windows, {"copy": as_sequences(windows)}, seed=1)
        assert report.methods["copy"].auc_real > 0.8

    def test_shuffled_test_labels_give_chance_auc(self, rng):
        windows = trending_windows(rng)
        train, _, test = chronological_split(windows)
        rows = [extract_features(w.raw_values) for w in train]
        model = LogisticClassifier().fit(*xy(rows))
        test_X = np.array([extract_features(w.raw_values).vector() for w in test])
        labels = np.array([extract_features(w.raw_values).label for w in test])
        aucs = []
        for seed in range(20):
            shuffled = np.random.default_rng(seed).permutation(labels)
            if shuffled.min() == shuffled.max():
                continue
            aucs.append(roc_auc(model.predict_proba(test_X), shuffled))
        assert abs(np.mean(aucs) - 0.5) <= 0.05

    def test_report_round_trip(self, rng, tmp_path):
        windows = trending_windows(rng)
        report = run_experiment(windows, {"copy": as_sequences(windows)}, seed=3)
        report.write(tmp_path / "report.json")
        import json

        with (tmp_path / "report.json").open() as fh:
            back = EvalReport.from_dict(json.load(fh))
        assert back.methods["copy"].auc_real == report.methods["copy"].auc_real
        assert back.seed == report.seed
