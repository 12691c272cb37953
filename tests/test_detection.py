"""Tests for the sensor cross-prediction detector and its metrics."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wdnflow import detection
from wdnflow.detection import (
    ColumnMismatchError,
    DetectionResult,
    InsufficientDataError,
    Metrics,
    SensorInterpolationDetector,
    evaluate,
)
from wdnflow.scada import GroundTruthRecord


def linear_panel(n, rng, noise=0.0):
    """Sensors tied by exact linear relations plus optional noise."""
    base = np.sin(np.linspace(0.0, 6.0, n)) + rng.normal(0.0, 0.2, n)
    data = np.column_stack([
        base,
        2.0 * base + 1.0,
        -0.5 * base + 3.0,
        np.full(n, 5.0),
    ])
    if noise:
        data = data + rng.normal(0.0, noise, data.shape)
    return data


# --- the per-sensor fit as it was before the one-factorization fit, kept as
# the oracle for the factored fit and its lstsq fallback

def reference_impute(values, lead_fill):
    out = np.array(values, dtype=float)
    for c in range(out.shape[1]):
        col = out[:, c]
        missing = np.isnan(col)
        if not missing.any():
            continue
        last = lead_fill[c]
        for r in range(col.size):
            if missing[r]:
                col[r] = last
            else:
                last = col[r]
    return out


def reference_means(X):
    means = np.zeros(X.shape[1])
    for c in range(X.shape[1]):
        col = X[:, c]
        good = col[~np.isnan(col)]
        means[c] = good.mean() if good.size else 0.0
    return means


class ReferenceDetector:
    """One `np.linalg.lstsq` per sensor on all other columns plus an
    intercept; the mean predicts a constant column."""

    def __init__(self, values, margin=0.1, min_threshold=1e-9):
        X = np.asarray(values, dtype=float)
        n, p = X.shape
        self.means = reference_means(X)
        X = reference_impute(X, self.means)
        self.weights = np.zeros((p, p - 1))
        self.intercepts = np.zeros(p)
        self.thresholds = np.zeros(p)
        for i in range(p):
            y = X[:, i]
            others = np.delete(X, i, axis=1)
            if np.ptp(y) == 0.0:
                self.intercepts[i] = y[0]
                res = np.zeros(n)
            else:
                A = np.hstack([others, np.ones((n, 1))])
                coef, *_ = np.linalg.lstsq(A, y, rcond=None)
                self.weights[i] = coef[:-1]
                self.intercepts[i] = coef[-1]
                res = y - A @ coef
            self.thresholds[i] = max((1.0 + margin) * np.abs(res).max(),
                                     min_threshold)

    def apply(self, values):
        X = reference_impute(values, self.means)
        pred = np.empty_like(X)
        for i in range(X.shape[1]):
            others = np.delete(X, i, axis=1)
            pred[:, i] = others @ self.weights[i] + self.intercepts[i]
        residuals = X - pred
        flagged = np.abs(residuals) > self.thresholds
        return residuals, tuple(int(i) for i in np.where(flagged.any(axis=1))[0])


def mixed_panel(n, p, rng, coupling=1.0):
    """Correlated sensors on scales from 1e-2 to 1e2, like flows beside
    pressures; a coupling near 0 makes the columns nearly collinear."""
    latent = rng.normal(size=(n, 3)) @ rng.normal(size=(3, p))
    data = latent + coupling * rng.normal(size=(n, p))
    return data * np.logspace(-2, 2, p) + rng.normal(0.0, 50.0, p)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Counts fits that fall back to one lstsq per sensor."""
    calls = []
    per_column = detection._fit_per_column

    def spy(X):
        calls.append(X.shape)
        return per_column(X)

    monkeypatch.setattr(detection, "_fit_per_column", spy)
    return calls


class TestFactoredFitAgainstReference:
    def assert_matches(self, train, test):
        ref = ReferenceDetector(train)
        detector = SensorInterpolationDetector().fit(train)
        assert np.allclose(detector.thresholds, ref.thresholds,
                           rtol=1e-8, atol=0.0)
        for rows in (train, test):
            want, want_flags = ref.apply(rows)
            got = detector.apply(rows)
            scale = np.abs(want).max()
            assert np.abs(got.residuals - want).max() <= 1e-8 * scale
            assert got.suspicious == want_flags
        return detector

    @pytest.mark.parametrize("seed,n,p", [(0, 40, 6), (1, 120, 30),
                                          (2, 400, 60)])
    def test_random_full_rank_panels(self, seed, n, p, lstsq_calls):
        rng = np.random.default_rng(seed)
        data = mixed_panel(2 * n, p, rng)
        test = data[n:].copy()
        test[n // 2:n // 2 + 5, p // 2] += 5.0 * np.abs(test[:, p // 2]).max()
        detector = self.assert_matches(data[:n], test)
        assert lstsq_calls == []
        assert detector.apply(test).suspicious != ()

    def test_ill_conditioned_panel(self, lstsq_calls):
        # cond(X_c^T X_c) near grid_detect's 4e13. Much tighter coupling
        # (1e-4, cond ~6e16) takes the reference itself 1.3e-8 away from
        # 50-digit thresholds, so it no longer serves as an oracle at 1e-8.
        rng = np.random.default_rng(7)
        n, p = 330, 40
        data = mixed_panel(2 * n, p, rng, coupling=3e-3)
        train = data[:n]
        centred = train - train.mean(axis=0)
        assert np.linalg.cond(centred.T @ centred) >= 1e12
        test = data[n:].copy()
        test[100:110, 3] += 1e-3
        self.assert_matches(train, test)
        assert lstsq_calls == []

    def test_weights_have_zero_diagonal(self):
        rng = np.random.default_rng(8)
        detector = SensorInterpolationDetector().fit(mixed_panel(50, 5, rng))
        assert detector.weights.shape == (5, 5)
        assert not np.diag(detector.weights).any()


class TestLstsqFallback:
    """Panels the factorization cannot stand for go through one lstsq per
    sensor and reproduce the reference fit exactly."""

    def assert_exact(self, train, test, lstsq_calls):
        ref = ReferenceDetector(train)
        detector = SensorInterpolationDetector().fit(train)
        assert lstsq_calls == [train.shape]
        off_diagonal = ~np.eye(train.shape[1], dtype=bool)
        assert np.array_equal(detector.weights[off_diagonal].reshape(
            ref.weights.shape), ref.weights)
        assert np.array_equal(detector.intercepts, ref.intercepts)
        assert np.array_equal(detector.thresholds, ref.thresholds)
        assert np.array_equal(detector.train_means, ref.means)
        want, want_flags = ref.apply(test)
        got = detector.apply(test)
        # the fit is bit-equal; one product X W^T instead of p column-deleted
        # products only reorders the rounding of the prediction
        assert np.allclose(got.residuals, want, rtol=0.0,
                           atol=1e-12 * np.nanmax(np.abs(test)))
        assert got.suspicious == want_flags

    def panel(self, seed):
        rng = np.random.default_rng(seed)
        data = mixed_panel(160, 8, rng)
        data[120:125, 2] += 50.0
        return data

    def test_constant_column(self, lstsq_calls):
        data = self.panel(10)
        data[:, 5] = 3.25
        self.assert_exact(data[:80], data[80:], lstsq_calls)

    def test_duplicated_column(self, lstsq_calls):
        data = self.panel(11)
        data[:, 6] = data[:, 1]
        self.assert_exact(data[:80], data[80:], lstsq_calls)

    def test_all_nan_column(self, lstsq_calls):
        data = self.panel(12)
        data[:80, 4] = np.nan
        self.assert_exact(data[:80], data[80:], lstsq_calls)

    def test_exactly_dependent_sensors(self, lstsq_calls):
        data = linear_panel(200, np.random.default_rng(13))[:, :3]
        self.assert_exact(data[:100], data[100:], lstsq_calls)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_training_cell_names_column(self, value):
        data = mixed_panel(30, 4, np.random.default_rng(14))
        data[7, 2] = value
        with pytest.raises(ValueError, match="column 2"):
            SensorInterpolationDetector().fit(data)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_applied_cell_names_column(self, value):
        data = mixed_panel(30, 4, np.random.default_rng(15))
        detector = SensorInterpolationDetector().fit(data)
        test = data[:5].copy()
        test[1, 3] = value
        with pytest.raises(ValueError, match="column 3"):
            detector.apply(test)

    @pytest.mark.parametrize("name", ["margin", "min_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_margin_and_floor_must_be_finite_non_negative(self, name, value):
        with pytest.raises(ValueError, match=name):
            SensorInterpolationDetector(**{name: value})

    def test_zero_margin_and_floor_allowed(self):
        detector = SensorInterpolationDetector(margin=0.0, min_threshold=0.0)
        detector.fit(np.array([[1.0], [2.0], [3.0]]))
        assert detector.thresholds == pytest.approx([1.0])


def test_fit_and_apply_import_no_scipy():
    """scipy.linalg raised the benchmark's peak_rss_mb by 36 %; the detector
    stays on numpy alone."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from wdnflow.detection import SensorInterpolationDetector\n"
        "X = np.random.default_rng(0).normal(size=(40, 6))\n"
        "X[3, 1] = np.nan\n"
        "SensorInterpolationDetector().fit(X[:30]).apply(X[30:])\n"
        "X[:, 2] = 1.0\n"
        "SensorInterpolationDetector().fit(X[:30]).apply(X[30:])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


class TestFitting:
    def test_single_sensor_uses_mean_predictor(self):
        detector = SensorInterpolationDetector()
        detector.fit(np.array([[1.0], [2.0], [3.0]]))
        # residuals against the mean are (-1, 0, 1); margin adds 10 percent
        assert detector.thresholds == pytest.approx([1.1])

    def test_threshold_never_below_floor(self):
        detector = SensorInterpolationDetector(min_threshold=1e-9)
        detector.fit(np.array([[2.0], [2.0], [2.0]]))
        assert detector.thresholds == pytest.approx([1e-9])

    def test_margin_scales_thresholds(self):
        low = SensorInterpolationDetector(margin=0.0)
        high = SensorInterpolationDetector(margin=1.0)
        data = np.array([[1.0], [2.0], [3.0]])
        low.fit(data)
        high.fit(data)
        assert high.thresholds[0] == pytest.approx(2.0 * low.thresholds[0])

    def test_needs_more_rows_than_sensors(self):
        detector = SensorInterpolationDetector()
        with pytest.raises(InsufficientDataError):
            detector.fit(np.zeros((3, 3)))
        with pytest.raises(InsufficientDataError):
            detector.fit(np.zeros((0, 0)))

    def test_training_data_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            SensorInterpolationDetector().fit(np.zeros(5))

    def test_linearly_dependent_sensors_get_tight_thresholds(self):
        rng = np.random.default_rng(0)
        detector = SensorInterpolationDetector()
        detector.fit(linear_panel(200, rng))
        # every sensor is exactly predictable, so thresholds sit at the floor
        assert max(detector.thresholds) <= 1e-6


class TestApplication:
    def test_calibration_replay_raises_no_alarms(self):
        # the margin guarantees the training rows themselves never alarm
        rng = np.random.default_rng(1)
        data = linear_panel(400, rng, noise=1e-3)
        detector = SensorInterpolationDetector().fit(data)
        assert detector.apply(data).suspicious == ()

    def test_periodic_repeat_raises_no_alarms(self):
        # rows that exactly repeat the training period stay inside the
        # threshold envelope, the property event-free SCADA data relies on
        rng = np.random.default_rng(1)
        day = linear_panel(200, rng, noise=1e-3)
        detector = SensorInterpolationDetector().fit(day)
        assert detector.apply(np.vstack([day, day])).suspicious == ()

    def test_broken_relation_is_flagged(self):
        rng = np.random.default_rng(2)
        data = linear_panel(400, rng, noise=1e-3)
        detector = SensorInterpolationDetector().fit(data[:200])
        test = data[200:].copy()
        test[50:60, 1] += 0.5
        result = detector.apply(test)
        assert set(range(50, 60)) <= set(result.suspicious)
        assert not set(range(0, 50)) & set(result.suspicious)

    def test_times_attach_to_rows(self):
        detector = SensorInterpolationDetector()
        detector.fit(np.array([[1.0], [2.0], [3.0]]))
        times = (0.0, 300.0)
        result = detector.apply(np.array([[4.0], [2.0]]), times=times)
        assert result.times == times
        assert result.suspicious_times == (0.0,)

    def test_column_count_must_match(self):
        detector = SensorInterpolationDetector()
        detector.fit(np.zeros((10, 2)) + [[1.0, 2.0]] * 10
                     + np.arange(20).reshape(10, 2))
        with pytest.raises(ColumnMismatchError):
            detector.apply(np.zeros((4, 3)))

    def test_times_length_must_match(self):
        detector = SensorInterpolationDetector()
        detector.fit(np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(ColumnMismatchError):
            detector.apply(np.array([[1.0], [2.0]]), times=(0.0,))

    def test_apply_before_fit_rejected(self):
        detector = SensorInterpolationDetector()
        with pytest.raises(InsufficientDataError):
            detector.apply(np.array([[1.0]]))


class TestImputation:
    def test_nan_gaps_are_forward_filled(self):
        rng = np.random.default_rng(3)
        data = linear_panel(300, rng, noise=1e-3)
        detector = SensorInterpolationDetector().fit(data[:150])
        test = data[150:].copy()
        # a one-row outage on every sensor: each fill holds that sensor's
        # last reading, so the filled row repeats row 9, a consistent
        # state, and adds no alarm (a hole in one sensor alone does alarm)
        clean = detector.apply(test)
        test[10, :] = np.nan
        filled = detector.apply(test)
        assert isinstance(filled.suspicious, tuple)
        assert 10 not in set(filled.suspicious) - set(clean.suspicious)
        # the hole itself must not produce NaN residuals
        assert np.isfinite(filled.residuals).all()

    def test_leading_nan_uses_train_mean(self):
        detector = SensorInterpolationDetector()
        detector.fit(np.array([[1.0], [2.0], [3.0]]))
        result = detector.apply(np.array([[np.nan], [2.0]]))
        # the first row imputes to the training mean, giving zero residual
        assert result.residuals[0, 0] == 0.0
        assert result.suspicious == ()

    def test_nan_in_training_is_tolerated(self):
        rng = np.random.default_rng(4)
        data = linear_panel(200, rng, noise=1e-3)
        data[5, 0] = np.nan
        detector = SensorInterpolationDetector().fit(data)
        assert np.isfinite(detector.thresholds).all()


    def test_all_nan_training_column_is_zero_with_min_threshold(self):
        rng = np.random.default_rng(5)
        data = linear_panel(100, rng, noise=1e-3)
        data[:, 1] = np.nan
        detector = SensorInterpolationDetector(min_threshold=0.25).fit(data)
        assert detector.train_means[1] == 0.0
        assert detector.thresholds[1] == 0.25
        # a constant column is fitted by its mean alone
        assert detector.intercepts[1] == 0.0
        assert not detector.weights[1].any()

    def test_all_nan_applied_column_takes_the_training_mean(self):
        rng = np.random.default_rng(6)
        data = linear_panel(200, rng, noise=1e-3)
        detector = SensorInterpolationDetector().fit(data[:100])
        test = data[100:].copy()
        test[:, 0] = np.nan
        filled = test.copy()
        filled[:, 0] = detector.train_means[0]
        result, expected = detector.apply(test), detector.apply(filled)
        assert result.residuals.tobytes() == expected.residuals.tobytes()
        assert result.suspicious == expected.suspicious

    def test_zero_rows_give_no_alarms(self):
        rng = np.random.default_rng(7)
        detector = SensorInterpolationDetector().fit(
            linear_panel(50, rng, noise=1e-3))
        result = detector.apply(np.empty((0, 4)))
        assert result.suspicious == () and result.times == ()
        assert result.residuals.shape == (0, 4)


class TestVectorizedImputation:
    def masked(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(50, 9))
        values[rng.random(values.shape) < 0.3] = np.nan
        values[:6, 1] = np.nan          # leading gap
        values[-7:, 2] = np.nan         # trailing gap
        values[:3, 3] = np.nan
        values[-3:, 3] = np.nan         # both
        values[:, 4] = np.nan           # no reading at all
        values[:, 5] = rng.normal(size=50)      # no gap
        return values

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_fill_is_byte_identical_to_loop(self, seed):
        values = self.masked(seed)
        lead = np.random.default_rng(seed + 100).normal(size=9)
        got = detection._impute(values, lead)
        assert got.tobytes() == reference_impute(values, lead).tobytes()
        assert got.flags.writeable and got is not values

    def test_gap_free_matrix_is_copied(self):
        values = np.arange(6.0).reshape(3, 2)
        got = detection._impute(values, np.zeros(2))
        assert got.tobytes() == values.tobytes() and got is not values

    @pytest.mark.parametrize("seed", range(5))
    def test_column_means_without_warnings(self, seed):
        values = self.masked(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = detection._column_means(values)
        want = reference_means(values)
        assert got[4] == 0.0
        assert got[5] == want[5]         # gap-free: bit-equal
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15)


class TestAffineInvariance:
    def test_alarm_decisions_survive_sensor_rescaling(self):
        # changing a sensor's units or offset rescales its residuals and
        # thresholds together, so the flagged rows stay identical
        rng = np.random.default_rng(5)
        data = linear_panel(400, rng, noise=1e-3)
        anomalous = data.copy()
        anomalous[250:260, 2] += 0.4
        detector = SensorInterpolationDetector().fit(data[:200])
        baseline = detector.apply(anomalous[200:])

        scaled = anomalous.copy()
        scaled[:, 2] = 7.5 * scaled[:, 2] - 40.0
        detector2 = SensorInterpolationDetector().fit(scaled[:200])
        rescaled = detector2.apply(scaled[200:])
        assert rescaled.suspicious == baseline.suspicious

    def test_factored_fit_survives_sensor_rescaling(self, lstsq_calls):
        # the same property on a full-rank panel, which the one-factorization
        # fit handles (linear_panel above takes the lstsq fallback)
        rng = np.random.default_rng(6)
        data = mixed_panel(400, 12, rng, coupling=0.05)
        anomalous = data.copy()
        anomalous[250:260, 4] += 0.5 * np.abs(data[:, 4] - data[:, 4].mean()).max()
        baseline = SensorInterpolationDetector().fit(data[:200]).apply(
            anomalous[200:])
        scaled = anomalous.copy()
        scaled[:, 4] = 1e3 * scaled[:, 4] - 40.0
        rescaled = SensorInterpolationDetector().fit(scaled[:200]).apply(
            scaled[200:])
        assert lstsq_calls == []
        assert set(range(50, 60)) <= set(baseline.suspicious)
        assert rescaled.suspicious == baseline.suspicious


class TestEvaluation:
    def result(self, flagged):
        times = tuple(float(i) for i in range(10))
        return DetectionResult(times=times, suspicious=tuple(flagged),
                               residuals=np.zeros((10, 1)),
                               thresholds=np.zeros(1))

    def truth(self):
        return (
            GroundTruthRecord(event_id="leakage_0", kind="abrupt",
                              start_s=2.0, end_s=5.0),
            GroundTruthRecord(event_id="sensor_fault_0", kind="drift",
                              start_s=7.0, end_s=8.0),
        )

    def test_confusion_counts(self):
        # positives are rows 2,3,4 (leak) and 7 (drift); flags hit 2,3 and
        # a false alarm at 9
        metrics = evaluate(self.result([2, 3, 9]), self.truth())
        assert metrics.true_positive_rate == pytest.approx(0.5)
        assert metrics.false_positive_rate == pytest.approx(1.0 / 6.0)
        assert metrics.precision == pytest.approx(2.0 / 3.0)
        assert metrics.f1 == pytest.approx(4.0 / 7.0)

    def test_per_event_outcomes(self):
        metrics = evaluate(self.result([3, 9]), self.truth())
        by_id = {e.event_id: e for e in metrics.events}
        leak = by_id["leakage_0"]
        assert leak.detected
        assert leak.delay_s == pytest.approx(1.0)    # first flag at t=3
        drift = by_id["sensor_fault_0"]
        assert not drift.detected
        assert drift.delay_s is None

    def test_no_events_no_flags_gives_zero_metrics(self):
        metrics = evaluate(self.result([]), ())
        assert metrics.true_positive_rate == 0.0
        assert metrics.precision == 0.0
        assert metrics.f1 == 0.0
        assert metrics.false_positive_rate == 0.0

    def test_all_rows_inside_events_has_zero_fpr(self):
        truth = (GroundTruthRecord(event_id="leakage_0", kind="abrupt",
                                   start_s=0.0, end_s=10.0),)
        metrics = evaluate(self.result([0, 5]), truth)
        assert metrics.false_positive_rate == 0.0
        assert metrics.precision == 1.0

    def test_text_rendering_lists_events(self):
        metrics = evaluate(self.result([3]), self.truth())
        text = metrics.as_text()
        assert "true_positive_rate" in text
        assert "leakage_0" in text
        assert "undetected" in text
