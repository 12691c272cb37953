"""Tests for seeded random streams and the uncertainty model zoo."""

import math

import numpy as np
import pytest

from wdnflow import ConfigError, networks_close
from wdnflow.uncertainty import (
    PARAMETER_TARGETS,
    SeededStream,
    UncertaintyModel,
    apply_parameter_uncertainty,
    perturb_scalar,
    perturb_series,
    uncertainty_registry,
)


def model(kind, target="sensor_noise", submodels=None, **params):
    return UncertaintyModel(kind=kind, target=target,
                            params=params or None,
                            submodels=submodels)


class TestRegistry:
    def test_exactly_eleven_kinds(self):
        kinds = uncertainty_registry()
        assert kinds == ("gauss_abs", "gauss_rel", "uniform_abs",
                         "uniform_rel", "trunc_gauss_abs", "percentage",
                         "random_walk", "sinusoidal", "regime_shift",
                         "spike", "compound")
        assert len(kinds) == 11


class TestSeededStream:
    def test_same_path_same_draws(self):
        a = SeededStream(42).child("noise", 3).generator()
        b = SeededStream(42).child("noise", 3).generator()
        assert a.random() == b.random()

    def test_child_matches_explicit_path(self):
        via_children = SeededStream(7).child("a").child("b", 1)
        direct = SeededStream(7, ("a", "b", 1))
        assert via_children == direct
        assert via_children.generator().random() == \
            direct.generator().random()

    def test_sibling_paths_are_independent(self):
        stream = SeededStream(42)
        a = stream.child("noise", 0).generator().random()
        b = stream.child("noise", 1).generator().random()
        assert a != b

    def test_seed_changes_draws(self):
        a = SeededStream(1).child("x").generator().random()
        b = SeededStream(2).child("x").generator().random()
        assert a != b

    def test_type_distinguishes_path_parts(self):
        # integer 1 and string "1" must not collide
        a = SeededStream(0, (1,)).generator().random()
        b = SeededStream(0, ("1",)).generator().random()
        assert a != b


class TestModelValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            model("lognormal", sigma=0.1)

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            UncertaintyModel(kind="gauss_abs", target="tank_volume",
                             params={"sigma": 0.1})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ConfigError):
            model("gauss_abs")
        with pytest.raises(ConfigError):
            model("sinusoidal", amplitude=1.0)

    def test_compound_needs_two_submodels(self):
        with pytest.raises(ConfigError):
            model("compound", submodels=(model("gauss_abs", sigma=0.1),))

    def test_compound_cannot_nest(self):
        inner = model("compound", submodels=(
            model("gauss_abs", sigma=0.1), model("gauss_abs", sigma=0.1)))
        with pytest.raises(ConfigError):
            model("compound", submodels=(inner, model("gauss_abs",
                                                      sigma=0.1)))

    def test_compound_submodels_share_target(self):
        with pytest.raises(ConfigError):
            model("compound", submodels=(
                model("gauss_abs", sigma=0.1),
                model("gauss_abs", target="pipe_length", sigma=0.1)))

    def test_spike_probability_bounds(self):
        with pytest.raises(ConfigError):
            model("spike", probability=1.5, amplitude=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            model("gauss_abs", sigma=-0.1)


class TestScalarKinds:
    def stream(self):
        return SeededStream(123).child("test")

    def test_percentage_is_deterministic(self):
        out = perturb_scalar(model("percentage", fraction=0.2), 10.0,
                             self.stream())
        assert out == pytest.approx(12.0, rel=1e-12)

    def test_gauss_abs_reproducible(self):
        m = model("gauss_abs", sigma=0.5)
        a = perturb_scalar(m, 10.0, self.stream())
        b = perturb_scalar(m, 10.0, self.stream())
        assert a == b
        assert a != 10.0

    def test_uniform_bounds(self):
        m = model("uniform_abs", amplitude=0.5)
        for i in range(50):
            out = perturb_scalar(m, 10.0, SeededStream(i))
            assert 9.5 <= out <= 10.5

    def test_uniform_rel_bounds(self):
        m = model("uniform_rel", amplitude=0.1)
        for i in range(50):
            out = perturb_scalar(m, 10.0, SeededStream(i))
            assert 9.0 <= out <= 11.0

    def test_truncated_gaussian_stays_within_three_sigma(self):
        m = model("trunc_gauss_abs", sigma=1.0)
        for i in range(200):
            out = perturb_scalar(m, 0.0, SeededStream(i))
            assert abs(out) <= 3.0

    def test_series_only_kind_rejected_for_scalars(self):
        with pytest.raises(ConfigError):
            perturb_scalar(model("random_walk", sigma=0.1), 1.0,
                           self.stream())

    def test_physical_targets_clamped_positive(self):
        m = model("gauss_abs", target="pipe_diameter", sigma=100.0)
        for i in range(50):
            out = perturb_scalar(m, 0.05, SeededStream(i))
            assert out >= 1e-9

    def test_sensor_noise_not_clamped(self):
        m = model("gauss_abs", sigma=100.0)
        outs = [perturb_scalar(m, 0.0, SeededStream(i)) for i in range(20)]
        assert min(outs) < 0.0


class TestSeriesKinds:
    def stream(self):
        return SeededStream(99).child("series")

    def test_draws_do_not_depend_on_values(self):
        # additive kinds must add the same offsets to any input series,
        # which is what keeps incremental consumers aligned with batch ones
        a = np.zeros(30)
        b = np.linspace(10.0, 40.0, 30)
        for kind, params in [
            ("gauss_abs", {"sigma": 0.2}),
            ("random_walk", {"sigma": 0.1}),
            ("sinusoidal", {"amplitude": 1.0, "period": 7.0}),
            ("regime_shift", {"amplitude": 0.5, "mean_dwell": 5.0}),
            ("spike", {"probability": 1.0, "amplitude": 2.0}),
        ]:
            m = model(kind, **params)
            off_a = perturb_series(m, a, self.stream()) - a
            off_b = perturb_series(m, b, self.stream()) - b
            assert np.allclose(off_a, off_b, atol=1e-12), kind

    def test_random_walk_accumulates(self):
        m = model("random_walk", sigma=0.1)
        out = perturb_series(m, np.zeros(200), self.stream())
        steps = np.diff(out)
        # increments are iid normals, so the walk wanders while the
        # increment spread stays near sigma
        assert np.std(steps) == pytest.approx(0.1, rel=0.3)
        assert np.abs(out).max() > 0.3

    def test_sinusoidal_period(self):
        m = model("sinusoidal", amplitude=1.0, period=10.0)
        out = perturb_series(m, np.zeros(40), self.stream())
        assert np.allclose(out[:30], out[10:40], atol=1e-12)
        assert np.abs(out).max() <= 1.0 + 1e-12

    def test_regime_shift_is_piecewise_constant(self):
        m = model("regime_shift", amplitude=1.0, mean_dwell=10.0)
        out = perturb_series(m, np.zeros(400), self.stream())
        levels = set(np.round(out, 12))
        assert 1 < len(levels) < 100
        assert np.abs(out).max() <= 1.0

    def test_spike_probability_zero_is_identity(self):
        values = np.linspace(1.0, 2.0, 25)
        m = model("spike", probability=0.0, amplitude=5.0)
        assert np.array_equal(perturb_series(m, values, self.stream()),
                              values)

    def test_spike_probability_one_always_fires(self):
        values = np.zeros(25)
        m = model("spike", probability=1.0, amplitude=2.0)
        out = perturb_series(m, values, self.stream())
        assert np.all(out >= 2.0)
        assert np.all(out <= 20.0)

    def test_compound_chains_submodels(self):
        values = np.full(10, 5.0)
        m = model("compound", submodels=(
            model("percentage", fraction=0.1),
            model("percentage", fraction=0.2)))
        out = perturb_series(m, values, self.stream())
        assert np.allclose(out, 5.0 * 1.1 * 1.2, atol=1e-12)


class TestParameterTwin:
    def test_percentage_scales_every_pipe(self, toy9):
        m = model("percentage", target="pipe_diameter", fraction=0.1)
        twin = apply_parameter_uncertainty(toy9, [m], SeededStream(0))
        for pid, pipe in toy9.pipes.items():
            assert twin.pipes[pid].diameter == pytest.approx(
                pipe.diameter * 1.1, rel=1e-12)
            assert twin.pipes[pid].length == pipe.length

    def test_original_network_untouched(self, toy9):
        m = model("gauss_rel", target="pipe_roughness", sigma=0.05)
        before = {pid: p.roughness for pid, p in toy9.pipes.items()}
        apply_parameter_uncertainty(toy9, [m], SeededStream(0))
        assert {pid: p.roughness for pid, p in toy9.pipes.items()} == before

    def test_twin_is_deterministic(self, toy9):
        m = model("gauss_rel", target="pipe_roughness", sigma=0.05)
        a = apply_parameter_uncertainty(toy9, [m], SeededStream(5))
        b = apply_parameter_uncertainty(toy9, [m], SeededStream(5))
        assert networks_close(a, b, rtol=0.0)

    def test_per_pipe_draws_differ(self, toy9):
        m = model("gauss_rel", target="pipe_roughness", sigma=0.05)
        twin = apply_parameter_uncertainty(toy9, [m], SeededStream(5))
        ratios = {pid: twin.pipes[pid].roughness / p.roughness
                  for pid, p in toy9.pipes.items()}
        assert len(set(round(r, 12) for r in ratios.values())) > 1

    def test_non_pipe_targets_leave_network_alone(self, toy9):
        models = [model("gauss_abs", sigma=0.1),
                  model("percentage", target="decay_rate", fraction=0.5)]
        twin = apply_parameter_uncertainty(toy9, models, SeededStream(0))
        assert twin is toy9

    def test_decay_rate_is_a_parameter_target(self):
        assert "decay_rate" in PARAMETER_TARGETS
        assert "sensor_noise" not in PARAMETER_TARGETS
