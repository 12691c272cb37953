"""Tests for scenario configuration, validation, and the batch runner."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import wdnflow.inp
import wdnflow.network
from wdnflow import ConfigError, bundled
from wdnflow.events import (
    ActuatorEvent,
    CommunicationEvent,
    EventWindow,
    LeakageEvent,
    SensorFaultEvent,
)
from wdnflow.scada import SensorPlacement, from_csv
from wdnflow.scenario import (
    QualitySpec,
    ScenarioConfig,
    build_runtime,
    config_digest,
    config_from_json,
    config_to_json,
    load_config,
    run_scenario,
    save_config,
    to_seconds,
    validate_scenario,
    write_outputs,
)
from wdnflow.uncertainty import UncertaintyModel


def full_config(factory):
    """A config exercising every section once."""
    return factory(
        duration_s=to_seconds(days=1),
        leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.005,
                               window=EventWindow(21600.0, 43200.0)),),
        sensor_faults=(SensorFaultEvent(kind="offset",
                                        sensor_ref=("pressure", "n2"),
                                        param=0.5,
                                        window=EventWindow(0.0, 3600.0)),),
        communication_events=(CommunicationEvent(
            kind="freeze", window=EventWindow(50400.0, 54000.0),
            sensor_ref=("flow", "p1")),),
        uncertainties=(UncertaintyModel(kind="gauss_abs",
                                        target="sensor_noise",
                                        params={"sigma": 0.01}),),
        quality=QualitySpec(decay_rate_k=1e-5, source_nodes=(("r1", 1.0),)),
        seed=7,
    )


class TestTimeHelper:
    def test_units_compose(self):
        assert to_seconds(days=1, hours=2, minutes=3, seconds=4) == \
            86400 + 7200 + 180 + 4
        assert to_seconds(hours=1) == 3600


class TestJsonRoundTrip:
    def test_round_trip_preserves_equality(self, toy9_config_factory):
        config = full_config(toy9_config_factory)
        text = config_to_json(config)
        back = config_from_json(text)
        assert back == config

    def test_canonical_form_is_a_fixed_point(self, toy9_config_factory):
        config = full_config(toy9_config_factory)
        once = config_to_json(config)
        assert config_to_json(config_from_json(once)) == once

    def test_digest_tracks_content(self, toy9_config_factory):
        a = config_digest(full_config(toy9_config_factory))
        b = config_digest(full_config(toy9_config_factory))
        c = config_digest(toy9_config_factory(seed=99))
        assert a == b
        assert a != c
        assert len(a) == 64

    def test_unknown_top_level_key_rejected(self, toy9_config_factory):
        payload = json.loads(config_to_json(toy9_config_factory()))
        payload["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            config_from_json(json.dumps(payload))

    def test_unknown_event_key_rejected(self, toy9_config_factory):
        payload = json.loads(config_to_json(full_config(toy9_config_factory)))
        payload["leakages"][0]["surprise"] = 1
        with pytest.raises(ConfigError, match="leakages"):
            config_from_json(json.dumps(payload))

    def test_window_keys_are_start_end_peak(self, toy9_config_factory):
        payload = json.loads(config_to_json(full_config(toy9_config_factory)))
        leak = payload["leakages"][0]
        assert leak["start_time_s"] == 21600.0
        assert leak["end_time_s"] == 43200.0
        assert "peak_time_s" not in leak

    def test_save_and_load_resolve_network_path(self, toy9_config_factory,
                                                tmp_path):
        config = toy9_config_factory()
        path = tmp_path / "sub" / "scenario.json"
        os.makedirs(path.parent)
        save_config(config, str(path))
        loaded = load_config(str(path))
        assert os.path.isabs(loaded.network_path)
        assert os.path.samefile(loaded.network_path, config.network_path)

    def test_relative_network_path_resolves_against_config_dir(
            self, tmp_path):
        inp = tmp_path / "net.inp"
        inp.write_text(Path(bundled.toy9_path()).read_text())
        payload = {
            "network_path": "net.inp",
            "simulation": {"duration_s": 3600,
                           "hydraulic_time_step_s": 300},
            "sensors": {"pressure_nodes": ["n1"]},
            "seed": 0,
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(payload))
        loaded = load_config(str(cfg_path))
        assert loaded.network_path == str(inp)


_DROP = object()


def _put(payload, keys, value):
    """Set (or drop, for _DROP) the entry at a key path of a JSON payload."""
    *parents, last = keys
    for k in parents:
        payload = payload[k]
    if value is _DROP:
        del payload[last]
    else:
        payload[last] = value


_PUMP_SPEED = {"kind": "pump_speed", "target_id": "pu1", "value": "fast",
               "start_time_s": 0, "end_time_s": 60}
_VALVE_PEAK = {"kind": "valve_state", "target_id": "v1", "value": False,
               "start_time_s": 0, "end_time_s": 60, "peak_time_s": 30}
_BAD_SUBMODEL = {"kind": "compound", "target": "sensor_noise", "submodels": [
    {"kind": "gauss_abs", "target": "sensor_noise", "params": {"sigma": 0.1}},
    {"kind": "gauss_abs", "target": "sensor_noise", "params": {"sigma": "x"}}]}


class TestMalformedJson:
    """Every malformed shape, and every value rule reached through JSON,
    raises ConfigError naming the object path and the key."""

    @pytest.mark.parametrize("keys, value, path, key", [
        (("leakages",), 5, "config", "leakages"),
        (("leakages", 0, "area_pattern"), ["x"], "leakages[0]",
         "area_pattern"),
        (("uncertainties", 0, "params"), [1], "uncertainties[0]", "params"),
        (("uncertainties", 0, "submodels"), 3, "uncertainties[0]",
         "submodels"),
        (("outputs",), {"scada_csv_path": 5}, "outputs", "scada_csv_path"),
        (("network_path",), 5, "config", "network_path"),
        (("leakages", 0, "kind"), 5, "leakages[0]", "kind"),
        (("leakages", 0, "diameter"), "big", "leakages[0]", "diameter"),
        (("seed",), 1.5, "config", "seed"),
        (("seed",), True, "config", "seed"),
        (("communication_events", 0, "all_sensors"), "yes",
         "communication_events[0]", "all_sensors"),
        (("simulation",), [], "config", "simulation"),
        (("uncertainties",), {}, "config", "uncertainties"),
        (("sensors", "pressure_nodes"), [1], "sensors", "pressure_nodes"),
        (("quality", "source_nodes"), {"r1": "x"}, "quality", "source_nodes"),
        (("actuator_events",), [_PUMP_SPEED], "actuator_events[0]", "value"),
        (("actuator_events",), [_VALVE_PEAK], "actuator_events[0]",
         "peak_time_s"),
        (("sensor_faults", 0, "peak_time_s"), 100, "sensor_faults[0]",
         "peak_time_s"),
        (("uncertainties", 0), _BAD_SUBMODEL, "uncertainties[0]: submodels[1]",
         "params"),
        (("leakages", 0, "diameter"), _DROP, "leakages[0]", "diameter"),
        (("leakages", 0, "diameter"), -1, "leakages[0]", "diameter"),
        (("quality", "decay_rate_k"), -1, "quality", "decay_rate_k"),
        (("simulation", "duration_s"), 0, "simulation", "duration_s"),
        (("simulation", "hydraulic_time_step_s"), 1.5, "simulation",
         "hydraulic_time_step_s"),
    ])
    def test_rejected_with_path_and_key(self, toy9_config_factory, keys, value,
                                        path, key):
        payload = json.loads(config_to_json(full_config(toy9_config_factory)))
        _put(payload, keys, value)
        with pytest.raises(ConfigError) as exc:
            config_from_json(json.dumps(payload))
        message = str(exc.value)
        assert message.startswith(f"{path}: ") and key in message, message


class TestConfigValues:
    @pytest.mark.parametrize("name, value", [
        ("duration_s", 0), ("duration_s", -3600),
        ("hydraulic_time_step_s", 0), ("hydraulic_time_step_s", -300),
        ("quality_time_step_s", 0), ("quality_time_step_s", -60),
    ])
    def test_durations_and_steps_must_be_positive(self, toy9_config_factory,
                                                  name, value):
        with pytest.raises(ConfigError, match=name):
            toy9_config_factory(**{name: value})

    def test_int_valued_config_is_a_fixed_point(self, toy9_config_factory,
                                                tmp_path):
        config = toy9_config_factory(
            leakages=(LeakageEvent(kind="incipient", link_id="p3", diameter=1,
                                   window=EventWindow(600, 6000, 3600)),),
            sensor_faults=(SensorFaultEvent(kind="offset",
                                            sensor_ref=("pressure", "n2"),
                                            param=2,
                                            window=EventWindow(0, 3600)),),
            uncertainties=(UncertaintyModel(kind="gauss_abs",
                                            target="sensor_noise",
                                            params={"sigma": 1}),),
            quality=QualitySpec(decay_rate_k=0, source_nodes=(("r1", 1),)))
        once = config_to_json(config)
        assert config_to_json(config_from_json(once)) == once
        path = tmp_path / "scenario.json"
        save_config(config, str(path))
        assert config_digest(load_config(str(path))) == config_digest(config)


class TestValidation:
    def test_accepts_well_formed_config(self, toy9, toy9_config_factory):
        validate_scenario(full_config(toy9_config_factory), toy9)

    def test_duration_must_be_step_multiple(self, toy9, toy9_config_factory):
        config = toy9_config_factory(duration_s=1000)
        with pytest.raises(ConfigError, match="multiple"):
            validate_scenario(config, toy9)

    def test_leak_must_sit_on_existing_pipe(self, toy9, toy9_config_factory):
        config = toy9_config_factory(leakages=(
            LeakageEvent(kind="abrupt", link_id="p99", diameter=0.005,
                         window=EventWindow(0.0, 3600.0)),))
        with pytest.raises(ConfigError, match="p99"):
            validate_scenario(config, toy9)

    def test_window_must_fit_horizon(self, toy9, toy9_config_factory):
        config = toy9_config_factory(leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.005,
                         window=EventWindow(0.0, 999999.0)),))
        with pytest.raises(ConfigError, match="duration"):
            validate_scenario(config, toy9)

    def test_sensor_ids_must_exist(self, toy9, toy9_config_factory):
        config = toy9_config_factory(
            sensors=SensorPlacement(pressure_nodes=("ghost",)))
        with pytest.raises(ConfigError, match="ghost"):
            validate_scenario(config, toy9)

    def test_fault_must_reference_a_placed_sensor(self, toy9,
                                                  toy9_config_factory):
        config = toy9_config_factory(sensor_faults=(
            SensorFaultEvent(kind="offset", sensor_ref=("flow", "p9"),
                             param=0.1, window=EventWindow(0.0, 3600.0)),))
        with pytest.raises(ConfigError, match="p9"):
            validate_scenario(config, toy9)

    def test_quality_source_must_exist(self, toy9, toy9_config_factory):
        config = toy9_config_factory(
            quality=QualitySpec(source_nodes=(("ghost", 1.0),)))
        with pytest.raises(ConfigError, match="ghost"):
            validate_scenario(config, toy9)

    def test_problems_are_aggregated(self, toy9, toy9_config_factory):
        config = toy9_config_factory(
            duration_s=1000,
            sensors=SensorPlacement(pressure_nodes=("ghost",)))
        with pytest.raises(ConfigError) as exc:
            validate_scenario(config, toy9)
        assert "multiple" in str(exc.value)
        assert "ghost" in str(exc.value)


class TestCompileOnce:
    """run_scenario validates each network it makes once: the parsed one,
    the one with perturbed pipes, and the leak-split one."""

    LEAK = (LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                         window=EventWindow(1800.0, 5400.0)),)
    PIPE_NOISE = (UncertaintyModel(kind="gauss_rel", target="pipe_roughness",
                                   params={"sigma": 0.05}),)

    @pytest.mark.parametrize("overrides, expected", [
        ({}, 1),
        ({"leakages": LEAK}, 2),
        ({"leakages": LEAK, "uncertainties": PIPE_NOISE}, 3),
        ({"leakages": LEAK, "quality": QualitySpec(
            source_nodes=(("r1", 1.0),))}, 2),
    ], ids=["plain", "leak", "leak+pipe-noise", "leak+quality"])
    def test_validations_per_run(self, toy9_config_factory, monkeypatch,
                                 overrides, expected):
        validated = []
        validate = wdnflow.network.validate

        def spy(network):
            validated.append(network)
            return validate(network)

        monkeypatch.setattr(wdnflow.network, "validate", spy)
        monkeypatch.setattr(wdnflow.inp, "validate", spy)
        run_scenario(toy9_config_factory(**overrides))
        assert len(validated) == expected
        assert len({id(net) for net in validated}) == expected


class TestRunScenario:
    def test_event_free_run_shape(self, toy9_config_factory):
        result = run_scenario(toy9_config_factory())
        assert result.report.steps == 24
        assert result.scada.values.shape == (24, 10)
        assert result.scada_true.values.shape == (24, 10)
        assert result.scada.ground_truth == ()
        assert result.report.wall_time_s > 0.0

    def test_truth_records_enumerate_events(self, toy9_config_factory):
        result = run_scenario(full_config(toy9_config_factory))
        ids = [r.event_id for r in result.scada.ground_truth]
        assert ids == ["leakage_0", "sensor_fault_0", "communication_0"]
        kinds = [r.kind for r in result.scada.ground_truth]
        assert kinds == ["abrupt", "offset", "freeze"]

    def test_actuator_event_appears_in_truth(self):
        config = ScenarioConfig(
            network_path=bundled.pumpnet_path(),
            duration_s=7200,
            sensors=SensorPlacement(pressure_nodes=("j1", "j2"),
                                    flow_links=("p1",)),
            actuator_events=(ActuatorEvent(
                kind="pump_state", target_id="pu1", value=False,
                window=EventWindow(3600.0, 7200.0)),),
            seed=0)
        result = run_scenario(config)
        record = result.scada.ground_truth[0]
        assert record.event_id == "actuator_0"
        assert record.kind == "pump_state"
        # with the pump parked, the junction pressures sag
        col = 0
        assert result.scada_true.values[-1, col] < \
            result.scada_true.values[0, col]

    def test_clean_and_corrupted_views_differ_only_by_noise(
            self, toy9_config_factory):
        config = toy9_config_factory(uncertainties=(
            UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                             params={"sigma": 0.05}),))
        result = run_scenario(config)
        assert not np.array_equal(result.scada.values,
                                  result.scada_true.values)
        spread = result.scada.values - result.scada_true.values
        assert np.abs(spread).max() < 1.0

    def test_leak_projection_restores_pipe_ids(self, toy9_config_factory):
        config = toy9_config_factory(leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                         window=EventWindow(0.0, 7200.0)),))
        result = run_scenario(config)
        state = result.series.states[0]
        assert set(state.leak_flow) == {"p3"}
        assert state.leak_flow["p3"] > 0.0
        assert list(result.series.link_ids) == list(
            run_scenario(toy9_config_factory()).series.link_ids)
        assert any("midpoint" in w for w in result.report.warnings)

    def test_leak_projection_keeps_solver_residuals(
            self, toy9_config_factory):
        config = toy9_config_factory(leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                         window=EventWindow(1800.0, 5400.0)),))
        solved = build_runtime(config).make_engine().run()
        result = run_scenario(config)
        for mine, raw in zip(result.series.states, solved.states,
                             strict=True):
            assert math.isfinite(mine.mass_residual)
            assert math.isfinite(mine.energy_residual)
            assert mine.mass_residual == raw.mass_residual
            assert mine.energy_residual == raw.energy_residual

    def test_quality_ledger_closes_during_leak(self, toy9_config_factory,
                                              toy9):
        leak = EventWindow(3600.0, 6 * 3600.0)
        config = toy9_config_factory(
            duration_s=6 * 3600,
            sensors=SensorPlacement(quality_nodes=("n3",)),
            leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                                   window=leak),),
            quality=QualitySpec(decay_rate_k=2e-5,
                                source_nodes=(("r1", 1.0),)))
        result = run_scenario(config)
        during = [q for q in result.quality_states if leak.contains(q.t)]
        assert during
        for q in during:
            gap = q.stored_mass + q.withdrawn_mass + q.decayed_mass \
                - q.injected_mass
            assert abs(gap) <= 1e-6 * q.injected_mass
        # projected onto the pre-split network: p3's halves are joined
        last = result.quality_states[-1]
        assert len(last.node_concentration) == len(result.series.node_ids)
        assert list(last.pipe_segments) == sorted(toy9.pipes)
        p3 = toy9.pipes["p3"]
        assert sum(v for v, _ in last.pipe_segments["p3"]) == pytest.approx(
            math.pi * (p3.diameter / 2.0) ** 2 * p3.length, rel=1e-9)

    def test_leak_increases_supply_flow(self, toy9_config_factory):
        clean = run_scenario(toy9_config_factory())
        leaky = run_scenario(toy9_config_factory(leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                         window=EventWindow(0.0, 7200.0)),)))
        col = [c.label for c in clean.scada.columns].index("flow:p1")
        assert np.all(leaky.scada_true.values[:, col] >
                      clean.scada_true.values[:, col])

    def test_same_seed_reproduces_bytes(self, toy9_config_factory, tmp_path):
        config = toy9_config_factory(
            scada_csv_path="scada.csv", truth_csv_path="truth.csv",
            uncertainties=(UncertaintyModel(kind="gauss_abs",
                                            target="sensor_noise",
                                            params={"sigma": 0.05}),))
        first = write_outputs(run_scenario(config), str(tmp_path / "a"))
        second = write_outputs(run_scenario(config), str(tmp_path / "b"))
        assert Path(first["scada"]).read_text() == \
            Path(second["scada"]).read_text()
        assert Path(first["truth"]).read_text() == \
            Path(second["truth"]).read_text()

    def test_seed_changes_noise_not_truth(self, toy9_config_factory):
        noise = (UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                                  params={"sigma": 0.05}),)
        a = run_scenario(toy9_config_factory(uncertainties=noise, seed=1))
        b = run_scenario(toy9_config_factory(uncertainties=noise, seed=2))
        assert not np.array_equal(a.scada.values, b.scada.values)
        assert np.array_equal(a.scada_true.values, b.scada_true.values)
        assert a.series.digest() == b.series.digest()

    def test_quality_columns_populated(self, toy9_config_factory):
        config = toy9_config_factory(
            sensors=SensorPlacement(pressure_nodes=("n1",),
                                    quality_nodes=("n1", "n3")),
            quality=QualitySpec(source_nodes=(("r1", 1.0),)),
            duration_s=86400)
        result = run_scenario(config)
        labels = [c.label for c in result.scada.columns]
        assert labels == ["pressure:n1", "quality:n1", "quality:n3"]
        q1 = result.scada_true.values[:, 1]
        assert q1[-1] > 0.0

    def test_report_counts_iterations(self, toy9_config_factory):
        result = run_scenario(toy9_config_factory())
        assert sum(result.report.iterations.values()) == 24
        assert all(isinstance(k, int) for k in result.report.iterations)


class TestWriteOutputs:
    def test_relative_paths_land_in_out_dir(self, toy9_config_factory,
                                            tmp_path):
        config = toy9_config_factory(scada_csv_path="runs/scada.csv",
                                     truth_csv_path="runs/truth.csv")
        paths = write_outputs(run_scenario(config), str(tmp_path))
        assert paths["scada"] == str(tmp_path / "runs" / "scada.csv")
        assert os.path.exists(paths["scada"])
        loaded = from_csv(Path(paths["scada"]).read_text())
        assert loaded.values.shape == (24, 10)

    def test_absolute_paths_win(self, toy9_config_factory, tmp_path):
        target = tmp_path / "direct.csv"
        config = toy9_config_factory(scada_csv_path=str(target))
        paths = write_outputs(run_scenario(config),
                              str(tmp_path / "ignored"))
        assert paths["scada"] == str(target)
        assert os.path.exists(target)

    def test_no_paths_writes_nothing(self, toy9_config_factory, tmp_path):
        paths = write_outputs(run_scenario(toy9_config_factory()),
                              str(tmp_path))
        assert "scada" not in paths
        assert list(tmp_path.iterdir()) == []
