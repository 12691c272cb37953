"""Tests for scenario configuration, validation, and the batch runner."""

import hashlib
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wdnflow.inp
import wdnflow.network
from wdnflow import ConfigError, WdnflowError, bundled
from wdnflow.events import (
    ActuatorEvent,
    CommunicationEvent,
    LEAK_PIPE_SUFFIX,
    EventWindow,
    LeakageEvent,
    SensorFaultEvent,
    leak_emitter_coef,
    resolve_controls,
)
from wdnflow.hydraulics import EpsEngine
from wdnflow.quality import simulate_quality
from wdnflow.scada import (
    ScadaData, SensorPlacement, corrupt, extract_readings, from_csv,
)
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
from wdnflow.uncertainty import SeededStream, UncertaintyModel


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

    @pytest.mark.parametrize("unit, word", [
        ("days", "DAYS"), ("hours", "HOURS"), ("minutes", "MIN")])
    def test_one_whole_seconds_rule_with_the_inp_reader(self, unit, word):
        """A span of 0.1 ... 9.9 units is the seconds the INP reader reads
        from the same number and unit; 1.1 days is 95040 s in both."""
        for tenths in range(1, 100):
            value = tenths / 10
            assert to_seconds(**{unit: value}) == \
                wdnflow.inp._time_seconds([repr(value), word], 1), value
        assert to_seconds(days=1.1) == 95040


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


def every_key_config():
    """A config that sets every JSON key at least once."""
    w = EventWindow(0.0, 3600.0)
    return ScenarioConfig(
        network_path="net.inp", duration_s=86400, hydraulic_time_step_s=900,
        quality_time_step_s=60,
        sensors=SensorPlacement(pressure_nodes=("j2", "j1"),
                                flow_links=("p1",), quality_nodes=("j1",),
                                tank_level_tanks=("t1",)),
        leakages=(
            LeakageEvent("abrupt", "p1", 0.01, w),
            LeakageEvent("incipient", "p2", 0.02,
                         EventWindow(3600.0, 7200.0, 5400.0),
                         discharge_coef=0.6),
            LeakageEvent("pattern", "p1", 0.005, EventWindow(7200.0, 10800.0),
                         area_pattern=(0.0, 0.5, 1.0))),
        actuator_events=(ActuatorEvent("pump_state", "pu1", False, w),
                         ActuatorEvent("pump_speed", "pu1", 0.8, w),
                         ActuatorEvent("valve_state", "v1", True, w)),
        sensor_faults=(SensorFaultEvent("drift", ("flow", "p1"), 0.1, w),),
        communication_events=(
            CommunicationEvent("data_loss", w),
            CommunicationEvent("freeze", w, ("pressure", "j1"))),
        uncertainties=(
            UncertaintyModel("compound", "sensor_noise", submodels=(
                UncertaintyModel("gauss_abs", "sensor_noise", {"sigma": 0.01}),
                UncertaintyModel("spike", "sensor_noise",
                                 {"probability": 0.01, "amplitude": 1.0}))),
            UncertaintyModel("gauss_rel", "pipe_roughness", {"sigma": 0.05})),
        seed=11, scada_csv_path="out/scada.csv", truth_csv_path="out/truth.csv",
        quality=QualitySpec(decay_rate_k=1e-5, source_nodes=(("r1", 1.0),)))


_IDS = st.sampled_from(["a", "j1", "p 2", "ü"])
_TIMES = st.floats(0.0, 1e6)


@st.composite
def _windows(draw, peak=None):
    """peak: None = maybe, True = always, False = never."""
    start = draw(_TIMES)
    end = start + draw(st.floats(1e-3, 1e6))
    if peak is None:
        peak = draw(st.booleans())
    return EventWindow(start, end,
                       draw(st.floats(start, end)) if peak else None)


def _leaks(kind):
    pattern = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(tuple)
    return st.builds(
        LeakageEvent, kind=st.just(kind), link_id=_IDS,
        diameter=st.floats(1e-4, 1.0),
        window=_windows(True if kind == "incipient" else None),
        discharge_coef=st.floats(0.1, 1.0),
        area_pattern=pattern if kind == "pattern" else st.none())


_SENSOR_REFS = st.tuples(st.sampled_from(["pressure", "flow", "quality",
                                          "level"]), _IDS)
_MODELS = st.sampled_from([("gauss_abs", "sigma"),
                           ("uniform_abs", "amplitude")]).flatmap(
    lambda kind_param: st.builds(
        UncertaintyModel, kind=st.just(kind_param[0]),
        target=st.just("sensor_noise"),
        params=st.fixed_dictionaries({kind_param[1]: st.floats(0.0, 1.0)}),
        submodels=st.sampled_from([None, ()])))


def configs():
    """Configs as Python builds them: ids in any order, empty uncertainty
    params and submodels, every event family, optional keys set or
    not."""
    placement = st.lists(_IDS, unique=True, max_size=3)
    return st.builds(
        ScenarioConfig,
        network_path=_IDS,
        duration_s=st.integers(1, 10**6),
        hydraulic_time_step_s=st.integers(1, 3600),
        quality_time_step_s=st.none() | st.integers(1, 60),
        sensors=st.builds(SensorPlacement, placement, placement, placement,
                          placement),
        leakages=st.lists(st.sampled_from(["abrupt", "incipient", "pattern"])
                          .flatmap(_leaks), max_size=3).map(tuple),
        actuator_events=st.lists(st.one_of(
            st.builds(ActuatorEvent, st.sampled_from(["pump_state",
                                                      "valve_state"]),
                      _IDS, st.booleans(), _windows(False)),
            st.builds(ActuatorEvent, st.just("pump_speed"), _IDS,
                      st.floats(0.0, 2.0), _windows(False))),
            max_size=2).map(tuple),
        sensor_faults=st.lists(st.builds(
            SensorFaultEvent, st.sampled_from(["offset", "gaussian"]),
            _SENSOR_REFS, st.floats(0.0, 5.0), _windows(False)),
            max_size=2).map(tuple),
        communication_events=st.lists(st.builds(
            CommunicationEvent, st.sampled_from(["data_loss", "freeze"]),
            _windows(False), st.none() | _SENSOR_REFS), max_size=2).map(tuple),
        uncertainties=st.lists(st.one_of(
            _MODELS,
            st.lists(_MODELS, min_size=2, max_size=3).map(
                lambda subs: UncertaintyModel("compound", "sensor_noise",
                                              params={}, submodels=subs))),
            max_size=2).map(tuple),
        seed=st.integers(0, 2**63),
        scada_csv_path=st.none() | _IDS,
        truth_csv_path=st.none() | _IDS,
        quality=st.none() | st.builds(
            QualitySpec, st.floats(0.0, 1e-3),
            st.dictionaries(_IDS, st.floats(0.0, 10.0), max_size=2).map(
                lambda d: tuple(d.items()))))


class TestCanonicalJson:
    def test_bytes_are_pinned(self):
        """These bytes are what `config_digest` hashes, so they change
        only on purpose."""
        text = config_to_json(every_key_config())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "6b21f4f9cf949b789aec45226d5f3f59dd675bd53b04cdfa7bcfbd359190e217"

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(config=configs())
    def test_round_trip_is_a_fixed_point(self, config):
        text = config_to_json(config)
        back = config_from_json(text)
        assert back == config
        assert config_to_json(back) == text


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
        (("communication_events", 0, "all_sensors"), True,
         "communication_events[0]", "all_sensors excludes a sensor ref"),
        (("communication_events", 0, "sensor_type"), _DROP,
         "communication_events[0]", "need sensor_type and element_id"),
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

    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON: "), ("[]", "config: expected an object")])
    def test_document_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            config_from_json(text)


class TestConfigValues:
    def test_quality_source_ids_are_unique(self):
        with pytest.raises(ConfigError, match="duplicate ids in source_nodes"):
            QualitySpec(source_nodes=(("r1", 1.0), ("r1", 2.0)))

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

    def test_quality_step_must_divide_hydraulic_step(self, toy9,
                                                     toy9_config_factory):
        config = toy9_config_factory(quality_time_step_s=7)
        with pytest.raises(ConfigError, match="quality_time_step_s must"
                                              " divide"):
            validate_scenario(config, toy9)

    @pytest.mark.parametrize("kind, target, value, message", [
        ("pump_speed", "p1", 0.5, "no pump 'p1'"),
        ("pump_state", "ghost", False, "no pump 'ghost'"),
        ("valve_state", "p1", False, "no valve 'p1'"),
    ])
    def test_actuator_event_must_name_its_kind(self, toy9,
                                               toy9_config_factory, kind,
                                               target, value, message):
        config = toy9_config_factory(actuator_events=(
            ActuatorEvent(kind=kind, target_id=target, value=value,
                          window=EventWindow(0.0, 3600.0)),))
        with pytest.raises(ConfigError, match=f"actuator_events\\[0\\]:"
                                              f" {message}"):
            validate_scenario(config, toy9)

    WINDOW = EventWindow(0.0, 3600.0)

    @staticmethod
    def run_engine(cfg, network):
        EpsEngine(network, cfg.duration_s, cfg.hydraulic_time_step_s,
                  lambda t: resolve_controls(cfg.actuator_events, t))

    @staticmethod
    def read_sensors(cfg, network):
        series = EpsEngine(network, cfg.duration_s,
                           cfg.hydraulic_time_step_s).run()
        extract_readings(series, cfg.sensors)

    @staticmethod
    def corrupt_readings(cfg, network):
        columns = cfg.sensors.columns()
        scada = ScadaData((0.0,), columns, np.zeros((1, len(columns))))
        corrupt(scada, cfg.sensor_faults, cfg.communication_events, (),
                SeededStream(cfg.seed))

    @pytest.mark.parametrize("name, apply, path, fields", [
        ("toy9", "run_engine", "actuator_events[0]", dict(actuator_events=(
            ActuatorEvent("pump_speed", "p1", 0.5, WINDOW),))),
        ("pumpnet", "run_engine", "actuator_events[0]", dict(
            actuator_events=(ActuatorEvent("valve_state", "pu1", False,
                                           WINDOW),))),
        ("toy9", "read_sensors", "sensors", dict(
            sensors=SensorPlacement(pressure_nodes=("n1", "r1")))),
        ("pumpnet", "read_sensors", "sensors", dict(
            sensors=SensorPlacement(flow_links=("p1",),
                                    tank_level_tanks=("j1",)))),
        ("toy9", "corrupt_readings", "sensor_faults[0]", dict(
            sensors=SensorPlacement(pressure_nodes=("n1",)),
            sensor_faults=(SensorFaultEvent("offset", ("flow", "p9"), 0.1,
                                            WINDOW),))),
        ("pumpnet", "corrupt_readings", "communication_events[0]", dict(
            sensors=SensorPlacement(pressure_nodes=("j1",)),
            communication_events=(CommunicationEvent(
                "data_loss", WINDOW, ("pressure", "j2")),))),
    ], ids=["toy9-actuator", "pumpnet-actuator", "toy9-placement",
            "pumpnet-placement", "toy9-fault", "pumpnet-communication"])
    def test_message_is_the_applying_layers(self, request, name, apply,
                                            path, fields):
        """A rule the engine, the reader or the corruptor applies on every
        run reads the same in validate_scenario, behind the config path."""
        network = request.getfixturevalue(name)
        cfg = ScenarioConfig(getattr(bundled, f"{name}_path")(),
                             duration_s=3600, seed=0, **fields)
        with pytest.raises(ConfigError) as checked:
            validate_scenario(cfg, network)
        with pytest.raises(WdnflowError) as applied:
            getattr(self, apply)(cfg, network)
        assert str(checked.value) == f"{path}: {applied.value}"

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
        violations = wdnflow.network._violations

        def spy(network):
            validated.append(network)
            return violations(network)

        # `validate` and the incidence compile both run `_violations`
        monkeypatch.setattr(wdnflow.network, "_violations", spy)
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

    def test_overlapping_leaks_on_one_pipe_add(self, toy9_config_factory):
        # two orifices at one midpoint junction: inside the overlap the
        # emitter coefficients sum; outside it each leak acts alone
        abrupt = LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                              window=EventWindow(600.0, 4800.0))
        incipient = LeakageEvent(kind="incipient", link_id="p3",
                                 diameter=0.02,
                                 window=EventWindow(1800.0, 6000.0, 3600.0))
        runtime = build_runtime(toy9_config_factory(
            leakages=(abrupt, incipient)))
        jid = runtime.leak_junctions["p3"]
        for t in (1800.0, 2700.0, 3600.0, 4500.0):
            assert runtime.emitter_hook(t) == {
                jid: leak_emitter_coef(abrupt, t)
                + leak_emitter_coef(incipient, t)}
        assert runtime.emitter_hook(900.0) == {
            jid: leak_emitter_coef(abrupt, 900.0)}
        assert runtime.emitter_hook(5400.0) == {
            jid: leak_emitter_coef(incipient, 5400.0)}
        assert runtime.emitter_hook(0.0) is None

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
        # one read-only array: the from-node half, then the to-node half
        runtime = build_runtime(config)
        split = simulate_quality(
            runtime.make_engine().run(),
            runtime.solve_network, runtime.quality_settings())[-1]
        joined = last.pipe_segments["p3"]
        assert isinstance(joined, np.ndarray) and joined.shape[1] == 2
        assert not joined.flags.writeable
        halves = (split.pipe_segments["p3"],
                  split.pipe_segments["p3" + LEAK_PIPE_SUFFIX])
        assert all(len(h) for h in halves)
        assert joined.tobytes() == np.concatenate(halves).tobytes()

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
        # one count per snapshot solved, none for those served again
        result = run_scenario(toy9_config_factory())
        assert result.report.steps == 24
        assert sum(result.report.iterations.values()) == result.report.solves
        assert all(isinstance(k, int) for k in result.report.iterations)

    def test_report_counts_snapshots_solved(self, toy9_config_factory):
        # toy9 has no tank and one hourly demand pattern, so a snapshot's
        # inputs are its hour's multiplier: 18 distinct values in 24 hours
        result = run_scenario(toy9_config_factory(duration_s=86400))
        pattern = bundled.load_toy9().patterns["diurnal"].multipliers
        assert len(pattern) == 24 and len(set(pattern)) == 18
        assert result.report.steps == 288
        assert result.report.solves == 18
        assert sum(result.report.iterations.values()) == 18


class TestQualitySettings:
    QUALITY = QualitySpec(decay_rate_k=1e-4, source_nodes=(("r1", 1.0),))

    @pytest.fixture
    def five_minute_toy9(self, tmp_path):
        """toy9 with `Quality Timestep 5 MIN` in its [TIMES] section."""
        text = Path(bundled.toy9_path()).read_text(encoding="utf-8")
        assert " Quality Timestep    60 SEC" in text
        path = tmp_path / "toy9_5min.inp"
        path.write_text(text.replace(" Quality Timestep    60 SEC",
                                     " Quality Timestep    5 MIN"),
                        encoding="utf-8")
        return str(path)

    def test_unset_step_is_the_networks(self, toy9_config_factory,
                                        five_minute_toy9):
        config = toy9_config_factory(network_path=five_minute_toy9,
                                     hydraulic_time_step_s=900,
                                     quality=self.QUALITY)
        assert build_runtime(config).quality_settings().quality_time_step \
            == 300
        config = replace(config, quality_time_step_s=60)
        assert build_runtime(config).quality_settings().quality_time_step \
            == 60

    def test_networks_step_must_divide_hydraulic_step(
            self, toy9_config_factory, five_minute_toy9):
        config = toy9_config_factory(network_path=five_minute_toy9,
                                     duration_s=8400,
                                     hydraulic_time_step_s=420)
        network = wdnflow.inp.load_network(five_minute_toy9)
        # without a quality run the network's quality step is not used
        validate_scenario(config, network)
        for quality in ({"quality": self.QUALITY},
                        {"sensors": SensorPlacement(quality_nodes=("n1",))}):
            with pytest.raises(ConfigError, match="quality_time_step_s must"
                                                  " divide"):
                validate_scenario(replace(config, **quality), network)
        validate_scenario(replace(config, quality=self.QUALITY,
                                  quality_time_step_s=60), network)

    def test_decay_rate_uncertainty_is_seeded(self, toy9_config_factory):
        noise = (UncertaintyModel(kind="gauss_rel", target="decay_rate",
                                  params={"sigma": 0.1}),)

        def k(seed):
            config = toy9_config_factory(quality=self.QUALITY, seed=seed,
                                         uncertainties=noise)
            return build_runtime(config).quality_settings().decay_rate_k

        assert k(3) == k(3)
        assert len({k(3), k(7), self.QUALITY.decay_rate_k}) == 3


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
