"""NaN, ±Infinity and other out-of-range values are rejected where configs
and networks enter."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from wdnflow import ConfigError, InvalidNetworkError, bundled
from wdnflow.control import ScenarioEnv
from wdnflow.detection import SensorInterpolationDetector
from wdnflow.events import (
    ActuatorEvent, EventWindow, LeakageEvent, SensorFaultEvent,
)
from wdnflow.network import (
    Curve, Junction, Network, Pattern, Pipe, Pump, Reservoir, SimOptions,
    Tank, Valve, incidence, validate,
)
from wdnflow.quality import QualitySettings
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import (
    QualitySpec, ScenarioConfig, config_digest, config_from_json,
    config_to_json, to_seconds,
)
from wdnflow.uncertainty import UncertaintyModel

NAN, INF = math.nan, math.inf
WINDOW = EventWindow(0.0, 3600.0)


def network():
    """A reservoir pumps into j1; a valve feeds j2, which fills a tank."""
    return Network(
        junctions={"j1": Junction("j1", 5.0, 0.01, "daily"),
                   "j2": Junction("j2", 4.0, 0.02)},
        reservoirs={"r1": Reservoir("r1", 10.0)},
        tanks={"t1": Tank("t1", 30.0, 4.0, 2.0, 0.5, 8.0)},
        pipes={"p1": Pipe("p1", "j2", "t1", 100.0, 0.2, 110.0)},
        pumps={"pu1": Pump("pu1", "r1", "j1", "c1")},
        valves={"v1": Valve("v1", "j1", "j2", 0.25, 4.0)},
        patterns={"daily": Pattern("daily", (0.8, 1.2))},
        curves={"c1": Curve("c1", ((0.05, 40.0),))})


def with_element(group, eid, **fields):
    net = network()
    elems = getattr(net, group)
    changed = replace(elems[eid], **fields)
    return replace(net, **{group: {**elems, eid: changed}})


def config(name, value, build):
    return pytest.param(lambda: build(value), ConfigError, "finite|inf",
                        id=f"{name}={value}")


def element(group, eid, name, value):
    """incidence() validates, so it raises for a bad element field."""
    return pytest.param(
        lambda: incidence(with_element(group, eid, **{name: value})),
        InvalidNetworkError, f"'{eid}'", id=f"{group}.{name}={value}")


def option(name, value):
    """incidence() validates, so it raises for a bad [TIMES] option."""
    return pytest.param(
        lambda: incidence(replace(network(), options=replace(
            SimOptions(), **{name: value}))),
        InvalidNetworkError, f"options '{name}'", id=f"options.{name}={value}")


def json_constant(listing, key, constant):
    """A toy9 config read from JSON in which one number is a bare JSON
    constant."""
    def make():
        cfg = ScenarioConfig(
            network_path=bundled.toy9_path(), duration_s=86400,
            sensors=SensorPlacement(pressure_nodes=("n1",)),
            leakages=(leak(link_id="p3"),),
            sensor_faults=(SensorFaultEvent("offset", ("pressure", "n1"), 1.0,
                                            WINDOW),))
        doc = json.loads(config_to_json(cfg))
        doc[listing][0][key] = "@"
        return config_from_json(json.dumps(doc).replace('"@"', constant))
    return pytest.param(make, ConfigError, "is not a number",
                        id=f"json.{listing}.{key}={constant}")


def leak(**fields):
    return LeakageEvent(**{"kind": "abrupt", "link_id": "p1",
                           "diameter": 0.01, "window": WINDOW, **fields})


def uncertainty(kind, target, **params):
    return UncertaintyModel(kind, target, params)


def env(**kwargs):
    config = ScenarioConfig(network_path=bundled.toy9_path(), duration_s=3600,
                            sensors=SensorPlacement(pressure_nodes=("n1",)))
    return ScenarioEnv(config, **kwargs)


def whole_seconds(name, make):
    return pytest.param(make, ConfigError, "whole number", id=name)


def not_numbers(name, build, optional=False, error=ConfigError):
    """A string, True and, where the field may not be None, None in one
    config number: each is rejected as not a finite number, from Python as
    from JSON."""
    return [pytest.param(lambda v=v: build(v), error, "finite",
                         id=f"{name}={v!r}")
            for v in ("1", True) + (() if optional else (None,))]


CASES = [
    config("leak.diameter", NAN, lambda v: leak(diameter=v)),
    config("leak.diameter", INF, lambda v: leak(diameter=v)),
    config("leak.discharge_coef", NAN, lambda v: leak(discharge_coef=v)),
    config("leak.discharge_coef", INF, lambda v: leak(discharge_coef=v)),
    config("window.end_time", INF, lambda v: EventWindow(0.0, v)),
    config("pump_speed", NAN,
           lambda v: ActuatorEvent("pump_speed", "pu1", v, WINDOW)),
    config("pump_speed", INF,
           lambda v: ActuatorEvent("pump_speed", "pu1", v, WINDOW)),
    config("gaussian.param", NAN,
           lambda v: SensorFaultEvent("gaussian", ("pressure", "j1"), v,
                                      WINDOW)),
    config("offset.param", -INF,
           lambda v: SensorFaultEvent("offset", ("pressure", "j1"), v,
                                      WINDOW)),
    config("gauss_abs.sigma", NAN,
           lambda v: uncertainty("gauss_abs", "sensor_noise", sigma=v)),
    config("uniform_rel.amplitude", INF,
           lambda v: uncertainty("uniform_rel", "pipe_length", amplitude=v)),
    config("sinusoidal.period", NAN,
           lambda v: uncertainty("sinusoidal", "sensor_noise", amplitude=0.1,
                                 period=v)),
    config("regime_shift.mean_dwell", NAN,
           lambda v: uncertainty("regime_shift", "sensor_noise",
                                 amplitude=0.1, mean_dwell=v)),
    config("percentage.fraction", NAN,
           lambda v: uncertainty("percentage", "pipe_roughness", fraction=v)),
    config("quality.decay_rate_k", NAN, lambda v: QualitySpec(decay_rate_k=v)),
    config("quality.decay_rate_k", INF, lambda v: QualitySpec(decay_rate_k=v)),
    config("quality.source", NAN,
           lambda v: QualitySpec(source_nodes=(("r1", v),))),
    config("quality.source", INF,
           lambda v: QualitySpec(source_nodes=(("r1", v),))),
    config("settings.decay_rate_k", NAN,
           lambda v: QualitySettings(decay_rate_k=v)),
    config("settings.source", NAN,
           lambda v: QualitySettings(source_nodes={"r1": v})),
    whole_seconds("settings.quality_time_step=7.5",
                  lambda: QualitySettings(quality_time_step=7.5)),
    whole_seconds("settings.quality_time_step=True",
                  lambda: QualitySettings(quality_time_step=True)),
    config("env.min_pressure_head", NAN,
           lambda v: env(min_pressure_head=v)),
    config("env.pressure_penalty", NAN, lambda v: env(pressure_penalty=v)),
    config("env.pressure_penalty", -1.0, lambda v: env(pressure_penalty=v)),
    whole_seconds("to_seconds=nan", lambda: to_seconds(seconds=NAN)),
    whole_seconds("to_seconds=inf", lambda: to_seconds(seconds=INF)),
    whole_seconds("to_seconds.days='1'", lambda: to_seconds(days="1")),
    whole_seconds("to_seconds.seconds=None", lambda: to_seconds(seconds=None)),
    whole_seconds("to_seconds.hours=True", lambda: to_seconds(hours=True)),
] + [case for cases in (
    not_numbers("window.start_time", lambda v: EventWindow(v, 3600.0)),
    not_numbers("window.end_time", lambda v: EventWindow(0.0, v)),
    not_numbers("window.peak_time", lambda v: EventWindow(0.0, 3600.0, v),
                optional=True),
    not_numbers("leak.diameter", lambda v: leak(diameter=v)),
    not_numbers("leak.discharge_coef", lambda v: leak(discharge_coef=v)),
    not_numbers("leak.area_pattern", lambda v: leak(area_pattern=(0.5, v))),
    not_numbers("offset.param",
                lambda v: SensorFaultEvent("offset", ("pressure", "j1"), v,
                                           WINDOW)),
    not_numbers("gauss_abs.sigma",
                lambda v: uncertainty("gauss_abs", "sensor_noise", sigma=v)),
    not_numbers("uniform_rel.amplitude",
                lambda v: uncertainty("uniform_rel", "pipe_length",
                                      amplitude=v)),
    not_numbers("sinusoidal.period",
                lambda v: uncertainty("sinusoidal", "sensor_noise",
                                      amplitude=0.1, period=v)),
    not_numbers("regime_shift.mean_dwell",
                lambda v: uncertainty("regime_shift", "sensor_noise",
                                      amplitude=0.1, mean_dwell=v)),
    not_numbers("spike.probability",
                lambda v: uncertainty("spike", "sensor_noise", amplitude=0.1,
                                      probability=v)),
    not_numbers("percentage.fraction",
                lambda v: uncertainty("percentage", "pipe_roughness",
                                      fraction=v)),
    not_numbers("quality.decay_rate_k", lambda v: QualitySpec(decay_rate_k=v)),
    not_numbers("quality.source",
                lambda v: QualitySpec(source_nodes=(("r1", v),))),
    not_numbers("settings.decay_rate_k",
                lambda v: QualitySettings(decay_rate_k=v)),
    not_numbers("settings.source",
                lambda v: QualitySettings(source_nodes={"r1": v})),
    not_numbers("env.min_pressure_head", lambda v: env(min_pressure_head=v)),
    not_numbers("env.pressure_penalty", lambda v: env(pressure_penalty=v)),
    not_numbers("detector.margin",
                lambda v: SensorInterpolationDetector(margin=v),
                error=ValueError),
    not_numbers("detector.min_threshold",
                lambda v: SensorInterpolationDetector(min_threshold=v),
                error=ValueError),
) for case in cases] + [element(*case) for case in (
    ("pipes", "p1", "length", NAN), ("pipes", "p1", "length", INF),
    ("pipes", "p1", "diameter", NAN), ("pipes", "p1", "diameter", INF),
    ("pipes", "p1", "roughness", NAN), ("pipes", "p1", "roughness", INF),
    ("tanks", "t1", "diameter", NAN), ("tanks", "t1", "diameter", INF),
    ("tanks", "t1", "elevation", NAN), ("tanks", "t1", "max_level", INF),
    ("valves", "v1", "diameter", NAN), ("valves", "v1", "diameter", INF),
    ("valves", "v1", "minor_loss_coef", NAN),
    ("valves", "v1", "minor_loss_coef", INF),
    ("pumps", "pu1", "speed", NAN), ("pumps", "pu1", "speed", INF),
    ("patterns", "daily", "multipliers", (1.0, NAN)),
    ("patterns", "daily", "multipliers", (INF, 1.0)),
    ("curves", "c1", "points", ((NAN, 40.0),)),
)] + [
    option("pattern_step_s", NAN), option("pattern_step_s", INF),
    option("duration_s", INF), option("hydraulic_step_s", NAN),
] + [
    json_constant("leakages", "diameter", "NaN"),
    json_constant("leakages", "diameter", "Infinity"),
    json_constant("sensor_faults", "param", "-Infinity"),
]


class TestNonFiniteValues:
    def test_reference_network_is_valid(self):
        assert validate(network()) == []

    @pytest.mark.parametrize("make, error, match", CASES)
    def test_rejected(self, make, error, match):
        with pytest.raises(error, match=match):
            make()


def test_numpy_scalars_are_stored_as_python_floats():
    """A numpy scalar passes the number rule and is stored as the Python
    float of its value, so the config and its digest are unchanged."""
    def build(real, whole):
        return ScenarioConfig(
            network_path=bundled.toy9_path(), duration_s=whole(7200),
            sensors=SensorPlacement(pressure_nodes=("n1",)),
            leakages=(LeakageEvent("incipient", "p3", real(0.25),
                                   EventWindow(whole(600), real(3600.0),
                                               whole(1800)),
                                   discharge_coef=real(0.5)),),
            sensor_faults=(SensorFaultEvent(
                "gaussian", ("pressure", "n1"), real(0.5),
                EventWindow(whole(0), whole(1200))),),
            uncertainties=(UncertaintyModel("gauss_abs", "sensor_noise",
                                            {"sigma": real(0.125)}),),
            quality=QualitySpec(decay_rate_k=real(0.5),
                                source_nodes=(("n1", whole(2)),)))
    plain = build(float, int)
    numpy = build(np.float32, np.int64)
    assert numpy == plain
    assert config_digest(numpy) == config_digest(plain)
    leak, fault = numpy.leakages[0], numpy.sensor_faults[0]
    numbers = (leak.diameter, leak.discharge_coef, leak.window.start_time,
               leak.window.end_time, leak.window.peak_time, fault.param,
               numpy.uncertainties[0].params["sigma"],
               numpy.quality.decay_rate_k, numpy.quality.source_nodes[0][1])
    assert all(type(x) is float for x in numbers)
    settings = QualitySettings(decay_rate_k=np.float32(0.5),
                               source_nodes={"r1": np.int64(2)})
    assert type(settings.decay_rate_k) is float
    assert type(settings.source_nodes["r1"]) is float
    detector = SensorInterpolationDetector(np.float32(0.5), np.int64(0))
    assert type(detector.margin) is type(detector.min_threshold) is float
