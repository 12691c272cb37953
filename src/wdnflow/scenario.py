"""Scenario configuration and end-to-end dataset generation.

A scenario bundles a network, a simulation horizon, sensor placement, event
lists, uncertainty models and a seed. Running it produces the true hydraulic
series, optional quality series, corrupted SCADA readings and ground-truth
event records.

`ScenarioConfig` is the one configuration surface of a run. Each rule is
stated once. One key table per JSON object gives each key's JSON type,
whether it is required, and its value read off the dataclass; the reader
checks shapes only against it, and the writer emits from it in table order.
Every single-field value rule lives in the dataclass built from an object,
and the reader puts the object path in front of the ConfigError that
dataclass raises. `validate_scenario` makes the cross-field and network
checks, calling the check of the layer that applies a rule on every run.
The dataclasses store numbers as floats (durations as whole seconds), so
the JSON form `config_digest` hashes is canonical for every config:
emitting, parsing and re-emitting is a fixed point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace, field
from operator import attrgetter

import numpy as np

from .errors import ConfigError, WdnflowError
from .inp import load_network
from .network import Network, _nearest_second, _real, incidence
from .hydraulics import Controls, EpsEngine, StateSeries, _link_settings
from .events import (
    ActuatorEvent, CommunicationEvent, EventWindow, LeakageEvent,
    SensorFaultEvent, leak_emitter_coef, resolve_controls,
    LEAK_PIPE_SUFFIX, split_pipes_for_leaks,
)
from .uncertainty import (
    SeededStream, UncertaintyModel, apply_parameter_uncertainty, perturb_scalar,
)
from .quality import (
    QualitySettings, QualityState, _whole_seconds, simulate_quality,
)
from .scada import (
    _SENSOR_TABLE, GroundTruthRecord, RowCorruptor, RowReader, ScadaData,
    SensorPlacement, _event_column, corrupt, extract_readings,
)

__all__ = [
    "ScenarioConfig", "QualitySpec", "RunReport", "RunResult", "to_seconds",
    "config_from_json", "config_to_json", "load_config", "save_config",
    "config_digest", "validate_scenario", "build_runtime", "ScenarioRuntime",
    "run_scenario", "write_outputs",
]


def to_seconds(days: float = 0, hours: float = 0, minutes: float = 0,
               seconds: float = 0) -> int:
    """The span as whole int seconds, each part held to `_real`'s rule."""
    total = days * 86400 + hours * 3600 + minutes * 60 + seconds \
        if all(map(_real, (days, hours, minutes, seconds))) else math.nan
    if (whole := _nearest_second(total)) is None:
        raise ConfigError(f"{days!r} d {hours!r} h {minutes!r} min"
                          f" {seconds!r} s is not a whole number of seconds")
    return whole


@dataclass(frozen=True)
class QualitySpec:
    decay_rate_k: float = 0.0
    source_nodes: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if len(dict(self.source_nodes)) != len(self.source_nodes):
            raise ConfigError("duplicate ids in source_nodes")
        # the value rules are the run settings' own; their floats, sorted,
        # keep the canonical JSON form a fixed point
        settings = QualitySettings(decay_rate_k=self.decay_rate_k,
                                   source_nodes=dict(self.source_nodes))
        object.__setattr__(self, "decay_rate_k", settings.decay_rate_k)
        object.__setattr__(self, "source_nodes",
                           tuple(sorted(settings.source_nodes.items())))


@dataclass(frozen=True)
class ScenarioConfig:
    network_path: str
    duration_s: int
    hydraulic_time_step_s: int = 300
    quality_time_step_s: int | None = None
    sensors: SensorPlacement = field(default_factory=SensorPlacement)
    leakages: tuple[LeakageEvent, ...] = ()
    actuator_events: tuple[ActuatorEvent, ...] = ()
    sensor_faults: tuple[SensorFaultEvent, ...] = ()
    communication_events: tuple[CommunicationEvent, ...] = ()
    uncertainties: tuple[UncertaintyModel, ...] = ()
    seed: int = 0
    scada_csv_path: str | None = None
    truth_csv_path: str | None = None
    quality: QualitySpec | None = None

    def __post_init__(self):
        # accept float durations as long as they are whole seconds, so the
        # canonical JSON form stays integer-valued
        for name in ("duration_s", "hydraulic_time_step_s",
                     "quality_time_step_s"):
            value = getattr(self, name)
            if value is None and name == "quality_time_step_s":
                continue
            object.__setattr__(self, name, _whole_seconds(name, value))


# ---------------------------------------------------------------- JSON I/O

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "a number": _is_number,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "a boolean or a number": lambda v: isinstance(v, bool) or _is_number(v),
    "an object": lambda v: isinstance(v, dict),
    "an object of numbers":
        lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "a list": lambda v: isinstance(v, list),
    "a list of strings":
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of numbers":
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def _emit(obj, keys: dict) -> dict:
    """The JSON object of obj: each key of its table in table order, with
    the value read off obj, unless that value is None."""
    return {key: value for key, (_, _, get) in keys.items()
            if (value := get(obj)) is not None}


# One key table per JSON object: key -> (JSON type, whether it is required,
# its value read off the object built from it). The reader checks the first
# two; the writer emits the values in table order and leaves out a None.
_S, _N = "a string", "a number"
_KIND = {"kind": (_S, True, attrgetter("kind"))}
_WINDOW = {"start_time_s": (_N, True, attrgetter("window.start_time")),
           "end_time_s": (_N, True, attrgetter("window.end_time"))}
_SIMULATION = {
    "duration_s": (_N, True, attrgetter("duration_s")),
    "hydraulic_time_step_s": (_N, False, attrgetter("hydraulic_time_step_s")),
    "quality_time_step_s": (_N, False, attrgetter("quality_time_step_s"))}
_SENSORS = {name: ("a list of strings", False, attrgetter(name))
            for name, *_ in _SENSOR_TABLE.values()}
_OUTPUTS = {name: (_S, False, attrgetter(name))
            for name in ("scada_csv_path", "truth_csv_path")}
_QUALITY = {"decay_rate_k": (_N, False, attrgetter("decay_rate_k")),
            "source_nodes": ("an object of numbers", False,
                             lambda q: dict(q.source_nodes))}
_LEAKAGE = {**_KIND, "link_id": (_S, True, attrgetter("link_id")),
            "diameter": (_N, True, attrgetter("diameter")), **_WINDOW,
            "peak_time_s": (_N, False, attrgetter("window.peak_time")),
            "discharge_coef": (_N, False, attrgetter("discharge_coef")),
            "area_pattern": ("a list of numbers", False,
                             attrgetter("area_pattern"))}
_ACTUATOR = {**_KIND, "target_id": (_S, True, attrgetter("target_id")),
             "value": ("a boolean or a number", True, attrgetter("value")),
             **_WINDOW}
_FAULT = {**_KIND, "sensor_type": (_S, True, lambda e: e.sensor_ref[0]),
          "element_id": (_S, True, lambda e: e.sensor_ref[1]),
          "param": (_N, True, attrgetter("param")), **_WINDOW}
_COMMUNICATION = {
    **_KIND, **_WINDOW,
    "all_sensors": ("a boolean", False,
                    lambda e: True if e.sensor_ref is None else None),
    "sensor_type": (_S, False, lambda e: e.sensor_ref and e.sensor_ref[0]),
    "element_id": (_S, False, lambda e: e.sensor_ref and e.sensor_ref[1])}
_UNCERTAINTY = {
    **_KIND, "target": (_S, True, attrgetter("target")),
    "params": ("an object of numbers", False, attrgetter("params")),
    "submodels": ("a list", False, lambda m: m.submodels and [
        _emit(s, _UNCERTAINTY) for s in m.submodels])}


def _read(obj, path: str, keys: dict, build=dict):
    """Check a JSON object against its key table, then build from it. A
    ConfigError the build raises gets the object's path in front."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}: unknown key '{key}'")
    for key, (kind, required, _) in keys.items():
        if key not in obj:
            if required:
                raise ConfigError(f"{path}: missing key '{key}'")
        elif not _JSON_TYPES[kind](obj[key]):
            raise ConfigError(f"{path}: '{key}' must be {kind}")
    try:
        return build(obj)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _window(o: dict) -> EventWindow:
    return EventWindow(o["start_time_s"], o["end_time_s"],
                       o.get("peak_time_s"))


def _leakage(o: dict) -> LeakageEvent:
    return LeakageEvent(
        kind=o["kind"], link_id=o["link_id"], diameter=o["diameter"],
        window=_window(o), **{key: o[key] for key in
                              ("discharge_coef", "area_pattern") if key in o})


def _actuator(o: dict) -> ActuatorEvent:
    return ActuatorEvent(kind=o["kind"], target_id=o["target_id"],
                         value=o["value"], window=_window(o))


def _fault(o: dict) -> SensorFaultEvent:
    return SensorFaultEvent(kind=o["kind"],
                            sensor_ref=(o["sensor_type"], o["element_id"]),
                            param=o["param"], window=_window(o))


def _communication(o: dict) -> CommunicationEvent:
    ref = None
    if o.get("all_sensors"):
        if "sensor_type" in o or "element_id" in o:
            raise ConfigError("all_sensors excludes a sensor ref")
    elif "sensor_type" not in o or "element_id" not in o:
        raise ConfigError("need sensor_type and element_id, or all_sensors")
    else:
        ref = (o["sensor_type"], o["element_id"])
    return CommunicationEvent(kind=o["kind"], window=_window(o),
                              sensor_ref=ref)


def _uncertainty(o: dict) -> UncertaintyModel:
    return UncertaintyModel(
        kind=o["kind"], target=o["target"], params=o.get("params"),
        submodels=[_read(s, f"submodels[{i}]", _UNCERTAINTY, _uncertainty)
                   for i, s in enumerate(o.get("submodels", []))])


def _quality(o: dict) -> QualitySpec:
    sources = tuple(o.get("source_nodes", {}).items())
    return QualitySpec(**{**o, "source_nodes": sources})


# ScenarioConfig field -> (key table, builder, event family) of each list of
# objects; the uncertainty models are no event family
_LISTS = {"leakages": (_LEAKAGE, _leakage, "leakage"),
          "actuator_events": (_ACTUATOR, _actuator, "actuator"),
          "sensor_faults": (_FAULT, _fault, "sensor_fault"),
          "communication_events": (_COMMUNICATION, _communication,
                                   "communication"),
          "uncertainties": (_UNCERTAINTY, _uncertainty, None)}
_CONFIG = {
    "network_path": (_S, True, attrgetter("network_path")),
    "simulation": ("an object", True, lambda c: _emit(c, _SIMULATION)),
    "sensors": ("an object", False, lambda c: _emit(c.sensors, _SENSORS)),
    **{name: ("a list", False, lambda c, name=name, keys=keys: [
        _emit(o, keys) for o in getattr(c, name)])
       for name, (keys, _, _) in _LISTS.items()},
    "seed": ("an integer", True, attrgetter("seed")),
    "outputs": ("an object", False, lambda c: _emit(c, _OUTPUTS) or None),
    "quality": ("an object", False,
                lambda c: c.quality and _emit(c.quality, _QUALITY))}


def _event_lists(cfg: ScenarioConfig):
    """(field, event family, events) of each event list of a config."""
    return [(name, family, getattr(cfg, name))
            for name, (_, _, family) in _LISTS.items() if family]


def _reject_constant(name: str):
    raise ConfigError(f"invalid JSON: {name} is not a number")


def config_from_json(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    _read(doc, "config", _CONFIG)
    parts = {name: tuple(_read(o, f"{name}[{i}]", keys, build)
                         for i, o in enumerate(doc.get(name, [])))
             for name, (keys, build, _) in _LISTS.items()}
    parts["sensors"] = _read(doc.get("sensors", {}), "sensors", _SENSORS,
                             lambda o: SensorPlacement(**o))
    parts.update(_read(doc.get("outputs", {}), "outputs", _OUTPUTS))
    if "quality" in doc:
        parts["quality"] = _read(doc["quality"], "quality", _QUALITY, _quality)
    # the simulation keys are ScenarioConfig fields, and the only ones its
    # own rules check
    return _read(doc["simulation"], "simulation", _SIMULATION,
                 lambda sim: ScenarioConfig(network_path=doc["network_path"],
                                            seed=doc["seed"], **sim, **parts))


def config_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(_emit(cfg, _CONFIG), indent=2) + "\n"


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from None
    cfg = config_from_json(text)
    base = os.path.dirname(os.path.abspath(path))
    if not os.path.isabs(cfg.network_path):
        cfg = replace(cfg, network_path=os.path.join(base, cfg.network_path))
    return cfg


def save_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_json(cfg))


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(config_to_json(cfg).encode()).hexdigest()


# ------------------------------------------------------------- validation

def validate_scenario(cfg: ScenarioConfig, network: Network) -> None:
    problems: list[str] = []
    if cfg.duration_s % cfg.hydraulic_time_step_s != 0:
        problems.append("duration_s must be a multiple of hydraulic_time_step_s")
    qstep = cfg.quality_time_step_s
    if qstep is None and (cfg.quality or cfg.sensors.quality_nodes):
        qstep = network.options.quality_step_s
    if qstep and cfg.hydraulic_time_step_s % qstep != 0:
        problems.append("quality_time_step_s must divide hydraulic_time_step_s")

    for name, _, events in _event_lists(cfg):
        for i, e in enumerate(events):
            if e.window.end_time > cfg.duration_s:
                problems.append(f"{name}[{i}]: window ends after duration_s")

    for i, e in enumerate(cfg.leakages):
        if e.link_id not in network.pipes:
            problems.append(f"leakages[{i}]: '{e.link_id}' is not a pipe")

    def check(path: str, rule, *args) -> None:
        try:
            rule(*args)
        except WdnflowError as exc:
            problems.append(f"{path}: {exc}")

    layout = incidence(network)
    for i, e in enumerate(cfg.actuator_events):
        check(f"actuator_events[{i}]", _link_settings, layout,
              resolve_controls((e,), e.window.start_time))
    columns = cfg.sensors.columns()
    check("sensors", RowReader, columns, layout, True)
    for name in ("sensor_faults", "communication_events"):
        for i, e in enumerate(getattr(cfg, name)):
            check(f"{name}[{i}]", _event_column, e, columns)

    if cfg.quality is not None:
        for nid, _ in cfg.quality.source_nodes:
            if nid not in layout.node_index:
                problems.append(f"quality: source node '{nid}' does not exist")

    if problems:
        raise ConfigError("; ".join(problems))


# -------------------------------------------------------------- execution

@dataclass(frozen=True)
class RunReport:
    steps: int
    iterations: dict[int, int]     # Newton iterations -> snapshots solved
    wall_time_s: float
    warnings: tuple[str, ...]
    solves: int     # snapshots solved; the rest repeated a solved one's inputs


@dataclass(frozen=True, eq=False)
class RunResult:
    config: ScenarioConfig
    scada: ScadaData
    scada_true: ScadaData
    series: StateSeries
    quality_states: list | None
    report: RunReport


class ScenarioRuntime:
    """Prepared pieces of a scenario; the batch runner and the control
    environment each build one, so both execute identical arithmetic."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        warnings: list[str] = []
        network = load_network(config.network_path, warnings=warnings)
        validate_scenario(config, network)
        self.stream = SeededStream(config.seed)
        self.report_network = apply_parameter_uncertainty(
            network, config.uncertainties, self.stream)
        self.solve_network, self.leak_junctions = split_pipes_for_leaks(
            self.report_network, [e.link_id for e in config.leakages])
        if self.leak_junctions:
            warnings.append("leak pipes were split at their midpoint;"
                            " flow sensors on them read the upstream half")
        self._junction_to_pipe = {j: p for p, j in self.leak_junctions.items()}
        # the report layout orders every projected state; the selections say
        # where each of its elements sits in the solve network's arrays
        report = self.report_layout = incidence(self.report_network)
        solve = self.solve_layout = incidence(self.solve_network)
        self._node_sel = np.array(
            [solve.node_index[n] for n in report.node_ids], dtype=np.intp)
        self._link_sel = np.array(
            [solve.link_index[l] for l in report.link_ids], dtype=np.intp)
        # junctions come first in both layouts
        self.junction_sel = self._node_sel[:len(report.junction_ids)]
        self.warnings = warnings

    def control_hook(self, t: float) -> Controls | None:
        """The overrides of the actuator events active at t."""
        if not self.config.actuator_events:
            return None
        return resolve_controls(self.config.actuator_events, t)

    def emitter_hook(self, t: float):
        coefs: dict[str, float] = {}
        for e in self.config.leakages:
            k = leak_emitter_coef(e, t)
            if k > 0.0:
                jid = self.leak_junctions[e.link_id]
                coefs[jid] = coefs.get(jid, 0.0) + k
        return coefs or None

    def make_engine(self) -> EpsEngine:
        return EpsEngine(self.solve_network, self.config.duration_s,
                         self.config.hydraulic_time_step_s,
                         self.control_hook, self.emitter_hook)

    def quality_settings(self) -> QualitySettings | None:
        cfg = self.config
        if cfg.quality is None and not cfg.sensors.quality_nodes:
            return None
        spec = cfg.quality or QualitySpec()
        k = spec.decay_rate_k
        for m_idx, m in enumerate(cfg.uncertainties):
            if m.target == "decay_rate":
                k = perturb_scalar(m, k,
                                   self.stream.child("param", m_idx,
                                                     "decay_rate"))
        return QualitySettings(
            quality_time_step=cfg.quality_time_step_s
            or self.report_network.options.quality_step_s,
            decay_rate_k=k, source_nodes=dict(spec.source_nodes))

    def truth_records(self) -> tuple[GroundTruthRecord, ...]:
        return tuple(
            GroundTruthRecord(f"{family}_{i}", e.kind, e.window.start_time,
                              e.window.end_time)
            for _, family, events in _event_lists(self.config)
            for i, e in enumerate(events))

    def make_corruptor(self, columns, times) -> RowCorruptor:
        return RowCorruptor(columns, times, list(self.config.sensor_faults),
                            list(self.config.communication_events),
                            list(self.config.uncertainties), self.stream)

    def project_series(self, series: StateSeries) -> StateSeries:
        """Restrict a solved series to the pre-split network's elements, one
        column take per field; a leak is reported under its pipe's id."""
        if not self.leak_junctions:
            return series
        report, junctions = self.report_layout, self.junction_sel
        return replace(
            series, node_ids=report.node_ids, link_ids=report.link_ids,
            junction_ids=report.junction_ids,
            flow=series.flow.take(self._link_sel, axis=1),
            head=series.head.take(self._node_sel, axis=1),
            pressure_head=series.pressure_head.take(junctions, axis=1),
            actual_demand=series.actual_demand.take(junctions, axis=1),
            leak_ids=tuple(self._junction_to_pipe.get(j, j)
                           for j in series.leak_ids))

    def project_quality(self, state: QualityState) -> QualityState:
        """Restrict a quality state of the solve network to the pre-split
        network: each split pipe's halves are joined in from-to order."""
        if not self.leak_junctions:
            return state
        conc = state.node_concentration[self._node_sel]
        conc.flags.writeable = False
        segments = dict(state.pipe_segments)
        for pid in self.leak_junctions:
            joined = np.concatenate(
                (segments[pid], segments.pop(pid + LEAK_PIPE_SUFFIX)))
            joined.flags.writeable = False
            segments[pid] = joined
        return replace(state, node_concentration=conc, pipe_segments=segments)


def build_runtime(config: ScenarioConfig) -> ScenarioRuntime:
    return ScenarioRuntime(config)


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Simulate, extract sensor readings, corrupt them, return everything."""
    t0 = time.perf_counter()
    runtime = build_runtime(config)
    engine = runtime.make_engine()
    solved = engine.run()
    series = runtime.project_series(solved)

    quality_states = None
    qsettings = runtime.quality_settings()
    if qsettings is not None:
        quality_states = [runtime.project_quality(q) for q in simulate_quality(
            solved, runtime.solve_network, qsettings)]

    scada_true = extract_readings(series, config.sensors, quality_states,
                                  ground_truth=runtime.truth_records())
    scada = corrupt(scada_true, config.sensor_faults,
                    config.communication_events, config.uncertainties,
                    runtime.stream)

    hist = engine.iteration_counts
    report = RunReport(steps=len(solved.t),
                       iterations=dict(sorted(hist.items())),
                       wall_time_s=time.perf_counter() - t0,
                       warnings=tuple(runtime.warnings),
                       solves=engine.solves)
    return RunResult(config=config, scada=scada, scada_true=scada_true,
                     series=series, quality_states=quality_states,
                     report=report)


def write_outputs(result: RunResult, out_dir: str | None = None) -> dict[str, str]:
    """Write the configured CSV outputs; returns {kind: path written}."""
    from .scada import to_csv, truth_to_csv

    def resolve(p: str) -> str:
        if out_dir is not None and not os.path.isabs(p):
            p = os.path.join(out_dir, p)
        parent = os.path.dirname(p)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return p

    written = {}
    cfg = result.config
    if cfg.scada_csv_path:
        path = resolve(cfg.scada_csv_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_csv(result.scada))
        written["scada"] = path
    if cfg.truth_csv_path:
        path = resolve(cfg.truth_csv_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(truth_to_csv(result.scada.ground_truth))
        written["truth"] = path
    return written
