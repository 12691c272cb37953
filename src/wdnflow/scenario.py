"""Scenario configuration and end-to-end dataset generation.

A scenario bundles a network, a simulation horizon, sensor placement, event
lists, uncertainty models and a seed. Running it produces the true hydraulic
series, optional quality series, corrupted SCADA readings and ground-truth
event records.

`ScenarioConfig` is the one configuration surface of a run. Each rule is
stated once: the JSON reader checks shapes only (each object's keys against
a table of JSON type and whether the key is required); every single-field
value rule lives in the dataclass built from it, and the reader puts the
object path in front of the ConfigError that dataclass raises; and
`validate_scenario` makes the cross-field and network checks. The dataclasses
store numbers as floats (durations as whole seconds), so the JSON form is
canonical for every config: emitting, parsing and re-emitting is a fixed
point, and the digest of that form is stamped onto the result series.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace, field

import numpy as np

from .errors import ConfigError
from .inp import load_network
from .network import Network, incidence
from .hydraulics import (
    EpsEngine, StateSeries, HydraulicState, baseline_controls,
)
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
    GroundTruthRecord, RowCorruptor, ScadaData, SensorPlacement, corrupt,
    extract_readings,
)

__all__ = [
    "ScenarioConfig", "QualitySpec", "RunReport", "RunResult", "to_seconds",
    "config_from_json", "config_to_json", "load_config", "save_config",
    "config_digest", "validate_scenario", "build_runtime", "ScenarioRuntime",
    "run_scenario", "write_outputs",
]


def to_seconds(days: float = 0, hours: float = 0, minutes: float = 0,
               seconds: float = 0) -> int:
    total = days * 86400 + hours * 3600 + minutes * 60 + seconds
    if not math.isfinite(total) or total != int(total):
        raise ConfigError(f"{total} s is not a whole number of seconds")
    return int(total)


@dataclass(frozen=True)
class QualitySpec:
    decay_rate_k: float = 0.0
    source_nodes: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        # sorted floats, so the canonical JSON form is a fixed point
        sources = tuple(sorted((nid, float(c))
                               for nid, c in self.source_nodes))
        object.__setattr__(self, "decay_rate_k", float(self.decay_rate_k))
        object.__setattr__(self, "source_nodes", sources)
        if not 0 <= self.decay_rate_k < math.inf:
            raise ConfigError("decay_rate_k must be finite and >= 0")
        if len(dict(sources)) != len(sources):
            raise ConfigError("duplicate ids in source_nodes")
        for nid, c in sources:
            if not 0 <= c < math.inf:
                raise ConfigError(f"source concentration at '{nid}' must be"
                                  " finite and >= 0")


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

_STR = ("a string", True)
_NUM = ("a number", True)
_WINDOW = {"start_time_s": _NUM, "end_time_s": _NUM}
_CONFIG = {"network_path": _STR, "simulation": ("an object", True),
           "sensors": ("an object", False), "leakages": ("a list", False),
           "actuator_events": ("a list", False),
           "sensor_faults": ("a list", False),
           "communication_events": ("a list", False),
           "uncertainties": ("a list", False), "seed": ("an integer", True),
           "outputs": ("an object", False), "quality": ("an object", False)}
_SIMULATION = {"duration_s": _NUM,
               "hydraulic_time_step_s": ("a number", False),
               "quality_time_step_s": ("a number", False)}
_SENSORS = {key: ("a list of strings", False) for key in (
    "pressure_nodes", "flow_links", "quality_nodes", "tank_level_tanks")}
_OUTPUTS = {"scada_csv_path": ("a string", False),
            "truth_csv_path": ("a string", False)}
_QUALITY = {"decay_rate_k": ("a number", False),
            "source_nodes": ("an object of numbers", False)}
_LEAKAGE = {"kind": _STR, "link_id": _STR, "diameter": _NUM, **_WINDOW,
            "peak_time_s": ("a number", False),
            "discharge_coef": ("a number", False),
            "area_pattern": ("a list of numbers", False)}
_ACTUATOR = {"kind": _STR, "target_id": _STR,
             "value": ("a boolean or a number", True), **_WINDOW}
_FAULT = {"kind": _STR, "sensor_type": _STR, "element_id": _STR,
          "param": _NUM, **_WINDOW}
_COMMUNICATION = {"kind": _STR, "sensor_type": ("a string", False),
                  "element_id": ("a string", False),
                  "all_sensors": ("a boolean", False), **_WINDOW}
_UNCERTAINTY = {"kind": _STR, "target": _STR,
                "params": ("an object of numbers", False),
                "submodels": ("a list", False)}


def _read(obj, path: str, keys: dict, build=dict):
    """Check a JSON object against its key table, then build from it. A
    ConfigError the build raises gets the object's path in front."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}: unknown key '{key}'")
    for key, (kind, required) in keys.items():
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
    subs = o.get("submodels")
    return UncertaintyModel(
        kind=o["kind"], target=o["target"], params=o.get("params") or None,
        submodels=tuple(_read(s, f"submodels[{i}]", _UNCERTAINTY, _uncertainty)
                        for i, s in enumerate(subs)) if subs else None)


def _sensors(o: dict) -> SensorPlacement:
    return SensorPlacement(**{k: tuple(sorted(ids)) for k, ids in o.items()})


def _quality(o: dict) -> QualitySpec:
    sources = tuple(o.get("source_nodes", {}).items())
    return QualitySpec(**{**o, "source_nodes": sources})


# ScenarioConfig field -> (key table, builder) of each list of objects
_LISTS = {"leakages": (_LEAKAGE, _leakage),
          "actuator_events": (_ACTUATOR, _actuator),
          "sensor_faults": (_FAULT, _fault),
          "communication_events": (_COMMUNICATION, _communication),
          "uncertainties": (_UNCERTAINTY, _uncertainty)}


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
             for name, (keys, build) in _LISTS.items()}
    parts["sensors"] = _read(doc.get("sensors", {}), "sensors", _SENSORS,
                             _sensors)
    parts.update(_read(doc.get("outputs", {}), "outputs", _OUTPUTS))
    if "quality" in doc:
        parts["quality"] = _read(doc["quality"], "quality", _QUALITY, _quality)
    # the simulation keys are ScenarioConfig fields, and the only ones its
    # own rules check
    return _read(doc["simulation"], "simulation", _SIMULATION,
                 lambda sim: ScenarioConfig(network_path=doc["network_path"],
                                            seed=doc["seed"], **sim, **parts))


def _window_json(w: EventWindow) -> dict:
    out = {"start_time_s": w.start_time, "end_time_s": w.end_time}
    if w.peak_time is not None:
        out["peak_time_s"] = w.peak_time
    return out


def _uncertainty_json(m: UncertaintyModel) -> dict:
    out = {"kind": m.kind, "target": m.target}
    if m.params:
        out["params"] = {k: m.params[k] for k in sorted(m.params)}
    if m.submodels:
        out["submodels"] = [_uncertainty_json(s) for s in m.submodels]
    return out


def config_to_json(cfg: ScenarioConfig) -> str:
    sim = {"duration_s": cfg.duration_s,
           "hydraulic_time_step_s": cfg.hydraulic_time_step_s}
    if cfg.quality_time_step_s is not None:
        sim["quality_time_step_s"] = cfg.quality_time_step_s
    doc = {
        "network_path": cfg.network_path,
        "simulation": sim,
        "sensors": {
            "pressure_nodes": sorted(cfg.sensors.pressure_nodes),
            "flow_links": sorted(cfg.sensors.flow_links),
            "quality_nodes": sorted(cfg.sensors.quality_nodes),
            "tank_level_tanks": sorted(cfg.sensors.tank_level_tanks),
        },
        "leakages": [],
        "actuator_events": [],
        "sensor_faults": [],
        "communication_events": [],
        "uncertainties": [_uncertainty_json(m) for m in cfg.uncertainties],
        "seed": cfg.seed,
    }
    for e in cfg.leakages:
        obj = {"kind": e.kind, "link_id": e.link_id, "diameter": e.diameter,
               **_window_json(e.window), "discharge_coef": e.discharge_coef}
        if e.area_pattern is not None:
            obj["area_pattern"] = list(e.area_pattern)
        doc["leakages"].append(obj)
    for e in cfg.actuator_events:
        doc["actuator_events"].append(
            {"kind": e.kind, "target_id": e.target_id, "value": e.value,
             **_window_json(e.window)})
    for e in cfg.sensor_faults:
        doc["sensor_faults"].append(
            {"kind": e.kind, "sensor_type": e.sensor_ref[0],
             "element_id": e.sensor_ref[1], "param": e.param,
             **_window_json(e.window)})
    for e in cfg.communication_events:
        obj = {"kind": e.kind, **_window_json(e.window)}
        if e.sensor_ref is None:
            obj["all_sensors"] = True
        else:
            obj["sensor_type"], obj["element_id"] = e.sensor_ref
        doc["communication_events"].append(obj)
    if cfg.scada_csv_path is not None or cfg.truth_csv_path is not None:
        outputs = {}
        if cfg.scada_csv_path is not None:
            outputs["scada_csv_path"] = cfg.scada_csv_path
        if cfg.truth_csv_path is not None:
            outputs["truth_csv_path"] = cfg.truth_csv_path
        doc["outputs"] = outputs
    if cfg.quality is not None:
        doc["quality"] = {"decay_rate_k": cfg.quality.decay_rate_k,
                          "source_nodes": dict(cfg.quality.source_nodes)}
    return json.dumps(doc, indent=2) + "\n"


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
    if qstep is not None and cfg.hydraulic_time_step_s % qstep != 0:
        problems.append("quality_time_step_s must divide hydraulic_time_step_s")

    for name, events in (("leakages", cfg.leakages),
                         ("actuator_events", cfg.actuator_events),
                         ("sensor_faults", cfg.sensor_faults),
                         ("communication_events", cfg.communication_events)):
        for i, e in enumerate(events):
            if e.window.end_time > cfg.duration_s:
                problems.append(f"{name}[{i}]: window ends after duration_s")

    for i, e in enumerate(cfg.leakages):
        if e.link_id not in network.pipes:
            problems.append(f"leakages[{i}]: '{e.link_id}' is not a pipe")
    for i, e in enumerate(cfg.actuator_events):
        if e.kind in ("pump_state", "pump_speed"):
            if e.target_id not in network.pumps:
                problems.append(f"actuator_events[{i}]: no pump"
                                f" '{e.target_id}'")
        elif e.target_id not in network.valves:
            problems.append(f"actuator_events[{i}]: no valve '{e.target_id}'")

    links = set(network.link_ids())
    nodes = set(network.node_ids())
    for nid in cfg.sensors.pressure_nodes:
        if nid not in network.junctions:
            problems.append(f"sensors: pressure node '{nid}' is not a junction")
    for lid in cfg.sensors.flow_links:
        if lid not in links:
            problems.append(f"sensors: flow link '{lid}' does not exist")
    for nid in cfg.sensors.quality_nodes:
        if nid not in nodes:
            problems.append(f"sensors: quality node '{nid}' does not exist")
    for tid in cfg.sensors.tank_level_tanks:
        if tid not in network.tanks:
            problems.append(f"sensors: level tank '{tid}' does not exist")

    labels = {c.label for c in cfg.sensors.columns()}
    for i, e in enumerate(cfg.sensor_faults):
        ref = f"{e.sensor_ref[0]}:{e.sensor_ref[1]}"
        if ref not in labels:
            problems.append(f"sensor_faults[{i}]: no sensor '{ref}'"
                            " in the placement")
    for i, e in enumerate(cfg.communication_events):
        if e.sensor_ref is not None:
            ref = f"{e.sensor_ref[0]}:{e.sensor_ref[1]}"
            if ref not in labels:
                problems.append(f"communication_events[{i}]: no sensor"
                                f" '{ref}' in the placement")

    if cfg.quality is not None:
        for nid, _ in cfg.quality.source_nodes:
            if nid not in nodes:
                problems.append(f"quality: source node '{nid}' does not exist")

    if problems:
        raise ConfigError("; ".join(problems))


# -------------------------------------------------------------- execution

@dataclass(frozen=True)
class RunReport:
    steps: int
    iterations: dict[int, int]
    wall_time_s: float
    warnings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class RunResult:
    config: ScenarioConfig
    scada: ScadaData
    scada_true: ScadaData
    series: StateSeries
    quality_states: list | None
    report: RunReport


class ScenarioRuntime:
    """Prepared pieces of a scenario, shared by the batch runner and the
    control environment so both execute identical arithmetic."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        warnings: list[str] = []
        network = load_network(config.network_path, warnings=warnings)
        validate_scenario(config, network)
        self.stream = SeededStream(config.seed)
        self.report_network = apply_parameter_uncertainty(
            network, config.uncertainties, self.stream)
        leak_pipe_ids = sorted({e.link_id for e in config.leakages})
        if leak_pipe_ids:
            self.solve_network, self.leak_junctions = split_pipes_for_leaks(
                self.report_network, leak_pipe_ids)
            warnings.append("leak pipes were split at their midpoint;"
                            " flow sensors on them read the upstream half")
        else:
            self.solve_network, self.leak_junctions = self.report_network, {}
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
        self._junction_sel = self._node_sel[:len(report.junction_ids)]
        self._baseline = baseline_controls(self.solve_network)
        self.digest = config_digest(config)
        self.warnings = warnings

    def control_hook(self, t: float):
        return resolve_controls(self._baseline,
                                list(self.config.actuator_events), t)

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
            quality_time_step=cfg.quality_time_step_s or 60,
            decay_rate_k=k, source_nodes=dict(spec.source_nodes))

    def truth_records(self) -> tuple[GroundTruthRecord, ...]:
        records = []
        for name, events in (("leakage", self.config.leakages),
                             ("actuator", self.config.actuator_events),
                             ("sensor_fault", self.config.sensor_faults),
                             ("communication", self.config.communication_events)):
            for i, e in enumerate(events):
                records.append(GroundTruthRecord(
                    f"{name}_{i}", e.kind, e.window.start_time,
                    e.window.end_time))
        return tuple(records)

    def make_corruptor(self, columns, times) -> RowCorruptor:
        return RowCorruptor(columns, times, list(self.config.sensor_faults),
                            list(self.config.communication_events),
                            list(self.config.uncertainties), self.stream)

    def project_state(self, state: HydraulicState) -> HydraulicState:
        """Restrict a solved state to the pre-split network's elements."""
        if not self.leak_junctions:
            return state
        leak = {self._junction_to_pipe.get(j, j): q
                for j, q in state.leak_flow.items()}
        return replace(
            state, flow=state.flow[self._link_sel],
            head=state.head[self._node_sel],
            pressure_head=state.pressure_head[self._junction_sel],
            actual_demand=state.actual_demand[self._junction_sel],
            leak_flow=leak)

    def project_series(self, series: StateSeries) -> StateSeries:
        if not self.leak_junctions:
            return series
        report = self.report_layout
        return StateSeries(
            node_ids=report.node_ids, link_ids=report.link_ids,
            junction_ids=report.junction_ids, tank_ids=report.tank_ids,
            states=tuple(self.project_state(s) for s in series.states),
            config_digest=series.config_digest)

    def project_quality(self, state: QualityState) -> QualityState:
        """Restrict a quality state of the solve network to the pre-split
        network: each split pipe's halves are joined in from-to order."""
        if not self.leak_junctions:
            return state
        conc = state.node_concentration[self._node_sel]
        conc.flags.writeable = False
        segments = dict(state.pipe_segments)
        for pid in self.leak_junctions:
            segments[pid] += segments.pop(pid + LEAK_PIPE_SUFFIX)
        return replace(state, node_concentration=conc, pipe_segments=segments)


def build_runtime(config: ScenarioConfig) -> ScenarioRuntime:
    return ScenarioRuntime(config)


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Simulate, extract sensor readings, corrupt them, return everything."""
    t0 = time.perf_counter()
    runtime = build_runtime(config)
    engine = runtime.make_engine()
    solved = engine.run(config_digest=runtime.digest)
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

    hist = Counter(s.iterations for s in solved.states)
    report = RunReport(steps=len(solved.states),
                       iterations=dict(sorted(hist.items())),
                       wall_time_s=time.perf_counter() - t0,
                       warnings=tuple(runtime.warnings))
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
