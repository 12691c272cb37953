"""Event taxonomy and its hooks into simulation and readings.

Leakages and actuator events alter hydraulic truth; sensor faults and
communication events only corrupt the extracted readings. Activation windows
are inclusive at start_time and exclusive at end_time. When several events of
the same family target the same element at the same time, the event with the
later start wins; list order breaks ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UnknownTargetError
from .hydraulics import G, Controls
from .network import Junction, Network, Pipe

__all__ = [
    "SENSOR_TYPES", "EVENT_REGISTRY", "event_registry", "EventWindow",
    "LeakageEvent", "ActuatorEvent", "SensorFaultEvent", "CommunicationEvent",
    "leak_effective_area", "leak_flow", "leak_emitter_coef",
    "apply_actuator_event", "precedence", "resolve_controls",
    "winning_event", "faulted_readings", "apply_sensor_fault",
    "split_pipes_for_leaks",
    "LEAK_JUNCTION_SUFFIX", "LEAK_PIPE_SUFFIX",
]

SENSOR_TYPES = ("pressure", "flow", "quality", "level")

EVENT_REGISTRY: dict[str, tuple[str, ...]] = {
    "leakage": ("abrupt", "incipient", "pattern"),
    "actuator": ("pump_state", "pump_speed", "valve_state"),
    "sensor_fault": ("offset", "drift", "gaussian", "gain", "stuck_zero"),
    "communication": ("data_loss", "freeze"),
}

LEAK_JUNCTION_SUFFIX = "__leak"
LEAK_PIPE_SUFFIX = "__leakb"


def event_registry() -> dict[str, tuple[str, ...]]:
    """All implemented event kinds, grouped by family."""
    return dict(EVENT_REGISTRY)


@dataclass(frozen=True)
class EventWindow:
    start_time: float
    end_time: float
    peak_time: float | None = None

    def __post_init__(self):
        for name in ("start_time", "end_time", "peak_time"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        if not 0 <= self.start_time < self.end_time < math.inf:
            raise ConfigError(
                f"event window needs 0 <= start < end < inf, got"
                f" [{self.start_time}, {self.end_time})")
        if self.peak_time is not None and \
                not self.start_time <= self.peak_time <= self.end_time:
            raise ConfigError("peak_time must lie inside the window")

    def contains(self, t):
        """Whether t lies in the window; elementwise for an array of times."""
        return (self.start_time <= t) & (t < self.end_time)


@dataclass(frozen=True)
class LeakageEvent:
    kind: str
    link_id: str
    diameter: float
    window: EventWindow
    discharge_coef: float = 0.75
    area_pattern: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["leakage"]:
            raise ConfigError(f"unknown leakage kind '{self.kind}'")
        object.__setattr__(self, "diameter", float(self.diameter))
        object.__setattr__(self, "discharge_coef", float(self.discharge_coef))
        if self.area_pattern is not None:
            object.__setattr__(self, "area_pattern",
                               tuple(float(v) for v in self.area_pattern))
        if not 0 < self.diameter < math.inf:
            raise ConfigError("leak diameter must be finite and > 0")
        if not 0 < self.discharge_coef < math.inf:
            raise ConfigError("discharge coefficient must be finite and > 0")
        if self.kind == "incipient" and self.window.peak_time is None:
            raise ConfigError("incipient leakage needs a peak_time")
        if self.kind == "pattern":
            if not self.area_pattern:
                raise ConfigError("pattern leakage needs a non-empty area_pattern")
            if any(not 0.0 <= v <= 1.0 for v in self.area_pattern):
                raise ConfigError("area_pattern values must lie in [0, 1]")

    @property
    def area(self) -> float:
        return math.pi * (self.diameter / 2.0) ** 2


@dataclass(frozen=True)
class ActuatorEvent:
    kind: str
    target_id: str
    value: bool | float
    window: EventWindow

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["actuator"]:
            raise ConfigError(f"unknown actuator event kind '{self.kind}'")
        if self.kind == "pump_speed":
            if isinstance(self.value, bool) or \
                    not isinstance(self.value, (int, float)) or \
                    not 0 <= self.value < math.inf:
                raise ConfigError("pump_speed value must be a finite number"
                                  " >= 0")
            object.__setattr__(self, "value", float(self.value))
        elif not isinstance(self.value, bool):
            raise ConfigError(f"{self.kind} value must be a boolean")


@dataclass(frozen=True)
class SensorFaultEvent:
    kind: str
    sensor_ref: tuple[str, str]   # (sensor_type, element_id)
    param: float
    window: EventWindow

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["sensor_fault"]:
            raise ConfigError(f"unknown sensor fault kind '{self.kind}'")
        if self.sensor_ref[0] not in SENSOR_TYPES:
            raise ConfigError(f"unknown sensor type '{self.sensor_ref[0]}'")
        object.__setattr__(self, "param", float(self.param))
        if not math.isfinite(self.param):
            raise ConfigError("sensor fault param must be finite")
        if self.kind == "gaussian" and self.param < 0:
            raise ConfigError("gaussian fault sigma must be >= 0")


@dataclass(frozen=True)
class CommunicationEvent:
    kind: str
    window: EventWindow
    sensor_ref: tuple[str, str] | None = None   # None = all sensors

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["communication"]:
            raise ConfigError(f"unknown communication event kind '{self.kind}'")
        if self.sensor_ref is not None and self.sensor_ref[0] not in SENSOR_TYPES:
            raise ConfigError(f"unknown sensor type '{self.sensor_ref[0]}'")


def leak_effective_area(event: LeakageEvent, t: float) -> float:
    """Orifice area opened by the leak at time t (0 outside the window)."""
    w = event.window
    if not w.contains(t):
        return 0.0
    full = event.area
    if event.kind == "abrupt":
        return full
    if event.kind == "incipient":
        peak = w.peak_time
        if t >= peak or peak <= w.start_time:
            return full
        return full * (t - w.start_time) / (peak - w.start_time)
    # pattern: the area pattern spans the window evenly
    frac = (t - w.start_time) / (w.end_time - w.start_time)
    idx = min(int(frac * len(event.area_pattern)), len(event.area_pattern) - 1)
    return full * event.area_pattern[idx]


def leak_flow(area: float, pressure_head: float, discharge_coef: float = 0.75) -> float:
    """Orifice discharge q = Cd A sqrt(2 g h), zero for non-positive head."""
    if area <= 0.0 or pressure_head <= 0.0:
        return 0.0
    return discharge_coef * area * math.sqrt(2.0 * G * pressure_head)


def leak_emitter_coef(event: LeakageEvent, t: float) -> float:
    """Coefficient k of the solver's emitter law q = k sqrt(pressure head)."""
    return event.discharge_coef * leak_effective_area(event, t) * math.sqrt(2.0 * G)


def apply_actuator_event(controls: Controls, event: ActuatorEvent,
                         t: float) -> Controls:
    """Controls with the event applied when active; unchanged outside its window."""
    if not event.window.contains(t):
        return controls
    if event.kind == "pump_state":
        if event.target_id not in controls.pump_running:
            raise UnknownTargetError(f"no pump '{event.target_id}'")
        running = dict(controls.pump_running)
        running[event.target_id] = bool(event.value)
        return replace(controls, pump_running=running)
    if event.kind == "pump_speed":
        if event.target_id not in controls.pump_speed:
            raise UnknownTargetError(f"no pump '{event.target_id}'")
        speeds = dict(controls.pump_speed)
        speeds[event.target_id] = float(event.value)
        return replace(controls, pump_speed=speeds)
    if event.target_id not in controls.valve_open:
        raise UnknownTargetError(f"no valve '{event.target_id}'")
    opens = dict(controls.valve_open)
    opens[event.target_id] = bool(event.value)
    return replace(controls, valve_open=opens)


def precedence(events) -> list[int]:
    """Indices of the events from lowest to highest precedence: the later
    start wins, then the later listed."""
    return sorted(range(len(events)),
                  key=lambda i: (events[i].window.start_time, i))


def resolve_controls(baseline: Controls, events: list[ActuatorEvent],
                     t: float) -> Controls:
    """Apply active actuator events over the baseline in precedence order."""
    controls = baseline
    for i in precedence(events):
        controls = apply_actuator_event(controls, events[i], t)
    return controls


def winning_event(events, t: float):
    """The single active event that takes precedence at t, or None."""
    active = [i for i in precedence(events) if events[i].window.contains(t)]
    return events[active[-1]] if active else None


def faulted_readings(readings, event: SensorFaultEvent, times, noise):
    """In-window readings at their times under the fault; `noise` holds a
    gaussian fault's draws, one per reading."""
    if event.kind == "offset":
        return readings + event.param
    if event.kind == "drift":
        return readings + event.param * (times - event.window.start_time) / 3600.0
    if event.kind == "gaussian":
        return readings + noise
    if event.kind == "gain":
        return readings * event.param
    return np.zeros_like(readings)   # stuck_zero


def apply_sensor_fault(reading: float, event: SensorFaultEvent, t: float,
                       rng=None) -> float:
    """Faulted reading; the true value passes through outside the window."""
    if not event.window.contains(t):
        return reading
    if event.kind == "gaussian" and rng is None:
        raise ConfigError("gaussian fault needs a random generator")
    noise = rng.normal(0.0, event.param) if event.kind == "gaussian" else None
    return float(faulted_readings(reading, event, t, noise))


def _node_height(network: Network, node_id: str) -> float:
    if node_id in network.reservoirs:
        return network.reservoirs[node_id].head
    return network.node(node_id).elevation


def split_pipes_for_leaks(network: Network,
                          pipe_ids) -> tuple[Network, dict[str, str]]:
    """Insert a zero-demand junction at the midpoint of each leaking pipe.

    The first half keeps the original pipe id, so reported flows for the pipe
    stay addressable; the second half and the junction carry reserved suffixes.
    Returns the rebuilt network and pipe id -> leak junction id.
    """
    mapping: dict[str, str] = {}
    junctions = dict(network.junctions)
    pipes = dict(network.pipes)
    node_ids = set(network.node_ids())
    link_ids = set(network.link_ids())
    for pid in sorted(set(pipe_ids)):
        if pid not in pipes:
            raise UnknownTargetError(f"leak target '{pid}' is not a pipe")
        pipe = pipes[pid]
        jid = pid + LEAK_JUNCTION_SUFFIX
        bid = pid + LEAK_PIPE_SUFFIX
        if jid in node_ids or bid in link_ids:
            raise ConfigError(f"reserved leak id '{jid}' collides with the network")
        elevation = (_node_height(network, pipe.from_node)
                     + _node_height(network, pipe.to_node)) / 2.0
        junctions[jid] = Junction(jid, elevation)
        pipes[pid] = Pipe(pid, pipe.from_node, jid, pipe.length / 2.0,
                          pipe.diameter, pipe.roughness, pipe.open)
        pipes[bid] = Pipe(bid, jid, pipe.to_node, pipe.length / 2.0,
                          pipe.diameter, pipe.roughness, pipe.open)
        mapping[pid] = jid
    return replace(network, junctions=junctions, pipes=pipes), mapping
