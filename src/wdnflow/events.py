"""Event taxonomy and its hooks into simulation and readings.

Leakages and actuator events alter hydraulic truth; sensor faults and
communication events only corrupt the extracted readings. Activation windows
are inclusive at start_time and exclusive at end_time. When several active
events of one family target one element, the one of highest precedence acts:
the later start wins, list order breaks ties (`precedence`). An actuator
event takes every setting of its link, so a later speed event on a pump also
ends an earlier stop of it. Leaks are the one family whose overlapping events
add: two leaks on one pipe are two orifices at its midpoint junction, and
their emitter coefficients sum. Every number an event holds (window times,
leak sizes, fault params) is checked by `network._finite` and stored as a
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UnknownTargetError
from .hydraulics import G, Controls, actuator_value
from .network import Junction, Network, Pipe, _finite, _node_height

__all__ = [
    "SENSOR_TYPES", "EVENT_REGISTRY", "event_registry", "EventWindow",
    "LeakageEvent", "ActuatorEvent", "SensorFaultEvent", "CommunicationEvent",
    "leak_effective_area", "leak_flow", "leak_emitter_coef",
    "actuator_value", "CONTROL_FIELDS", "precedence", "resolve_controls",
    "faulted_readings", "split_pipes_for_leaks",
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
            if value is not None or name != "peak_time":
                object.__setattr__(self, name, _finite(
                    value, f"event window {name}", 0.0))
        if not self.start_time < self.end_time:
            raise ConfigError(f"event window needs start < end, got"
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
        object.__setattr__(self, "diameter",
                           _finite(self.diameter, "leak diameter", 0.0, True))
        object.__setattr__(self, "discharge_coef", _finite(
            self.discharge_coef, "discharge coefficient", 0.0, True))
        if self.area_pattern is not None:
            object.__setattr__(self, "area_pattern", tuple(
                _finite(v, "area_pattern value") for v in self.area_pattern))
        if self.kind == "incipient" and self.window.peak_time is None:
            raise ConfigError("incipient leakage needs a peak_time")
        if self.kind == "pattern":
            if not self.area_pattern:
                raise ConfigError("pattern leakage needs a non-empty area_pattern")
            if any(not 0.0 <= v <= 1.0 for v in self.area_pattern):
                raise ConfigError("area_pattern values must lie in [0, 1]")
        elif self.area_pattern is not None:
            raise ConfigError(f"{self.kind} leakage takes no area_pattern")

    @property
    def area(self) -> float:
        return math.pi * (self.diameter / 2.0) ** 2


def _no_peak(window: EventWindow, family: str) -> None:
    """Only a leak ramps to a peak; no other event reads one."""
    if window.peak_time is not None:
        raise ConfigError(f"{family} events take no peak_time")


@dataclass(frozen=True)
class ActuatorEvent:
    kind: str
    target_id: str
    value: bool | float
    window: EventWindow

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["actuator"]:
            raise ConfigError(f"unknown actuator event kind '{self.kind}'")
        _no_peak(self.window, "actuator")
        object.__setattr__(self, "value",
                           actuator_value(self.kind, self.value))


@dataclass(frozen=True)
class SensorFaultEvent:
    kind: str
    sensor_ref: tuple[str, str]   # (sensor_type, element_id)
    param: float
    window: EventWindow

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["sensor_fault"]:
            raise ConfigError(f"unknown sensor fault kind '{self.kind}'")
        _no_peak(self.window, "sensor fault")
        if self.sensor_ref[0] not in SENSOR_TYPES:
            raise ConfigError(f"unknown sensor type '{self.sensor_ref[0]}'")
        # a gaussian fault's param is its sigma
        object.__setattr__(self, "param", _finite(
            self.param, f"{self.kind} fault param",
            0.0 if self.kind == "gaussian" else -math.inf))


@dataclass(frozen=True)
class CommunicationEvent:
    kind: str
    window: EventWindow
    sensor_ref: tuple[str, str] | None = None   # None = all sensors

    def __post_init__(self):
        if self.kind not in EVENT_REGISTRY["communication"]:
            raise ConfigError(f"unknown communication event kind '{self.kind}'")
        _no_peak(self.window, "communication")
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


# actuator event kind -> the Controls map it overrides
CONTROL_FIELDS = {"pump_state": "pump_running", "pump_speed": "pump_speed",
                  "valve_state": "valve_open"}


def precedence(events) -> list[int]:
    """Indices of the events from lowest to highest precedence: the later
    start wins, then the later listed."""
    return sorted(range(len(events)),
                  key=lambda i: (events[i].window.start_time, i))


def resolve_controls(events, t: float) -> Controls:
    """The overrides of the actuator events active at t. On each link they
    name, the active event of highest precedence sets the link, and no
    lower event's setting of it stays in any map."""
    winners = {}
    for i in precedence(events):
        if events[i].window.contains(t):
            winners[events[i].target_id] = events[i]
    maps = {name: {} for name in CONTROL_FIELDS.values()}
    for e in winners.values():
        maps[CONTROL_FIELDS[e.kind]][e.target_id] = e.value
    return Controls(**maps)


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


def split_pipes_for_leaks(network: Network,
                          pipe_ids) -> tuple[Network, dict[str, str]]:
    """Insert a zero-demand junction at the midpoint of each leaking pipe.

    The first half keeps the original pipe id, so reported flows for the pipe
    stay addressable; the second half and the junction carry reserved suffixes.
    Returns the rebuilt network and pipe id -> leak junction id; with no
    pipe to split, the network itself.
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
    if not mapping:
        return network, mapping
    return replace(network, junctions=junctions, pipes=pipes), mapping
