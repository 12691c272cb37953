"""Sensor placement, reading extraction, and measurement corruption.

Column order is a total contract: pressure sensors first, then flow, quality,
tank level, each group sorted lexicographically by element id. Missing data
is NaN in memory and an empty field in CSV, never the text "NaN".

RowReader turns one state into one row of true values, or a series into one
row per step. RowCorruptor plans a horizon's corruption once,
then corrupts the next rows in order: sensor-noise uncertainty, then sensor
faults, then communication events. Batch corruption passes the whole series
in one call and the control environment one row per step, so both read
byte-identical values and see byte-identical draws.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UnknownSensorRefError
from .events import (
    SENSOR_TYPES,
    CommunicationEvent,
    SensorFaultEvent,
    faulted_readings,
    precedence,
)
from .hydraulics import StateSeries
from .uncertainty import SeededStream, apply_draws, noise_draws

__all__ = [
    "SensorColumn", "SensorPlacement", "GroundTruthRecord", "ScadaData",
    "RowReader", "extract_readings", "RowCorruptor", "corrupt", "to_csv",
    "from_csv", "truth_to_csv", "truth_from_csv",
]

# Each sensor type, in column order: its placement field, its unit, the state
# field it reads and the element it sits on, whose `<element>_ids` index it.
_Sensor = namedtuple("_Sensor", "placement unit state element")
_SENSOR_TABLE = dict(zip(SENSOR_TYPES, (
    _Sensor("pressure_nodes", "m", "pressure_head", "junction"),
    _Sensor("flow_links", "m3/s", "flow", "link"),
    _Sensor("quality_nodes", "mg/L", "node_concentration", "node"),
    _Sensor("tank_level_tanks", "m", "tank_level", "tank"))))


@dataclass(frozen=True)
class SensorColumn:
    sensor_type: str
    element_id: str
    unit: str

    @property
    def label(self) -> str:
        return f"{self.sensor_type}:{self.element_id}"


@dataclass(frozen=True)
class SensorPlacement:
    pressure_nodes: tuple[str, ...] = ()
    flow_links: tuple[str, ...] = ()
    quality_nodes: tuple[str, ...] = ()
    tank_level_tanks: tuple[str, ...] = ()

    def __post_init__(self):
        # sorted, so the canonical JSON form is a fixed point
        for name, *_ in _SENSOR_TABLE.values():
            ids = tuple(sorted(getattr(self, name)))
            object.__setattr__(self, name, ids)
            if len(set(ids)) != len(ids):
                raise ConfigError(f"duplicate ids in {name}")
            for eid in ids:
                if "," in eid:
                    raise ConfigError(f"{name}: id {eid!r} holds a comma,"
                                      " the CSV column separator")

    def columns(self) -> tuple[SensorColumn, ...]:
        return tuple(SensorColumn(stype, eid, sensor.unit)
                     for stype, sensor in _SENSOR_TABLE.items()
                     for eid in getattr(self, sensor.placement))


@dataclass(frozen=True)
class GroundTruthRecord:
    event_id: str
    kind: str
    start_s: float
    end_s: float


@dataclass(frozen=True, eq=False)
class ScadaData:
    times: tuple[float, ...]
    columns: tuple[SensorColumn, ...]
    values: np.ndarray           # shape (len(times), len(columns)), NaN = missing
    ground_truth: tuple[GroundTruthRecord, ...] = ()

    def __post_init__(self):
        if self.values.shape != (len(self.times), len(self.columns)):
            raise ConfigError("scada matrix shape does not match times x columns")
        self.values.flags.writeable = False

    def get_data(self) -> np.ndarray:
        return self.values.copy()

    def column_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.columns)


class RowReader:
    """Reads true sensor values: one row from a state, or one row per step
    from a StateSeries, one column gather per sensor type.

    Columns are resolved once against `ids`, anything with the node_ids,
    link_ids, junction_ids and tank_ids of what is to be read (a StateSeries,
    or a network layout). Quality columns read the node concentrations
    passed alongside: one array per state, or per series a steps x nodes
    array.
    """

    def __init__(self, columns: tuple[SensorColumn, ...], ids,
                 quality: bool = False):
        self.width = len(columns)
        self.groups: list[tuple[str, np.ndarray, np.ndarray]] = []
        for stype, sensor in _SENSOR_TABLE.items():
            cols = [c for c, col in enumerate(columns)
                    if col.sensor_type == stype]
            if not cols:
                continue
            if stype == "quality" and not quality:
                raise UnknownSensorRefError(
                    "quality sensors need a quality simulation")
            index = {e: i for i, e in enumerate(
                getattr(ids, f"{sensor.element}_ids"))}
            for c in cols:
                if columns[c].element_id not in index:
                    raise UnknownSensorRefError(
                        f"{stype} sensor '{columns[c].element_id}'"
                        f" is not a {sensor.element}")
            self.groups.append((sensor.state, np.array(cols), np.array(
                [index[columns[c].element_id] for c in cols])))

    def read(self, source, concentration=None) -> np.ndarray:
        out = np.empty(np.shape(source.t) + (self.width,))
        for attr, cols, idx in self.groups:
            values = concentration if attr == "node_concentration" \
                else getattr(source, attr)
            out[..., cols] = values[..., idx]
        return out


def extract_readings(series: StateSeries, placement: SensorPlacement,
                     quality_states=None,
                     ground_truth: tuple[GroundTruthRecord, ...] = ()) -> ScadaData:
    """True sensor values from simulation results, in contract column order.

    Pressure sensors must sit on junctions, flow sensors on links, level
    sensors on tanks; quality sensors on any node (requires quality states).
    """
    columns = placement.columns()
    reader = RowReader(columns, series, quality_states is not None)
    concentration = None if quality_states is None else np.array(
        [q.node_concentration for q in quality_states]).reshape(
            len(series.t), len(series.node_ids))
    return ScadaData(times=tuple(series.t.tolist()), columns=columns,
                     values=reader.read(series, concentration),
                     ground_truth=tuple(ground_truth))


def _event_column(event, columns: tuple[SensorColumn, ...]) -> int | slice:
    """An event's placed sensor column, or every column (a slice) for none."""
    labels = [c.label for c in columns]
    ref = event.sensor_ref and f"{event.sensor_ref[0]}:{event.sensor_ref[1]}"
    if ref is not None and ref not in labels:
        raise UnknownSensorRefError(f"no sensor '{ref}' in the placement")
    return slice(None) if ref is None else labels.index(ref)


class RowCorruptor:
    """Noise, then sensor faults, then communication events, over the rows
    of one horizon. What does not depend on the readings is planned once
    from the times: each column's noise draws, the fault and communication
    event that win each cell, and the row whose post-fault value each cell
    shows (its own; for a freeze, the row before the freeze first won the
    column; or none, a gap). corrupt_next then corrupts the next rows.
    """

    def __init__(self, columns: tuple[SensorColumn, ...], times,
                 faults: list[SensorFaultEvent],
                 comms: list[CommunicationEvent],
                 noise_models: list, stream: SeededStream):
        self.times = np.asarray(times, dtype=float)
        n, width = len(self.times), len(columns)

        def winners(events):
            """Each event's column, and the event that wins each cell."""
            cols = [_event_column(e, columns) for e in events]
            win = np.full((n, width), -1)
            for i in precedence(events):     # the last one written wins
                win[events[i].window.contains(self.times), cols[i]] = i
            return cols, win

        # per fault: its column, the rows it wins and a gaussian's draws there
        fault_cols, fault_win = winners(faults)
        self.faults = []
        for i, (e, col) in enumerate(zip(faults, fault_cols)):
            rows = np.flatnonzero(fault_win[:, col] == i)
            draws = np.zeros(len(rows)) if e.kind != "gaussian" else \
                stream.generator("fault", i).normal(0.0, e.param, len(rows))
            self.faults.append((e, col, rows, draws))

        _, comm_win = winners(comms)
        self.source = np.where(comm_win < 0, np.arange(n)[:, None], -1)
        for i, e in enumerate(comms):
            if e.kind == "freeze" and n:     # argmax needs a row
                wins = comm_win == i
                self.source = np.where(wins, wins.argmax(axis=0) - 1,
                                       self.source)

        # per noise step: whether it multiplies, and its (n, width) draws
        self.noise = []
        sensor_noise = [m for m in noise_models if m.target == "sensor_noise"]
        for mi, m in enumerate(sensor_noise):
            per_col = [noise_draws(m, stream.child("noise", mi, c.label), n)
                       for c in columns]
            self.noise += [(steps[0][0], np.column_stack([d for _, d in steps]))
                           for steps in zip(*per_col)]
        self.post_fault = np.empty((n, width))
        self.next_row = 0

    def corrupt_next(self, rows) -> np.ndarray:
        """The next len(rows) rows of the horizon, corrupted."""
        a, b = self.next_row, self.next_row + len(rows)
        if b > len(self.times):
            raise ConfigError("rows past the end of the corruptor's horizon")
        self.next_row = b
        post = self.post_fault[a:b]
        post[:] = apply_draws([(m, d[a:b]) for m, d in self.noise], rows)
        for e, col, won, draws in self.faults:
            lo, hi = np.searchsorted(won, (a, b))
            r = won[lo:hi]
            post[r - a, col] = faulted_readings(post[r - a, col], e,
                                                self.times[r], draws[lo:hi])
        src = self.source[a:b]
        out = self.post_fault[np.maximum(src, 0), np.arange(post.shape[1])]
        out[src < 0] = math.nan
        return out


def corrupt(scada: ScadaData, faults, comms, noise, stream: SeededStream) -> ScadaData:
    """New ScadaData with measurement corruption applied; truth is untouched."""
    corruptor = RowCorruptor(scada.columns, scada.times, tuple(faults),
                             tuple(comms), tuple(noise), stream)
    return replace(scada, values=corruptor.corrupt_next(scada.values))


def _number(token: str, ln_no: int) -> float:
    """A CSV number; 'nan' and 'inf' parse as floats but are rejected, so a
    gap can only be written as an empty SCADA cell."""
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {ln_no}: non-numeric value '{token}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {ln_no}: non-finite value '{token}'")
    return value


def to_csv(scada: ScadaData) -> str:
    lines = [",".join(("time_s",) + scada.column_labels())]
    # a float's repr holds "nan" only if it is NaN, which is written empty
    for row in np.column_stack((scada.times, scada.values)):
        lines.append(",".join(map(repr, row.tolist())).replace("nan", ""))
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> ScadaData:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty SCADA CSV")
    header = lines[0].split(",")
    if header[0] != "time_s":
        raise ConfigError("SCADA CSV must start with a time_s column")
    columns = []
    for label in header[1:]:
        if header.count(label) > 1:
            raise ConfigError(f"duplicate column label '{label}'")
        if ":" not in label:
            raise ConfigError(f"malformed column label '{label}'")
        stype, eid = label.split(":", 1)
        if stype not in _SENSOR_TABLE:
            raise ConfigError(f"unknown sensor type in column '{label}'")
        columns.append(SensorColumn(stype, eid, _SENSOR_TABLE[stype].unit))
    times = []
    rows = []
    for ln_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"line {ln_no}: expected {len(header)} fields, got {len(cells)}")
        t = _number(cells[0], ln_no)
        if times and t <= times[-1]:
            raise ConfigError(f"line {ln_no}: time {cells[0]} does not"
                              f" follow {times[-1]!r}")
        times.append(t)
        rows.append([math.nan if c == "" else _number(c, ln_no)
                     for c in cells[1:]])
    values = np.array(rows) if rows else np.empty((0, len(columns)))
    return ScadaData(times=tuple(times), columns=tuple(columns), values=values)


def truth_to_csv(records) -> str:
    lines = ["event_id,kind,start_s,end_s"]
    for r in records:
        lines.append(f"{r.event_id},{r.kind},{repr(float(r.start_s))},"
                     f"{repr(float(r.end_s))}")
    return "\n".join(lines) + "\n"


def truth_from_csv(text: str) -> tuple[GroundTruthRecord, ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "event_id,kind,start_s,end_s":
        raise ConfigError("malformed ground-truth CSV header")
    out = []
    for ln_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            raise ConfigError(f"line {ln_no}: expected 4 fields")
        start, end = _number(cells[2], ln_no), _number(cells[3], ln_no)
        if end <= start:
            raise ConfigError(f"line {ln_no}: end_s {cells[3]} is not after"
                              f" start_s {cells[2]}")
        out.append(GroundTruthRecord(cells[0], cells[1], start, end))
    return tuple(out)
