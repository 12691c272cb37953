"""Sensor placement, reading extraction, and measurement corruption.

Column order is a total contract: pressure sensors first, then flow, quality,
tank level, each group sorted lexicographically by element id. Missing data
is NaN in memory and an empty field in CSV, never the text "NaN".

Reading and corruption each have a single row-at-a-time implementation:
RowReader turns one state into one row of true values, and RowCorruptor
corrupts one row. Batch extraction and batch corruption just sweep them over
the series, so the control environment reads byte-identical values and sees
byte-identical draws.

Corruption applies per cell in a fixed order: sensor-noise uncertainty, then
sensor faults, then communication events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnknownSensorRefError
from .events import (
    CommunicationEvent,
    SensorFaultEvent,
    apply_sensor_fault,
    winning_index,
)
from .hydraulics import StateSeries
from .uncertainty import SeededStream, SeriesPerturber

__all__ = [
    "SensorColumn", "SensorPlacement", "GroundTruthRecord", "ScadaData",
    "RowReader", "extract_readings", "RowCorruptor", "corrupt", "to_csv",
    "from_csv", "truth_to_csv", "truth_from_csv",
]

_UNITS = {"pressure": "m", "flow": "m3/s", "quality": "mg/L", "level": "m"}


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
        for name in ("pressure_nodes", "flow_links", "quality_nodes",
                     "tank_level_tanks"):
            ids = getattr(self, name)
            object.__setattr__(self, name, tuple(ids))
            if len(set(ids)) != len(ids):
                raise ConfigError(f"duplicate ids in {name}")

    def columns(self) -> tuple[SensorColumn, ...]:
        cols = []
        for stype, ids in (("pressure", self.pressure_nodes),
                           ("flow", self.flow_links),
                           ("quality", self.quality_nodes),
                           ("level", self.tank_level_tanks)):
            for eid in sorted(ids):
                cols.append(SensorColumn(stype, eid, _UNITS[stype]))
        return tuple(cols)


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


# sensor type -> (state field, id tuple it indexes, what the element must be)
_SOURCES = {"pressure": ("pressure_head", "junction_ids", "a junction"),
            "flow": ("flow", "link_ids", "a link"),
            "quality": ("node_concentration", "node_ids", "a node"),
            "level": ("tank_level", "tank_ids", "a tank")}


class RowReader:
    """Reads one state into one row of true sensor values.

    Columns are resolved once against `ids`, anything with the node_ids,
    link_ids, junction_ids and tank_ids of the states to be read (a
    StateSeries, or the network layout a ScenarioRuntime projects onto).
    Quality columns read the quality state passed alongside the hydraulic
    state.
    """

    def __init__(self, columns: tuple[SensorColumn, ...], ids,
                 quality: bool = False):
        self.width = len(columns)
        self.groups: list[tuple[str, np.ndarray, np.ndarray]] = []
        for stype, (attr, id_attr, what) in _SOURCES.items():
            cols = [c for c, col in enumerate(columns)
                    if col.sensor_type == stype]
            if not cols:
                continue
            if stype == "quality" and not quality:
                raise UnknownSensorRefError(
                    "quality sensors need a quality simulation")
            index = {e: i for i, e in enumerate(getattr(ids, id_attr))}
            for c in cols:
                if columns[c].element_id not in index:
                    raise UnknownSensorRefError(
                        f"{stype} sensor '{columns[c].element_id}'"
                        f" is not {what}")
            self.groups.append((attr, np.array(cols), np.array(
                [index[columns[c].element_id] for c in cols])))

    def read(self, state, quality_state=None) -> np.ndarray:
        row = np.empty(self.width)
        for attr, cols, idx in self.groups:
            src = quality_state if attr == "node_concentration" else state
            row[cols] = getattr(src, attr)[idx]
        return row


def extract_readings(series: StateSeries, placement: SensorPlacement,
                     quality_states=None,
                     ground_truth: tuple[GroundTruthRecord, ...] = ()) -> ScadaData:
    """True sensor values from simulation results, in contract column order.

    Pressure sensors must sit on junctions, flow sensors on links, level
    sensors on tanks; quality sensors on any node (requires quality states).
    """
    columns = placement.columns()
    reader = RowReader(columns, series, quality_states is not None)
    times = tuple(s.t for s in series.states)
    values = np.empty((len(times), len(columns)))
    for r, state in enumerate(series.states):
        values[r] = reader.read(
            state, quality_states[r] if quality_states is not None else None)
    return ScadaData(times=times, columns=columns, values=values,
                     ground_truth=tuple(ground_truth))


class RowCorruptor:
    """Applies noise, faults and communication events one row at a time.

    Draw sequences are value-independent, so rows corrupted incrementally
    match a batch sweep bit for bit. For freeze events the held value is the
    post-fault value seen at the last step before the freeze window opens;
    a freeze with no prior step yields missing values.
    """

    def __init__(self, columns: tuple[SensorColumn, ...],
                 faults: list[SensorFaultEvent],
                 comms: list[CommunicationEvent],
                 noise_models: list, stream: SeededStream):
        self.columns = columns
        label_to_col = {c.label: i for i, c in enumerate(columns)}

        def by_column(events, what):
            """Per column: the events aimed at it and their global indices."""
            cols = [([], []) for _ in columns]
            for idx, e in enumerate(events):
                targets = range(len(columns))
                if e.sensor_ref is not None:
                    ref = f"{e.sensor_ref[0]}:{e.sensor_ref[1]}"
                    if ref not in label_to_col:
                        raise UnknownSensorRefError(
                            f"{what} targets unknown sensor '{ref}'")
                    targets = [label_to_col[ref]]
                for col in targets:
                    cols[col][0].append(e)
                    cols[col][1].append(idx)
            return [(tuple(es), tuple(idxs)) for es, idxs in cols]
        self.faults_by_col = by_column(faults, "sensor fault")
        self.comms_by_col = by_column(comms, "communication event")
        noise = [m for m in noise_models if m.target == "sensor_noise"]
        self.perturbers = [
            [SeriesPerturber(m, stream.child("noise", mi, col.label))
             for mi, m in enumerate(noise)]
            for col in columns]
        self.fault_gens = {idx: stream.generator("fault", idx)
                           for idx, _ in enumerate(faults)}
        self.last_post_fault = [math.nan] * len(columns)
        self.frozen_value: dict[tuple[int, int], float] = {}

    def corrupt_row(self, t: float, row: np.ndarray) -> np.ndarray:
        out = np.array(row, dtype=float)
        for c in range(len(self.columns)):
            v = float(out[c])
            for p in self.perturbers[c]:
                v = p.step(v)
            faults, fault_idx = self.faults_by_col[c]
            w = winning_index(faults, t)
            if w is not None:
                v = apply_sensor_fault(v, faults[w], t,
                                       rng=self.fault_gens[fault_idx[w]])
            post_fault = v
            comms, comm_idx = self.comms_by_col[c]
            w = winning_index(comms, t)
            if w is not None:
                if comms[w].kind == "data_loss":
                    v = math.nan
                else:
                    key = (comm_idx[w], c)
                    if key not in self.frozen_value:
                        self.frozen_value[key] = self.last_post_fault[c]
                    v = self.frozen_value[key]
            self.last_post_fault[c] = post_fault
            out[c] = v
        return out


def corrupt(scada: ScadaData, faults, comms, noise, stream: SeededStream) -> ScadaData:
    """New ScadaData with measurement corruption applied; truth is untouched."""
    corruptor = RowCorruptor(scada.columns, list(faults), list(comms),
                             list(noise), stream)
    rows = [corruptor.corrupt_row(t, scada.values[i])
            for i, t in enumerate(scada.times)]
    values = np.array(rows) if rows else scada.values.copy()
    return ScadaData(times=scada.times, columns=scada.columns, values=values,
                     ground_truth=scada.ground_truth)


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


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(float(x))


def to_csv(scada: ScadaData) -> str:
    header = "time_s," + ",".join(scada.column_labels()) if scada.columns \
        else "time_s"
    lines = [header]
    for i, t in enumerate(scada.times):
        cells = [repr(float(t))] + [_fmt(v) for v in scada.values[i]]
        lines.append(",".join(cells))
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
        if ":" not in label:
            raise ConfigError(f"malformed column label '{label}'")
        stype, eid = label.split(":", 1)
        if stype not in _UNITS:
            raise ConfigError(f"unknown sensor type in column '{label}'")
        columns.append(SensorColumn(stype, eid, _UNITS[stype]))
    times = []
    rows = []
    for ln_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"line {ln_no}: expected {len(header)} fields, got {len(cells)}")
        times.append(_number(cells[0], ln_no))
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
        out.append(GroundTruthRecord(cells[0], cells[1],
                                     _number(cells[2], ln_no),
                                     _number(cells[3], ln_no)))
    return tuple(out)
