"""The per-cell sensor corruption that the array implementation replaced.

A frozen copy of the stateful, one-sample-at-a-time code (SeriesPerturber,
the scalar noise kinds, winning_index, the scalar sensor fault and
RowCorruptor), kept only as the oracle of the differential tests in
test_corruption_reference.py. Nothing in wdnflow imports it.
"""

from __future__ import annotations

import math

import numpy as np

from wdnflow.errors import ConfigError, UnknownSensorRefError
from wdnflow.events import CommunicationEvent, SensorFaultEvent
from wdnflow.scada import ScadaData, SensorColumn
from wdnflow.uncertainty import PARAMETER_TARGETS, SeededStream, UncertaintyModel

_SCALAR_KINDS = ("gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel",
                 "trunc_gauss_abs", "percentage")
_POSITIVITY_FLOOR = 1e-9


def _perturb_scalar_with(model: UncertaintyModel, value: float,
                         gen: np.random.Generator) -> float:
    if model.kind == "gauss_abs":
        return value + gen.normal(0.0, model.param("sigma"))
    if model.kind == "gauss_rel":
        return value * (1.0 + gen.normal(0.0, model.param("sigma")))
    if model.kind == "uniform_abs":
        a = model.param("amplitude")
        return value + gen.uniform(-a, a)
    if model.kind == "uniform_rel":
        r = model.param("amplitude")
        return value * (1.0 + gen.uniform(-r, r))
    if model.kind == "trunc_gauss_abs":
        sigma = model.param("sigma")
        draw = gen.normal(0.0, sigma)
        while abs(draw) > 3.0 * sigma:
            draw = gen.normal(0.0, sigma)
        return value + draw
    if model.kind == "percentage":
        return value * (1.0 + model.param("fraction"))
    raise ConfigError(f"'{model.kind}' applies to series, not scalars")


def perturb_scalar(model: UncertaintyModel, value: float,
                   stream: SeededStream) -> float:
    """One perturbed draw; physical targets are clamped to stay positive."""
    if model.kind == "compound":
        out = value
        for i, sub in enumerate(model.submodels):
            out = _perturb_scalar_with(sub, out, stream.generator("sub", i))
    else:
        out = _perturb_scalar_with(model, value, stream.generator())
    if model.target in PARAMETER_TARGETS:
        out = max(out, _POSITIVITY_FLOOR)
    return out


class SeriesPerturber:
    """Stateful per-sample application of one uncertainty model.

    Batch (perturb_series) and incremental (SCADA row-by-row) consumers share
    this class, so both orderings see identical draws. The sample index plays
    the role of time; sinusoidal period and regime_shift dwell are in samples.
    """

    def __init__(self, model: UncertaintyModel, stream: SeededStream):
        self.model = model
        if model.kind == "compound":
            self.subs = [SeriesPerturber(sub, stream.child("sub", i))
                         for i, sub in enumerate(model.submodels)]
            return
        self.gen = stream.generator()
        self.index = 0
        if model.kind == "random_walk":
            self.acc = 0.0
        elif model.kind == "sinusoidal":
            self.phase = self.gen.uniform(0.0, 2.0 * math.pi)
        elif model.kind == "regime_shift":
            a = model.param("amplitude")
            self.offset = self.gen.uniform(-a, a)
            self.next_switch = self.gen.exponential(model.param("mean_dwell"))

    def step(self, value: float) -> float:
        model = self.model
        if model.kind == "compound":
            for sub in self.subs:
                value = sub.step(value)
            return value
        i = self.index
        self.index += 1
        if model.kind in _SCALAR_KINDS:
            return _perturb_scalar_with(model, value, self.gen)
        if model.kind == "random_walk":
            self.acc += self.gen.normal(0.0, model.param("sigma"))
            return value + self.acc
        if model.kind == "sinusoidal":
            amp = model.param("amplitude")
            period = model.param("period")
            return value + amp * math.sin(2.0 * math.pi * i / period + self.phase)
        if model.kind == "regime_shift":
            a = model.param("amplitude")
            tau = model.param("mean_dwell")
            while i >= self.next_switch:
                self.offset = self.gen.uniform(-a, a)
                self.next_switch += self.gen.exponential(tau)
            return value + self.offset
        # spike: both draws happen every step so the stream stays aligned
        hit = self.gen.random()
        magnitude = self.gen.uniform(1.0, 10.0)
        if hit < model.param("probability"):
            return value + magnitude * model.param("amplitude")
        return value


def perturb_series(model: UncertaintyModel, values, stream: SeededStream) -> np.ndarray:
    """Perturb a whole series sample by sample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot perturb an empty series")
    perturber = SeriesPerturber(model, stream)
    return np.array([perturber.step(float(v)) for v in values])


def winning_index(events, t: float) -> int | None:
    """Position of the single active event that takes precedence at t (the
    latest start, then the latest listed), or None."""
    best = None
    best_key = None
    for i, e in enumerate(events):
        if e.window.contains(t):
            key = (e.window.start_time, i)
            if best_key is None or key > best_key:
                best, best_key = i, key
    return best


def apply_sensor_fault(reading: float, event: SensorFaultEvent, t: float,
                       rng=None) -> float:
    """Faulted reading; the true value passes through outside the window."""
    if not event.window.contains(t):
        return reading
    if event.kind == "offset":
        return reading + event.param
    if event.kind == "drift":
        return reading + event.param * (t - event.window.start_time) / 3600.0
    if event.kind == "gaussian":
        if rng is None:
            raise ConfigError("gaussian fault needs a random generator")
        return reading + rng.normal(0.0, event.param)
    if event.kind == "gain":
        return reading * event.param
    return 0.0   # stuck_zero


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
