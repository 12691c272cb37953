"""Differential tests: the planned, array-based corruption against the
per-cell implementation it replaced (reference_corruption.py).

Each case is drawn from its own seed: a horizon of 0 to 40 rows, readings
salted with 0.0, -0.0 and NaN, every noise kind alone and in compounds,
every fault kind, both communication kinds, overlapping windows and
all-sensor events. Results must equal the reference bit for bit, whether
the rows are corrupted in one block, one at a time or in uneven chunks.
"""

import numpy as np
import pytest

import reference_corruption as ref
from wdnflow import ConfigError
from wdnflow.events import (
    EVENT_REGISTRY,
    CommunicationEvent,
    EventWindow,
    SensorFaultEvent,
)
from wdnflow.scada import RowCorruptor, ScadaData, SensorColumn, corrupt
from wdnflow.uncertainty import (
    PARAMETER_TARGETS,
    UNCERTAINTY_KINDS,
    SeededStream,
    UncertaintyModel,
    perturb_scalar,
    perturb_series,
)

CASES = 300
STEP = 300.0
SIMPLE_KINDS = UNCERTAINTY_KINDS[:-1]
FAULT_KINDS = EVENT_REGISTRY["sensor_fault"]
COMM_KINDS = EVENT_REGISTRY["communication"]
SCALAR_KINDS = ("gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel",
                "trunc_gauss_abs", "percentage")
COLUMNS = (SensorColumn("pressure", "n1", "m"),
           SensorColumn("pressure", "n2", "m"),
           SensorColumn("flow", "p1", "m3/s"),
           SensorColumn("quality", "n3", "mg/L"),
           SensorColumn("level", "t1", "m"))


def simple_model(kind, rng, target="sensor_noise"):
    params = {
        "gauss_abs": {"sigma": rng.uniform(0.0, 0.5)},
        "gauss_rel": {"sigma": rng.uniform(0.0, 0.1)},
        "uniform_abs": {"amplitude": rng.uniform(0.0, 0.5)},
        "uniform_rel": {"amplitude": rng.uniform(0.0, 0.1)},
        "trunc_gauss_abs": {"sigma": rng.uniform(0.0, 0.5)},
        "percentage": {"fraction": rng.uniform(-0.5, 0.5)},
        "random_walk": {"sigma": rng.uniform(0.0, 0.2)},
        "sinusoidal": {"amplitude": rng.uniform(0.0, 1.0),
                       "period": rng.uniform(0.5, 30.0)},
        "regime_shift": {"amplitude": rng.uniform(0.0, 1.0),
                         "mean_dwell": rng.uniform(0.3, 15.0)},
        "spike": {"probability": rng.choice([0.0, 0.3, 1.0]),
                  "amplitude": rng.uniform(0.0, 3.0)},
    }[kind]
    return UncertaintyModel(kind=kind, target=target, params=params)


def compound_model(rng, kinds, target="sensor_noise"):
    subs = tuple(simple_model(k, rng, target) for k in kinds)
    return UncertaintyModel(kind="compound", target=target, submodels=subs)


def window(rng, n):
    """A window on the half-step grid that may open at 0, run past the
    last row or miss the horizon."""
    start = 0.0 if rng.random() < 0.25 else \
        float(rng.integers(0, n + 1)) * STEP + rng.choice([0.0, 150.0])
    length = float(rng.integers(1, n + 3)) * STEP - rng.choice([0.0, 150.0])
    return EventWindow(start, start + length)


def ref_of(rng, columns):
    col = columns[int(rng.integers(len(columns)))]
    return (col.sensor_type, col.element_id)


def make_case(seed):
    """(scada, faults, comms, noise) for one seed; the seed also picks the
    kinds in turn, so every kind comes up many times over the cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([0, 1, 2, 3, 7, 12, 40]))
    columns = COLUMNS[:int(rng.integers(1, len(COLUMNS) + 1))]
    values = rng.normal(10.0, 5.0, (n, len(columns)))
    salt = rng.random(values.shape)
    values[salt < 0.06] = 0.0
    values[(salt >= 0.06) & (salt < 0.12)] = -0.0
    values[(salt >= 0.12) & (salt < 0.18)] = np.nan
    times = tuple(STEP * i for i in range(n))
    scada = ScadaData(times=times, columns=columns, values=values)

    noise = [simple_model(SIMPLE_KINDS[seed % len(SIMPLE_KINDS)], rng)]
    if seed % 3 == 0:
        kinds = rng.choice(SIMPLE_KINDS, size=int(rng.integers(2, 4)))
        noise.append(compound_model(rng, kinds))
    if seed % 4 == 1:
        noise.append(simple_model(str(rng.choice(SIMPLE_KINDS)), rng))
    if seed % 5 == 2:
        noise.append(simple_model("gauss_abs", rng, target="pipe_length"))
    if seed % 7 == 3:
        noise = []

    faults = []
    for j in range(int(rng.integers(0, 5))):
        kind = FAULT_KINDS[(seed + j) % len(FAULT_KINDS)]
        param = rng.uniform(0.0, 2.0) if kind == "gaussian" \
            else rng.uniform(-2.0, 2.0)
        faults.append(SensorFaultEvent(kind=kind, sensor_ref=ref_of(rng, columns),
                                       param=param, window=window(rng, n)))
    comms = []
    for j in range(int(rng.integers(0, 4))):
        target = None if rng.random() < 0.35 else ref_of(rng, columns)
        comms.append(CommunicationEvent(kind=COMM_KINDS[(seed + j) % 2],
                                        window=window(rng, n),
                                        sensor_ref=target))
    if seed % 11 == 0:
        # a freeze that wins row 0: it has no earlier row to hold
        comms.append(CommunicationEvent(kind="freeze",
                                        window=EventWindow(0.0, 3 * STEP),
                                        sensor_ref=ref_of(rng, columns)))
    return scada, faults, comms, noise


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_cases_cover_every_kind():
    noise, faults, comms, rows, froze_row0 = set(), set(), set(), set(), False
    for seed in range(CASES):
        scada, f, c, m = make_case(seed)
        rows.add(len(scada.times))
        noise |= {x.kind for x in m}
        noise |= {s.kind for x in m if x.kind == "compound" for s in x.submodels}
        faults |= {e.kind for e in f}
        comms |= {(e.kind, e.sensor_ref is None) for e in c}
        froze_row0 |= any(e.kind == "freeze" and e.window.start_time == 0.0
                          for e in c) and len(scada.times) > 0
    assert noise == set(UNCERTAINTY_KINDS)
    assert faults == set(FAULT_KINDS)
    assert comms == {(k, all_) for k in COMM_KINDS for all_ in (True, False)}
    assert 0 in rows and froze_row0


@pytest.mark.parametrize("block", range(6))
def test_corrupt_equals_reference(block):
    for seed in range(block * CASES // 6, (block + 1) * CASES // 6):
        scada, faults, comms, noise = make_case(seed)
        stream = SeededStream(seed).child("case")
        want = ref.corrupt(scada, faults, comms, noise, stream).values
        got = corrupt(scada, faults, comms, noise, stream).values
        assert got.shape == want.shape, seed
        assert bits(got) == bits(want), seed

        # the same horizon fed one row at a time, then in uneven chunks
        for chunks in ([1] * len(scada.times), [2, 5, 1, 40]):
            corruptor = RowCorruptor(scada.columns, scada.times, faults,
                                     comms, noise, stream)
            parts, at = [], 0
            for k in chunks:
                if at >= len(scada.times):
                    break
                parts.append(corruptor.corrupt_next(scada.values[at:at + k]))
                at += k
            stepped = np.vstack(parts) if parts else got
            assert bits(stepped) == bits(want), (seed, chunks)


def test_rows_past_the_horizon_rejected():
    corruptor = RowCorruptor(COLUMNS, (0.0, STEP), [], [], [],
                             SeededStream(0))
    corruptor.corrupt_next(np.ones((2, len(COLUMNS))))
    with pytest.raises(ConfigError):
        corruptor.corrupt_next(np.ones((1, len(COLUMNS))))


def test_perturb_series_equals_reference():
    for seed in range(CASES):
        rng = np.random.default_rng([seed, 2])
        if seed % 4 == 0:
            kinds = rng.choice(SIMPLE_KINDS, size=int(rng.integers(2, 4)))
            model = compound_model(rng, kinds)
        else:
            model = simple_model(SIMPLE_KINDS[seed % len(SIMPLE_KINDS)], rng)
        values = rng.normal(0.0, 3.0, int(rng.integers(1, 60)))
        values[::7] = -0.0
        values[3::11] = np.nan
        stream = SeededStream(seed).child("series")
        assert bits(perturb_series(model, values, stream)) == \
            bits(ref.perturb_series(model, values, stream)), seed


def test_perturb_scalar_equals_reference():
    targets = PARAMETER_TARGETS + ("sensor_noise",)
    for seed in range(CASES):
        rng = np.random.default_rng([seed, 3])
        target = targets[seed % len(targets)]
        if seed % 3 == 0:
            kinds = rng.choice(SIMPLE_KINDS, size=int(rng.integers(2, 4)))
            model = compound_model(rng, kinds, target)
        else:
            model = simple_model(SIMPLE_KINDS[seed % len(SIMPLE_KINDS)], rng,
                                 target)
        value = float(rng.choice([0.0, -0.0, 1e-12, rng.normal(0.0, 3.0)]))
        stream = SeededStream(seed).child("scalar")
        kinds = [s.kind for s in model.submodels or (model,)]
        if all(k in SCALAR_KINDS for k in kinds):
            got = perturb_scalar(model, value, stream)
            assert bits(np.float64(got)) == \
                bits(np.float64(ref.perturb_scalar(model, value, stream))), seed
        else:
            with pytest.raises(ConfigError):
                ref.perturb_scalar(model, value, stream)
            with pytest.raises(ConfigError):
                perturb_scalar(model, value, stream)
