"""Differential tests: merge-on-insertion transport with lazy decay against
the rescanning scheme it replaced (reference_quality.py).

Without decay a segment's concentration changes only when a parcel joins
it, so the two schemes part only where a join brings a segment within the
tolerance of its inner neighbour; no run here does, and node concentrations
and segments must be equal bit for bit. With decay the new scheme keeps
segments that decay brings within the tolerance of each other, where the
old one merged them, so node concentrations may differ, but by less than
SEGMENT_MERGE_DC.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference_quality as ref
from test_quality import (
    BOUNDARY_CASES, BOUNDARY_IDS, VALVE_CHAIN, property_series,
)
from wdnflow import bundled, parse_inp
from wdnflow.events import EventWindow, LeakageEvent
from wdnflow.hydraulics import simulate_hydraulics
from wdnflow.quality import SEGMENT_MERGE_DC, QualitySettings, simulate_quality
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import QualitySpec, ScenarioConfig, build_runtime

DAY = 86400


def both(series, network, settings):
    return (ref.simulate_quality(series, network, settings),
            simulate_quality(series, network, settings))


def node_concentrations(states):
    return np.array([s.node_concentration for s in states])


@pytest.fixture(scope="module")
def toy9_two_days(toy9):
    return simulate_hydraulics(toy9, duration_s=2 * DAY, hydraulic_step_s=300)


@pytest.fixture(scope="module")
def toy9_leak():
    """The solve network and series of a 2-day toy9 run with 60 s quality
    steps and a leak on p3 from day 1 + 6 h, like the toy9_quality
    benchmark workload."""
    config = ScenarioConfig(
        network_path=bundled.toy9_path(), duration_s=2 * DAY,
        hydraulic_time_step_s=300, quality_time_step_s=60,
        sensors=SensorPlacement(quality_nodes=("n2", "n4", "n6", "n8")),
        leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                               window=EventWindow(DAY + 6 * 3600, 2 * DAY)),),
        quality=QualitySpec(decay_rate_k=2e-5, source_nodes=(("r1", 1.0),)),
        seed=3)
    runtime = build_runtime(config)
    solved = runtime.make_engine().run()
    return runtime.solve_network, solved, runtime.quality_settings()


@pytest.mark.parametrize("name", ["toy9", "pumpnet", "valve_chain"])
def test_without_decay_equals_reference_bit_for_bit(name, toy9, pumpnet,
                                                     toy9_two_days):
    if name == "toy9":
        network, series = toy9, toy9_two_days
    else:
        network = pumpnet if name == "pumpnet" else parse_inp(VALVE_CHAIN)
        series = simulate_hydraulics(network, duration_s=DAY,
                                     hydraulic_step_s=300)
    old, new = both(series, network, QualitySettings(
        quality_time_step=60, source_nodes={"r1": 1.0}))
    assert node_concentrations(new).tobytes() == \
        node_concentrations(old).tobytes()
    for a, b in zip(old, new):
        assert list(a.pipe_segments) == list(b.pipe_segments)
        for pid, segs in a.pipe_segments.items():
            assert np.array(segs).reshape(-1, 2).tobytes() == \
                b.pipe_segments[pid].tobytes()


@pytest.mark.parametrize("k", [2e-5, 1e-4])
def test_decay_stays_within_merge_tolerance_on_toy9(k, toy9, toy9_two_days):
    old, new = both(toy9_two_days, toy9, QualitySettings(
        quality_time_step=60, decay_rate_k=k, source_nodes={"r1": 1.0}))
    gap = np.abs(node_concentrations(new) - node_concentrations(old))
    assert gap.max() <= SEGMENT_MERGE_DC


@pytest.mark.parametrize("k", [2e-5, 1e-4])
def test_decay_stays_within_merge_tolerance_during_a_leak(k, toy9_leak):
    network, series, settings = toy9_leak
    old, new = both(series, network, replace(settings, decay_rate_k=k))
    gap = np.abs(node_concentrations(new) - node_concentrations(old))
    assert gap.max() <= SEGMENT_MERGE_DC


@pytest.mark.parametrize("name, sources", BOUNDARY_CASES,
                         ids=BOUNDARY_IDS)
def test_boundary_sources_equal_reference_concentrations(name, sources):
    """Source junctions and tanks, and a valve fed by a tank: the reference
    books no ledger at a source junction, so only concentrations compare."""
    network, series = property_series(name, 300)
    old, new = both(series, network, QualitySettings(
        quality_time_step=60, source_nodes=sources))
    assert node_concentrations(new).tobytes() == \
        node_concentrations(old).tobytes()
