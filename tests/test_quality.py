"""Tests for plug-flow quality transport and its mass ledger."""

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wdnflow import (
    ConfigError, NegativeConcentrationError, WdnflowError, bundled, parse_inp,
)
from wdnflow.events import EventWindow, LeakageEvent, split_pipes_for_leaks
from wdnflow.hydraulics import Controls, simulate_hydraulics
from wdnflow.quality import (
    SEGMENT_MERGE_DC,
    QualitySettings,
    decay,
    simulate_quality,
)
from wdnflow.scenario import QualitySpec, run_scenario

TWO_RESERVOIRS = """
[JUNCTIONS]
 j1 0 0.0
[RESERVOIRS]
 r1 100
 r2 50
[PIPES]
 p1 r1 j1 500 300 100
 p2 j1 r2 500 300 100
[OPTIONS]
 Units CMS
"""

# two valves in series, listed downstream first: va's donor j2 is fed by vb
VALVE_CHAIN = """
[JUNCTIONS]
 j1  10.0  0.0
 j2  5.0   0.002
 j3  0.0   0.003
 j4  0.0   0.002
[RESERVOIRS]
 r1  60.0
[PIPES]
 p1  r1  j1  400  200  120
 p2  j3  j4  300  150  110
 p3  j1  j4  800  100  100
[VALVES]
 va  j2  j3  150  TCV  2.0
 vb  j1  j2  150  TCV  2.0
[OPTIONS]
 Units CMS
"""

# r1 fills t1 more slowly than the valve va drains it into j1, so the tank
# is the valve's donor throughout
TANK_VALVE = """
[JUNCTIONS]
 j1  0.0  0.004
 j2  0.0  0.002
[RESERVOIRS]
 r1  40.0
[TANKS]
 t1  10.0  5.0  0.5  10.0  8.0
[PIPES]
 p1  r1  t1  1500  80   110
 p2  j1  j2  300   100  110
[VALVES]
 va  t1  j1  150  TCV  2.0
[OPTIONS]
 Units CMS
"""

# the pump pu1 and the valve v1 circulate water between j1 and j2 with no
# volume on the way, a cycle that quality transport cuts in link order: pu1
# leaves j2 before v1, j2's one arrival, is in
PUMP_LOOP = """
[JUNCTIONS]
 j1  0.0  0.0
 j2  0.0  0.0
 j3  0.0  0.001
[RESERVOIRS]
 r1  50.0
[PIPES]
 p1  r1  j1  50  200  100
 p2  j2  j3  50  200  100
[PUMPS]
 pu1  j2  j1  HEAD  c1
[VALVES]
 v1  j1  j2  150  TCV  2.0
[CURVES]
 c1  0.01  20.0
[TIMES]
 Duration  6 HOURS
 Hydraulic Timestep  300 SEC
 Quality Timestep  60 SEC
[OPTIONS]
 Units CMS
"""


def ledger_error(state):
    """Relative conservation defect of the cumulative mass ledger."""
    gap = state.stored_mass + state.withdrawn_mass + state.decayed_mass \
        - state.injected_mass
    return abs(gap) / max(state.injected_mass, 1e-12)


class TestDecayFunction:
    def test_half_life_is_exact(self):
        k = math.log(2.0) / 3600.0
        assert decay(1.0, k, 3600.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero_rate_is_identity(self):
        assert decay(3.25, 0.0, 1e6) == 3.25

    def test_exponential_form(self):
        assert decay(2.0, 1e-3, 250.0) == pytest.approx(
            2.0 * math.exp(-0.25), rel=1e-12)


class TestSettingsValidation:
    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigError):
            QualitySettings(decay_rate_k=-1e-5)

    def test_rejects_negative_source(self):
        with pytest.raises(ConfigError):
            QualitySettings(source_nodes={"r1": -0.5})

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            QualitySettings(quality_time_step=0)

    def test_step_may_be_a_numpy_integer(self):
        step = QualitySettings(quality_time_step=np.int64(60)).quality_time_step
        assert step == 60 and type(step) is int
        with pytest.raises(ConfigError):
            QualitySettings(quality_time_step=np.float32(0.5))

    def test_negative_concentration_error_is_package_error(self):
        assert issubclass(NegativeConcentrationError, WdnflowError)

    @pytest.mark.parametrize("settings, message", [
        (QualitySettings(quality_time_step=7), "must divide the hydraulic"),
        (QualitySettings(source_nodes={"ghost": 1.0}),
         "quality source 'ghost' is not a network node"),
    ])
    def test_run_inputs_are_checked(self, series1, settings, message):
        series = simulate_hydraulics(series1, duration_s=600,
                                     hydraulic_step_s=300)
        with pytest.raises(ConfigError, match=message):
            simulate_quality(series, series1, settings)

    def test_zero_step_series_gives_no_states(self, series1):
        series = simulate_hydraulics(series1, duration_s=600,
                                     hydraulic_step_s=300)
        empty = replace(series, **{name: getattr(series, name)[:0] for name in (
            "flow", "head", "pressure_head", "tank_level", "actual_demand",
            "tank_net_inflow", "iterations", "mass_residual",
            "energy_residual", "leak_flow")})
        assert simulate_quality(empty, series1, QualitySettings()) == []


class TestPlugFlowFront:
    def test_front_arrival_timing(self, series1):
        # velocity 0.1 / (pi 0.15^2) = 1.4147 m/s over 1000 m: 706.9 s.
        # each snapshot reports the state after its own hydraulic interval
        series = simulate_hydraulics(series1, duration_s=1200,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        j1 = series.node_ids.index("j1")
        concs = [float(s.node_concentration[j1]) for s in states]
        assert concs[0] == 0.0    # covers transport up to t = 300 s
        assert concs[1] == 0.0    # up to 600 s, still short of 706.9 s
        assert concs[2] == 1.0    # front passed within (600, 900]
        assert concs[3] == 1.0

    def test_source_node_holds_boundary_value(self, series1):
        series = simulate_hydraulics(series1, duration_s=1200,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        r1 = series.node_ids.index("r1")
        assert all(float(s.node_concentration[r1]) == 1.0 for s in states)

    def test_no_source_means_everything_stays_clean(self, series1):
        series = simulate_hydraulics(series1, duration_s=1200,
                                     hydraulic_step_s=300)
        states = simulate_quality(series, series1,
                                  QualitySettings(quality_time_step=60))
        for s in states:
            assert np.all(s.node_concentration == 0.0)
            assert s.injected_mass == 0.0


class TestDecayInTransit:
    def test_steady_outlet_concentration_brackets_travel_time(self, series1):
        # residence time 706.9 s is resolved in 60 s quanta, so the steady
        # outlet value must land between the 660 s and 720 s decay factors
        k = 1e-4
        series = simulate_hydraulics(series1, duration_s=3600,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, decay_rate_k=k,
                            source_nodes={"r1": 1.0}))
        j1 = series.node_ids.index("j1")
        steady = float(states[-1].node_concentration[j1])
        assert math.exp(-k * 720.0) <= steady <= math.exp(-k * 660.0)

    def test_decayed_mass_only_with_positive_rate(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=7200,
                                     hydraulic_step_s=300)
        clean = simulate_quality(
            series, toy9,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        decaying = simulate_quality(
            series, toy9,
            QualitySettings(quality_time_step=60, decay_rate_k=1e-4,
                            source_nodes={"r1": 1.0}))
        assert clean[-1].decayed_mass == 0.0
        assert decaying[-1].decayed_mass > 0.0


class TestMassLedger:
    def test_conservative_tracer_ledger_closes(self, toy9):
        series = simulate_hydraulics(toy9)
        states = simulate_quality(
            series, toy9,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        worst = max(ledger_error(s) for s in states if s.injected_mass > 0)
        assert worst <= 1e-6

    def test_ledger_closes_under_decay(self, toy9):
        series = simulate_hydraulics(toy9)
        states = simulate_quality(
            series, toy9,
            QualitySettings(quality_time_step=60, decay_rate_k=1e-4,
                            source_nodes={"r1": 1.0}))
        worst = max(ledger_error(s) for s in states if s.injected_mass > 0)
        assert worst <= 1e-6

    @pytest.mark.parametrize("k", [0.0, 1e-4])
    def test_ledger_closes_through_pump_and_draining_tank(self, pumpnet, k):
        # the pump draws on the reservoir; while it is parked the tank
        # drains back through p2 and becomes the donor
        off = Controls(pump_running={"pu1": False})
        series = simulate_hydraulics(
            pumpnet, duration_s=86400,
            control_hook=lambda t: off if 6 * 3600 <= t < 9 * 3600 else None)
        assert min(float(s.tank_net_inflow[0]) for s in series.states) < 0.0
        states = simulate_quality(
            series, pumpnet,
            QualitySettings(quality_time_step=60, decay_rate_k=k,
                            source_nodes={"r1": 1.0}))
        worst = max(ledger_error(s) for s in states if s.injected_mass > 0)
        assert worst <= 1e-9

    @pytest.mark.parametrize("k", [0.0, 1e-4])
    def test_ledger_closes_through_valves_fed_by_junctions(self, k):
        net = parse_inp(VALVE_CHAIN)
        series = simulate_hydraulics(net, duration_s=86400,
                                     hydraulic_step_s=300)
        va, vb = (series.link_ids.index(v) for v in ("va", "vb"))
        assert all(s.flow[va] > 0.0 and s.flow[vb] > 0.0
                   for s in series.states)
        states = simulate_quality(
            series, net,
            QualitySettings(quality_time_step=60, decay_rate_k=k,
                            source_nodes={"r1": 1.0}))
        worst = max(ledger_error(s) for s in states if s.injected_mass > 0)
        assert worst <= 1e-9
        j4 = series.node_ids.index("j4")
        assert 0.0 < float(states[-1].node_concentration[j4]) <= 1.0

    @pytest.mark.xfail(strict=True, reason="the link that cuts a cycle of"
                       " pumps and valves carries its donor junction's last"
                       " concentration, which no stored mass backs")
    def test_ledger_closes_around_a_pump_and_valve_loop(self):
        net = parse_inp(PUMP_LOOP)
        series = simulate_hydraulics(net)
        states = simulate_quality(series, net, QualitySettings(
            quality_time_step=60, source_nodes={"r1": 1.0}))
        assert max(ledger_error(s) for s in states) <= 1e-9

    def test_receiving_reservoir_absorbs_at_boundary(self):
        net = parse_inp(TWO_RESERVOIRS)
        series = simulate_hydraulics(net, duration_s=3600,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, net,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 2.0}))
        r2 = series.node_ids.index("r2")
        assert all(float(s.node_concentration[r2]) == 0.0 for s in states)
        # absorbed mass = flow * concentration * time past the travel time
        q = float(series.states[0].flow[0])
        travel = 2.0 * (math.pi * 0.15 ** 2 * 500.0) / q
        expected = q * 2.0 * (3600.0 - travel)
        assert states[-1].withdrawn_mass == pytest.approx(expected, rel=1e-3)


class TestSegments:
    def test_pipe_volume_is_conserved(self, series1):
        series = simulate_hydraulics(series1, duration_s=3600,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        pipe_volume = math.pi * 0.3 ** 2 / 4.0 * 1000.0
        for s in states:
            total = sum(v for v, _ in s.pipe_segments["p1"])
            assert total == pytest.approx(pipe_volume, abs=1e-9)

    def test_uniform_parcels_merge(self, series1):
        # 12 steps x 5 sub-steps inject 60 parcels; merging must keep the
        # per-pipe segment count far below that
        series = simulate_hydraulics(series1, duration_s=3600,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        assert len(states[-1].pipe_segments["p1"]) <= 12

    def test_merging_is_judged_on_true_concentrations(self, series1):
        # steady flow from a steady source: the pipe holds the same water
        # every hour, so its segments must repeat while decay takes the
        # stored values' scale down to exp(-1.2) over two weeks
        series = simulate_hydraulics(series1, duration_s=14 * 86400,
                                     hydraulic_step_s=3600)
        states = simulate_quality(
            series, series1,
            QualitySettings(quality_time_step=60, decay_rate_k=1e-6,
                            source_nodes={"r1": 1.0}))
        first = states[1].pipe_segments["p1"]
        assert len(first) > 1
        for s in states[2:]:
            np.testing.assert_allclose(s.pipe_segments["p1"], first,
                                       rtol=1e-9, atol=0.0)

    def test_merge_threshold_is_small(self):
        assert 0.0 < SEGMENT_MERGE_DC <= 1e-3


class TestTanks:
    def test_tank_concentration_stays_bounded_by_source(self, pumpnet):
        series = simulate_hydraulics(pumpnet, duration_s=7200,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, pumpnet,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        t1 = series.node_ids.index("t1")
        concs = [float(s.node_concentration[t1]) for s in states]
        assert all(0.0 <= c <= 1.0 for c in concs)

    def test_filling_tank_concentration_rises(self, pumpnet):
        series = simulate_hydraulics(pumpnet, duration_s=7200,
                                     hydraulic_step_s=300)
        states = simulate_quality(
            series, pumpnet,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        t1 = series.node_ids.index("t1")
        concs = [float(s.node_concentration[t1]) for s in states]
        assert concs[-1] > 0.0
        assert all(b >= a - 1e-12 for a, b in zip(concs, concs[1:]))


class TestLazyDecay:
    def test_fast_decay_over_long_steps_does_not_underflow(self, toy9):
        # 3600 one-second steps at k = 1/s take the decay factor to e^-3600
        # within one hydraulic step, far below the smallest double
        series = simulate_hydraulics(toy9, duration_s=7200,
                                     hydraulic_step_s=3600)
        states = simulate_quality(
            series, toy9,
            QualitySettings(quality_time_step=1, decay_rate_k=1.0,
                            source_nodes={"r1": 1.0}))
        assert len(states) == 2
        assert max(ledger_error(s) for s in states) <= 1e-9
        for s in states:
            assert 0.0 <= s.node_concentration.min()
            assert s.node_concentration.max() <= 1.0
            for segs in s.pipe_segments.values():
                assert np.all((0.0 <= segs[:, 1]) & (segs[:, 1] <= 1.0))


@cache
def property_series(name: str, step_s: int):
    network = {"toy9": bundled.load_toy9, "pumpnet": bundled.load_pumpnet,
               "valve_chain": lambda: parse_inp(VALVE_CHAIN),
               "tank_valve": lambda: parse_inp(TANK_VALVE),
               "pump_loop": lambda: parse_inp(PUMP_LOOP)}[name]()
    return network, simulate_hydraulics(network, duration_s=6 * 3600,
                                        hydraulic_step_s=step_s)


class TestLedgerProperties:
    """The ledger and the segment invariants over networks, steps and decay
    rates."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(name=st.sampled_from(["toy9", "pumpnet", "valve_chain"]),
           step_s=st.sampled_from([300, 600, 900, 1800, 3600]),
           quality_step=st.sampled_from([5, 10, 15, 20, 30, 60, 100, 300]),
           k=st.one_of(st.just(0.0), st.floats(0.0, 5e-3)),
           source=st.floats(0.1, 5.0))
    @example(name="toy9", step_s=3600, quality_step=1, k=1.0, source=1.0)
    @example(name="pumpnet", step_s=300, quality_step=300, k=1e-3, source=1.0)
    def test_ledger_closes_and_segments_hold(self, name, step_s, quality_step,
                                             k, source):
        network, series = property_series(name, step_s)
        states = simulate_quality(
            series, network,
            QualitySettings(quality_time_step=quality_step, decay_rate_k=k,
                            source_nodes={"r1": source}))
        volume = {pid: math.pi * (p.diameter / 2.0) ** 2 * p.length
                  for pid, p in network.pipes.items()}
        top = source * (1.0 + 1e-12)
        for s in states:
            if s.injected_mass > 0.0:
                assert ledger_error(s) <= 1e-9
            assert 0.0 <= s.node_concentration.min()
            assert s.node_concentration.max() <= top
            assert sorted(s.pipe_segments) == sorted(volume)
            for pid, segs in s.pipe_segments.items():
                assert segs.ndim == 2 and segs.shape[1] == 2
                assert not segs.flags.writeable
                assert np.all((0.0 <= segs[:, 1]) & (segs[:, 1] <= top))
                assert segs[:, 0].sum() == pytest.approx(volume[pid],
                                                         rel=1e-9)

    def test_split_step_computes_the_shorter_step(self):
        """At 300 s quality steps some pumpnet parcel would be between 4 and
        5 pipe volumes long in every hydraulic step, so each step is split
        into 5 sub-steps of 60 s: what 60 s quality steps compute."""
        network, series = property_series("pumpnet", 300)
        split, short = (simulate_quality(series, network, QualitySettings(
            quality_time_step=qs, decay_rate_k=1e-3,
            source_nodes={"r1": 1.0})) for qs in (300, 60))
        for a, b in zip(split, short, strict=True):
            np.testing.assert_allclose(a.node_concentration,
                                       b.node_concentration, rtol=0,
                                       atol=1e-12)
            assert a.decayed_mass == pytest.approx(b.decayed_mass, rel=1e-12)


# (network, sources) that make each boundary of the ledger work: a source
# junction that pipes, a pump or a valve leave or reach, a dead-end source
# junction, a source tank, and a valve whose donor is a tank
BOUNDARY_CASES = [
    ("toy9", {"n2": 1.0}), ("toy9", {"n1": 1.0, "r1": 1.0}),
    ("toy9", {"n8": 1.0}), ("pumpnet", {"t1": 1.0}),
    ("pumpnet", {"j1": 1.0}), ("pumpnet", {"j2": 1.0, "r1": 1.0}),
    ("valve_chain", {"j1": 1.0}), ("tank_valve", {"r1": 1.0})]
BOUNDARY_IDS = [f"{name}-{'+'.join(sources)}"
                for name, sources in BOUNDARY_CASES]


class TestBoundaryLedger:
    """A source junction is a boundary of the ledger, as a reservoir is:
    what reaches it is withdrawn, what leaves it is injected."""

    @pytest.mark.parametrize("k", [0.0, 2e-5])
    @pytest.mark.parametrize("name, sources", BOUNDARY_CASES,
                             ids=BOUNDARY_IDS)
    def test_ledger_closes_at_every_source(self, name, sources, k):
        network, series = property_series(name, 300)
        states = simulate_quality(series, network, QualitySettings(
            quality_time_step=60, decay_rate_k=k, source_nodes=sources))
        for s in states:
            gap = s.stored_mass + s.withdrawn_mass + s.decayed_mass \
                - s.injected_mass
            assert abs(gap) <= 1e-12 * max(s.injected_mass, 1.0)

    def test_source_junction_books_what_enters_and_leaves(self):
        # p1 carries j1's water on to j2 and the tank: it is injected at j1,
        # and j2's demand withdraws part of it
        network, series = property_series("pumpnet", 300)
        last = simulate_quality(series, network, QualitySettings(
            quality_time_step=60, source_nodes={"j1": 1.0}))[-1]
        assert last.injected_mass > 0.0 and last.withdrawn_mass > 0.0
        assert last.withdrawn_mass < last.injected_mass

    def test_each_boundary_case_meets_its_link(self):
        """The links the cases exist for carry flow the way they need."""
        network, series = property_series("valve_chain", 300)
        vb = series.link_ids.index("vb")
        assert network.valves["vb"].from_node == "j1"
        assert (series.flow[:, vb] > 0.0).all()     # vb leaves j1
        network, series = property_series("tank_valve", 300)
        va = series.link_ids.index("va")
        assert network.valves["va"].from_node == "t1"
        assert (series.flow[:, va] > 0.0).all()     # t1 feeds va
        states = simulate_quality(series, network, QualitySettings(
            quality_time_step=60, source_nodes={"r1": 1.0}))
        j1 = series.node_ids.index("j1")
        assert float(states[-1].node_concentration[j1]) > 0.0


class TestOneStepRun:
    """A series of one state still has the run's hydraulic step: the first
    step of a one-step run equals the first step of a longer run."""

    def run(self, toy9_config_factory, steps, **kw):
        return run_scenario(toy9_config_factory(
            duration_s=1800 * steps, hydraulic_time_step_s=1800,
            quality_time_step_s=60,
            quality=QualitySpec(source_nodes=(("r1", 1.0),)), **kw))

    @pytest.mark.parametrize("leak", [False, True])
    def test_first_step_matches_a_longer_run(self, toy9_config_factory,
                                             leak):
        # toy9's INP step is 300 s, so a step read from the network would
        # give the one-step run a sixth of the sub-steps
        kw = {"leakages": (LeakageEvent(
            kind="abrupt", link_id="p3", diameter=0.01,
            window=EventWindow(0.0, 1800.0)),)} if leak else {}
        one = self.run(toy9_config_factory, 1, **kw)
        two = self.run(toy9_config_factory, 2, **kw)
        assert one.series.step_s == two.series.step_s == 1800
        a, b = one.quality_states[0], two.quality_states[0]
        assert a.node_concentration.tobytes() == b.node_concentration.tobytes()
        assert a.pipe_segments.keys() == b.pipe_segments.keys()
        for pid, segs in a.pipe_segments.items():
            assert segs.tobytes() == b.pipe_segments[pid].tobytes(), pid
        assert (a.stored_mass, a.injected_mass, a.withdrawn_mass,
                a.decayed_mass) == (b.stored_mass, b.injected_mass,
                                    b.withdrawn_mass, b.decayed_mass)
        assert a.injected_mass > 0.0


class TestInputChecks:
    def test_series_of_another_network_is_rejected(self, toy9):
        split, _ = split_pipes_for_leaks(toy9, ["p3"])
        series = simulate_hydraulics(split, duration_s=600)
        with pytest.raises(ConfigError):
            simulate_quality(series, toy9,
                             QualitySettings(source_nodes={"r1": 1.0}))

    def test_leak_off_the_network_junctions_is_rejected(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=600)
        # a projected series names a leak by its pipe, not by its junction
        projected = replace(series, leak_ids=("p3",),
                            leak_flow=np.full((len(series.t), 1), 1e-3))
        with pytest.raises(ConfigError):
            simulate_quality(projected, toy9,
                             QualitySettings(source_nodes={"r1": 1.0}))
