"""Tests for the snapshot solver and the extended-period engine."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wdnflow import (
    ConfigError,
    CurveFitError,
    DisconnectedDemandError,
    InvalidNetworkError,
    NonConvergenceError,
    UnknownTargetError,
    WdnflowError,
    bundled,
    expand_pump_curve,
    incidence,
    parse_inp,
    write_inp,
)
from wdnflow import hydraulics
from wdnflow.hydraulics import (
    ENERGY_TOL,
    G,
    HW_COEF,
    HW_EXP,
    MASS_TOL,
    Q_LAMINAR,
    Controls,
    EpsEngine,
    _layout,
    _link_settings,
    actuator_value,
    fit_pump_curve,
    hazen_williams_headloss,
    pump_head_gain,
    simulate_hydraulics,
    solve_snapshot,
)
from wdnflow.events import (
    ActuatorEvent, EventWindow, LeakageEvent, leak_emitter_coef,
    resolve_controls,
)
from wdnflow.network import (
    Curve, Junction, Network, Pattern, Pipe, Reservoir, Tank, Violation,
    _reverse_cuthill_mckee, pattern_value, validate,
)
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import ScenarioConfig, run_scenario
from test_quality import TANK_VALVE


def mass_residuals(network, state):
    """Junction imbalance recomputed from raw link flows.

    Independent of the solver internals: walks the link list and sums
    signed flows into each junction, then subtracts the demand actually
    served plus any emitter outflow.
    """
    inc = incidence(network)
    inflow = {jid: 0.0 for jid in network.junctions}
    for k, (from_idx, to_idx) in enumerate(zip(inc.link_from, inc.link_to)):
        q = float(state.flow[k])
        from_node, to_node = inc.node_ids[from_idx], inc.node_ids[to_idx]
        if from_node in inflow:
            inflow[from_node] -= q
        if to_node in inflow:
            inflow[to_node] += q
    residuals = {}
    for i, jid in enumerate(network.junctions):
        net_in = inflow[jid] - float(state.actual_demand[i])
        net_in -= state.leak_flow.get(jid, 0.0)
        residuals[jid] = net_in
    return residuals


def energy_residuals(network, state):
    """Headloss law violation per flowing open pipe, in metres."""
    inc = incidence(network)
    heads = dict(zip(inc.node_ids, (float(h) for h in state.head)))
    residuals = {}
    for k, lid in enumerate(inc.link_ids):
        pipe = network.pipes.get(lid)
        if pipe is None or not pipe.open:
            continue
        q = float(state.flow[k])
        if abs(q) <= Q_LAMINAR:
            continue
        dh = heads[pipe.from_node] - heads[pipe.to_node]
        law = hazen_williams_headloss(q, pipe.length, pipe.diameter,
                                      pipe.roughness)
        residuals[lid] = dh - law
    return residuals


def grid_inp(side):
    """INP text of a side x side looped grid of junctions (ids sort in file
    order). A reservoir pumps into one corner, a tank floats on the far
    corner and the edge right of the centre junction is a throttle valve."""
    def jid(r, c):
        return f"j{r:03d}{c:03d}"
    lines = ["[JUNCTIONS]"]
    for r in range(side):
        for c in range(side):
            lines.append(f" {jid(r, c)}  {(r * 7 + c * 3) % 5:.1f}"
                         f"  {0.05 + 0.01 * ((r + 2 * c) % 7):.2f}  daily")
    mid = side // 2
    lines += ["[RESERVOIRS]", " r1  10.0",
              "[TANKS]", " t1  38.0  4.0  0.5  9.0  40.0",
              "[PUMPS]", f" pu1  r1  {jid(0, 0)}  HEAD  c1",
              "[CURVES]", " c1  90.0  38.0",
              "[VALVES]", f" v1  {jid(mid, mid)}  {jid(mid, mid + 1)}  250  TCV"
              "  4.0",
              "[PIPES]", f" pt  {jid(side - 1, side - 1)}  t1  50  400  120"]
    for r in range(side):
        for c in range(side):
            trunk = r == 0 or c == 0
            if c + 1 < side and (r, c) != (mid, mid):
                lines.append(f" ph{jid(r, c)}  {jid(r, c)}  {jid(r, c + 1)}"
                             f"  {120 + 10 * (c % 4)}  {400 if trunk else 250}"
                             "  110")
            if r + 1 < side:
                lines.append(f" pv{jid(r, c)}  {jid(r, c)}  {jid(r + 1, c)}"
                             f"  {130 + 10 * (r % 3)}  {400 if trunk else 200}"
                             "  105")
    lines += ["[PATTERNS]", " daily  0.6  0.5  0.8  1.2  1.4  1.1  0.9  0.7",
              "[TIMES]", " Duration  24 HOURS", " Hydraulic Timestep  1 HOURS",
              " Pattern Timestep  3 HOURS",
              "[OPTIONS]", " Units  LPS", " Headloss  H-W", "[END]"]
    return "\n".join(lines)


class TestHeadlossLaw:
    def test_reference_value(self):
        loss = hazen_williams_headloss(0.1, 1000.0, 0.3, 100.0)
        expected = HW_COEF * 1000.0 * 0.1 ** HW_EXP / (
            100.0 ** HW_EXP * 0.3 ** 4.871)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(10.45, rel=1e-3)

    def test_odd_symmetry(self):
        fwd = hazen_williams_headloss(0.05, 500.0, 0.2, 110.0)
        rev = hazen_williams_headloss(-0.05, 500.0, 0.2, 110.0)
        assert rev == -fwd
        assert fwd > 0.0

    def test_zero_flow_zero_loss(self):
        assert hazen_williams_headloss(0.0, 500.0, 0.2, 110.0) == 0.0

    def test_monotone_in_flow(self):
        flows = np.linspace(0.001, 0.5, 40)
        losses = [hazen_williams_headloss(q, 800.0, 0.25, 105.0)
                  for q in flows]
        assert all(b > a for a, b in zip(losses, losses[1:]))


class TestSinglePipeClosedForm:
    def test_head_matches_hand_calculation(self, series1):
        series = simulate_hydraulics(series1)
        state = series.states[0]
        j1 = series.node_ids.index("j1")
        expected = 100.0 - hazen_williams_headloss(0.1, 1000.0, 0.3, 100.0)
        assert float(state.head[j1]) == pytest.approx(expected, abs=1e-9)
        assert float(state.head[j1]) == pytest.approx(89.55, rel=1e-3)

    def test_pipe_carries_exactly_the_demand(self, series1):
        state = simulate_hydraulics(series1).states[0]
        assert float(state.flow[0]) == pytest.approx(0.1, abs=1e-12)


class TestPumpCurve:
    def test_three_point_fit_is_exact_at_knots(self, pumpnet):
        curve = expand_pump_curve(pumpnet.curves["c1"])
        h0, r, n = fit_pump_curve(curve)
        q1, h1 = curve.points[1]
        q2, h2 = curve.points[2]
        assert h0 == pytest.approx(curve.points[0][1])
        assert h0 - r * q1 ** n == pytest.approx(h1, rel=1e-9)
        assert h0 - r * q2 ** n == pytest.approx(h2, rel=1e-9)

    def test_two_point_curve_rejected(self):
        curve = Curve(id="c", points=((0.0, 50.0), (0.02, 40.0)))
        with pytest.raises(CurveFitError):
            fit_pump_curve(curve)

    def test_nonzero_first_flow_rejected(self):
        curve = Curve(id="c", points=((0.005, 50.0), (0.02, 40.0),
                                      (0.04, 10.0)))
        with pytest.raises(CurveFitError):
            fit_pump_curve(curve)

    def test_non_decreasing_heads_rejected(self):
        curve = Curve(id="c", points=((0.0, 50.0), (0.02, 50.0),
                                      (0.04, 10.0)))
        with pytest.raises(CurveFitError):
            fit_pump_curve(curve)

    def test_gain_at_shutoff_and_beyond_range(self, pumpnet):
        curve = expand_pump_curve(pumpnet.curves["c1"])
        h0, _, _ = fit_pump_curve(curve)
        assert pump_head_gain(curve, 0.0, 1.0) == pytest.approx(h0)
        assert pump_head_gain(curve, 10.0, 1.0) == 0.0

    def test_gain_follows_affinity_laws(self, pumpnet):
        curve = expand_pump_curve(pumpnet.curves["c1"])
        base = pump_head_gain(curve, 0.01, 1.0)
        scaled = pump_head_gain(curve, 0.008, 0.8)
        assert scaled == pytest.approx(0.8 ** 2 * base, rel=1e-12)

    def test_gain_zero_at_zero_speed(self, pumpnet):
        curve = expand_pump_curve(pumpnet.curves["c1"])
        assert pump_head_gain(curve, 0.01, 0.0) == 0.0


class TestTankStep:
    """One engine step of pumpnet from level 2 m: the tank moves by explicit
    Euler on the step's own net inflow, clamped to its level bounds."""

    def step(self, pumpnet, pump_running=True, **levels):
        tank = replace(pumpnet.tanks["t1"], init_level=2.0, **levels)
        engine = EpsEngine(replace(pumpnet, tanks={"t1": tank}),
                           control_hook=lambda t: Controls(
                               pump_running={"pu1": pump_running}))
        state = engine.step_once()
        assert state.tank_level.tolist() == [2.0]
        return (tank, float(state.tank_net_inflow[0]),
                float(engine.tank_levels[0]))

    def test_explicit_euler_update(self, pumpnet):
        tank, inflow, level = self.step(pumpnet)
        assert inflow > 0.0
        assert level == 2.0 + inflow * 300.0 / tank.area

    def test_drawdown(self, pumpnet):
        tank, inflow, level = self.step(pumpnet, pump_running=False)
        assert inflow < 0.0
        assert level == 2.0 + inflow * 300.0 / tank.area

    def test_clamps_at_bounds(self, pumpnet):
        # each bound 1 mm beyond the start: the step overshoots it
        tank, inflow, level = self.step(pumpnet, max_level=2.001)
        assert inflow * 300.0 / tank.area > 0.001
        assert level == tank.max_level
        tank, inflow, level = self.step(pumpnet, pump_running=False,
                                        min_level=1.999)
        assert inflow * 300.0 / tank.area < -0.001
        assert level == tank.min_level


class TestSnapshotInvariants:
    def random_demands(self, network, rng):
        return {jid: float(rng.uniform(0.0, 5e-4))
                for jid in network.junctions}

    def test_junction_mass_balance(self, toy9):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            state = solve_snapshot(toy9, self.random_demands(toy9, rng))
            worst = max(abs(r) for r in mass_residuals(toy9, state).values())
            assert worst <= MASS_TOL

    def test_pipe_energy_balance(self, toy9):
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            state = solve_snapshot(toy9, self.random_demands(toy9, rng))
            res = energy_residuals(toy9, state)
            assert res
            assert max(abs(v) for v in res.values()) <= ENERGY_TOL

    def test_zero_demand_network_is_stagnant(self, toy9):
        state = solve_snapshot(toy9, {jid: 0.0 for jid in toy9.junctions})
        assert np.abs(state.flow).max() <= MASS_TOL

    def test_zero_demand_grid_with_full_tank_is_stagnant(self):
        # the pump runs against the full tank, so nothing flows; the
        # relative flow change is taken over a floored total flow, so
        # round-off around zero flow does not block convergence
        net = parse_inp(grid_inp(3))
        state = solve_snapshot(net, {jid: 0.0 for jid in net.junctions},
                               Controls(pump_running={"pu1": True}),
                               tank_levels={"t1": 9.0})
        assert np.abs(state.flow).max() <= MASS_TOL

    def test_heads_decrease_away_from_reservoir(self, toy9):
        state = solve_snapshot(toy9, {jid: 2e-5 for jid in toy9.junctions})
        inc = incidence(toy9)
        heads = dict(zip(inc.node_ids, state.head))
        assert heads["r1"] == pytest.approx(60.0)
        for jid in toy9.junctions:
            assert heads[jid] < 60.0

    def test_repeat_solve_is_bitwise_identical(self, toy9):
        demands = {jid: 3e-5 for jid in toy9.junctions}
        a = solve_snapshot(toy9, demands)
        b = solve_snapshot(toy9, demands)
        assert np.array_equal(a.flow, b.flow)
        assert np.array_equal(a.head, b.head)
        assert a.iterations == b.iterations


class TestEmitters:
    def test_outflow_follows_orifice_law(self, toy9):
        k = 1e-4
        demands = {jid: 2e-5 for jid in toy9.junctions}
        state = solve_snapshot(toy9, demands, emitters={"n3": k})
        inc = incidence(toy9)
        n3 = inc.node_index["n3"]
        head_above = float(state.pressure_head[n3])
        assert state.leak_flow["n3"] == pytest.approx(
            k * math.sqrt(head_above), rel=1e-9)

    def test_leak_is_included_in_mass_balance(self, toy9):
        demands = {jid: 2e-5 for jid in toy9.junctions}
        state = solve_snapshot(toy9, demands, emitters={"n3": 1e-4})
        worst = max(abs(r) for r in mass_residuals(toy9, state).values())
        assert worst <= MASS_TOL

    def test_leak_lowers_local_pressure(self, toy9):
        demands = {jid: 2e-5 for jid in toy9.junctions}
        clean = solve_snapshot(toy9, demands)
        leaky = solve_snapshot(toy9, demands, emitters={"n3": 1e-4})
        inc = incidence(toy9)
        n3 = inc.node_index["n3"]
        assert float(leaky.pressure_head[n3]) < float(clean.pressure_head[n3])


def base_demands(network, multiplier=1.0):
    return {jid: j.base_demand * multiplier
            for jid, j in network.junctions.items()}


def orifice_k(diameter):
    """Emitter coefficient of a round leak: 0.75 (pi d^2 / 4) sqrt(2 g)."""
    return 0.75 * math.pi * diameter ** 2 / 4.0 * math.sqrt(2.0 * G)


class TestLargeEmitters:
    """An emitter is a one-way link to a reservoir at its junction's
    elevation, so leaks of realistic size converge within 15 iterations,
    and the junction mass balance closes with each leak's discharge
    k sqrt(pressure head)."""

    MARGIN = 1e-9

    def assert_solves(self, network, emitters):
        state = solve_snapshot(network, base_demands(network),
                               emitters=emitters)
        assert state.iterations <= 15
        assert max(map(abs, mass_residuals(network, state).values())) \
            <= self.MARGIN
        assert all(q > 0.0 for q in state.leak_flow.values())
        return state

    @pytest.mark.parametrize("diameter", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_leak_sizes_at_every_junction(self, toy9, pumpnet, diameter):
        for network in (toy9, pumpnet):
            for jid in network.junctions:
                self.assert_solves(network, {jid: orifice_k(diameter)})

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("name, jid", [("toy9", "n1"), ("pumpnet", "j1")])
    def test_coefficients_up_to_100(self, request, name, jid, k):
        self.assert_solves(request.getfixturevalue(name), {jid: k})

    def test_scenario_with_a_large_abrupt_leak(self):
        result = run_scenario(ScenarioConfig(
            network_path=bundled.pumpnet_path(), duration_s=6 * 3600,
            hydraulic_time_step_s=300,
            sensors=SensorPlacement(pressure_nodes=("j1", "j2")),
            leakages=(LeakageEvent(kind="abrupt", link_id="p1", diameter=0.2,
                                   window=EventWindow(3600, 4 * 3600)),)))
        series = result.series
        leak = series.leak_flow[:, series.leak_ids.index("p1")]
        open_ = (series.t >= 3600) & (series.t < 4 * 3600)
        assert (leak[open_] > 0.0).all() and np.isnan(leak[~open_]).all()


class TestRandomSnapshots:
    """Seeded random snapshots of the bundled networks and small grids:
    demand multipliers from 0 to 10, random pump speeds and pump and valve
    states, tanks at a level bound or their initial level, and up to three
    emitters with k up to 100. Each converges within its tolerances or
    raises DisconnectedDemandError."""

    def test_every_snapshot_converges_or_is_disconnected(self, toy9, pumpnet):
        rng = np.random.default_rng(17)
        solved = leaky = 0
        for net in [toy9, pumpnet] + [parse_inp(grid_inp(s))
                                      for s in (3, 4, 5)]:
            junctions = sorted(net.junctions)
            for _ in range(80):
                controls = Controls(
                    pump_running={p: bool(rng.integers(2)) for p in net.pumps},
                    pump_speed={p: float(rng.choice([0.0, 0.5, 1.0, 1.5]))
                                for p in net.pumps},
                    valve_open={v: bool(rng.integers(2)) for v in net.valves})
                levels = {tid: float(rng.choice([t.min_level, t.init_level,
                                                 t.max_level]))
                          for tid, t in net.tanks.items()}
                size = rng.integers(min(4, len(junctions) + 1))
                emitters = {str(j): float(rng.choice(
                    [0.0, 10.0 ** rng.uniform(-4.0, 2.0)]))
                    for j in rng.choice(junctions, size, replace=False)}
                demands = base_demands(
                    net, float(rng.choice([0.0, 0.5, 1.0, 3.0, 10.0])))
                try:
                    state = solve_snapshot(net, demands, controls,
                                           emitters=emitters,
                                           tank_levels=levels)
                except DisconnectedDemandError:
                    continue
                assert state.mass_residual <= MASS_TOL
                assert state.energy_residual <= ENERGY_TOL
                solved += 1
                leaky += any(q > 0.0 for q in state.leak_flow.values())
        assert solved > 300 and leaky > 150


class TestPumpAgainstAClosedNetwork:
    """A pump that feeds a network with no outlet: no demand, t1 at its
    9.0 m maximum so its links are cut, pu1 at speed 1.5 and v1 closed. The
    answer is the pump at shutoff with zero flow, but its flow wanders
    across zero at the kink of the reverse-flow penalty (ROADMAP, open item
    on a pump at zero flow). The xfails pin the failures that its fix must
    flip; grid_inp(9) converges today after 91 of the 100 iterations."""

    @staticmethod
    def solve(side):
        net = parse_inp(grid_inp(side))
        return solve_snapshot(
            net, base_demands(net, 0.0),
            Controls(pump_speed={"pu1": 1.5}, valve_open={"v1": False}),
            tank_levels={"t1": 9.0})

    @pytest.mark.parametrize("side", [
        9,
        pytest.param(10, marks=pytest.mark.xfail(
            strict=True, raises=NonConvergenceError)),
        pytest.param(12, marks=pytest.mark.xfail(
            strict=True, raises=NonConvergenceError)),
    ])
    def test_converges(self, side):
        state = self.solve(side)
        assert state.mass_residual <= MASS_TOL
        assert state.energy_residual <= ENERGY_TOL


class TestStopRuleMargin:
    """One Newton step past the convergence test leaves residuals far
    below MASS_TOL and ENERGY_TOL, on small networks and large grids."""

    MARGIN = 1e-9

    def assert_margin(self, network, engine):
        states = engine.run().states
        for state in states:
            mass = max(abs(r) for r in mass_residuals(network, state).values())
            energy = energy_residuals(network, state)
            assert mass <= self.MARGIN, state.t
            assert max(map(abs, energy.values()), default=0.0) <= self.MARGIN
            assert state.mass_residual <= MASS_TOL
            assert state.energy_residual <= ENERGY_TOL
        return states

    def test_toy9_day_with_emitter(self, toy9):
        engine = EpsEngine(toy9, duration_s=86400, step_s=300,
                           emitter_hook=lambda t: {"n3": 1e-4})
        self.assert_margin(toy9, engine)

    def test_pumpnet_day_with_tank_closures(self, pumpnet):
        states = self.assert_margin(
            pumpnet, EpsEngine(pumpnet, duration_s=86400, step_s=300))
        top = pumpnet.tanks["t1"].max_level
        assert any(float(s.tank_level[0]) >= top
                   and float(s.tank_net_inflow[0]) == 0.0 for s in states)

    def test_large_grid_day(self):
        net = parse_inp(grid_inp(22))
        self.assert_margin(net, EpsEngine(net))

    def test_band_solve_allocates_no_dense_matrix(self):
        net = parse_inp(grid_inp(24))
        n_u = len(net.junctions)
        demands = {j: 1e-4 for j in net.junctions}
        solve_snapshot(net, demands)   # loads LAPACK
        tracemalloc.start()
        try:
            solve_snapshot(net, demands)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_u * n_u / 4


class TestTopologyCache:
    """Solves on a network whose layout already holds other topologies
    equal, bit for bit, a solve of the same inputs on a copy of the network,
    which compiles a fresh layout."""

    def assert_same_as_fresh(self, network, demands, **kw):
        shared = solve_snapshot(network, demands, **kw)
        fresh = solve_snapshot(replace(network), demands, **kw)
        assert np.array_equal(shared.flow, fresh.flow)
        assert np.array_equal(shared.head, fresh.head)
        return shared

    def test_toy9_pipe_closure_and_back(self, toy9):
        closed = Controls(pipe_open={"p10": False})
        demands = {jid: 2e-5 for jid in toy9.junctions}
        first = self.assert_same_as_fresh(toy9, demands)
        self.assert_same_as_fresh(toy9, demands, controls=closed)
        again = self.assert_same_as_fresh(toy9, demands)
        assert np.array_equal(first.flow, again.flow)

    def test_pumpnet_pump_off_and_tank_closed(self, pumpnet):
        off = Controls(pump_running={"pu1": False})
        demands = {"j1": 5e-3, "j2": 3e-3}
        full = {"t1": pumpnet.tanks["t1"].max_level}
        self.assert_same_as_fresh(pumpnet, demands)
        self.assert_same_as_fresh(pumpnet, demands, controls=off)
        state = self.assert_same_as_fresh(pumpnet, demands,
                                          tank_levels=full)
        assert float(state.tank_net_inflow[0]) == 0.0

    def test_closed_tank_and_closed_pipe_share_a_topology(self, pumpnet,
                                                          monkeypatch):
        """A full tank keeps its fixed head and only its link p2 is cut, as
        a closed p2 cuts it: both snapshots solve on one topology, and
        alike. Each solve builds one state, though the full tank's takes
        two passes."""
        built = []

        def spy(*args, _build=hydraulics.HydraulicState, **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(hydraulics, "HydraulicState", spy)
        net = replace(pumpnet)
        demands = {"j1": 5e-3, "j2": 3e-3}
        first = solve_snapshot(net, demands)
        full = solve_snapshot(net, demands,
                              tank_levels={"t1": net.tanks["t1"].max_level})
        cut = solve_snapshot(net, demands,
                             controls=Controls(pipe_open={"p2": False}))
        assert built == [first, full, cut]
        assert len(_layout(net)._topologies) == 2
        n_junc = len(net.junctions)
        assert float(full.tank_net_inflow[0]) == 0.0
        assert np.array_equal(full.flow, cut.flow)
        assert np.array_equal(full.head[:n_junc], cut.head[:n_junc])

    def test_grid_valve_closed(self):
        net = parse_inp(grid_inp(5))
        shut = Controls(valve_open={"v1": False})
        demands = {j: 5e-4 for j in net.junctions}
        self.assert_same_as_fresh(net, demands)
        state = self.assert_same_as_fresh(net, demands, controls=shut)
        assert float(state.flow[list(net.link_ids()).index("v1")]) == 0.0
        self.assert_same_as_fresh(net, demands)

    def test_grid_pump_off_and_back(self):
        """Each topology numbers its own unknowns."""
        net = parse_inp(grid_inp(11))
        off = Controls(pump_running={"pu1": False})
        demands = {j: 5e-4 for j in net.junctions}
        first = self.assert_same_as_fresh(net, demands)
        self.assert_same_as_fresh(net, demands, controls=off)
        self.assert_same_as_fresh(net, demands,
                                  controls=Controls(valve_open={"v1": False}))
        again = self.assert_same_as_fresh(net, demands)
        assert np.array_equal(first.head, again.head)
        assert len(_layout(net)._topologies) == 3


class TestLayoutSharing:
    """One Network object compiles one solver layout: every solve_snapshot
    call and every EpsEngine on it share the layout and its topologies."""

    @staticmethod
    def count_builds(monkeypatch):
        built = {"_Layout": 0, "_Topology": 0}
        for cls in (hydraulics._Layout, hydraulics._Topology):
            def spy(obj, *args, _init=cls.__init__, _name=cls.__name__):
                built[_name] += 1
                _init(obj, *args)
            monkeypatch.setattr(cls, "__init__", spy)
        return built

    def test_snapshots_and_engines_build_one_layout(self, monkeypatch):
        net = parse_inp(grid_inp(5))
        built = self.count_builds(monkeypatch)
        settings = [Controls(), Controls(valve_open={"v1": False}),
                    Controls(pump_running={"pu1": False})]
        for k in range(50):
            solve_snapshot(net, base_demands(net, 1.0 + k % 7 / 10.0),
                           settings[k % 3])
        assert built == {"_Layout": 1, "_Topology": 3}
        first = EpsEngine(net).run().digest()
        before = dict(built)
        second = EpsEngine(net)
        assert second.run().digest() == first
        assert built == before

    def test_a_failed_compile_is_not_kept(self, pumpnet):
        bad = replace(pumpnet, curves={"c1": Curve("c1", ((0.0, 10.0),
                                                          (0.1, 8.0)))})
        for _ in range(2):
            with pytest.raises(CurveFitError):
                solve_snapshot(bad, base_demands(bad))
        assert "_layout" not in bad.__dict__


def run_recording_inputs(engine):
    """Step an engine to its horizon; keep each snapshot's inputs as the
    engine sees them (t, demands, controls, emitters, tank levels)."""
    inputs, states = [], []
    net = engine.network
    while engine.step_index < engine.total_steps:
        t = float(engine.step_index * engine.step_s)
        inputs.append((
            t, {jid: j.base_demand * pattern_value(
                net.patterns.get(j.demand_pattern_id), t,
                net.options.pattern_step_s)
                for jid, j in net.junctions.items()},
            engine.control_hook(t) if engine.control_hook else None,
            engine.emitter_hook(t) if engine.emitter_hook else None,
            dict(zip(engine.layout.inc.tank_ids,
                     engine.tank_levels.tolist()))))
        states.append(engine.step_once())
    return inputs, states


class TestSnapshotPurity:
    """A snapshot solved alone, on a copy of the network and so on a fresh
    layout, equals the same snapshot inside an EPS run bit for bit: the
    Newton start depends on the topology only, never on the snapshots
    solved before. The engine serves a
    snapshot whose inputs repeat from its memo, so this also checks those
    hits against a fresh solve."""

    STATE_ARRAYS = ("flow", "head", "pressure_head", "tank_level",
                    "actual_demand", "tank_net_inflow")

    def assert_pure(self, network, engine, picks):
        inputs, states = run_recording_inputs(engine)
        for i in picks(states):
            t, demands, controls, emitters, levels = inputs[i]
            alone = solve_snapshot(replace(network), demands, controls,
                                   emitters=emitters, tank_levels=levels, t=t)
            for name in self.STATE_ARRAYS:
                assert getattr(alone, name).tobytes() \
                    == getattr(states[i], name).tobytes(), (t, name)
            assert states[i].t == t
            assert states[i].leak_flow == alone.leak_flow, t
            assert (states[i].iterations, states[i].mass_residual,
                    states[i].energy_residual) == (
                alone.iterations, alone.mass_residual,
                alone.energy_residual), t
        return states

    def assert_hits_are_fresh(self, network, engine):
        """Every snapshot of a run equals a fresh solve, some were served
        from the memo, and no served state can alter another."""
        states = self.assert_pure(network, engine, lambda s: range(len(s)))
        assert engine.solves < len(states)
        assert len({id(s.leak_flow) for s in states}) == len(states)
        for s in states:
            assert not any(getattr(s, name).flags.writeable
                           for name in self.STATE_ARRAYS)
        return states

    def test_control_sets_are_keyed_by_content(self, toy9):
        # one Controls object is passed throughout; closing a pipe in its
        # dict between steps must give a new control set, not a hit
        controls = Controls()
        engine = EpsEngine(toy9, duration_s=3600, step_s=300)
        p10 = incidence(toy9).link_index["p10"]
        assert float(engine.step_once(controls).flow[p10]) != 0.0
        controls.pipe_open["p10"] = False
        assert float(engine.step_once(controls).flow[p10]) == 0.0
        assert engine.solves == 2

    def test_hooks_are_evaluated_once_per_step_when_planning(self, toy9):
        # the plan keeps each step's content: editing the object the hook
        # returned, after the engine is made, changes no step
        controls, calls = Controls(), []
        engine = EpsEngine(toy9, duration_s=3600, step_s=300,
                           control_hook=lambda t: calls.append(t) or controls)
        first = engine.step_once()
        controls.pipe_open["p10"] = False
        assert engine.step_once().flow.tobytes() == first.flow.tobytes()
        assert calls == [300.0 * k for k in range(12)]
        assert engine.solves == 1

    def test_reservoir_head_pattern(self):
        # demands are constant, so only the reservoir head tells the hours
        # apart; the third hour repeats the first
        net = Network(
            junctions={"j1": Junction("j1", 5.0, 2e-3),
                       "j2": Junction("j2", 4.0, 3e-3)},
            reservoirs={"r1": Reservoir("r1", 40.0, "lift")},
            pipes={"p1": Pipe("p1", "r1", "j1", 300.0, 0.2, 110.0),
                   "p2": Pipe("p2", "j1", "j2", 200.0, 0.15, 110.0)},
            patterns={"lift": Pattern("lift", (1.0, 1.05, 1.0))})
        engine = EpsEngine(net, duration_s=3 * 3600, step_s=300)
        states = self.assert_hits_are_fresh(net, engine)
        assert engine.solves == 2
        assert states[12].head[0] > states[0].head[0]

    def test_toy9_two_days_with_incipient_leak(self, toy9):
        leak = LeakageEvent(kind="incipient", link_id="p3", diameter=0.01,
                            window=EventWindow(10 * 3600, 40 * 3600,
                                               peak_time=20 * 3600))

        def emitters(t):
            k = leak_emitter_coef(leak, t)
            return {"n3": k} if k > 0.0 else None
        engine = EpsEngine(toy9, duration_s=2 * 86400, step_s=300,
                           emitter_hook=emitters)
        states = self.assert_hits_are_fresh(toy9, engine)
        # day 2 repeats day 1 only where the leak does not differ
        assert 24 * 3 < engine.solves < len(states) // 2
        assert states[30 * 12].leak_flow["n3"] > 0.0

    def test_pumpnet_speed_window_and_full_tank(self, pumpnet):
        # the faster pump fills the tank by 21 h; from then on the tank sits
        # closed at its top and every snapshot repeats the first one there
        fast = Controls(pump_speed={"pu1": 1.2})
        engine = EpsEngine(pumpnet, duration_s=86400, step_s=300,
                           control_hook=lambda t: fast
                           if 2 * 3600 <= t < 5 * 3600 else None)
        states = self.assert_hits_are_fresh(pumpnet, engine)
        top = pumpnet.tanks["t1"].max_level
        full = [i for i, s in enumerate(states)
                if float(s.tank_level[0]) == top
                and float(s.tank_net_inflow[0]) == 0.0]
        assert full and full == list(range(full[0], len(states)))
        assert engine.solves == full[0] + 1

    def test_toy9_day_with_leak(self, toy9):
        engine = EpsEngine(toy9, duration_s=86400, step_s=300,
                           emitter_hook=lambda t: {"n3": 2e-4}
                           if 6 * 3600 <= t < 18 * 3600 else None)
        self.assert_pure(toy9, engine, lambda s: range(0, len(s), 23))

    def test_pumpnet_day_with_tank_closure(self, pumpnet):
        top = pumpnet.tanks["t1"].max_level

        def closed(states):
            hits = [i for i, s in enumerate(states)
                    if float(s.tank_level[0]) >= top
                    and float(s.tank_net_inflow[0]) == 0.0]
            assert hits
            return hits[::5] + list(range(0, len(states), 31))
        self.assert_pure(pumpnet, EpsEngine(pumpnet, duration_s=86400,
                                            step_s=300), closed)

    def test_grid_with_valve_closed_mid_run(self):
        net = parse_inp(grid_inp(5))
        shut = Controls(valve_open={"v1": False})
        engine = EpsEngine(net, control_hook=lambda t: shut
                           if 8 * 3600 <= t < 16 * 3600 else None)
        states = self.assert_pure(net, engine, lambda s: range(len(s)))
        valve = list(net.link_ids()).index("v1")
        assert float(states[10].flow[valve]) == 0.0
        assert float(states[4].flow[valve]) != 0.0


class TestPlannedHorizon:
    """The engine plans a horizon's inputs once. Each planned row equals,
    bit for bit, the per-t evaluation: every pattern's multiplier by
    `pattern_value` at the network's pattern step, the reservoir heads, and the emitters and controls the
    hooks return at t. Steps share an input id exactly when their inputs
    are bytewise equal, so 0.0 and -0.0 stay apart."""

    @staticmethod
    def assert_plan_is_per_t(engine):
        layout = engine.layout
        step = engine.network.options.pattern_step_s
        rows = []
        for k in range(engine.total_steps):
            t = float(k * engine.step_s)
            mult = np.array([pattern_value(p, t, step)
                             for p in layout.demand_patterns], dtype=float)
            lift = np.array([pattern_value(p, t, step)
                             for p in layout.res_patterns], dtype=float)
            assert engine._mult[k].tobytes() == mult.tobytes(), t
            assert layout.multipliers(layout.demand_patterns, t).tobytes() \
                == mult.tobytes(), t
            heads = layout.res_head * lift
            assert engine._res[k].tobytes() == heads.tobytes(), t
            emit = np.zeros(len(layout.inc.node_ids))
            emit[engine._emit_nodes] = engine._emit[k]
            hooked = engine.emitter_hook(t) if engine.emitter_hook else None
            assert emit.tobytes() == layout.emitter_k(hooked or {}).tobytes()
            controls = engine.control_hook(t) if engine.control_hook else None
            assert engine._settings[k] == _link_settings(layout.inc, controls)
            rows.append((mult.tobytes(), heads.tobytes(), emit.tobytes(),
                         _link_settings(layout.inc, controls)))
        pairs = set(zip(engine._input, rows))
        assert len(pairs) == len(set(engine._input)) == len(set(rows))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_planned_rows_equal_the_per_t_evaluation(self, pumpnet, data):
        values = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
        steps = st.sampled_from([300, 450, 3600]) | st.integers(1, 5000)

        def pattern(pid):
            return Pattern(pid, tuple(data.draw(st.lists(values, min_size=1,
                                                         max_size=6))))
        net = replace(
            pumpnet, patterns={"d": pattern("d"), "lift": pattern("lift")},
            options=replace(pumpnet.options, pattern_step_s=data.draw(steps)),
            junctions={**pumpnet.junctions, "j1": replace(
                pumpnet.junctions["j1"], demand_pattern_id="d")},
            reservoirs={"r1": replace(pumpnet.reservoirs["r1"],
                                      head_pattern_id="lift")})
        step_s = data.draw(st.sampled_from([60, 300, 900, 3600]))
        n = data.draw(st.integers(1, 40))

        def window(peak=False):
            a, b = sorted(data.draw(st.lists(st.integers(0, n), min_size=2,
                                             max_size=2, unique=True)))
            mid = data.draw(st.integers(a, b)) * step_s if peak else None
            return EventWindow(a * step_s, b * step_s, mid)
        leaks = []
        for kind in data.draw(st.lists(st.sampled_from(
                ["abrupt", "incipient", "pattern"]), max_size=3)):
            leaks.append(LeakageEvent(
                kind=kind, link_id="p1",
                diameter=data.draw(st.floats(1e-3, 0.05)),
                window=window(kind == "incipient"),
                area_pattern=tuple(data.draw(st.lists(
                    st.floats(0.0, 1.0), min_size=1, max_size=4)))
                if kind == "pattern" else None))
        actuators = [ActuatorEvent(kind=kind, target_id="pu1",
                                   value=data.draw(st.booleans()) if kind
                                   == "pump_state" else data.draw(
                                       st.sampled_from([0.0, 0.8, 1.0])),
                                   window=window())
                     for kind in data.draw(st.lists(st.sampled_from(
                         ["pump_state", "pump_speed"]), max_size=3))]

        def emitters(t):
            ks = [leak_emitter_coef(e, t) for e in leaks]
            return {"j2": sum(ks)} if any(ks) else None
        self.assert_plan_is_per_t(EpsEngine(
            net, duration_s=n * step_s, step_s=step_s,
            control_hook=lambda t: resolve_controls(actuators, t),
            emitter_hook=emitters))

    def test_signed_zero_multipliers_get_their_own_input_ids(self, pumpnet):
        net = replace(
            pumpnet, patterns={"d": Pattern("d", (0.0, -0.0, 0.0))},
            options=replace(pumpnet.options, pattern_step_s=300),
            junctions={**pumpnet.junctions, "j1": replace(
                pumpnet.junctions["j1"], demand_pattern_id="d")})
        engine = EpsEngine(net, duration_s=1800, step_s=300)
        self.assert_plan_is_per_t(engine)
        assert engine._input == [0, 1, 0, 0, 1, 0]

    @staticmethod
    def assert_same_run(network, hook, edited, fresh):
        """The run whose hook edits and returns one object each call equals
        the run whose hook returns a fresh one, bit for bit."""
        a, b = (simulate_hydraulics(network, duration_s=3600,
                                    hydraulic_step_s=300, **{hook: h})
                for h in (edited, fresh))
        assert a.digest() == b.digest()
        assert a.leak_ids == b.leak_ids
        assert a.leak_flow.tobytes() == b.leak_flow.tobytes()
        return a

    def test_an_emitter_hook_may_return_one_edited_dict(self, toy9):
        shared = {}

        def fresh(t):
            return {"n3": 0.001} if t < 1800 else None

        def edited(t):
            shared.clear()
            shared.update(fresh(t) or {})
            return shared
        series = self.assert_same_run(toy9, "emitter_hook", edited, fresh)
        leak = series.leak_flow[:, series.leak_ids.index("n3")]
        assert (leak[:6] > 0.0).all() and np.isnan(leak[6:]).all()

    def test_a_control_hook_may_return_one_edited_set(self, pumpnet):
        shared = Controls()

        def fresh(t):
            return Controls(pump_running={"pu1": t < 1800})

        def edited(t):
            shared.pump_running["pu1"] = t < 1800
            return shared
        series = self.assert_same_run(pumpnet, "control_hook", edited, fresh)
        flow = series.flow[:, series.link_ids.index("pu1")]
        assert (flow[:6] > 0.0).all() and (flow[6:] == 0.0).all()


def zero_pattern_network(base_demand):
    """r1 feeds j1 and j2 in series; j3 hangs off j2 on the closed pipe p3.
    j3's demand pattern is zero for the first hour, then one."""
    return Network(
        junctions={"j1": Junction("j1", 5.0, base_demand),
                   "j2": Junction("j2", 4.0, base_demand),
                   "j3": Junction("j3", 3.0, 0.01, "late")},
        reservoirs={"r1": Reservoir("r1", 40.0)},
        pipes={"p1": Pipe("p1", "r1", "j1", 300.0, 0.2, 110.0),
               "p2": Pipe("p2", "j1", "j2", 200.0, 0.15, 110.0),
               "p3": Pipe("p3", "j2", "j3", 100.0, 0.1, 110.0, open=False)},
        patterns={"late": Pattern("late", (0.0, 1.0))})


class TestReferenceStart:
    """Each topology solves one static snapshot once and starts every
    snapshot from its flows, scaled by total demand; the cold start q0 is
    the fallback."""

    def test_toy9_day_iteration_budget(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=86400,
                                     hydraulic_step_s=300)
        iters = [s.iterations for s in series.states]
        assert sum(iters) / len(iters) <= 4.0

    def test_unreached_junction_with_zero_pattern_demand(self):
        # j3 has a base demand but is cut off; its pattern is zero, so the
        # snapshot is valid, and the reference must leave j3's demand out
        net = zero_pattern_network(2e-3)
        series = simulate_hydraulics(net, duration_s=3600,
                                     hydraulic_step_s=300)
        p3 = incidence(net).link_index["p3"]
        for state in series.states:
            assert state.converged
            assert state.mass_residual <= MASS_TOL
            assert max(map(abs, mass_residuals(net, state).values())) \
                <= MASS_TOL
            assert float(state.flow[p3]) == 0.0
        assert series.states[0].iterations <= 3

    def test_zero_base_demands_fall_back_to_cold_start(self):
        net = zero_pattern_network(0.0)
        state = solve_snapshot(net, {"j1": 1e-3, "j2": 2e-3})
        (topo,) = _layout(net)._topologies.values()
        assert topo.ref_flow is None
        assert state.converged
        assert max(map(abs, mass_residuals(net, state).values())) <= MASS_TOL

    @pytest.mark.parametrize("side", [5, 12])
    @pytest.mark.parametrize("k", [1e-4, 1e-3, 1e-2])
    def test_cold_start_with_an_emitter(self, side, k):
        """With no base demand there is no reference solve: an emitter
        starts from the initial heads, every unknown node at the highest of
        the reservoir's and the tank's heads."""
        net = parse_inp(grid_inp(side))
        net = replace(net, junctions={
            jid: replace(j, base_demand=0.0)
            for jid, j in net.junctions.items()})
        demands = {jid: 5e-4 for jid in net.junctions}
        junctions = list(incidence(net).junction_ids)
        for jid in junctions[side + 1::2 * side + 3]:
            state = solve_snapshot(net, demands, emitters={jid: k})
            assert state.converged
            assert max(map(abs, mass_residuals(net, state).values())) \
                <= MASS_TOL
            pressure = float(state.pressure_head[junctions.index(jid)])
            assert state.leak_flow[jid] == pytest.approx(
                k * math.sqrt(pressure), rel=1e-12)
        (topo,) = _layout(net)._topologies.values()
        assert topo.ref_flow is None

    def test_unconverged_reference_falls_back_to_cold_start(
            self, toy9, monkeypatch):
        demands = {jid: 2e-5 for jid in toy9.junctions}
        warm = solve_snapshot(toy9, demands)
        # a copy compiles its own layout, so the failed reference stays off
        # the shared fixture
        net = replace(toy9)
        monkeypatch.setattr("wdnflow.hydraulics.MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError):
            solve_snapshot(net, demands)
        monkeypatch.undo()
        # the cached topology kept no reference, so this solve cold-starts
        cold = solve_snapshot(net, demands)
        assert cold.converged and cold.iterations > warm.iterations
        assert np.abs(cold.head - warm.head).max() <= 1e-6


def run_python(code, *args, **env):
    """Standard output of `python -c code args` with the package on its
    path and the extra environment variables env."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=environ, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a day of grid_inp(12) (144 unknowns) at 5-minute steps, then a 5 mm leak
# for two hours; every junction and every other pipe is metered, and the
# detector is fitted on the first day and applied to the leak. Prints, as
# JSON, the output files' digests, the series digest, the alarms and a
# digest of the detector's weights.
THREAD_RUN = """
import hashlib, json, sys
from wdnflow import parse_inp
from wdnflow.detection import SensorInterpolationDetector
from wdnflow.events import EventWindow, LeakageEvent
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import ScenarioConfig, run_scenario, write_outputs
from wdnflow.uncertainty import UncertaintyModel
path, out = sys.argv[1], sys.argv[2]
net = parse_inp(open(path).read())
pipes = sorted(net.pipes)
result = run_scenario(ScenarioConfig(
    network_path=path, duration_s=26 * 3600, hydraulic_time_step_s=300,
    sensors=SensorPlacement(pressure_nodes=tuple(sorted(net.junctions)),
                            flow_links=tuple(pipes[::2])),
    leakages=(LeakageEvent(kind="abrupt", link_id=pipes[100],
                           diameter=0.005,
                           window=EventWindow(24 * 3600, 26 * 3600)),),
    uncertainties=(UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                                    params={"sigma": 0.005}),),
    seed=5, scada_csv_path=out + "/scada.csv",
    truth_csv_path=out + "/truth.csv"))
write_outputs(result)
values, times = result.scada.values, result.scada.times
detector = SensorInterpolationDetector().fit(values[:288])
alarms = detector.apply(values[288:], times=times[288:]).suspicious_times
print(json.dumps({
    "scada": hashlib.sha256(open(out + "/scada.csv", "rb").read()).hexdigest(),
    "truth": hashlib.sha256(open(out + "/truth.csv", "rb").read()).hexdigest(),
    "series": result.series.digest(), "alarms": alarms,
    "weights": hashlib.sha256(detector.weights.tobytes()).hexdigest()}))
"""


class TestSolverBackends:
    """Every system is solved by one banded Cholesky factor and solve from
    scipy's LAPACK extension, loaded without importing scipy.linalg, with
    the unknowns numbered in reverse Cuthill-McKee order per topology. The
    output bytes do not depend on the BLAS thread count."""

    @pytest.fixture(scope="class")
    def thread_runs(self, tmp_path_factory):
        """THREAD_RUN's results at 1 and at 2 OpenBLAS threads."""
        root = tmp_path_factory.mktemp("threads")
        path = root / "grid12.inp"
        path.write_text(grid_inp(12))
        runs = []
        for threads in (1, 2):
            out = root / f"out{threads}"
            out.mkdir()
            runs.append(json.loads(run_python(
                THREAD_RUN, path, out, OPENBLAS_NUM_THREADS=str(threads))))
        return runs

    def test_outputs_do_not_depend_on_the_thread_count(self, thread_runs):
        one, two = thread_runs
        for key in ("scada", "truth", "series"):
            assert one[key] == two[key], key

    def test_alarms_do_not_depend_on_the_thread_count(self, thread_runs):
        """The fitted weights may differ in their last bits between thread
        counts; the alarms are the contract: every step of the leak."""
        leak = [24 * 3600.0 + 300.0 * k for k in range(24)]
        assert [run["alarms"] for run in thread_runs] == [leak, leak]

    @pytest.mark.parametrize("network", ["toy9", "grid10"])
    def test_run_imports_neither_scipy_linalg(self, network, tmp_path):
        """Importing scipy.linalg raised the toy9_twoweek benchmark's
        peak_rss_mb from 60 to 82 MB, so a run loads the LAPACK extension
        alone, once, and imports neither scipy.linalg nor scipy.sparse."""
        path = tmp_path / "grid10.inp"
        path.write_text(grid_inp(10))
        code = (
            "import sys\n"
            "from wdnflow import bundled, hydraulics\n"
            "from wdnflow.scada import SensorPlacement\n"
            "from wdnflow.scenario import ScenarioConfig, run_scenario\n"
            "path, node = ((bundled.toy9_path(), 'n1') if sys.argv[1] =="
            " 'toy9' else (sys.argv[2], 'j000000'))\n"
            "run_scenario(ScenarioConfig(network_path=path,"
            " duration_s=7200, sensors=SensorPlacement("
            "pressure_nodes=(node,))))\n"
            "info = hydraulics._lapack.cache_info()\n"
            "print(info.misses, info.currsize,"
            " 'scipy.linalg' in sys.modules,"
            " 'scipy.sparse' in sys.modules)\n")
        assert run_python(code, network, path).split() == [
            "1", "1", "False", "False"]

    def test_loaded_extension_solves_as_the_imported_one(self, tmp_path):
        """The extension loaded by its file path and the one scipy imports
        give the same bytes."""
        path = tmp_path / "grid10.inp"
        path.write_text(grid_inp(10))
        code = (
            "import sys\n"
            "from wdnflow import hydraulics, parse_inp\n"
            "net = parse_inp(open(sys.argv[1]).read())\n"
            "demands = {j: 1e-3 for j in net.junctions}\n"
            "def solve():\n"
            "    state = hydraulics.solve_snapshot(net, demands,"
            " emitters={'j005005': 0.01})\n"
            "    return state.head.tobytes() + state.flow.tobytes()\n"
            "loaded = solve()\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import scipy.linalg\n"
            "hydraulics._lapack.cache_clear()\n"
            "imported = solve()\n"
            "print(hydraulics._lapack() is sys.modules["
            "'scipy.linalg._flapack'], loaded == imported)\n")
        assert run_python(code, path).split() == ["False", "True", "True"]

    def test_band_heads_match_the_dense_solve(self, monkeypatch):
        """Each band solve of a snapshot gives the heads np.linalg.solve
        gives on the same system, unpacked to a dense symmetric matrix."""
        lapack = hydraulics._lapack()
        systems = []

        class Recording:
            @staticmethod
            def dpbtrf(ab, **kw):
                systems.append([ab.copy()])
                return lapack.dpbtrf(ab, **kw)

            @staticmethod
            def dpbtrs(factor, b, **kw):
                systems[-1].append(b.copy())
                x, info = lapack.dpbtrs(factor, b, **kw)
                systems[-1].append(x.copy())
                return x, info
        net = parse_inp(grid_inp(12))
        demands = base_demands(net, 1.5)
        emitters = {"j004007": 0.01, "j010002": 1e-3}
        expected = solve_snapshot(net, demands, emitters=emitters)
        systems.clear()
        monkeypatch.setattr(hydraulics, "_lapack", lambda: Recording)
        state = solve_snapshot(net, demands, emitters=emitters)
        assert np.array_equal(state.head, expected.head)
        assert len(systems) == state.iterations
        for ab, b, x in systems:
            kd, n_u = ab.shape[0] - 1, ab.shape[1]
            dense = np.zeros((n_u, n_u))
            for d in range(kd + 1):
                i = np.arange(n_u - d)
                dense[i + d, i] = dense[i, i + d] = ab[d, :n_u - d]
            exact = np.linalg.solve(dense, b)
            assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("side", [9, 10, 12])
    def test_unknowns_are_numbered_in_rcm_order(self, side):
        """A reversed breadth-first walk from the corner junction j000000 (a
        lowest-degree unknown) numbers a side x side grid's junctions with
        band half-width side."""
        net = parse_inp(grid_inp(side))
        solve_snapshot(net, base_demands(net))
        (topo,) = _layout(net)._topologies.values()
        n_u = len(topo.unknown)
        assert sorted(topo.unknown) == list(range(n_u))   # junctions first
        assert np.array_equal(topo.u_of_node[topo.unknown], np.arange(n_u))
        assert topo.unknown[-1] == 0   # j000000, the walk's start
        assert topo.kd == side

    @pytest.mark.parametrize("side", [9, 10, 12])
    def test_an_interior_dead_end_keeps_the_band_narrow(self, side):
        """A dead-end junction off an interior junction is the grid's one
        lowest-degree unknown. The walk still starts at a far corner, so
        the band half-width stays side (from the dead end it is about
        twice that)."""
        mid = side // 2 - 1
        text = grid_inp(side).replace(
            "[RESERVOIRS]", " jdead  1.0  0.05  daily\n[RESERVOIRS]", 1
        ).replace("[PATTERNS]", f" pdead  j{mid:03d}{mid:03d}  jdead  100"
                  "  200  110\n[PATTERNS]", 1)
        net = parse_inp(text)
        solve_snapshot(net, base_demands(net))
        (topo,) = _layout(net)._topologies.values()
        assert list(net.junctions)[topo.unknown[-1]] == \
            f"j{side - 1:03d}{side - 1:03d}"
        assert topo.kd == side

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_unknowns_and_island_heads_match_networkx(self, data):
        """On random networks and open-link masks, the unknowns (reached by
        an open path from a reservoir or tank) come numbered as reverse
        Cuthill-McKee numbers them when renumbered in node order, and each
        unreached node starts at the highest elevation of its component."""
        k = data.draw(st.integers(1, 12))
        jids = [f"j{i:02d}" for i in range(k)]
        ids = jids + ["r1"] + data.draw(st.sampled_from([[], ["t1"]]))
        ends = data.draw(st.lists(st.lists(st.sampled_from(ids), min_size=2,
                                           max_size=2, unique=True),
                                  min_size=1, max_size=2 * k))
        net = Network(
            junctions={j: Junction(j, data.draw(st.sampled_from(
                [0.0, 1.5, 2.0, 7.25]))) for j in jids},
            reservoirs={"r1": Reservoir("r1", 50.0)},
            tanks={"t1": Tank("t1", 5.0, 2.0, 1.0, 0.0, 3.0)}
            if "t1" in ids else {},
            pipes={f"p{i:02d}": Pipe(f"p{i:02d}", a, b, 100.0, 0.2, 100.0)
                   for i, (a, b) in enumerate(ends)})
        layout = _layout(net)
        inc = layout.inc
        active = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(ends), max_size=len(ends))))
        topo = layout.topology(active)
        n = len(inc.node_ids)
        links = list(zip(inc.link_from[active].tolist(),
                         inc.link_to[active].tolist()))
        g = nx.Graph(links)
        g.add_nodes_from(range(n))
        fixed = set(range(n)[layout.fixed])
        reached = set().union(*(nx.node_connected_component(g, v)
                                for v in fixed))
        unknown = sorted(reached - fixed)
        u = {v: i for i, v in enumerate(unknown)}
        edges = [(u[a], u[b]) for a, b in links if a in u and b in u]
        assert topo.unknown.tolist() == [
            unknown[i] for i in _reverse_cuthill_mckee(len(unknown), edges)]
        head = topo.initial_head(np.full(len(fixed), 99.0))
        for island in nx.connected_components(g):
            if not island & reached:
                top = max(layout.node_elev[v] for v in island)
                assert all(head[v] == top for v in island)

    def test_a_system_with_no_unknowns_is_solved(self):
        """A reservoir feeding a tank through one pipe has no unknown head:
        the empty band is factored and solved, and the pipe carries the
        flow whose head loss is the 16 m between the two."""
        net = parse_inp("\n".join([
            "[RESERVOIRS]", " r1  30.0",
            "[TANKS]", " t1  10.0  4.0  0.5  9.0  10.0",
            "[PIPES]", " p1  r1  t1  500  300  120",
            "[TIMES]", " Duration  6 HOURS", " Hydraulic Timestep  1 HOURS",
            " Pattern Timestep  1 HOURS",
            "[OPTIONS]", " Units  LPS", " Headloss  H-W", "[END]"]))
        state = solve_snapshot(net, {})
        (topo,) = _layout(net)._topologies.values()
        assert len(topo.unknown) == 0 and topo.kd == 0
        assert state.head.tolist() == [30.0, 14.0]
        assert hazen_williams_headloss(
            float(state.flow[0]), 500.0, 0.3, 120.0) == pytest.approx(
                16.0, rel=1e-9)
        series = EpsEngine(net).run()
        assert series.tank_level[:, 0].tolist() == [4.0] + [9.0] * 5

    def test_singular_band_solve_raises_nonconvergence(self, monkeypatch):
        lapack = hydraulics._lapack()

        class Singular:
            dpbtrs = lapack.dpbtrs

            @staticmethod
            def dpbtrf(ab, **kw):
                return ab, 1
        monkeypatch.setattr(hydraulics, "_lapack", lambda: Singular)
        net = parse_inp(grid_inp(10))
        with pytest.raises(NonConvergenceError):
            solve_snapshot(net, base_demands(net))


def explicit_controls(network):
    """Every link's own setting, stated as an override."""
    return Controls(
        pipe_open={p.id: p.open for p in network.pipes.values()},
        pump_running={p.id: p.running for p in network.pumps.values()},
        pump_speed={p.id: p.speed for p in network.pumps.values()},
        valve_open={v.id: v.open for v in network.valves.values()})


def with_pump(network, **settings):
    """The network with `settings` on its pump pu1."""
    pump = replace(network.pumps["pu1"], **settings)
    return replace(network, pumps={**network.pumps, "pu1": pump})


def with_valve_closed(network):
    """The network with its valve v1 closed."""
    valve = replace(network.valves["v1"], open=False)
    return replace(network, valves={**network.valves, "v1": valve})


class TestControlsAreOverrides:
    """No controls and every link's own setting stated explicitly give the
    same snapshot bit for bit, whatever the network's settings are."""

    @pytest.fixture(params=["toy9", "pumpnet", "pumpnet_parked",
                            "pumpnet_speed0", "grid", "grid_valve_closed",
                            "grid_parked_valve_closed"])
    def network(self, request, toy9, pumpnet, perfbench_module):
        grid = parse_inp(perfbench_module("netgen").grid_inp(6, 3))
        return {
            "toy9": toy9,
            "pumpnet": pumpnet,
            "pumpnet_parked": with_pump(pumpnet, running=False),
            "pumpnet_speed0": with_pump(pumpnet, speed=0.0),
            "grid": grid,
            "grid_valve_closed": with_valve_closed(grid),
            "grid_parked_valve_closed": with_valve_closed(
                with_pump(grid, running=False)),
        }[request.param]

    def test_snapshot_is_bitwise_equal(self, network):
        demands = {jid: j.base_demand for jid, j in network.junctions.items()}
        implicit = solve_snapshot(network, demands, Controls())
        explicit = solve_snapshot(network, demands, explicit_controls(network))
        for name in TestSnapshotPurity.STATE_ARRAYS:
            assert getattr(implicit, name).tobytes() \
                == getattr(explicit, name).tobytes(), name
        assert implicit.iterations == explicit.iterations
        assert solve_snapshot(network, demands).flow.tobytes() \
            == implicit.flow.tobytes()

    def test_run_is_bitwise_equal(self, network):
        full = explicit_controls(network)
        implicit = simulate_hydraulics(network, duration_s=7200,
                                       hydraulic_step_s=600)
        explicit = simulate_hydraulics(network, duration_s=7200,
                                       hydraulic_step_s=600,
                                       control_hook=lambda t: full)
        assert implicit.digest() == explicit.digest()

    @pytest.mark.parametrize("controls, message", [
        (Controls(pump_running={"nope": False}), "no pump 'nope'"),
        (Controls(pump_speed={"nope": 0.5}), "no pump 'nope'"),
        (Controls(pump_speed={"p1": 0.5}), "no pump 'p1'"),
        (Controls(valve_open={"nope": False}), "no valve 'nope'"),
        (Controls(valve_open={"p1": False}), "no valve 'p1'"),
        (Controls(pipe_open={"pu1": False}), "no pipe 'pu1'"),
    ])
    def test_override_must_name_a_link_of_its_kind(self, pumpnet, controls,
                                                   message):
        with pytest.raises(UnknownTargetError, match=message):
            solve_snapshot(pumpnet, {"j1": 5e-3}, controls)
        engine = EpsEngine(pumpnet, duration_s=900, step_s=300)
        with pytest.raises(UnknownTargetError, match=message):
            engine.step_once(controls)
        # a rejected set leaves no trace in the engine: it fails again, and
        # the engine still steps under valid controls
        with pytest.raises(UnknownTargetError, match=message):
            engine.step_once(controls)
        assert (engine.step_index, engine.solves, engine._memo) == (0, 0, {})
        assert engine.step_once(Controls()).t == 0.0
        # a hooked set is checked when the engine plans it
        with pytest.raises(UnknownTargetError, match=message):
            EpsEngine(pumpnet, duration_s=900, step_s=300,
                      control_hook=lambda t: controls)

    def test_the_plan_takes_every_setting_of_a_link_it_names(self, pumpnet):
        """A planned pump state drops an override of that pump's speed: the
        step equals the step with no overrides, bit for bit."""
        def engine():
            return EpsEngine(pumpnet, duration_s=1800, step_s=300,
                             control_hook=lambda t: Controls(
                                 pump_running={"pu1": True}))
        slow = Controls(pump_speed={"pu1": 0.5})
        plain, overridden = engine(), engine()
        for _ in range(plain.total_steps):
            a, b = plain.step_once(), overridden.step_once(slow)
            for name in TestSnapshotPurity.STATE_ARRAYS:
                assert getattr(a, name).tobytes() \
                    == getattr(b, name).tobytes(), name
            assert a.iterations == b.iterations
        # without the plan the override is in force
        free = EpsEngine(pumpnet, duration_s=1800, step_s=300)
        assert not np.array_equal(free.solve_current(slow).flow,
                                  free.solve_current().flow)


JUNK = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, "1e-3", None])


class TestSnapshotInputRules:
    """Every snapshot input names an element of its kind and holds a valid
    value: override values follow the actuator value rule, demands, emitter
    coefficients and tank levels are finite numbers, emitters k >= 0."""

    @pytest.mark.parametrize("controls, message", [
        (Controls(pump_speed={"pu1": math.nan}),
         "pump 'pu1': pump_speed value"),
        (Controls(pump_speed={"pu1": -1.0}), "pump 'pu1': pump_speed value"),
        (Controls(pump_speed={"pu1": math.inf}),
         "pump 'pu1': pump_speed value"),
        (Controls(pump_speed={"pu1": True}), "pump 'pu1': pump_speed value"),
        (Controls(pump_running={"pu1": "yes"}),
         "pump 'pu1': pump_running value"),
        (Controls(pump_running={"pu1": 0}), "pump 'pu1': pump_running value"),
        (Controls(pump_running={"pu1": None}),
         "pump 'pu1': pump_running value"),
        (Controls(pipe_open={"p1": 1}), "pipe 'p1': pipe_open value"),
    ])
    def test_override_values_follow_the_actuator_rule(self, pumpnet, controls,
                                                      message):
        with pytest.raises(ConfigError, match=message):
            solve_snapshot(pumpnet, {"j1": 5e-3}, controls)
        with pytest.raises(ConfigError, match=message):
            EpsEngine(pumpnet, duration_s=900, step_s=300).step_once(controls)
        with pytest.raises(ConfigError, match=message):
            EpsEngine(pumpnet, duration_s=900, step_s=300,
                      control_hook=lambda t: controls)

    def test_an_equal_value_of_another_type_is_no_memo_hit(self, pumpnet):
        # 1 == True, but only True is a pump state
        engine = EpsEngine(pumpnet, duration_s=900, step_s=300)
        engine.solve_current(Controls(pump_running={"pu1": True}))
        with pytest.raises(ConfigError, match="pump_running value"):
            engine.solve_current(Controls(pump_running={"pu1": 1}))

    @pytest.mark.parametrize("kw, error, message", [
        (dict(emitters={"t1": 0.01}), UnknownTargetError, "no junction 't1'"),
        (dict(emitters={"zz": 0.01}), UnknownTargetError, "no junction 'zz'"),
        (dict(emitters={"j1": -0.01}), ConfigError, "emitter k at 'j1'"),
        (dict(emitters={"j1": math.nan}), ConfigError, "emitter k at 'j1'"),
        (dict(demands={"j1": math.nan}), ConfigError, "demand at 'j1'"),
        (dict(demands={"t1": 1e-3}), UnknownTargetError, "no junction 't1'"),
        (dict(demands={"zz": 1e-3}), UnknownTargetError, "no junction 'zz'"),
        (dict(tank_levels={"t1": math.nan}), ConfigError,
         "tank level at 't1'"),
        (dict(tank_levels={"j1": 2.0}), UnknownTargetError, "no tank 'j1'"),
    ])
    def test_inputs_name_real_elements_and_are_finite(self, pumpnet, kw,
                                                      error, message):
        demands = kw.pop("demands", {"j1": 5e-3, "j2": 3e-3})
        with pytest.raises(error, match=message):
            solve_snapshot(pumpnet, demands, **kw)

    def test_numpy_scalars_are_numbers(self, toy9):
        # validate holds numpy reals in network fields to be numbers; so do
        # the snapshot inputs and the actuator values
        demand = np.float32(0.01)
        state = solve_snapshot(toy9, {"n1": demand, "n2": np.int64(0)})
        plain = solve_snapshot(toy9, {"n1": float(demand), "n2": 0.0})
        np.testing.assert_array_equal(state.head, plain.head)
        speed = actuator_value("pump_speed", np.float32(0.5))
        assert speed == 0.5 and type(speed) is float
        with pytest.raises(ConfigError, match="pump_speed value"):
            actuator_value("pump_speed", np.float32(-0.5))
        # a state is a bool or a numpy bool, returned as a bool so an
        # actuator event's value stays JSON; a number is no state, and a
        # bool of either kind is no speed
        for value in (np.True_, np.False_):
            setting = actuator_value("pump_running", value)
            assert setting == value and type(setting) is bool
        event = ActuatorEvent(kind="valve_state", target_id="v1",
                              value=np.False_, window=EventWindow(0.0, 60.0))
        assert event.value is False and json.dumps(event.value) == "false"
        for value in (0, 1, np.int64(1), 1.0):
            with pytest.raises(ConfigError, match="valve_open value"):
                actuator_value("valve_open", value)
        for value in (True, np.True_, np.False_):
            with pytest.raises(ConfigError, match="pump_speed value"):
                actuator_value("pump_speed", value)

    def test_engine_emitter_must_name_a_junction(self, pumpnet):
        # the engine plans its horizon when it is made
        with pytest.raises(UnknownTargetError, match="no junction 't1'"):
            EpsEngine(pumpnet, duration_s=900, step_s=300,
                      emitter_hook=lambda t: {"t1": 0.01})

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_bad_inputs_raise_only_package_errors(self, pumpnet, data):
        ids = st.sampled_from(sorted(pumpnet.junctions) + sorted(pumpnet.tanks)
                              + sorted(pumpnet.link_ids()) + ["r1", "zz"])

        def entries(valid, size=3):
            return data.draw(st.dictionaries(ids, st.one_of(valid, JUNK),
                                             max_size=size))
        bools = st.one_of(st.booleans(), st.sampled_from([0, 1, "yes"]))
        controls = Controls(pipe_open=entries(bools, 2),
                            pump_running=entries(bools, 2),
                            pump_speed=entries(st.floats(0.0, 1.5), 2),
                            valve_open=entries(bools, 2))
        try:
            solve_snapshot(pumpnet, entries(st.floats(-2e-3, 1e-2)), controls,
                           emitters=entries(st.floats(0.0, 1e-3)),
                           tank_levels=entries(st.floats(0.0, 6.0)))
        except NonConvergenceError as exc:
            pytest.fail(f"not rejected up front: {exc}")
        except WdnflowError:
            pass


class TestControlsAndFailureModes:
    def test_closed_pipe_carries_no_flow(self, toy9):
        controls = Controls(pipe_open={"p10": False})
        demands = {jid: 2e-5 for jid in toy9.junctions}
        state = solve_snapshot(toy9, demands, controls=controls)
        inc = incidence(toy9)
        assert float(state.flow[inc.link_index["p10"]]) == 0.0
        assert state.converged

    def test_disconnecting_demand_raises(self, toy9):
        controls = Controls(pipe_open={"p1": False})
        demands = {jid: 2e-5 for jid in toy9.junctions}
        with pytest.raises(DisconnectedDemandError):
            solve_snapshot(toy9, demands, controls=controls)

    def test_iteration_cap_raises(self, toy9, monkeypatch):
        monkeypatch.setattr("wdnflow.hydraulics.MAX_ITERATIONS", 1)
        demands = {jid: 2e-5 for jid in toy9.junctions}
        # on a copy, so no topology built under the cap stays on the fixture
        with pytest.raises(NonConvergenceError) as exc:
            solve_snapshot(replace(toy9), demands)
        assert exc.value.iterations == 1
        assert math.isfinite(exc.value.residual) and exc.value.residual > 0.0

    def test_engine_names_the_failing_snapshot(self, toy9, monkeypatch):
        # hourly steps: t = 10800 s falls in a pattern hour not met before,
        # so its inputs are new and the snapshot is solved
        engine = EpsEngine(toy9, duration_s=86400, step_s=3600)
        for _ in range(3):
            engine.step_once()
        monkeypatch.setattr("wdnflow.hydraulics.MAX_ITERATIONS", 0)
        with pytest.raises(NonConvergenceError, match="at t=10800s") as exc:
            engine.step_once()
        assert exc.value.t == 10800.0

    def test_engine_serves_a_repeated_snapshot_unsolved(self, toy9,
                                                       monkeypatch):
        # 300 s steps inside one pattern hour repeat the inputs of t = 0;
        # with no iteration allowed, only the memo can answer
        engine = EpsEngine(toy9, duration_s=3600, step_s=300)
        first = engine.step_once()
        monkeypatch.setattr("wdnflow.hydraulics.MAX_ITERATIONS", 0)
        again = engine.step_once()
        assert again.t == 300.0 and engine.solves == 1
        for name in ("flow", "head", "pressure_head", "tank_level",
                     "actual_demand", "tank_net_inflow"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.iterations == first.iterations

    def test_reverse_pump_flow_blocked(self):
        # the pump discharges against a 40 m adverse head, far above its
        # 6.65 m shutoff head; flow must stall instead of running backwards
        text = """
[JUNCTIONS]
 j1  0.0  0.0
[RESERVOIRS]
 r1  10.0
 r2  50.0
[PUMPS]
 pu1  r1  j1  HEAD  c1
[PIPES]
 p1  j1  r2  100  200  120
[CURVES]
 c1  0.02  5.0
[OPTIONS]
 Units CMS
"""
        net = parse_inp(text)
        state = solve_snapshot(net, {"j1": 0.0})
        inc = incidence(net)
        assert abs(float(state.flow[inc.link_index["pu1"]])) <= 1e-6
        assert state.converged


class TestValves:
    def test_minor_loss_matches_quadratic_law(self):
        text = """
[JUNCTIONS]
 j1  0.0  0.05
[RESERVOIRS]
 r1  20.0
[VALVES]
 v1  r1  j1  200  TCV  4.0
[OPTIONS]
 Units CMS
"""
        net = parse_inp(text)
        state = solve_snapshot(net, {"j1": 0.05})
        inc = incidence(net)
        j1 = inc.node_index["j1"]
        area = math.pi * 0.1 ** 2
        expected = 4.0 * 0.05 ** 2 / (2.0 * G * area ** 2)
        assert 20.0 - float(state.head[j1]) == pytest.approx(expected,
                                                             rel=1e-9)

    def test_closed_valve_disconnects(self):
        text = """
[JUNCTIONS]
 j1  0.0  0.05
[RESERVOIRS]
 r1  20.0
[VALVES]
 v1  r1  j1  200  TCV  4.0
[OPTIONS]
 Units CMS
"""
        net = parse_inp(text)
        controls = Controls(valve_open={"v1": False})
        with pytest.raises(DisconnectedDemandError):
            solve_snapshot(net, {"j1": 0.05}, controls=controls)


class TestExtendedPeriod:
    def test_snapshot_count_and_times(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=3600,
                                     hydraulic_step_s=300)
        assert len(series.states) == 12
        assert [s.t for s in series.states] == [300.0 * i for i in range(12)]

    def test_demand_follows_pattern(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=86400 + 7200,
                                     hydraulic_step_s=3600)
        n1 = series.junction_ids.index("n1")
        base = toy9.junctions["n1"].base_demand
        pattern = toy9.patterns["diurnal"]
        assert series.actual_demand[0, n1] == pytest.approx(
            base * pattern.multipliers[0])
        assert series.actual_demand[2, n1] == pytest.approx(
            base * pattern.multipliers[2])
        # patterns wrap cyclically past their own horizon
        assert series.actual_demand[25, n1] == pytest.approx(
            base * pattern.multipliers[1])

    def test_demand_follows_the_network_pattern_step(self, toy9):
        """Every pattern is indexed by the network's one pattern step: at
        1800 s the multipliers move every half hour, as the INP written
        for that network states."""
        half = replace(toy9, options=replace(toy9.options,
                                             pattern_step_s=1800))
        series = simulate_hydraulics(half, duration_s=7200,
                                     hydraulic_step_s=300)
        n1 = series.junction_ids.index("n1")
        mults = half.patterns["diurnal"].multipliers
        expected = [half.junctions["n1"].base_demand * mults[k // 6]
                    for k in range(24)]
        assert series.actual_demand[:, n1].tolist() == expected
        hourly = simulate_hydraulics(toy9, duration_s=7200,
                                     hydraulic_step_s=300)
        assert series.digest() != hourly.digest()
        back = parse_inp(write_inp(half))
        assert simulate_hydraulics(back, duration_s=7200,
                                   hydraulic_step_s=300).digest() \
            == series.digest()

    def test_an_invalid_network_step_is_a_network_violation(self, toy9):
        """A bad [TIMES] option is the network's fault: validate lists it and
        the engine refuses the network before it reads its arguments. Only
        bad explicit arguments raise a plain ValueError."""
        zero = replace(toy9, options=replace(toy9.options,
                                             hydraulic_step_s=0))
        assert validate(zero) == [Violation(
            "options", "hydraulic_step_s",
            "must be a positive whole number of seconds")]
        with pytest.raises(InvalidNetworkError, match="hydraulic_step_s"):
            simulate_hydraulics(zero)
        with pytest.raises(InvalidNetworkError):
            EpsEngine(zero, duration_s=3600, step_s=7)
        with pytest.raises(ValueError) as e:
            EpsEngine(toy9, duration_s=3600, step_s=0)
        assert not isinstance(e.value, WdnflowError)

    def test_run_equals_manual_stepping(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=3600,
                                     hydraulic_step_s=300)
        engine = EpsEngine(toy9, duration_s=3600, step_s=300)
        manual = [engine.step_once() for _ in range(12)]
        for a, b in zip(series.states, manual):
            assert np.array_equal(a.flow, b.flow)
            assert np.array_equal(a.head, b.head)
            assert np.array_equal(a.tank_level, b.tank_level)

    def test_duration_must_be_step_multiple(self, toy9):
        for duration_s in (1000, -600):
            with pytest.raises(ValueError):
                EpsEngine(toy9, duration_s=duration_s, step_s=300)

    def test_whole_number_durations_run_as_ints(self, toy9):
        ref = simulate_hydraulics(toy9, duration_s=3600, hydraulic_step_s=300)
        for duration_s, step_s in ((3600.0, 300.0),
                                   (np.int64(3600), np.int64(300))):
            series = simulate_hydraulics(toy9, duration_s=duration_s,
                                         hydraulic_step_s=step_s)
            assert type(series.step_s) is int and series.step_s == 300
            assert series.digest() == ref.digest()
            assert np.array_equal(series.t, ref.t)
        for duration_s, step_s in ((True, True), (3600, True), (True, 300),
                                   ("3600", 300), (3600.5, 300.5)):
            with pytest.raises(ValueError):
                EpsEngine(toy9, duration_s=duration_s, step_s=step_s)

    def test_rerun_digest_is_stable(self, toy9):
        a = simulate_hydraulics(toy9, duration_s=7200, hydraulic_step_s=300)
        b = simulate_hydraulics(toy9, duration_s=7200, hydraulic_step_s=300)
        assert a.digest() == b.digest()

    def test_demand_change_alters_digest(self, toy9):
        a = simulate_hydraulics(toy9, duration_s=3600, hydraulic_step_s=300)
        hook = lambda t: None
        engine = EpsEngine(toy9, duration_s=3600, step_s=300,
                           emitter_hook=lambda t: {"n3": 1e-4})
        b_states = [engine.step_once() for _ in range(12)]
        assert not np.array_equal(a.states[0].flow, b_states[0].flow)

    def test_daily_periodicity_is_bitwise(self, toy9):
        series = simulate_hydraulics(toy9, duration_s=2 * 86400,
                                     hydraulic_step_s=300)
        per_day = 86400 // 300
        for i in (0, 17, 100):
            a, b = series.states[i], series.states[i + per_day]
            assert np.array_equal(a.flow, b.flow)
            assert np.array_equal(a.head, b.head)


def two_tank_pumpnet():
    """pumpnet with a second tank, t2 (elevation 28 m, diameter 10 m,
    levels 0.5 / 1.0 / 4.0 m), on a 120 m x 100 mm pipe from j1."""
    net = bundled.load_pumpnet()
    return replace(
        net, tanks={**net.tanks, "t2": Tank("t2", 28.0, 10.0, 1.0, 0.5, 4.0)},
        pipes={**net.pipes, "p3": Pipe("p3", "j1", "t2", 120.0, 0.1, 110.0)})


class TestTwoTanks:
    """Tanks at their bounds close independently of each other."""

    @staticmethod
    def assert_tanks_obey_bounds(net, state):
        for i, tid in enumerate(incidence(net).tank_ids):
            tank, level = net.tanks[tid], float(state.tank_level[i])
            inflow = float(state.tank_net_inflow[i])
            assert tank.min_level - 1e-9 <= level <= tank.max_level + 1e-9
            if level >= tank.max_level:
                assert inflow <= MASS_TOL
            if level <= tank.min_level:
                assert inflow >= -MASS_TOL

    @pytest.mark.parametrize("running", [True, False])
    def test_every_pair_of_levels(self, running):
        net = two_tank_pumpnet()
        demands = {"j1": 5e-3, "j2": 3e-3}
        controls = Controls(pump_running={"pu1": running})
        bounds = ("min_level", "init_level", "max_level")
        raised = 0
        for a in bounds:
            for b in bounds:
                levels = {"t1": getattr(net.tanks["t1"], a),
                          "t2": getattr(net.tanks["t2"], b)}
                try:
                    state = solve_snapshot(net, demands, controls,
                                           tank_levels=levels)
                except DisconnectedDemandError:
                    raised += 1
                    continue
                assert max(map(abs, mass_residuals(net, state).values())) \
                    <= MASS_TOL
                self.assert_tanks_obey_bounds(net, state)
                fresh = solve_snapshot(replace(net), demands, controls,
                                       tank_levels=levels)
                assert np.array_equal(state.flow, fresh.flow)
                assert np.array_equal(state.head, fresh.head)
        # both tanks empty and the pump stopped leave the demand unfed
        assert raised == (0 if running else 1)

    def test_three_days_keep_both_levels_in_bounds(self):
        """Both tanks fill to their maxima, drain while the pump stops on
        day 2 and fill again."""
        net = two_tank_pumpnet()
        stopped = Controls(pump_running={"pu1": False})
        series = simulate_hydraulics(
            net, duration_s=3 * 86400, hydraulic_step_s=300,
            control_hook=lambda t: stopped if 30 * 3600 <= t < 48 * 3600
            else None)
        top = [net.tanks[tid].max_level for tid in series.tank_ids]
        assert (series.tank_level == top).any(axis=0).all()
        for state in series.states:
            assert max(map(abs, mass_residuals(net, state).values())) \
                <= MASS_TOL
            self.assert_tanks_obey_bounds(net, state)


class TestTankDynamics:
    def test_levels_stay_within_bounds(self, pumpnet):
        series = simulate_hydraulics(pumpnet, duration_s=86400,
                                     hydraulic_step_s=300)
        tank = pumpnet.tanks["t1"]
        levels = np.array([s.tank_level[0] for s in series.states])
        assert levels.min() >= tank.min_level - 1e-9
        assert levels.max() <= tank.max_level + 1e-9

    def test_full_tank_stops_accepting_inflow(self, pumpnet):
        series = simulate_hydraulics(pumpnet, duration_s=86400,
                                     hydraulic_step_s=300)
        tank = pumpnet.tanks["t1"]
        hit_top = False
        for state in series.states:
            if float(state.tank_level[0]) >= tank.max_level - 1e-9:
                hit_top = True
                assert float(state.tank_net_inflow[0]) <= MASS_TOL
        assert hit_top

    def test_full_tank_keeps_feeding_through_its_outlet(self):
        """Only the links that push a tank past its bound are cut: once t1
        fills, its inlet p1 closes and its outlet valve va keeps feeding
        j1 and j2 from the full tank."""
        net = parse_inp(TANK_VALVE)
        p1 = replace(net.pipes["p1"], length=600.0, diameter=0.150)
        net = replace(net, pipes={**net.pipes, "p1": p1})
        engine = EpsEngine(net, duration_s=72 * 300, step_s=300)
        states = [engine.step_once() for _ in range(engine.total_steps)]
        inc = incidence(net)
        last = states[-1]
        assert float(last.tank_level[0]) == net.tanks["t1"].max_level
        assert float(last.flow[inc.link_index["p1"]]) == 0.0
        assert float(last.flow[inc.link_index["va"]]) \
            == pytest.approx(0.006, rel=1e-9)
        for state in states:
            assert max(map(abs, mass_residuals(net, state).values())) \
                <= MASS_TOL
            TestTwoTanks.assert_tanks_obey_bounds(net, state)

    def test_first_step_level_change_matches_euler(self, pumpnet):
        series = simulate_hydraulics(pumpnet, duration_s=600,
                                     hydraulic_step_s=300)
        first, second = series.states[0], series.states[1]
        tank = pumpnet.tanks["t1"]
        area = math.pi * tank.diameter ** 2 / 4.0
        predicted = float(first.tank_level[0]) + \
            float(first.tank_net_inflow[0]) * 300.0 / area
        assert float(second.tank_level[0]) == pytest.approx(predicted,
                                                            abs=1e-12)
