"""Demand-driven extended-period hydraulic simulation.

Each timestep is a quasi-steady snapshot solved with a Newton scheme on the
nodal head equations (the global gradient algorithm of Todini & Pilati):
link relations are linearized around the current flow iterate, the resulting
Laplacian system is solved for unknown heads, and flows are updated from the
new head differences. As in EPANET 2.2, an emitter is one more such link: a
one-way link from its junction to a virtual reservoir at the junction's
elevation, with headloss q^2 / k^2 and reverse flow blocked as for a pump.
The flow change is taken relative to the total link flow, floored at
FLOW_FLOOR so that a network that barely flows still converges; there is no
damping. Once the flow change, the junction mass residual and the headloss
residual of pipes and emitters all pass their tolerances, exactly one more
Newton step is taken and the iteration stops. A state's leak flow is the
emitter law k sqrt(pressure head) at the final heads. Tanks are fixed-head
nodes within a snapshot; their levels are integrated with explicit Euler
between snapshots. A tank at a level bound that the solution keeps pushing
against keeps its fixed head; only the links pushing it past the bound are
cut from the open-link mask (as in EPANET), and the snapshot solved again.

The head system is symmetric positive definite. Its unknowns are numbered
once per topology in reverse Cuthill-McKee order (George & Liu 1981), which
bands the matrix: the half-width kd is n on an n x n grid, far more around a
hub joined to distant nodes. Every system is assembled straight into
LAPACK's lower band storage and solved without pivoting by one banded
Cholesky factor and solve (`dpbtrf`, `dpbtrs`) from scipy's LAPACK extension,
loaded by file path without importing scipy. An error from either (a matrix
that is not positive definite) raises NonConvergenceError.

The fixed-head nodes are always the reservoirs and tanks, so a topology is
its open-link mask alone. Everything that depends only on which links are
open (reachability, the unknown-node numbering, island heads, the cold-start
flow signs, the per-kind link indices and each matrix entry's slot in the
band) is built by the network module's one breadth-first walk the first time
that mask is met, and cached on the solver's layout of the network. That
layout is compiled once per Network object and kept on it, as its incidence
is, so every `solve_snapshot` call and every `EpsEngine` on one network
share its topologies. When it is built, a topology also solves its reference
snapshot once, from static data only: base demands on reached junctions, no
emitters, tanks at their initial levels, reservoir heads at t = 0 and each
pump at its network speed. Every snapshot of the topology starts Newton from
the reference flows, scaled by its total demand over the reference's; it
falls back to the cold start (small flows leaving the nearer source) when
either total is zero or the reference does not converge. Each emitter starts
at its discharge at the reference heads, or, where the reference has no
solution, at its initial heads: every unknown node at the highest fixed
head. The start is a function of the topology alone, never of earlier
snapshots, so each result is a pure function of its inputs.

The engine uses that purity. It plans a run's whole horizon once: the
demand multipliers and reservoir heads of every step come from indexing
every pattern at the network's one pattern step, and the emitter
coefficients and control set's link settings from one call of each hook
per step, each answer read when the hook returns it. Steps
whose planned inputs are bytewise equal share an input id. A snapshot whose
input id, resolved override settings and tank levels repeat an earlier
one's is served from a memo of solved snapshots, its state or its error, so
each distinct snapshot is solved once. The engine builds a run's
`StateSeries` of columns itself, stacking each distinct snapshot it met once
and taking it per step; the series' `states` are row views, built on first
use.

Every solve goes through one function, which solves its snapshots in one
Newton batch per open-link mask and emitter node set and runs the status
loop over them: each snapshot that the tank rule above cuts a link from is
solved again in the next pass's batches, and each that fails keeps its
DisconnectedDemandError or NonConvergenceError as its result. A batch lays
its rows out flat (row b's links at b m + link, its nodes at b n + node,
its unknowns at b n_u + u and its band slots at b n_u (kd + 1) + slot), so
one numpy call serves every row. Each row stops at its own stop rule and
leaves the batch, its sums are taken over its own row, and its band is
factored and solved by its own `dpbtrf` and `dpbtrs` calls, so every
state, iteration count and residual is the same alone as among others,
bit for bit. A lone snapshot is a batch of one, indexed with the
topology's own arrays. On a network without tanks no snapshot depends on
another, so `run` solves the distinct snapshots its memo lacks up front,
in one call. A batch holds at most BATCH_SIZE nodes and band slots, and
at least one row: on tankless 12 x 12 and 24 x 24 grids over two days at
300 s with a leak (264 distinct snapshots, one BLAS thread) that bound
ran as fast as any, while one batch per topology ran up to 1.35x slower
and on 24 x 24 raised peak RSS by 158 MB against 29 MB, as a row's band
alone takes 115 KB there.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConfigError,
    CurveFitError,
    DisconnectedDemandError,
    NonConvergenceError,
    UnknownTargetError,
    WdnflowError,
)
from .network import (
    Curve, Incidence, Network, Pattern, _compiled, _finite, _node_height,
    _positive_whole, _real, _reverse_cuthill_mckee, _traverse,
    expand_pump_curve, incidence,
)

__all__ = [
    "G", "HW_EXP", "HW_COEF", "Q_LAMINAR", "MASS_TOL", "ACCURACY",
    "MAX_ITERATIONS", "ENERGY_TOL", "Controls",
    "HydraulicState", "StateSeries", "actuator_value",
    "hazen_williams_headloss", "fit_pump_curve", "pump_head_gain",
    "solve_snapshot", "EpsEngine", "simulate_hydraulics",
]

G = 9.80665                 # m/s^2
HW_EXP = 1.852
HW_COEF = 10.667            # SI Hazen-Williams prefactor
Q_LAMINAR = 1e-8            # m3/s; below this the headloss law is linearized
MASS_TOL = 1e-6             # m3/s
ACCURACY = 1e-3             # relative flow change that counts as converged
FLOW_FLOOR = 1e-4           # m3/s; floor on the total flow in the flow change
MAX_ITERATIONS = 100        # Newton iterations before NonConvergenceError
ENERGY_TOL = 1e-6           # m
GRAD_MIN = 1e-6             # floor on link gradients (caps conductance at 1e6)
GRAD_REVERSE = 1e8          # penalty gradient blocking reverse pump flow
VALVE_Q_LINEAR = 1e-4       # m3/s; valve quadratic loss linearized below this
COLD_START_FLOW = 1e-3      # m3/s
BATCH_SIZE = 1 << 16        # nodes plus band slots per Newton batch, at most
_LAPACK = "scipy.linalg._flapack"


@dataclass(frozen=True)
class Controls:
    """Overrides of link settings: each map names links of its kind, and a
    link absent from a map keeps the network's own setting."""

    pipe_open: dict[str, bool] = field(default_factory=dict)
    pump_running: dict[str, bool] = field(default_factory=dict)
    pump_speed: dict[str, float] = field(default_factory=dict)
    valve_open: dict[str, bool] = field(default_factory=dict)


def _scatter(out: np.ndarray, index: dict[str, int], values: dict,
             kind: str, what: str, minimum: float = -math.inf) -> np.ndarray:
    """out with each value at its id's position in index; an id must be a
    key of index (an element of this kind), a value a finite number."""
    for eid, value in values.items():
        i = index.get(eid)
        if i is None:
            raise UnknownTargetError(f"no {kind} '{eid}'")
        out[i] = _finite(value, f"{what} at '{eid}'", minimum)
    return out


def actuator_value(kind: str, value) -> bool | float:
    """The setting of an actuator kind, checked: a pump speed is a finite
    number >= 0, returned as a float; a pump or valve state is a (numpy)
    bool, returned as a bool."""
    if kind == "pump_speed":
        return _finite(value, "pump_speed value", 0.0)
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{kind} value must be a boolean")
    return bool(value)


@dataclass(frozen=True, eq=False)
class HydraulicState:
    """One converged snapshot; array layouts follow the canonical id orders."""

    t: float
    flow: np.ndarray            # per link, signed by from->to orientation
    head: np.ndarray            # per node
    pressure_head: np.ndarray   # per junction: head - elevation
    tank_level: np.ndarray      # per tank, level at t (before integration)
    actual_demand: np.ndarray   # per junction
    tank_net_inflow: np.ndarray  # per tank, m3/s
    leak_flow: dict[str, float]  # emitter junction id -> discharge
    iterations: int
    converged: bool
    mass_residual: float    # m3/s, largest junction imbalance
    energy_residual: float  # m, largest pipe headloss-law error


# the per-step array fields of a state, and the width each takes from the ids
_COLUMNS = {"flow": "link_ids", "head": "node_ids",
            "pressure_head": "junction_ids", "tank_level": "tank_ids",
            "actual_demand": "junction_ids", "tank_net_inflow": "tank_ids"}


@dataclass(frozen=True, eq=False)
class StateSeries:
    """A run's snapshots as read-only columns: row k is the hydraulic step
    at t = k step_s, and each array's columns follow the canonical id
    orders. `leak_flow` holds the discharge of each emitter in `leak_ids`
    (a junction, or the pipe it splits once projected), NaN at a step where
    it has no emitter."""

    node_ids: tuple[str, ...]
    link_ids: tuple[str, ...]
    junction_ids: tuple[str, ...]
    tank_ids: tuple[str, ...]
    step_s: int                 # hydraulic step between states, s
    flow: np.ndarray            # steps x links
    head: np.ndarray            # steps x nodes
    pressure_head: np.ndarray   # steps x junctions
    tank_level: np.ndarray      # steps x tanks
    actual_demand: np.ndarray   # steps x junctions
    tank_net_inflow: np.ndarray  # steps x tanks
    iterations: np.ndarray      # per step
    mass_residual: np.ndarray   # per step
    energy_residual: np.ndarray  # per step
    leak_ids: tuple[str, ...]
    leak_flow: np.ndarray       # steps x leak_ids

    def __post_init__(self):
        for name in (*_COLUMNS, "iterations", "mass_residual",
                     "energy_residual", "leak_flow"):
            getattr(self, name).flags.writeable = False

    @property
    def t(self) -> np.ndarray:
        """Each row's time, s."""
        return np.arange(len(self.flow)) * float(self.step_s)

    @cached_property
    def states(self) -> tuple[HydraulicState, ...]:
        """One read-only HydraulicState per row, viewing the columns; built
        on first use."""
        leaks = [{j: q for j, q in zip(self.leak_ids, row)
                  if not math.isnan(q)} for row in self.leak_flow.tolist()]
        columns = [getattr(self, name) for name in _COLUMNS]
        return tuple(HydraulicState(t, *arrays, leak, it, True, mr, er)
                     for t, *arrays, leak, it, mr, er in zip(
                         self.t.tolist(), *columns, leaks,
                         self.iterations.tolist(), self.mass_residual.tolist(),
                         self.energy_residual.tolist()))

    def digest(self) -> str:
        """Bitwise fingerprint of every state array, for determinism checks:
        per row, its t, flows, heads, pressure heads, tank levels and
        demands."""
        rows = np.hstack([self.t[:, None], self.flow, self.head,
                          self.pressure_head, self.tank_level,
                          self.actual_demand])
        return hashlib.sha256(rows.tobytes()).hexdigest()


def hazen_williams_headloss(flow: float, length: float, diameter: float,
                            roughness: float) -> float:
    """Signed Hazen-Williams loss h = sign(Q) 10.667 L |Q|^1.852 / (C^1.852 D^4.871)."""
    r = HW_COEF * length / (roughness ** HW_EXP * diameter ** 4.871)
    return math.copysign(r * abs(flow) ** HW_EXP, flow) if flow else 0.0


def fit_pump_curve(curve: Curve) -> tuple[float, float, float]:
    """Fit H = h0 - r Q^n through a 1- or 3-point head curve.

    Single points are first expanded to the conventional three-point form.
    """
    pts = expand_pump_curve(curve).points
    if len(pts) != 3:
        raise CurveFitError(
            f"pump curve '{curve.id}' needs 1 or 3 points, has {len(pts)}")
    (q1, h1), (q2, h2), (q3, h3) = pts
    if q1 != 0.0:
        raise CurveFitError(f"pump curve '{curve.id}' must start at zero flow")
    h0 = h1
    if not (h0 > h2 > h3 and 0 < q2 < q3):
        raise CurveFitError(
            f"pump curve '{curve.id}' must have strictly decreasing head")
    n = math.log((h0 - h3) / (h0 - h2)) / math.log(q3 / q2)
    r = (h0 - h2) / q2 ** n
    if not (n > 0 and r > 0 and h0 > 0):
        raise CurveFitError(f"pump curve '{curve.id}' fit degenerate")
    return h0, r, n


def pump_head_gain(curve: Curve, flow: float, speed: float) -> float:
    """Head added by a pump at the given flow and relative speed (>= 0 m)."""
    if speed == 0.0:
        return 0.0
    h0, r, n = fit_pump_curve(curve)
    gain = speed ** 2 * (h0 - r * (flow / speed) ** n)
    return max(gain, 0.0)


# --- snapshot solver ---------------------------------------------------------

@cache
def _lapack():
    """scipy's LAPACK extension: the loaded module once scipy.linalg is
    imported, else the extension alone, loaded by its file path (importing
    scipy.linalg costs ~20 MB more resident memory than the solver)."""
    module = sys.modules.get(_LAPACK)
    if module is not None:
        return module
    package = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(package, *_LAPACK.split(".")[1:])
    path = next((stem + suffix for suffix in EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)
    if path is None:
        raise ImportError(f"no LAPACK extension at {stem}.*")
    spec = importlib.util.spec_from_file_location(_LAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layout(network: Network) -> _Layout:
    """The network's solver layout, compiled once per Network object and
    kept on it."""
    return _compiled(network, "_layout", _Layout)


class _Layout:
    """The solver's coefficients over a network's compiled layout, plus the
    cache of snapshot topologies; shared by every solve on the network."""

    def __init__(self, network: Network):
        self.inc = inc = incidence(network)
        groups = (network.pipes, network.pumps, network.valves)
        r_coef = []
        pump_coef = []   # fitted (h0, r, n) per link, zeros for non-pumps
        on = []          # each link's own setting: open, or a running pump
        speed = []       # each pump's own speed, zero for other links
        for lid, kind in zip(inc.link_ids, inc.link_kind.tolist()):
            elem = groups[kind][lid]
            fit = (0.0, 0.0, 0.0)
            if kind == 0:
                r_coef.append(HW_COEF * elem.length
                              / (elem.roughness ** HW_EXP * elem.diameter ** 4.871))
            elif kind == 1:
                r_coef.append(0.0)
                fit = fit_pump_curve(network.curves[elem.curve_id])
            else:
                area = math.pi * (elem.diameter / 2.0) ** 2
                r_coef.append(max(elem.minor_loss_coef / (2.0 * G * area * area),
                                  GRAD_MIN))
            pump_coef.append(fit)
            on.append(elem.running if kind == 1 else elem.open)
            speed.append(elem.speed if kind == 1 else 0.0)
        self.r_coef = np.array(r_coef)
        self.pump_coef = np.array(pump_coef).reshape(-1, 3)
        self.link_on = np.array(on, dtype=bool)
        self.link_speed = np.array(speed, dtype=float)
        # elevation-like height per node, used for island head assignment
        self.node_elev = np.array(
            [_node_height(network, nid) for nid in inc.node_ids])
        # snapshot inputs: each junction's base demand and the column of its
        # pattern among the distinct demand patterns (None: multiplier 1)
        columns: dict[str | None, int] = {}
        self.demand_col = np.array(
            [columns.setdefault(network.junctions[jid].demand_pattern_id
                                or None, len(columns))
             for jid in inc.junction_ids], dtype=np.intp)
        self.demand_patterns: list[Pattern | None] = [
            network.patterns.get(pid) for pid in columns]
        self.base_demand = np.array(
            [network.junctions[jid].base_demand for jid in inc.junction_ids])
        reservoirs = [network.reservoirs[rid] for rid in inc.reservoir_ids]
        self.res_head = np.array([r.head for r in reservoirs])
        self.res_patterns = [network.patterns.get(r.head_pattern_id or None)
                             for r in reservoirs]
        # the fixed-head nodes: reservoirs, then tanks, after the junctions
        self.fixed = slice(len(inc.junction_ids), len(inc.node_ids))
        tanks = [network.tanks[tid] for tid in inc.tank_ids]
        self.tank_elev = np.array([tk.elevation for tk in tanks])
        self.tank_init = np.array([tk.init_level for tk in tanks], dtype=float)
        self.tank_index = {tid: i for i, tid in enumerate(inc.tank_ids)}
        self.junction_index = {j: i for i, j in enumerate(inc.junction_ids)}
        self.tank_area = np.array([tk.area for tk in tanks])
        self.tank_min = np.array([tk.min_level for tk in tanks])
        self.tank_max = np.array([tk.max_level for tk in tanks])
        self.pattern_step = network.options.pattern_step_s
        self._topologies: dict[bytes, _Topology] = {}

    def multipliers(self, patterns: list[Pattern | None], t) -> np.ndarray:
        """Each pattern's multiplier at t (1 for None) by `pattern_value` at
        the network's step; at an array of times, one row per time."""
        index = (np.asarray(t, dtype=float)
                 // self.pattern_step).astype(np.intp)
        out = np.ones(index.shape + (len(patterns),))
        for c, p in enumerate(patterns):
            if p is not None:
                out[..., c] = np.array(p.multipliers, dtype=float)[
                    index % len(p.multipliers)]
        return out

    def demand(self, mult: np.ndarray) -> np.ndarray:
        """Per-node demand: each junction's base demand times its pattern's
        multiplier in `mult`; zero at fixed-head nodes."""
        demand = np.zeros(len(self.inc.node_ids))
        col = self.demand_col
        demand[:len(col)] = self.base_demand * mult[col]
        return demand

    def reservoir_heads(self, t) -> np.ndarray:
        """Each reservoir's head at t; at an array of times, one row per
        time."""
        return self.res_head * self.multipliers(self.res_patterns, t)

    def emitter_k(self, emitters: dict[str, float]) -> np.ndarray:
        """Per-node emitter coefficient from junction id -> k >= 0."""
        return _scatter(np.zeros(len(self.inc.node_ids)), self.junction_index,
                        emitters, "junction", "emitter k", 0.0)

    def topology(self, active: np.ndarray) -> _Topology:
        """The cached structure for this open-link mask."""
        key = active.tobytes()
        topo = self._topologies.get(key)
        if topo is None:
            topo = self._topologies[key] = _Topology(self, active)
        return topo


class _Topology:
    """Index structure of the snapshot system for one topology.

    Depends only on the layout and the open-link mask, so a cached instance
    is interchangeable with a fresh one.
    """

    def __init__(self, layout: _Layout, active: np.ndarray):
        inc = layout.inc
        n = len(inc.node_ids)
        self.fixed = layout.fixed
        levels, islands = _traverse(n, zip(inc.link_from[active].tolist(),
                                           inc.link_to[active].tolist()),
                                    list(range(n)[self.fixed]))
        hops = np.full(n, -1)
        for k, level in enumerate(levels):
            hops[level] = k
        self.reach = hops >= 0
        self.unreached = np.flatnonzero(~self.reach[:self.fixed.start])
        # unreachable islands: one shared head per island (its highest
        # node), so zero-flow links stay energy-consistent
        self.island_head = np.zeros(n)
        for island in islands:
            self.island_head[island] = layout.node_elev[island].max()

        self.act_idx = act = np.flatnonzero(active & self.reach[inc.link_from])
        self.a_from, self.a_to = inc.link_from[act], inc.link_to[act]
        self.ends = np.concatenate([self.a_from, self.a_to])
        # the unknowns (reached, not fixed) in reverse Cuthill-McKee order
        both = np.flatnonzero((hops[self.a_from] > 0) & (hops[self.a_to] > 0))
        order = np.array(_reverse_cuthill_mckee(n, zip(
            self.a_from[both].tolist(), self.a_to[both].tolist())))
        self.unknown = order[hops[order] > 0]
        self.u_of_node = np.full(n, -1, dtype=np.intp)
        self.u_of_node[self.unknown] = np.arange(len(self.unknown))
        uf, ut = self.u_of_node[self.a_from], self.u_of_node[self.a_to]
        kind, r = inc.link_kind[act], layout.r_coef[act]
        self.pipes, self.pumps, self.valves = (np.flatnonzero(kind == k)
                                               for k in range(3))
        self.r_pipe, self.r_valve = r[self.pipes], r[self.valves]
        # the coefficient products the linearization reads, formed once
        self.hw_r_pipe = HW_EXP * self.r_pipe
        self.r2_valve = 2.0 * self.r_valve
        self.pump_links = act[self.pumps]
        self.pump_h0, self.pump_r, self.pump_n = \
            layout.pump_coef[self.pump_links].T
        self.pump_n1 = self.pump_n - 1.0
        # cold start: flows leave the end nearer a source; pumps run forward
        self.q0 = np.where((kind == 1) | (hops[self.a_from] <= hops[self.a_to]),
                           COLD_START_FLOW, -COLD_START_FLOW)

        # each link end at an unknown node: its link, node, the sign of the
        # link flow into that node, and the node at the far end
        mf, mt = np.flatnonzero(uf >= 0), np.flatnonzero(ut >= 0)
        self.end_link = np.concatenate([mf, mt])
        self.end_node = np.concatenate([uf[mf], ut[mt]])
        self.end_sign = np.concatenate([-np.ones(len(mf)), np.ones(len(mt))])
        self.end_far = np.concatenate([self.a_to[mf], self.a_from[mt]])
        self.end_far_fixed = self.u_of_node[self.end_far] < 0
        # lower-triangle triplets: +c on the diagonal per end, -c below it
        # per link between two unknowns. Entry (row, col) has slot
        # col (kd + 1) + row - col in the band, whose (n_u, kd + 1) view,
        # transposed, is LAPACK's lower band storage
        bf, bt = uf[both], ut[both]
        rows = np.concatenate([self.end_node, np.maximum(bf, bt)])
        cols = np.concatenate([self.end_node, np.minimum(bf, bt)])
        self.kd = int((rows - cols).max(initial=0))
        self.entry_link = np.concatenate([self.end_link, both])
        self.entry_sign = np.concatenate([np.ones(len(self.end_link)),
                                          -np.ones(len(both))])
        self.entry_slot = cols * (self.kd + 1) + rows - cols
        self.ref_flow, self.ref_demand, self.ref_head = self._reference(layout)

    def initial_head(self, fixed_heads: np.ndarray) -> np.ndarray:
        """Island heads, the fixed heads (reservoirs, then tanks) and each
        unknown node at the highest of them."""
        head = self.island_head.copy()
        head[self.unknown] = fixed_heads.max()
        head[self.fixed] = fixed_heads
        return head

    def _reference(self, layout: _Layout
                   ) -> tuple[np.ndarray | None, float, np.ndarray]:
        """Flows, total demand and heads of this topology's static snapshot:
        base demands, no emitters, tanks at their initial levels, reservoir
        heads at t = 0 and each pump at its network speed (1.0 where that is
        0). When nothing is demanded or the solve does not converge: None,
        0.0 and the initial heads."""
        demand = layout.demand(np.ones(len(layout.demand_patterns)))
        speed = np.where(layout.link_speed == 0.0, 1.0, layout.link_speed)
        head = self.initial_head(np.concatenate([
            layout.reservoir_heads(0.0), layout.tank_elev + layout.tank_init]))
        total = float(demand[self.unknown].sum())
        if total == 0.0:
            return None, 0.0, head
        result, = _newton(layout, self, head[None].copy(), demand[None],
                          np.zeros((1, len(head))), speed[None],
                          self.q0[None], (0.0,))
        if isinstance(result, WdnflowError):
            return None, 0.0, head
        return result[1], total, result[2]

    def tiled(self, rows: int) -> _Topology | SimpleNamespace:
        """The index arrays and per-link values the Newton iteration reads,
        laid out flat for a batch of `rows` snapshots: row b's links sit at
        b m + link, its nodes at b n + node, its unknowns at b n_u + u and
        its band slots at b n_u (kd + 1) + slot, and each value repeats per
        row. For one row, the topology itself."""
        if rows == 1:
            return self
        m, n, n_u = len(self.act_idx), len(self.island_head), len(self.unknown)
        strides = {"pipes": m, "valves": m, "pumps": m, "end_link": m,
                   "entry_link": m, "end_node": n_u,
                   "entry_slot": n_u * (self.kd + 1), "a_from": n, "a_to": n,
                   "unknown": n, "end_far": n, "end_far_fixed": 0,
                   "r_pipe": 0, "hw_r_pipe": 0, "r_valve": 0, "r2_valve": 0,
                   "pump_n": 0, "pump_n1": 0, "end_sign": 0, "entry_sign": 0}
        return SimpleNamespace(**{name: _tile(getattr(self, name), rows, s)
                                  for name, s in strides.items()})

    def start(self, demand_arr: np.ndarray) -> np.ndarray:
        """Newton's starting flows: the reference flows scaled by the total
        demand over the reference's, else the cold start."""
        ratio = demand_arr[self.unknown].sum() / self.ref_demand \
            if self.ref_demand else 0.0
        return self.ref_flow * ratio if ratio > 0.0 else self.q0


def _tile(a: np.ndarray, rows: int, stride: int) -> np.ndarray:
    """`a` once per row, row b's copy offset by b stride; repeated when the
    stride is 0, and `a` itself for one row."""
    if rows == 1:
        return a
    if not stride:
        return np.tile(a, rows)
    return (np.arange(rows)[:, None] * stride + a).ravel()


def _link_settings(inc: Incidence, controls: Controls | None) -> tuple:
    """The control set's overrides, checked, as (link index, sets speed,
    value) triples in link order; () for none. An override must name a
    link of its map's kind, and its value obey the actuator value rule
    (the error names the link)."""
    if controls is None:
        return ()
    settings = []
    for name, kind, kind_name in (
            ("pipe_open", 0, "pipe"), ("pump_running", 1, "pump"),
            ("pump_speed", 1, "pump"), ("valve_open", 2, "valve")):
        for lid, value in getattr(controls, name).items():
            j = inc.link_index.get(lid)
            if j is None or inc.link_kind[j] != kind:
                raise UnknownTargetError(f"no {kind_name} '{lid}'")
            try:
                settings.append((j, name == "pump_speed",
                                 actuator_value(name, value)))
            except ConfigError as exc:
                raise ConfigError(f"{kind_name} '{lid}': {exc}") from None
    return tuple(sorted(settings))


def _active_mask(layout: _Layout,
                 *sets: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per-link open mask and per-pump effective speed under the resolved
    control sets, before any tank closes. The one precedence rule: a later
    set takes every setting of each link it names, which drops what earlier
    sets gave it in any map."""
    on, speed = layout.link_on.copy(), layout.link_speed.copy()
    for settings in sets:
        for j, _, _ in settings:
            on[j], speed[j] = layout.link_on[j], layout.link_speed[j]
        for j, sets_speed, value in settings:
            (speed if sets_speed else on)[j] = value
    speed = np.where(on, speed, 0.0)
    active = np.where(layout.inc.link_kind == 1, speed > 0.0, on)
    return active, speed


def _link_linearization(topo: _Topology, q: np.ndarray, pump_h: np.ndarray,
                        pump_b: np.ndarray, pump_nb: np.ndarray):
    """Headloss h(q) and gradient dh/dq per active link, with safe floors.

    A pump adds -pump_h - pump_b q^n of head (its fitted curve at the
    current speed; pump_nb is n pump_b); reverse pump flow meets a steep
    penalty.
    """
    h = np.empty(len(q))
    g = np.empty(len(q))

    pipe = topo.pipes
    qp = q[pipe]
    absq = np.abs(qp)
    grad = topo.hw_r_pipe * np.maximum(absq, Q_LAMINAR) ** (HW_EXP - 1.0)
    h[pipe] = np.where(absq < Q_LAMINAR, grad * qp,
                       np.copysign(topo.r_pipe, qp) * absq ** HW_EXP)
    g[pipe] = grad

    valve = topo.valves
    if valve.size:
        qv = q[valve]
        absq = np.abs(qv)
        grad = topo.r2_valve * np.maximum(absq, VALVE_Q_LINEAR)
        h[valve] = np.where(absq < VALVE_Q_LINEAR, grad * qv,
                            topo.r_valve * qv * absq)
        g[valve] = grad

    pump = topo.pumps
    if pump.size:
        qu = q[pump]
        fwd = qu > 0.0
        h[pump] = pump_h + np.where(fwd, pump_b * np.maximum(qu, 0.0)
                                    ** topo.pump_n, GRAD_REVERSE * qu)
        g[pump] = np.where(
            fwd, pump_nb * np.maximum(qu, 1e-6) ** topo.pump_n1, GRAD_REVERSE)

    np.maximum(g, GRAD_MIN, out=g)
    return h, g


def solve_snapshot(network: Network, demands: dict[str, float],
                   controls: Controls | None = None, *,
                   emitters: dict[str, float] | None = None,
                   tank_levels: dict[str, float] | None = None,
                   t: float = 0.0) -> HydraulicState:
    """Solve one quasi-steady snapshot.

    demands: junction id -> m3/s (already pattern-scaled). controls: overrides
    of the network's link settings, none by default. emitters: junction
    id -> orifice coefficient k with discharge q = k sqrt(max(pressure head, 0)).
    tank_levels: tank id -> level, each other tank at its initial level.
    Every id must name an element of its kind (else UnknownTargetError) and
    every value be a finite number, k >= 0 (else ConfigError). A tank at a
    level bound that the solution keeps pushing against has the links that
    push it past the bound cut, and the snapshot is re-solved. Calls on one
    Network object share its solver layout and the topologies it has met.
    """
    layout = _layout(network)
    demand = _scatter(np.zeros(len(layout.inc.node_ids)),
                      layout.junction_index, demands, "junction", "demand")
    levels = _scatter(layout.tank_init.copy(), layout.tank_index,
                      tank_levels or {}, "tank", "tank level")
    mask = _active_mask(layout, _link_settings(layout.inc, controls))
    state, = _solve_batch(layout, [(
        demand, *mask, layout.reservoir_heads(t),
        layout.emitter_k(emitters or {}), levels, t)])
    if isinstance(state, WdnflowError):
        raise state
    return state


def _solve_batch(layout: _Layout, snapshots: list[tuple]
                 ) -> list[HydraulicState | WdnflowError]:
    """Snapshots, each given as its per-node demands, open-link mask, pump
    speeds, reservoir heads, per-node emitter coefficients, tank levels and
    t, solved in one Newton batch per open-link mask and emitter node set,
    split into batches of at most BATCH_SIZE nodes and band slots (and at
    least one snapshot). Per snapshot: its state, or the
    DisconnectedDemandError or NonConvergenceError its solve meets. A
    snapshot that the status rule cuts a link from is solved again in the
    next pass, so it meets the same masks alone as among others."""
    inc = layout.inc
    snapshots = list(snapshots)   # a cut gives a snapshot its next mask
    out: list = [None] * len(snapshots)
    todo = range(len(snapshots))
    while todo:
        groups: dict[tuple, list[int]] = {}   # a lone snapshot needs no key
        for i in todo:
            groups.setdefault(len(todo) > 1 and (
                snapshots[i][1].tobytes(),
                np.flatnonzero(snapshots[i][4]).tobytes()), []).append(i)
        todo = []
        for rows in groups.values():
            topo = layout.topology(snapshots[rows[0]][1])
            for i in rows:
                out[i] = _disconnected(inc, topo, snapshots[i][0],
                                       snapshots[i][4])
            reached = [i for i in rows if out[i] is None]
            size = max(1, BATCH_SIZE // (len(inc.node_ids)
                                         + len(topo.unknown) * (topo.kd + 1)))
            for first in range(0, len(reached), size):
                ids = reached[first:first + size]
                batch = [snapshots[i] for i in ids]
                head = _rows([topo.initial_head(np.concatenate(
                    [s[3], layout.tank_elev + s[5]])) for s in batch])
                results = _newton(
                    layout, topo, head, _rows([s[0] for s in batch]),
                    _rows([s[4] for s in batch]), _rows([s[2] for s in batch]),
                    _rows([topo.start(s[0]) for s in batch]),
                    [s[6] for s in batch])
                for i, snapshot, result in zip(ids, batch, results):
                    if isinstance(result, WdnflowError):
                        out[i] = result
                        continue
                    flow, tank_inflow, cut = _status(
                        layout, topo, snapshot[1], snapshot[5], result[1])
                    if cut is None:
                        out[i] = _state(layout, snapshot, flow, tank_inflow,
                                        result)
                    else:
                        snapshots[i] = (snapshot[0], cut, *snapshot[2:])
                        todo.append(i)
    return out


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as the rows of one array; for a single array, a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _disconnected(inc: Incidence, topo: _Topology, demand: np.ndarray,
                  emit_k: np.ndarray) -> DisconnectedDemandError | None:
    """The DisconnectedDemandError of the first junction with demand or an
    emitter that the topology does not reach; None when it reaches all."""
    unreached = topo.unreached
    if not unreached.size:
        return None
    cut = unreached[(demand[unreached] > 0.0) | (emit_k[unreached] > 0.0)]
    if not cut.size:
        return None
    i = int(cut[0])
    jid = inc.junction_ids[i]
    return DisconnectedDemandError(
        f"junction '{jid}' has demand but no open path to a reservoir"
        " or tank" if demand[i] > 0.0 else
        f"leak at '{jid}' has no open path to a reservoir or tank")


def _status(layout: _Layout, topo: _Topology, active: np.ndarray,
            levels: np.ndarray, q: np.ndarray) -> tuple:
    """Each link's flow and each tank's net inflow from the active-link
    flows of a converged snapshot, and the status rule's open-link mask for
    its next solve: None when no tank at a bound is pushed past it, else
    the mask without each link whose flow enters a filling tank or leaves
    a draining one, so each pass cuts one more link."""
    inc = layout.inc
    flow = np.zeros(len(inc.link_ids))
    flow[topo.act_idx] = q
    if not levels.size:
        return flow, np.zeros(0), None
    n_nodes = len(inc.node_ids)
    tanks = slice(n_nodes - len(levels), n_nodes)   # tanks last
    tank_inflow = np.bincount(topo.ends, weights=np.concatenate([-q, q]),
                              minlength=n_nodes)[tanks].copy()
    # a tank filling past its maximum or draining past its minimum
    full = (levels >= layout.tank_max) & (tank_inflow > MASS_TOL)
    empty = (levels <= layout.tank_min) & (tank_inflow < -MASS_TOL)
    if not (full.any() or empty.any()):
        return flow, tank_inflow, None
    fill, drain = np.zeros((2, n_nodes), dtype=bool)
    fill[tanks], drain[tanks] = full, empty
    a, b = inc.link_from, inc.link_to
    return flow, tank_inflow, active & ~(
        ((flow > 0.0) & (fill[b] | drain[a]))
        | ((flow < 0.0) & (fill[a] | drain[b])))


def _state(layout: _Layout, snapshot: tuple, flow: np.ndarray,
           tank_inflow: np.ndarray, result: tuple) -> HydraulicState:
    """The read-only state of a converged snapshot, given as `_solve_batch`
    takes it, from its flows and `_newton`'s result."""
    demand, _, _, _, emit_k, levels, t = snapshot
    iterations, _, head, mass_res, energy_res = result
    inc = layout.inc
    n_junc = len(inc.junction_ids)
    head = head.copy()
    pressure = head[:n_junc] - layout.node_elev[:n_junc]
    nodes = np.flatnonzero(emit_k)   # emitters sit at junctions
    leak_flow = dict(zip(
        [inc.node_ids[n] for n in nodes.tolist()],
        (emit_k[nodes] * np.sqrt(np.maximum(pressure[nodes], 0.0))).tolist(),
    )) if nodes.size else {}
    level_arr = levels.copy()
    demand_out = demand[:n_junc].copy()
    for arr in (flow, head, pressure, level_arr, tank_inflow, demand_out):
        arr.flags.writeable = False
    return HydraulicState(
        t=t, flow=flow, head=head, pressure_head=pressure,
        tank_level=level_arr, actual_demand=demand_out,
        tank_net_inflow=tank_inflow, leak_flow=leak_flow,
        iterations=iterations, converged=True, mass_residual=mass_res,
        energy_residual=energy_res)


def _newton(layout: _Layout, topo: _Topology, head: np.ndarray,
            demand: np.ndarray, emit_k: np.ndarray, speed: np.ndarray,
            q: np.ndarray, t) -> tuple:
    """Newton iteration of a batch of snapshots on one topology. Row b of
    head and demand (per node), emit_k (per node, nonzero at the same nodes
    in every row), speed (per link) and q (the starting flows per active
    link) is snapshot b, at time t[b]; head is overwritten. Returns per row
    its iteration count, active-link flows, heads and final mass and energy
    residuals where it converges, else its NonConvergenceError.

    The rows still iterating are laid out flat, as `_Topology.tiled` lays
    them out. Each row stops at its own stop rule and then leaves the
    batch, so a row that fails leaves the others to converge. Row sums are
    taken over a (rows, width) view, so each row is summed as it would be
    alone, and each row's band is factored and solved by its own LAPACK
    calls."""
    rows, n = head.shape
    m, n_u, width = len(topo.act_idx), len(topo.unknown), topo.kd + 1
    lapack = _lapack()
    full = ix = topo.tiled(rows)
    flat = head.reshape(-1)
    demand_u = demand.reshape(-1)[ix.unknown]
    far = np.where(ix.end_far_fixed, flat[ix.end_far], 0.0)
    q = q.reshape(-1)
    w = speed[:, topo.pump_links]
    pump_h = -(w * w * topo.pump_h0).reshape(-1)
    pump_b = (topo.pump_r * w ** (2.0 - topo.pump_n)).reshape(-1)
    pump_nb = ix.pump_n * pump_b
    # emitters: one-way links to a reservoir at the junction's elevation,
    # with headloss q^2 / k^2, starting at their discharge at the reference
    emit_nodes = np.flatnonzero(emit_k[0])
    n_e = len(emit_nodes)
    if n_e:
        emit_kn = emit_k[:, emit_nodes]
        emit_k2 = (emit_kn * emit_kn).reshape(-1)
        qe = (emit_kn * np.sqrt(np.maximum(
            topo.ref_head[emit_nodes] - layout.node_elev[emit_nodes],
            0.0))).reshape(-1)
        emit_u = _tile(topo.u_of_node[emit_nodes], rows, n_u)
        emit_at = _tile(emit_nodes, rows, n)
        emit_elev = _tile(layout.node_elev[emit_nodes], rows, 0)
    live = np.arange(rows)        # the batch row of each live row
    passed = np.zeros(rows, dtype=bool)
    out: list = [None] * rows

    def residuals(dh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per live row, the largest junction mass and pipe or emitter
        headloss-law errors of the current flows and heads."""
        mass = np.bincount(ix.end_node, weights=ix.end_sign * q[ix.end_link],
                           minlength=size * n_u) - demand_u
        qp = q[ix.pipes]
        energy = np.maximum.reduce(np.abs(
            dh[ix.pipes] - np.copysign(ix.r_pipe, qp) * np.abs(qp) ** HW_EXP
        ).reshape(size, -1), axis=1, initial=0.0)
        if n_e:
            mass[emit_u] -= qe
            emitter = np.maximum.reduce(np.abs(
                np.maximum(flat[emit_at] - emit_elev, 0.0)
                - np.maximum(qe, 0.0) ** 2 / emit_k2).reshape(size, n_e),
                axis=1)
            # as max(energy, emitter) takes each row's larger
            energy = np.where(emitter > energy, emitter, energy)
        return np.maximum.reduce(np.abs(mass).reshape(size, n_u), axis=1,
                                 initial=0.0), energy

    def keep(done: np.ndarray, mass: np.ndarray, energy: np.ndarray) -> None:
        """Keep the results of the live rows in done; they leave the batch
        before its arrays change again."""
        sel = slice(None) if np.count_nonzero(done) == size else done
        for b, flows, heads, mass_b, energy_b in zip(
                live[sel].tolist(), q.reshape(size, m)[sel],
                flat.reshape(size, n)[sel], mass[sel].tolist(),
                energy[sel].tolist()):
            out[b] = (step, flows, heads, mass_b, energy_b)

    def fail(b: int, mass: np.ndarray, energy: np.ndarray) -> None:
        """Fail live row b with the larger of its residuals."""
        row = int(live[b])
        out[row] = NonConvergenceError(step, max(mass[b], energy[b]), t[row])

    step, size = 0, rows
    stopping = False    # some row passed the stop rule's test last iteration
    while step < MAX_ITERATIONS:
        step += 1
        h, g = _link_linearization(ix, q, pump_h, pump_b, pump_nb)
        c = 1.0 / g
        y = q - h * c

        band = np.bincount(ix.entry_slot,
                           weights=c[ix.entry_link] * ix.entry_sign,
                           minlength=size * n_u * width)
        rhs = np.bincount(ix.end_node, weights=ix.end_sign * y[ix.end_link]
                          + c[ix.end_link] * far,
                          minlength=size * n_u) - demand_u

        if n_e:
            fwd = qe > 0.0
            ce = 1.0 / np.maximum(np.where(fwd, 2.0 * qe / emit_k2,
                                           GRAD_REVERSE), GRAD_MIN)
            ye = qe - ce * np.where(fwd, qe * qe / emit_k2, GRAD_REVERSE * qe)
            band[emit_u * width] += ce
            rhs[emit_u] += ce * emit_elev - ye

        # factor and solve each row in place: the transposed view of a row's
        # band is Fortran-ordered
        bands, solved = band.reshape(size, n_u, width), rhs.reshape(size, n_u)
        singular = []
        for b in range(size):
            factor, info = lapack.dpbtrf(bands[b].T, lower=1, overwrite_ab=1)
            if not info:
                x, info = lapack.dpbtrs(factor, solved[b], lower=1,
                                        overwrite_b=1)
                if x.base is not rhs:   # solved in a copy
                    solved[b] = x
            if info:
                singular.append(b)
        if singular:
            # such a row fails at its current iterate; it keeps its heads
            # until it leaves the batch below
            mass, energy = residuals(flat[ix.a_from] - flat[ix.a_to])
            for b in singular:
                fail(b, mass, energy)
                solved[b] = flat.reshape(size, n)[b, topo.unknown]
            passed[singular] = False
        flat[ix.unknown] = rhs

        dh = flat[ix.a_from] - flat[ix.a_to]
        q_new = y + c * dh
        if n_e:
            qe = ye + ce * (flat[emit_at] - emit_elev)
        rel = (np.add.reduce(np.abs(q_new - q).reshape(size, m), axis=1)
               / np.maximum(np.add.reduce(np.abs(q_new).reshape(size, m),
                                          axis=1), FLOW_FLOOR))
        q = q_new

        # stop rule: one full Newton step past the first converged iterate;
        # the residuals, with the updated flows and heads, are computed only
        # where the rule reads them
        drop, converged = None, rel <= ACCURACY
        if stopping or np.count_nonzero(converged):
            mass, energy = residuals(dh)
            ok = converged & (mass <= MASS_TOL) & (energy <= ENERGY_TOL)
            if stopping:
                keep(passed, mass, energy)
                drop, ok = passed, ok & ~passed
            passed, stopping = ok, np.count_nonzero(ok)
        if singular:
            if drop is None:
                drop = np.zeros(size, dtype=bool)
            drop[singular] = True
        if drop is not None:
            if np.count_nonzero(drop) == size:
                size = 0
                break
            stay = ~drop
            q, flat, demand_u, far, pump_h, pump_b, pump_nb = (
                a.reshape(size, -1)[stay].reshape(-1) for a in (
                    q, flat, demand_u, far, pump_h, pump_b, pump_nb))
            if n_e:
                qe, emit_k2, emit_elev = (
                    a.reshape(size, -1)[stay].reshape(-1)
                    for a in (qe, emit_k2, emit_elev))
            live, passed = live[stay], passed[stay]
            size = len(live)
            ix = SimpleNamespace(**{name: a[:size * (len(a) // rows)]
                                    for name, a in vars(full).items()})
            if n_e:
                emit_u, emit_at = emit_u[:size * n_e], emit_at[:size * n_e]

    if size:
        # at the iteration cap, a row that passed keeps its iterate and the
        # others fail
        mass, energy = residuals(flat[ix.a_from] - flat[ix.a_to])
        keep(passed, mass, energy)
        for b in np.flatnonzero(~passed).tolist():
            fail(b, mass, energy)
    return out


# --- extended-period engine --------------------------------------------------

class EpsEngine:
    """Stepwise extended-period runner shared by batch simulation and the
    control environment, so both produce identical arithmetic.

    control_hook(t) -> Controls or None; emitter_hook(t) -> {junction: k} or
    None. No controls means no overrides. The engine plans its horizon when
    it is made: the hooks are called once per step, each answer read as it
    is returned and checked in the plan, and every pattern is indexed at
    the network's pattern step for all steps at once. Steps whose inputs are
    bytewise equal share an input id. `step_once` and `solve_current` may
    add overrides beneath the step's planned controls; the plan takes every
    setting of each link it names, dropping any override on that link.

    Solved snapshots are kept by (input id, override link settings, tank
    levels): one that repeats a converged snapshot is served the kept
    state's read-only arrays, one that repeats a failed snapshot raises its
    kept error. `iteration_counts` histograms the Newton iterations of the
    snapshots actually solved. Every solve runs the status loop. On a
    network without tanks `run` first solves the distinct snapshots the
    memo lacks in batches (see the module docstring), with the states of
    stepping, and in a run that converges its histogram and `solves` too.
    It raises the kept error of its first failing step when it reaches
    that step; by then it has solved and counted later steps' snapshots.
    The plan, the memo and the histogram outlive `reset`.
    The memo holds the snapshots of one episode (its steps and a preview),
    dropping the least recently used. `tank_levels` holds the current level
    per tank, in layout order, and `times` each step's t.
    """

    def __init__(self, network: Network, duration_s: int | None = None,
                 step_s: int | None = None, control_hook=None,
                 emitter_hook=None):
        self.network = network
        # a network with bad options raises InvalidNetworkError here
        self.layout = _layout(network)
        opt = network.options
        duration = opt.duration_s if duration_s is None else duration_s
        step = opt.hydraulic_step_s if step_s is None else step_s
        # whole seconds by `_real`'s rule, so 3600.0 runs as 3600
        if not (_positive_whole(step) and _real(duration, 0.0)
                and duration % step == 0):
            raise ValueError("duration must be a positive multiple of the"
                             " hydraulic time step")
        self.duration_s, self.step_s = int(duration), int(step)
        self.total_steps = self.duration_s // self.step_s
        self.control_hook = control_hook
        self.emitter_hook = emitter_hook
        self._plan()
        self._memo: dict[tuple, HydraulicState | WdnflowError] = {}
        self.iteration_counts: Counter[int] = Counter()
        self.reset()

    @property
    def solves(self) -> int:
        """Snapshots solved; the rest repeated a solved one's inputs."""
        return sum(self.iteration_counts.values())

    def reset(self) -> None:
        """Rewind to t = 0 with every tank at its initial level; the
        network's layout keeps its topologies and the engine its plan and
        memo, so a rerun repeats no reference solve and no snapshot solve."""
        self.step_index = 0
        self.tank_levels = self.layout.tank_init.copy()
        self._taken: list[HydraulicState] = []

    def _plan(self) -> None:
        """Each step's inputs: demand multipliers, reservoir heads, emitter
        coefficients at the junctions the hook ever names (in node order)
        and the control set's link settings, plus its input id. A hook
        answer is read as it is returned, so a hook may reuse one object."""
        layout = self.layout
        self.times = times = np.arange(self.total_steps) * float(self.step_s)
        t = times.tolist()
        self._mult = layout.multipliers(layout.demand_patterns, times)
        self._res = layout.reservoir_heads(times)
        # a copy of each answer, as a hook may edit and return one dict
        emitters = [dict(self.emitter_hook(x) or {}) for x in t] \
            if self.emitter_hook else [{}] * len(t)
        # the junctions any step names, in node order; emitter_k checks them
        self._emit_nodes = np.flatnonzero(
            layout.emitter_k(dict.fromkeys(set().union(*emitters), 1.0)))
        self._emit = np.zeros((len(t), len(self._emit_nodes)))
        for row, e in zip(self._emit, emitters):
            if e:
                row[:] = layout.emitter_k(e)[self._emit_nodes]
        self._settings = [_link_settings(layout.inc, self.control_hook(x))
                          for x in t] if self.control_hook else [()] * len(t)
        rows = np.hstack([self._mult, self._res, self._emit])
        ids: dict[tuple, int] = {}
        self._input = [ids.setdefault((row.tobytes(), settings), len(ids))
                       for row, settings in zip(rows, self._settings)]

    def _key(self, k: int, settings: tuple) -> tuple:
        """The memo key of step k under these resolved override settings at
        the current tank levels."""
        return (self._input[k], settings, self.tank_levels.tobytes())

    def _inputs(self, k: int, settings: tuple) -> tuple:
        """`_solve_batch`'s snapshot of step k under its planned inputs, with
        these resolved override settings beneath its planned controls, at
        the current tank levels."""
        layout = self.layout
        emit_k = np.zeros(len(layout.inc.node_ids))
        emit_k[self._emit_nodes] = self._emit[k]
        return (layout.demand(self._mult[k]),
                *_active_mask(layout, settings, self._settings[k]),
                self._res[k], emit_k, self.tank_levels,
                float(k * self.step_s))

    def _solved(self, state: HydraulicState | WdnflowError) -> None:
        """Count a newly solved state's iterations (an error counts none)
        and make room for it in the memo, dropping the least recently
        used."""
        if not isinstance(state, WdnflowError):
            self.iteration_counts[state.iterations] += 1
        if len(self._memo) > self.total_steps:
            del self._memo[next(iter(self._memo))]

    def _recall(self, overrides: Controls | None) -> HydraulicState:
        """The current step's snapshot under its planned inputs, with the
        overrides, checked first, beneath its planned controls; solved on a
        memo miss, and its error raised where it fails. A rejected override
        leaves no trace."""
        k = self.step_index
        if k >= self.total_steps:
            raise IndexError("simulation horizon already reached")
        settings = _link_settings(self.layout.inc, overrides)
        key = self._key(k, settings)
        state = self._memo.pop(key, None)
        if state is None:
            state, = _solve_batch(self.layout, [self._inputs(k, settings)])
            self._solved(state)
        self._memo[key] = state
        if isinstance(state, WdnflowError):
            raise state
        return state

    def _advance(self, state: HydraulicState) -> None:
        """Keep the state as the current step's, integrate the tank levels
        over the step and move on."""
        if self.tank_levels.size:   # explicit Euler, clamped to the bounds
            layout = self.layout
            np.clip(self.tank_levels + state.tank_net_inflow
                    * float(self.step_s) / layout.tank_area,
                    layout.tank_min, layout.tank_max, out=self.tank_levels)
        self._taken.append(state)
        self.step_index += 1

    def solve_current(self,
                      overrides: Controls | None = None) -> HydraulicState:
        """The snapshot at the current time, without advancing."""
        state = self._recall(overrides)
        return replace(state, t=float(self.step_index * self.step_s),
                       leak_flow=dict(state.leak_flow))

    def step_once(self, overrides: Controls | None = None) -> HydraulicState:
        """The snapshot at the current time; then integrate tank levels."""
        state = self.solve_current(overrides)
        self._advance(state)
        return state

    def series(self) -> StateSeries:
        """The snapshots of the steps taken since the last reset: each
        distinct snapshot is stacked once and taken per step. There is one
        leak column per junction the plan ever gives an emitter, in node
        order, NaN at a step where the junction has none."""
        inc = self.layout.inc
        where: dict[HydraulicState, int] = {}
        rows = np.array([where.setdefault(s, len(where)) for s in self._taken],
                        dtype=np.intp)
        leak_ids = tuple(inc.node_ids[n] for n in self._emit_nodes.tolist())

        def column(values, *width, dtype=float):
            return np.array(values, dtype=dtype).reshape(len(where),
                                                         *width)[rows]
        return StateSeries(
            node_ids=inc.node_ids, link_ids=inc.link_ids,
            junction_ids=inc.junction_ids, tank_ids=inc.tank_ids,
            step_s=self.step_s,
            **{name: column([getattr(s, name) for s in where],
                            len(getattr(inc, ids)))
               for name, ids in _COLUMNS.items()},
            iterations=column([s.iterations for s in where], dtype=np.int64),
            mass_residual=column([s.mass_residual for s in where]),
            energy_residual=column([s.energy_residual for s in where]),
            leak_ids=leak_ids, leak_flow=column(
                [[s.leak_flow.get(j, math.nan) for j in leak_ids]
                 for s in where], len(leak_ids)))

    def run(self) -> StateSeries:
        """Step to the horizon and return the series of the steps taken."""
        if not self.tank_levels.size:
            self._solve_planned()
        for _ in range(self.total_steps):
            self._advance(self._recall(None))
        return self.series()

    def _solve_planned(self) -> None:
        """Solve the distinct planned snapshots of the steps to come that
        the memo lacks, in one Newton batch per topology and emitter node
        set, and keep them, or their errors, in the memo in the order of
        their first steps. Only a network without tanks knows every step's
        inputs up front."""
        first: dict[tuple, int] = {}
        for k in range(self.step_index, self.total_steps):
            key = self._key(k, ())
            if key not in self._memo:
                first.setdefault(key, k)
        states = _solve_batch(self.layout, [self._inputs(k, ())
                                            for k in first.values()])
        for key, state in zip(first, states):
            self._solved(state)
            self._memo[key] = state


def simulate_hydraulics(network: Network, *, duration_s: int | None = None,
                        hydraulic_step_s: int | None = None,
                        control_hook=None, emitter_hook=None) -> StateSeries:
    """Run a full extended-period simulation over the network's horizon."""
    engine = EpsEngine(network, duration_s, hydraulic_step_s,
                       control_hook, emitter_hook)
    return engine.run()
