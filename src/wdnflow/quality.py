"""Single-species quality transport over a solved hydraulic series.

The Lagrangian time-driven method of EPANET (Rossman & Boulos 1996). Pipes
carry ordered plug-flow segments (index 0 at the from-node end) in a deque,
so water leaves the downstream end and enters the upstream end in O(1). A new
parcel joins the segment at the upstream end when their concentrations differ
by less than SEGMENT_MERGE_DC, and starts a new segment otherwise; segments
never merge elsewhere. Nodes mix completely; decay is first order. Pumps and
valves hold no volume, so water crossing one carries its donor node's
concentration of the same quality step; one fed by a junction is taken after
every link that feeds that junction. Within one hydraulic step the flows are
frozen and the quality step subdivides it; where a quality step's parcel
would be longer than some pipe, that hydraulic step takes m times as many
sub-steps, so no parcel outruns its pipe.

Decay is lazy: segments store concentration / scale, and each quality step
multiplies the one scale by the decay factor instead of touching every
segment. The segments are folded back to true concentrations when the scale
falls below SCALE_FLOOR, before any stored value can overflow. Each state's
segments are true concentrations, one read-only (n, 2) array per pipe.

The run keeps an exact mass ledger (injected at sources, withdrawn at demands,
leaks and reservoirs, lost to decay) so conservation is checkable from the
outside. A source junction bounds it as a reservoir does: what reaches one is
withdrawn, what leaves one through a link is injected, and its own demand and
leak draw stay out. It walks the network's compiled layout: once per
hydraulic step it lists the moving links, and each quality step makes one
pass over them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import ConfigError, NegativeConcentrationError
from .hydraulics import StateSeries
from .network import Network, _finite, _positive_whole, incidence

__all__ = ["QualitySettings", "QualityState", "decay", "simulate_quality",
           "SEGMENT_MERGE_DC"]

# mg/L; a parcel entering a pipe joins the segment at its upstream end when
# their concentrations differ by less than this
SEGMENT_MERGE_DC = 1e-4
SCALE_FLOOR = 1e-150      # the lazy decay scale is folded back in below this


@dataclass(frozen=True)
class QualitySettings:
    quality_time_step: int = 60           # s
    decay_rate_k: float = 0.0             # 1/s
    source_nodes: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "quality_time_step", _whole_seconds(
            "quality_time_step", self.quality_time_step))
        object.__setattr__(self, "decay_rate_k",
                           _finite(self.decay_rate_k, "decay_rate_k", 0.0))
        object.__setattr__(self, "source_nodes", {
            node: _finite(conc, f"source concentration at '{node}'", 0.0)
            for node, conc in self.source_nodes.items()})


def _whole_seconds(name: str, value) -> int:
    """A duration as int seconds: a positive whole number, never a bool."""
    if not _positive_whole(value):
        raise ConfigError(f"{name} must be a positive whole number of"
                          f" seconds, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class QualityState:
    """Concentrations at one hydraulic step, plus the cumulative mass ledger."""

    t: float
    node_concentration: np.ndarray                 # per node, canonical order
    # per pipe, from-node end first: read-only (n, 2) rows of (m3, mg/L)
    pipe_segments: dict[str, np.ndarray]
    stored_mass: float       # in pipes and tanks, m3 * mg/L
    injected_mass: float     # cumulative source injection
    withdrawn_mass: float    # cumulative demand + boundary absorption
    decayed_mass: float      # cumulative first-order loss


def decay(concentration: float, k: float, dt: float) -> float:
    """First-order decay c' = c exp(-k dt)."""
    return concentration * math.exp(-k * dt)


def _peel(segments: deque[list[float]], volume: float,
          forward: bool) -> tuple[float, float]:
    """Remove `volume` from the downstream end; returns (stored mass, volume
    removed)."""
    mass = 0.0
    removed = 0.0
    end = -1 if forward else 0
    pop = segments.pop if forward else segments.popleft
    while volume > 1e-15 and segments:
        seg = segments[end]
        if seg[0] <= volume + 1e-15:
            mass += seg[0] * seg[1]
            removed += seg[0]
            volume -= seg[0]
            pop()
        else:
            mass += volume * seg[1]
            removed += volume
            seg[0] -= volume
            volume = 0.0
    return mass, removed


def _snapshot(pipe_ids: list[str], segments: list[deque[list[float]]],
              scale: float) -> tuple[dict[str, np.ndarray], float]:
    """Each pipe's (volume, true concentration) rows, as read-only views of
    one array, and the exact pipe mass in stored units."""
    ends = list(accumulate(map(len, segments)))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(segments)),
                       float, count=2 * ends[-1] if ends else 0)
    stored = float((flat[0::2] * flat[1::2]).sum())
    flat[1::2] *= scale
    flat.flags.writeable = False
    rows = flat.reshape(-1, 2)
    return {pid: rows[end - len(segs):end]
            for pid, segs, end in zip(pipe_ids, segments, ends)}, stored


def _guard(c: float) -> float:
    if c < -1e-9:
        raise NegativeConcentrationError(
            f"negative concentration {c} encountered")
    return max(c, 0.0)


def simulate_quality(series: StateSeries, network: Network,
                     settings: QualitySettings) -> list[QualityState]:
    """Advect, mix and decay over the series; one QualityState per step.

    The series must be solved on `network` itself: for a leak scenario, the
    leak-split network, whose leak discharge each state withdraws at its
    junction together with the demand.
    """
    if not len(series.t):
        return []
    inc = incidence(network)
    if series.node_ids != inc.node_ids or series.link_ids != inc.link_ids:
        raise ConfigError("the series was not solved on this network: its"
                          " node or link ids differ from the network's")
    step_s = series.step_s
    qdt = settings.quality_time_step
    if step_s % qdt != 0:
        raise ConfigError("quality_time_step must divide the hydraulic step")
    n_sub = step_s // qdt
    k_decay = settings.decay_rate_k

    for nid in settings.source_nodes:
        if nid not in inc.node_index:
            raise ConfigError(f"quality source '{nid}' is not a network node")
    sources = {inc.node_index[nid]: c
               for nid, c in settings.source_nodes.items()}

    # node order is junctions, reservoirs, tanks; link order starts with pipes
    n_junc = len(inc.junction_ids)
    off = [j for j in series.leak_ids
           if inc.node_index.get(j, n_junc) >= n_junc]
    if off:
        raise ConfigError(f"leak at '{off[0]}' is not a junction of the"
                          " network")
    # each junction's withdrawal: its demand and the discharge of its leak,
    # if it has one that step (where it has none, adding 0.0 at most turns
    # a -0.0 draw into 0.0, and only positive draws withdraw)
    withdrawal = series.actual_demand.copy()
    withdrawal[:, [inc.node_index[j] for j in series.leak_ids]] += \
        np.nan_to_num(series.leak_flow)
    first_tank = n_junc + len(inc.reservoir_ids)
    # the ledger's boundary: reservoirs and source junctions
    boundary = sorted({*range(n_junc, first_tank),
                       *(i for i in sources if i < n_junc)})
    n_pipes = len(network.pipes)
    pipe_ids = inc.link_ids[:n_pipes]
    mixing = [i for i in range(n_junc) if i not in sources]
    pipe_volume = np.array([math.pi * (pipe.diameter / 2.0) ** 2 * pipe.length
                            for pipe in map(network.pipes.get, pipe_ids)])
    segments = [deque([[v, 0.0]]) for v in pipe_volume.tolist()]
    # segments store concentration / scale, so decay is one product per step
    scale = 1.0
    pipe_mass = 0.0          # sum of volume * stored concentration
    tol = SEGMENT_MERGE_DC   # the merge tolerance in stored units
    conc = [sources.get(i, 0.0) for i in range(len(inc.node_ids))]
    tanks = [network.tanks[tid] for tid in inc.tank_ids]
    tank_mass = [0.0] * len(tanks)
    tank_vol = [tk.area * tk.init_level for tk in tanks]

    def tank_conc(k: int) -> float:
        return tank_mass[k] / tank_vol[k] if tank_vol[k] > 1e-12 else 0.0

    injected = 0.0
    withdrawn = 0.0
    decayed = 0.0
    out: list[QualityState] = []

    for t, flow, draw, tank_inflow in zip(
            series.t.tolist(), series.flow, withdrawal,
            series.tank_net_inflow):
        # the moving links of this hydraulic step, in link order: (link,
        # volume per sub-step, upstream node, downstream node, forward)
        moving = np.flatnonzero(flow)
        q = flow[moving]
        fwd = q > 0.0
        # m sub-steps of qdt / m each, with m the least that keeps every
        # pipe's parcel within its volume
        parcel = np.abs(q) * qdt
        n_moving_pipes = int(np.searchsorted(moving, n_pipes))
        m = max(1, math.ceil((parcel[:n_moving_pipes] / pipe_volume[
            moving[:n_moving_pipes]]).max(initial=0.0)))
        dt = qdt / m
        factor = math.exp(-k_decay * dt)
        links = list(zip(
            moving.tolist(), (parcel / m).tolist(),
            np.where(fwd, inc.link_from[moving], inc.link_to[moving]).tolist(),
            np.where(fwd, inc.link_to[moving], inc.link_from[moving]).tolist(),
            fwd.tolist()))
        pipes = links[:n_moving_pipes]
        # a pump or valve leaving a junction passes on the junction's mix, so
        # it waits for every other such link that feeds that junction; a
        # cycle of them is cut in link order
        thin = links[len(pipes):]
        fed = [l for l in thin if l[2] < n_junc]
        links = pipes + [l for l in thin if l[2] >= n_junc]
        while fed:
            feeds = {l[3] for l in fed}
            links.append(next((l for l in fed if l[2] not in feeds), fed[0]))
            fed.remove(links[-1])
        draws = [(i, v) for i, v in enumerate((draw * dt).tolist())
                 if v > 0.0 and i not in sources]
        tank_dv = (tank_inflow * dt).tolist()

        for _ in range(n_sub * m):
            # 1. first-order reaction on all stored water
            if k_decay > 0.0:
                decayed += pipe_mass * scale * (1.0 - factor)
                scale *= factor
                for k in range(len(tanks)):
                    decayed += tank_mass[k] * (1.0 - factor)
                    tank_mass[k] *= factor
                if scale < SCALE_FLOOR:
                    # fold the scale back in before stored values overflow
                    for segs in segments:
                        for seg in segs:
                            seg[1] *= scale
                    pipe_mass = math.fsum(seg[0] * seg[1]
                                          for segs in segments for seg in segs)
                    scale = 1.0
                tol = SEGMENT_MERGE_DC / scale

            # 2. arrivals: pipes give up their downstream end; pumps and
            # valves pass on their donor's water
            inflow_mass = [0.0] * len(conc)
            inflow_vol = [0.0] * len(conc)
            for j, vol, up, down, forward in links:
                if j < n_pipes:
                    mass, removed = _peel(segments[j], vol, forward)
                    pipe_mass -= mass
                    mass *= scale
                    short = vol - removed
                    if short > 1e-15:
                        # rounding left the pipe short of the parcel: the
                        # excess carries the donor node's previous
                        # concentration
                        mass += short * conc[up]
                elif up >= first_tank:
                    mass = vol * tank_conc(up - first_tank)
                    tank_mass[up - first_tank] -= mass
                elif up in boundary:
                    mass = vol * conc[up]
                    injected += mass
                elif inflow_vol[up] <= 1e-15:
                    mass = vol * conc[up]
                else:
                    # every arrival at the junction is in: this is its mix
                    mass = vol * _guard(inflow_mass[up] / inflow_vol[up])
                inflow_mass[down] += mass
                inflow_vol[down] += vol

            # 3. junctions mix and serve demand and leaks; reservoirs absorb
            # what reaches them; sources and reservoirs hold their value
            new_conc = conc[:]
            for i in mixing:
                if inflow_vol[i] > 1e-15:
                    new_conc[i] = _guard(inflow_mass[i] / inflow_vol[i])
            for i, vol in draws:
                withdrawn += vol * new_conc[i]
            for i in boundary:
                withdrawn += inflow_mass[i]

            # 4. tanks: outflow already removed; add arrivals, track volume
            for k, dv in enumerate(tank_dv):
                i = first_tank + k
                tank_mass[k] += inflow_mass[i]
                tank_vol[k] = max(tank_vol[k] + dv, 0.0)
                if i in sources:
                    target = sources[i] * tank_vol[k]
                    injected += target - tank_mass[k]
                    tank_mass[k] = target
                new_conc[i] = _guard(tank_conc(k))

            # 5. inject new parcels at the upstream ends of moving pipes
            for j, vol, up, down, forward in pipes:
                if up >= first_tank:
                    c_in = tank_conc(up - first_tank)
                    tank_mass[up - first_tank] -= vol * c_in
                else:
                    c_in = new_conc[up]
                    if up in boundary:
                        injected += vol * c_in
                # merge on insertion only: with the upstream-end segment
                segs = segments[j]
                c_in /= scale
                pipe_mass += vol * c_in
                end = 0 if forward else -1
                if segs and abs(segs[end][1] - c_in) < tol:
                    seg = segs[end]
                    total = seg[0] + vol
                    seg[1] = (seg[0] * seg[1] + vol * c_in) / total
                    seg[0] = total
                elif forward:
                    segs.appendleft([vol, c_in])
                else:
                    segs.append([vol, c_in])
            conc = new_conc

        pipe_segments, pipe_mass = _snapshot(pipe_ids, segments, scale)
        conc_out = np.array(conc)
        conc_out.flags.writeable = False
        out.append(QualityState(
            t=t, node_concentration=conc_out,
            pipe_segments=pipe_segments,
            stored_mass=pipe_mass * scale + sum(tank_mass),
            injected_mass=injected,
            withdrawn_mass=withdrawn, decayed_mass=decayed))
    return out
