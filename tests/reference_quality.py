"""The plug-flow quality transport that merge-on-insertion replaced.

A frozen copy of `simulate_quality` as it was before the Lagrangian
time-driven scheme: every segment decays on every quality step, and after
each insertion `_merge` rescans the whole pipe for adjacent segments closer
than `SEGMENT_MERGE_DC`. Kept only as the oracle of the differential tests in
test_quality_reference.py. Nothing in wdnflow imports it.
"""

from __future__ import annotations

import math

import numpy as np

from wdnflow.errors import ConfigError, NegativeConcentrationError
from wdnflow.hydraulics import StateSeries
from wdnflow.network import Network, incidence
from wdnflow.quality import SEGMENT_MERGE_DC, QualitySettings, QualityState


def _merge(segments: list[list[float]]) -> None:
    i = 0
    while i + 1 < len(segments):
        if abs(segments[i][1] - segments[i + 1][1]) < SEGMENT_MERGE_DC:
            v0, c0 = segments[i]
            v1, c1 = segments[i + 1]
            vol = v0 + v1
            segments[i] = [vol, (v0 * c0 + v1 * c1) / vol if vol > 0 else c0]
            del segments[i + 1]
        else:
            i += 1


def _peel(segments: list[list[float]], volume: float,
          downstream_last: bool) -> tuple[float, float]:
    """Remove `volume` from the downstream end; returns (mass, volume removed)."""
    mass = 0.0
    removed = 0.0
    while volume > 1e-15 and segments:
        seg = segments[-1] if downstream_last else segments[0]
        if seg[0] <= volume + 1e-15:
            mass += seg[0] * seg[1]
            removed += seg[0]
            volume -= seg[0]
            segments.pop() if downstream_last else segments.pop(0)
        else:
            mass += volume * seg[1]
            removed += volume
            seg[0] -= volume
            volume = 0.0
    return mass, removed


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
    if not series.states:
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
    factor = math.exp(-k_decay * qdt)

    for nid in settings.source_nodes:
        if nid not in inc.node_index:
            raise ConfigError(f"quality source '{nid}' is not a network node")
    sources = {inc.node_index[nid]: c
               for nid, c in settings.source_nodes.items()}

    # node order is junctions, reservoirs, tanks; link order starts with pipes
    n_junc = len(inc.junction_ids)
    first_tank = n_junc + len(inc.reservoir_ids)
    n_pipes = len(network.pipes)
    pipe_ids = inc.link_ids[:n_pipes]
    mixing = [i for i in range(n_junc) if i not in sources]
    segments = [[[math.pi * (pipe.diameter / 2.0) ** 2 * pipe.length, 0.0]]
                for pipe in map(network.pipes.get, pipe_ids)]
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

    for state in series.states:
        # the moving links of this hydraulic step, in link order: (link,
        # volume per sub-step, upstream node, downstream node, forward)
        moving = np.flatnonzero(state.flow)
        q = state.flow[moving]
        fwd = q > 0.0
        links = list(zip(
            moving.tolist(), (np.abs(q) * qdt).tolist(),
            np.where(fwd, inc.link_from[moving], inc.link_to[moving]).tolist(),
            np.where(fwd, inc.link_to[moving], inc.link_from[moving]).tolist(),
            fwd.tolist()))
        pipes = links[:int(np.searchsorted(moving, n_pipes))]
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
        draw = state.actual_demand.copy()
        for jid, leak in state.leak_flow.items():
            i = inc.node_index.get(jid)
            if i is None or i >= n_junc:
                raise ConfigError(f"leak at '{jid}' is not a junction of the"
                                  " network")
            draw[i] += leak
        draws = [(i, v) for i, v in enumerate((draw * qdt).tolist())
                 if v > 0.0]
        tank_dv = (state.tank_net_inflow * qdt).tolist()

        for _ in range(n_sub):
            # 1. first-order reaction on all stored water
            if k_decay > 0.0:
                for segs in segments:
                    for seg in segs:
                        decayed += seg[0] * seg[1] * (1.0 - factor)
                        seg[1] *= factor
                for k in range(len(tanks)):
                    decayed += tank_mass[k] * (1.0 - factor)
                    tank_mass[k] *= factor

            # 2. arrivals: pipes give up their downstream end; pumps and
            # valves pass on their donor's water
            inflow_mass = [0.0] * len(conc)
            inflow_vol = [0.0] * len(conc)
            for j, vol, up, down, forward in links:
                if j < n_pipes:
                    mass, removed = _peel(segments[j], vol, forward)
                    short = vol - removed
                    if short > 1e-15:
                        # parcel passed the whole pipe within one step:
                        # the excess carries the donor node's previous
                        # concentration
                        mass += short * conc[up]
                elif up >= first_tank:
                    mass = vol * tank_conc(up - first_tank)
                    tank_mass[up - first_tank] -= mass
                elif up >= n_junc:
                    mass = vol * conc[up]
                    injected += mass
                elif up in sources or inflow_vol[up] <= 1e-15:
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
            for i in range(n_junc, first_tank):
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
                    if up >= n_junc:
                        injected += vol * c_in
                segs = segments[j]
                if forward:
                    segs.insert(0, [vol, c_in])
                else:
                    segs.append([vol, c_in])
                _merge(segs)
            conc = new_conc

        stored = sum(seg[0] * seg[1] for segs in segments for seg in segs)
        stored += sum(tank_mass)
        conc_out = np.array(conc)
        conc_out.flags.writeable = False
        out.append(QualityState(
            t=state.t, node_concentration=conc_out,
            pipe_segments={pid: tuple((s[0], s[1]) for s in segs)
                           for pid, segs in zip(pipe_ids, segments)},
            stored_mass=stored, injected_mass=injected,
            withdrawn_mass=withdrawn, decayed_mass=decayed))
    return out
