"""Correctness checks, recomputed from the network's fields and the outputs.

Each check returns a list of problems; an empty list is a pass. None of them
reuses the program's own residual code: the balances are rebuilt here from
the raw flows, heads, demands and leak discharges.
"""

from __future__ import annotations

import math

import numpy as np

MASS_TOL = 1e-6        # m3/s per junction, every snapshot
ENERGY_TOL = 1e-6      # m per flowing open pipe, every snapshot
Q_FLOWING = 1e-8       # m3/s; pipes at or below this carry no flow
LEDGER_RTOL = 1e-6     # quality mass ledger, relative to injected mass
CONC_RTOL = 1e-12      # rounding allowance above the largest source


def hydraulics(network, series) -> list[str]:
    """Junction mass balance and Hazen-Williams residuals of a solved series.

    `network` must be the network that was solved (leak pipes split), so the
    leak discharge is a withdrawal at its own junction.
    """
    nodes = {n: i for i, n in enumerate(series.node_ids)}
    links = list(series.link_ids)
    src = np.array([nodes[network.link(l).from_node] for l in links])
    dst = np.array([nodes[network.link(l).to_node] for l in links])
    flow = np.array([s.flow for s in series.states])          # T x L
    head = np.array([s.head for s in series.states])          # T x N
    demand = np.array([s.actual_demand for s in series.states])
    junc = [nodes[j] for j in series.junction_ids]
    leak = np.zeros_like(demand)
    col = {j: k for k, j in enumerate(series.junction_ids)}
    for t, s in enumerate(series.states):
        for jid, q in s.leak_flow.items():
            leak[t, col[jid]] += q

    net_in = np.zeros((flow.shape[0], len(nodes)))
    np.add.at(net_in.T, dst, flow.T)
    np.add.at(net_in.T, src, -flow.T)
    mass = net_in[:, junc] - demand - leak
    problems = []
    worst = float(np.abs(mass).max()) if mass.size else 0.0
    if worst > MASS_TOL:
        problems.append(f"junction mass residual {worst:.3e} m3/s")

    pipe_cols = [k for k, l in enumerate(links)
                 if l in network.pipes and network.pipes[l].open]
    if pipe_cols:
        p = [network.pipes[links[k]] for k in pipe_cols]
        r = np.array([10.667 * x.length / (x.roughness ** 1.852
                                           * x.diameter ** 4.871) for x in p])
        q = flow[:, pipe_cols]
        dh = head[:, src[pipe_cols]] - head[:, dst[pipe_cols]]
        resid = dh - np.sign(q) * r * np.abs(q) ** 1.852
        resid[np.abs(q) <= Q_FLOWING] = 0.0
        worst = float(np.abs(resid).max())
        if worst > ENERGY_TOL:
            problems.append(f"Hazen-Williams residual {worst:.3e} m")
    return problems + tank_bounds(network, series.tank_ids, series.states)


def tank_bounds(network, tank_ids, states) -> list[str]:
    problems = []
    for i, tid in enumerate(tank_ids):
        tank = network.tanks[tid]
        levels = np.array([s.tank_level[i] for s in states])
        if levels.size and (levels.min() < tank.min_level
                            or levels.max() > tank.max_level):
            problems.append(f"tank {tid} left [{tank.min_level},"
                            f" {tank.max_level}]")
    return problems


def csv_round_trip(scada, csv_text: str) -> list[str]:
    from wdnflow.scada import from_csv
    back = from_csv(csv_text)
    if back.times != scada.times or back.columns != scada.columns \
            or not np.array_equal(back.values, scada.values, equal_nan=True):
        return ["from_csv(to_csv(scada)) differs from the SCADA data"]
    return []


def same_states(batch, episode, n: int) -> list[str]:
    """The first n episode states equal the batch states bit for bit."""
    if len(episode) < n or len(batch) < n:
        return [f"fewer than {n} states to compare"]
    for a, b in zip(batch[:n], episode[:n]):
        for name in ("flow", "head", "pressure_head", "tank_level",
                     "actual_demand"):
            if getattr(a, name).tobytes() != getattr(b, name).tobytes():
                return [f"episode {name} at t={b.t} differs from the batch run"]
        if a.t != b.t or a.leak_flow != b.leak_flow:
            return [f"episode state at t={b.t} differs from the batch run"]
    return []


def ledger_residual(states) -> float:
    """Worst relative closure of stored + withdrawn + decayed = injected."""
    worst = 0.0
    for qs in states:
        closure = qs.stored_mass + qs.withdrawn_mass + qs.decayed_mass \
            - qs.injected_mass
        worst = max(worst, abs(closure) / max(qs.injected_mass, 1e-12))
    return worst


def concentrations(states, max_source: float) -> list[str]:
    top = max_source * (1.0 + CONC_RTOL)
    for qs in states:
        c = qs.node_concentration
        seg = [x for segs in qs.pipe_segments.values() for _, x in segs]
        lo = min(float(c.min()), min(seg, default=0.0))
        hi = max(float(c.max()), max(seg, default=0.0))
        if lo < 0.0 or hi > top or math.isnan(lo + hi):
            return [f"concentration out of [0, {max_source}] at t={qs.t}"]
    return []
