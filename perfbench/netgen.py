"""Seeded synthetic looped-grid networks, emitted as INP text.

A side x side lattice of junctions with seeded elevations, demands, pipe
lengths, diameters and roughness. A reservoir feeds the lattice corner
through a pump, an elevated tank floats on the far corner, and one interior
lattice edge is a TCV valve. Every junction follows one 24-hour diurnal
pattern. The total base demand is fixed whatever the size, so the trunk
mains carry similar flows on small and large grids.

    python3 perfbench/netgen.py SIDE SEED > grid.inp
"""

from __future__ import annotations

import sys

import numpy as np

TOTAL_DEMAND_LPS = 80.0
RESERVOIR_HEAD_M = 10.0
PUMP_DESIGN = (90.0, 38.0)           # (L/s, m): single-point head curve
TANK = {"elev": 38.0, "init": 4.0, "min": 0.5, "max": 9.0, "diam": 40.0}
TRUNK_DIAMETER_MM = 400
BRANCH_DIAMETERS_MM = (200, 250, 300)
VALVE_DIAMETER_MM = 250
VALVE_LOSS_COEF = 4.0
DIURNAL = (0.6, 0.5, 0.45, 0.4, 0.45, 0.55, 0.8, 1.1, 1.3, 1.25, 1.15, 1.05,
           1.0, 0.95, 0.9, 0.95, 1.05, 1.25, 1.45, 1.4, 1.2, 1.0, 0.8, 0.7)

PUMP_ID = "pu1"
VALVE_ID = "v1"
TANK_ID = "t1"


def junction_id(r: int, c: int) -> str:
    return f"j{r:03d}_{c:03d}"


def grid_inp(side: int, seed: int) -> str:
    """INP text of a side x side grid; the same (side, seed) gives the same text."""
    if side < 3:
        raise ValueError("grid side must be at least 3")
    rng = np.random.default_rng([side, seed])
    n = side * side
    slope = rng.uniform(-0.02, 0.02, size=2)
    weights = rng.uniform(0.5, 1.5, size=n)
    demand = TOTAL_DEMAND_LPS * weights / weights.sum()
    noise = rng.uniform(0.0, 4.0, size=n)

    out = ["[TITLE]", f"synthetic grid {side}x{side} seed {seed}", "",
           "[JUNCTIONS]", ";id  elev_m  demand_lps  pattern"]
    for r in range(side):
        for c in range(side):
            k = r * side + c
            elev = 3.0 + 100.0 * (slope[0] * r + slope[1] * c) / side + noise[k]
            out.append(f" {junction_id(r, c)}  {elev:.3f}  {demand[k]:.6f}"
                       "  diurnal")

    out += ["", "[RESERVOIRS]", ";id  head_m", f" r1  {RESERVOIR_HEAD_M}", "",
            "[TANKS]", ";id  elev  init  min  max  diameter_m",
            f" {TANK_ID}  {TANK['elev']}  {TANK['init']}  {TANK['min']}"
            f"  {TANK['max']}  {TANK['diam']}", ""]

    # lattice edges: right and down neighbours; row 0 and column 0 are trunk
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append(((r, c), (r, c + 1), r == 0))
            if r + 1 < side:
                edges.append(((r, c), (r + 1, c), c == 0))
    mid = side // 2
    valve_edge = ((mid, mid), (mid, mid + 1))
    lengths = rng.uniform(100.0, 250.0, size=len(edges))
    diameters = rng.choice(BRANCH_DIAMETERS_MM, size=len(edges))
    roughness = rng.uniform(95.0, 130.0, size=len(edges))

    out += ["[PIPES]", ";id  from  to  length_m  diameter_mm  roughness"]
    valves = []
    k = 0
    for i, (a, b, trunk) in enumerate(edges):
        if (a, b) == valve_edge:
            valves.append(f" {VALVE_ID}  {junction_id(*a)}  {junction_id(*b)}"
                          f"  {VALVE_DIAMETER_MM}  TCV  {VALVE_LOSS_COEF}")
            continue
        k += 1
        diameter = TRUNK_DIAMETER_MM if trunk else int(diameters[i])
        out.append(f" p{k:05d}  {junction_id(*a)}  {junction_id(*b)}"
                   f"  {lengths[i]:.2f}  {diameter}  {roughness[i]:.1f}")
    out.append(f" p{k + 1:05d}  {junction_id(side - 1, side - 1)}  {TANK_ID}"
               f"  50.0  {TRUNK_DIAMETER_MM}  120.0")

    out += ["", "[PUMPS]", ";id  from  to  HEAD  curve",
            f" {PUMP_ID}  r1  {junction_id(0, 0)}  HEAD  c1", "",
            "[VALVES]", ";id  from  to  diameter_mm  type  loss_coef", *valves,
            "", "[CURVES]", ";id  flow_lps  head_m",
            f" c1  {PUMP_DESIGN[0]}  {PUMP_DESIGN[1]}", "",
            "[PATTERNS]", " diurnal  " + "  ".join(str(m) for m in DIURNAL), "",
            "[TIMES]", " Duration            24 HOURS",
            " Hydraulic Timestep  300 SEC", " Quality Timestep    60 SEC",
            " Pattern Timestep    1 HOURS", "",
            "[OPTIONS]", " Units     LPS", " Headloss  H-W",
            " Demand    Model DDA", "", "[END]", ""]
    return "\n".join(out)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: netgen.py SIDE SEED")
    sys.stdout.write(grid_inp(int(sys.argv[1]), int(sys.argv[2])))
