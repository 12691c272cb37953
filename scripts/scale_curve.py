"""Scale curve of the hydraulic solver on seeded synthetic grids.

    python3 scripts/scale_curve.py [--root CHECKOUT] [--sides 10 32 100]
                                   [--steps 24] [--seed 3]

Each grid side runs in a fresh process, which imports the program from
CHECKOUT/src and the grid generator from CHECKOUT/perfbench (CHECKOUT is
this script's checkout by default). The process writes
`netgen.grid_inp(side, seed)` (side x side junctions), times
`load_network`, then runs `EpsEngine` over `steps` hourly steps, and reads
its own peak resident set size. One JSON line is printed per side: the
parse time, milliseconds and Newton iterations per snapshot solved (the
first snapshot pays for its topology and reference solve), peak RSS in MB
and `series.digest()`. `scripts/scale_curve_digests.jsonl` pins the digests
of `--sides 10 32 --steps 2`; the 32 x 32 grid, band half-width 32, takes
LAPACK's blocked band factor.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def one(root: Path, side: int, steps: int, seed: int) -> dict:
    """The curve's point for one grid side, measured in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import netgen
    from wdnflow.hydraulics import EpsEngine
    from wdnflow.inp import load_network

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "grid.inp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(netgen.grid_inp(side, seed))
        t0 = time.perf_counter()
        network = load_network(path)
        parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    engine = EpsEngine(network, duration_s=steps * 3600, step_s=3600)
    series = engine.run()
    eps_s = time.perf_counter() - t0
    iterations = sum(k * n for k, n in engine.iteration_counts.items())
    return {"side": side, "junctions": len(network.junctions),
            "parse_s": round(parse_s, 4), "snapshots": engine.solves,
            "ms_per_snapshot": round(1e3 * eps_s / engine.solves, 2),
            "iters_per_snapshot": round(iterations / engine.solves, 3),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
            "digest": series.digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ are measured")
    ap.add_argument("--sides", type=int, nargs="+", default=[10, 32, 100])
    ap.add_argument("--steps", type=int, default=24)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one is not None:
        print(json.dumps(one(args.root.resolve(), args.one, args.steps,
                             args.seed)))
        return 0
    for side in args.sides:
        proc = subprocess.run(
            [sys.executable, __file__, "--root", str(args.root), "--one",
             str(side), "--steps", str(args.steps), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True)
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
