"""wdnflow benchmark: one workload per process, whole rounds of operations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
After set-up, an untimed warm-up runs the generate (and episode) calls on a
short cut of the scenario. Then whole rounds run until the workload's
minimum (two, or three on toy9_twoweek) are done and
--seconds have passed; every round must reproduce the first round's output
bytes.

--trace 0 prints the end-to-end metrics. --trace 1 times each public call
from outside (tracing.py), alternating traced and untraced generates, prints
the per-layer metrics and writes the spans to perfbench-out/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_PROBES = 2            # extra set-ups in child processes; median of 3
WORKLOADS = ("toy9_twoweek", "toy9_quality", "grid_detect", "grid_control")


def setup(name: str, seed: int, workdir: str):
    """Imports, the workload's inputs and the first load_network."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.build(name, seed, workdir)
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="time one set-up, print it and exit")
    args = ap.parse_args(argv)

    if not (SRC / "wdnflow" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a wdnflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(repr(setup_s))
            return 0
        from bench import Bench
        bench = Bench(wl, workdir, args.trace == 1)
        bench.warm_up()
        start = time.perf_counter()
        rounds, ok = 0, True
        while ok and (rounds < wl.min_rounds
                      or time.perf_counter() - start < args.seconds):
            ok = bench.run_round(traced=args.trace == 1 and rounds % 2 == 0)
            rounds += 1
        correct = ok and not bench.unexpected
        if correct and args.trace:
            metrics = bench.per_layer()
            bench.tracer.write(str(OUT / f"trace_{wl.name}_seed{args.seed}.json"))
        elif correct:
            samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
            print(f"setup samples (s): {samples}", file=sys.stderr)
            metrics = bench.end_to_end(statistics.median(samples))
        else:
            metrics = {}

    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
