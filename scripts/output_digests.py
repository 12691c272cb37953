"""Fingerprints of every output the benchmark's workloads produce.

    python3 scripts/output_digests.py [--root CHECKOUT]
                                      [--workloads NAME ...] [--seeds 3 7]

Each workload and seed runs in a fresh process, which imports the program
from CHECKOUT/src and the workloads from CHECKOUT/perfbench (CHECKOUT is
this script's checkout by default); nothing under perfbench/ is written.
The process builds the workload, runs `run_scenario` on its generate config
and writes the CSV outputs into a temporary directory. On a workload with a
control episode it also steps a `ScenarioEnv` through the workload's policy.
One JSON line is printed per workload and seed, with the sha256 of:

- the SCADA and truth CSV bytes;
- `series.digest()` and the series' leak ids and flows;
- quality runs: the node concentrations, the mass ledger and the pipe
  segments of every quality state (empty input when there is no quality);
- episodes: the observations, the rewards and the state history's arrays
  and leak flows (empty input when there is no episode).

Two checkouts produce the same outputs when they print the same lines:

    python3 scripts/output_digests.py --root A > a.jsonl
    python3 scripts/output_digests.py --root B > b.jsonl
    diff a.jsonl b.jsonl

`scripts/output_digests.jsonl` pins the lines at the default seeds, and CI
diffs against it:

    python3 scripts/output_digests.py | diff scripts/output_digests.jsonl -

A change that means to move output bytes regenerates that file and says
why, as with the golden pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("toy9_twoweek", "toy9_quality", "grid_detect", "grid_control")
ARRAYS = ("flow", "head", "pressure_head", "tank_level", "actual_demand",
          "tank_net_inflow")


def _sha(*parts) -> str:
    """sha256 over the parts: bytes as they are, arrays by their bytes,
    anything else by its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif hasattr(part, "tobytes"):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def one(root: Path, name: str, seed: int) -> dict:
    """The digest line of one workload and seed, computed in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from wdnflow.control import ScenarioEnv
    from wdnflow.scenario import run_scenario, write_outputs

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.build(name, seed, workdir)
        result = run_scenario(wl.generate)
        written = write_outputs(result, workdir)
        scada_csv = Path(written["scada"]).read_bytes()
        truth_csv = Path(written["truth"]).read_bytes()
        observations, rewards, history = [], [], ()
        if wl.episode:
            env = ScenarioEnv(wl.generate)
            observations.append(env.reset())
            step, done = 0, False
            while not done:
                outcome = env.step(wl.policy(step))
                observations.append(outcome.observation)
                rewards.append(outcome.reward)
                step, done = step + 1, outcome.done
            history = env.state_history()
    series = result.series
    quality = result.quality_states or []
    return {
        "workload": name, "seed": seed,
        "scada_csv": _sha(scada_csv), "truth_csv": _sha(truth_csv),
        "series": series.digest(),
        "leak_flow": _sha(series.leak_ids, series.leak_flow),
        "concentrations": _sha(*(q.node_concentration for q in quality)),
        "ledger": _sha(*((q.t, q.stored_mass, q.injected_mass,
                          q.withdrawn_mass, q.decayed_mass)
                         for q in quality)),
        "segments": _sha(*(part for q in quality
                           for pid in sorted(q.pipe_segments)
                           for part in (pid, q.pipe_segments[pid]))),
        "observations": _sha(*observations),
        "rewards": _sha(np.array(rewards, dtype=float)),
        "history": _sha(*(part for s in history
                          for part in (s.t, *(getattr(s, a) for a in ARRAYS),
                                       sorted(s.leak_flow.items())))),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ are run")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    ap.add_argument("--one", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one is not None:
        name, seed = args.one
        print(json.dumps(one(args.root.resolve(), name, int(seed))))
        return 0
    for name in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, __file__, "--root", str(args.root), "--one",
                 name, str(seed)],
                stdout=subprocess.PIPE, text=True, check=True)
            print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
