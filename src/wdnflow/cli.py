"""Command line interface: run scenarios, detect events, inspect networks.

Exit codes: 0 success, 2 configuration or input error, 3 solver failure.
Set WDNFLOW_LOG=DEBUG (or INFO, WARNING, ...) to enable logging output.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .errors import (
    DisconnectedDemandError, NonConvergenceError, WdnflowError,
)
from .detection import SensorInterpolationDetector, evaluate
from .inp import parse_inp_report
from .scada import from_csv, truth_from_csv
from .scenario import load_config, run_scenario, write_outputs

log = logging.getLogger("wdnflow")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _error_code(exc: Exception) -> int:
    if isinstance(exc, (NonConvergenceError, DisconnectedDemandError)):
        return EXIT_SOLVER
    return EXIT_CONFIG


def _default_scada_path(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return f"{stem}_scada.csv"


def _default_truth_path(scada_path: str) -> str:
    stem, _ = os.path.splitext(scada_path)
    return f"{stem}_truth.csv"


def _run_one(config_path: str, seed: int | None, out_dir: str | None,
             force_truth: bool) -> tuple[int, list[str]]:
    lines: list[str] = []
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if cfg.scada_csv_path is None:
            cfg = replace(cfg, scada_csv_path=_default_scada_path(config_path))
        if force_truth and cfg.truth_csv_path is None:
            cfg = replace(cfg,
                          truth_csv_path=_default_truth_path(cfg.scada_csv_path))
        result = run_scenario(cfg)
        # relative output paths land next to the config unless redirected
        if out_dir is None:
            out_dir = os.path.dirname(os.path.abspath(config_path))
        written = write_outputs(result, out_dir)
        report = result.report
        lines.append(f"{config_path}: {report.steps} steps"
                     f" ({report.solves} solved)"
                     f" in {report.wall_time_s:.1f} s")
        for kind in ("scada", "truth"):
            if kind in written:
                lines.append(f"  wrote {kind}: {written[kind]}")
        for warning in report.warnings:
            lines.append(f"  note: {warning}")
        return EXIT_OK, lines
    except WdnflowError as exc:
        lines.append(f"{config_path}: error: {exc}")
        return _error_code(exc), lines
    except OSError as exc:
        lines.append(f"{config_path}: error: {exc}")
        return EXIT_CONFIG, lines


def _cmd_run(args) -> int:
    jobs = [(path, args.seed, args.out_dir, args.truth)
            for path in args.config]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_one, *zip(*jobs)))
    else:
        outcomes = [_run_one(*job) for job in jobs]
    code = EXIT_OK
    for status, lines in outcomes:
        stream = sys.stdout if status == EXIT_OK else sys.stderr
        for line in lines:
            print(line, file=stream)
        code = max(code, status)
    return code


def _cmd_detect(args) -> int:
    with open(args.scada_csv, encoding="utf-8") as fh:
        scada = from_csv(fh.read())
    n = len(scada.times)
    split = args.split if args.split is not None else n // 2
    if split < 1 or split >= n:
        raise WdnflowError(
            f"split index {split} must leave rows on both sides of {n}")
    log.info("fitting on %d rows, applying to %d", split, n - split)
    detector = SensorInterpolationDetector().fit(scada.values[:split])
    result = detector.apply(scada.values[split:], times=scada.times[split:])
    print(f"alarms: {len(result.suspicious)}")
    for t in result.suspicious_times:
        print(f"alarm at t={t:g} s")
    if args.truth:
        with open(args.truth, encoding="utf-8") as fh:
            records = truth_from_csv(fh.read())
        print(evaluate(result, records).as_text())
    return EXIT_OK


def _cmd_inspect(args) -> int:
    with open(args.network, encoding="utf-8") as fh:
        text = fh.read()
    warnings: list[str] = []
    network, violations = parse_inp_report(text, warnings)
    n_nodes = len(network.node_ids())
    n_links = len(network.link_ids())
    print(f"nodes: {n_nodes}, links: {n_links}, violations: {len(violations)}")
    print(f"total base demand: {network.total_base_demand():g} m3/s")
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _job_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdnflow",
        description="Water distribution scenario simulator and event detector")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate scenario configs to SCADA CSVs")
    run.add_argument("--config", action="append", required=True,
                     metavar="JSON", help="scenario config (repeatable)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out-dir", default=None,
                     help="directory for relative output paths")
    run.add_argument("--jobs", type=_job_count, default=1,
                     help="run configs in this many parallel processes")
    run.add_argument("--truth", action="store_true",
                     help="also write the ground-truth event CSV")
    run.set_defaults(func=_cmd_run)

    detect = sub.add_parser("detect",
                            help="flag suspicious time steps in a SCADA CSV")
    detect.add_argument("scada_csv", help="SCADA CSV produced by 'run'")
    detect.add_argument("--split", type=int, default=None,
                        help="rows used for calibration (default: half)")
    detect.add_argument("--truth", default=None, metavar="CSV",
                        help="ground-truth events for metrics")
    detect.set_defaults(func=_cmd_detect)

    inspect = sub.add_parser("inspect", help="summarize an INP network file")
    inspect.add_argument("network", help="INP file")
    inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("WDNFLOW_LOG")
    if level:
        resolved = getattr(logging, level.upper(), logging.INFO)
        logging.basicConfig(
            level=resolved, format="%(levelname)s %(name)s: %(message)s")
        # basicConfig is a no-op once handlers exist; pin our logger anyway
        logging.getLogger("wdnflow").setLevel(resolved)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WdnflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
