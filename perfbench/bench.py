"""Rounds of operations, their checks and the metrics they yield.

One Bench runs one workload. Every operation counts as one attempt and fails
if it raises or a check fails. Only `ledger_leak` is expected to fail: the
quality ledger does not close while a leak is open (see CHANGES.md).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
from wdnflow.control import ScenarioEnv
from wdnflow.detection import SensorInterpolationDetector, evaluate
from wdnflow.scenario import run_scenario, write_outputs

EXPECTED_FAILURES = {"ledger_leak"}


class Bench:
    def __init__(self, wl, workdir: str, trace: bool):
        self.wl = wl
        self.out_dir = workdir
        self.tracer = tracing.Tracer(trace)
        self.untraced = tracing.Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.times = {"generate": [], "generate_traced": [], "pipeline": []}
        self.counts: dict[str, list[float]] = {}
        self.ref: dict = {}     # the first timed round's outputs
        self.result = None      # the current round's generate result

    def warm_up(self) -> None:
        """The generate (and episode) calls once on the short warm-up cut,
        so lazy imports, allocators and BLAS threads are ready. Untimed and
        not counted; an exception here ends the run."""
        write_outputs(run_scenario(self.wl.warmup), self.out_dir)
        if self.wl.episode:
            self.episode(self.wl.warmup, None, self.untraced)

    # ------------------------------------------------------------ bookkeeping

    def op(self, kind: str, fn) -> bool:
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:            # an operation that raises fails
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if kind not in EXPECTED_FAILURES:
                self.unexpected.append(kind)
            print(f"[{kind}] failed: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def run_round(self, traced: bool) -> bool:
        """One generate, then the workload's detect, episode and ledger ops.
        Returns False when the generate failed and the run must stop."""
        wl, tr = self.wl, self.tracer
        timed = 1 + (wl.calibration_rows is not None) + wl.episode
        op_s: list[float] = []      # wall time of each timed operation
        if not self.op("generate", lambda: self.generate(traced, op_s)):
            rest = timed - 1 + (wl.leak_start is not None)
            self.attempted += rest
            self.failed += rest
            return False
        result = self.result
        if wl.calibration_rows is not None:
            self.op("detect", lambda: self.detect(result, tr, op_s))
        if wl.episode:
            self.op("episode",
                    lambda: self.episode(wl.generate, result.series, tr, op_s))
        if wl.leak_start is not None:
            self.op("ledger_leak", lambda: self.ledger_leak(result))
        self.result = None
        if len(op_s) == timed:
            self.times["pipeline"].append(sum(op_s))
        return True

    # ------------------------------------------------------------- operations

    def generate(self, traced: bool, op_s: list) -> list[str]:
        cfg = self.wl.generate
        tr = self.tracer if traced else self.untraced
        with tracing.generate_calls(tr) as seen:
            t0 = time.perf_counter()
            with tr.span("generate"):
                result = run_scenario(cfg)
                with tr.span("scada.write"):
                    write_outputs(result, self.out_dir)
            elapsed = time.perf_counter() - t0
        runtime, solved = seen["args"]
        if traced:
            self.times["generate_traced"].append(elapsed)
            self.layer_counts(runtime, solved, result)
        else:
            self.times["generate"].append(elapsed)
        op_s.append(elapsed)
        self.result = result
        scada_csv = (Path(self.out_dir) / cfg.scada_csv_path).read_bytes()
        truth_csv = (Path(self.out_dir) / cfg.truth_csv_path).read_bytes()

        problems = checks.csv_round_trip(result.scada, scada_csv.decode())
        problems += checks.hydraulics(runtime.solve_network, solved)
        ref = self.ref.setdefault("generate", (scada_csv, truth_csv,
                                               result.series.digest()))
        if (scada_csv, truth_csv) != ref[:2]:
            problems.append("CSV bytes differ from the first round's")
        if result.series.digest() != ref[2]:
            problems.append("state series differs from the first round's")
        if result.quality_states is not None:
            before = [q for q in result.quality_states
                      if q.t < self.wl.leak_start]
            worst = checks.ledger_residual(before)
            if worst > checks.LEDGER_RTOL:
                problems.append(f"ledger before the leak off by {worst:.3e}")
            top = max(c for _, c in cfg.quality.source_nodes)
            problems += checks.concentrations(result.quality_states, top)
        return problems

    def layer_counts(self, runtime, solved, result) -> None:
        self.count("hydraulics.snapshots", len(solved.states))
        self.count("hydraulics.newton_iters",
                   sum(s.iterations for s in solved.states))
        substeps = segments = 0
        if result.quality_states:
            qdt = runtime.quality_settings().quality_time_step
            substeps = len(result.quality_states) \
                * self.wl.generate.hydraulic_time_step_s // qdt
            last = result.quality_states[-1].pipe_segments
            segments = sum(len(s) for s in last.values())
        self.count("quality.substeps", substeps)
        self.count("quality.segments", segments)
        self.count("scada.cells", result.scada.values.size)
        self.count("scada.csv_bytes", (Path(self.out_dir)
                                       / self.wl.generate.scada_csv_path).stat().st_size)

    def detect(self, result, tr, op_s: list) -> list[str]:
        values, times = result.scada.values, result.scada.times
        cal = self.wl.calibration_rows
        t0 = time.perf_counter()
        with tr.span("detection.fit"):
            det = SensorInterpolationDetector().fit(values[:cal])
        with tr.span("detection.apply"):
            report = det.apply(values[cal:], times=times[cal:])
        with tr.span("detection.evaluate"):
            metrics = evaluate(report, result.scada.ground_truth)
        op_s.append(time.perf_counter() - t0)
        if tr.enabled:
            self.count("detection.rows", len(times))
            self.count("detection.sensors", values.shape[1])

        problems = []
        alarms = report.suspicious_times
        for start, end in self.wl.alarm_windows:
            if not any(start <= t < end for t in alarms):
                problems.append(f"no alarm in [{start}, {end})")
        if self.wl.calibration_silent and \
                det.apply(values[:cal], times=times[:cal]).suspicious:
            problems.append("alarms on the detector's own calibration rows")
        if len(metrics.events) != len(result.scada.ground_truth):
            problems.append("evaluate lost an event")
        if alarms != self.ref.setdefault("alarms", alarms):
            problems.append("alarms differ from the first round's")
        return problems

    def episode(self, config, batch, tr, op_s: list | None = None) -> list[str]:
        """Step an episode to done; compare it with the batch series."""
        t0 = time.perf_counter()
        env = ScenarioEnv(config)
        with tr.span("control.reset"):
            env.reset()
        step, done, problems = 0, False, []
        while not done:
            with tr.span("control.step"):
                outcome = env.step(self.wl.policy(step))
            step += 1
            done = outcome.done
            if not outcome.info["converged"]:
                problems.append(f"step {step} did not converge")
        if op_s is not None:
            op_s.append(time.perf_counter() - t0)
        if tr.enabled:
            self.count("control.steps", step)

        history = env.state_history()
        if step != env.total_steps:
            problems.append(f"done after {step} of {env.total_steps} steps")
        if batch is not None:
            problems += checks.same_states(batch.states, history,
                                           self.wl.first_action)
        network = env.runtime.report_network
        problems += checks.tank_bounds(network, sorted(network.tanks), history)
        return problems

    def ledger_leak(self, result) -> list[str]:
        """Quality mass ledger while the leak is open."""
        during = [q for q in result.quality_states if q.t >= self.wl.leak_start]
        worst = checks.ledger_residual(during)
        if worst > checks.LEDGER_RTOL:
            return [f"ledger during the leak off by {worst:.3e} relative"]
        return []

    # ---------------------------------------------------------------- metrics

    def end_to_end(self, setup_s: float) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (setup_s, "s"),
            "generate_s": (statistics.median(self.times["generate"]), "s"),
            "pipeline_s": (statistics.median(self.times["pipeline"]), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        n_gen = max(tr.count("generate"), 1)
        n_det = max(tr.count("detection.fit"), 1)
        n_ep = max(tr.count("control.reset"), 1)

        def per_gen(name):
            return tr.total(name) / n_gen

        def mean(name):
            return statistics.fmean(self.counts.get(name, [0.0]))

        eps_s = per_gen("hydraulics.eps")
        snaps = mean("hydraulics.snapshots")
        iters = mean("hydraulics.newton_iters")
        quality_s = per_gen("quality.simulate")
        substeps = mean("quality.substeps")
        return {
            "hydraulics.eps_s": (eps_s, "s"),
            "hydraulics.cpu_s": (tr.total("hydraulics.eps", "cpu") / n_gen, "s"),
            "hydraulics.snapshots": (snaps, "count"),
            "hydraulics.newton_iters": (iters, "count"),
            "hydraulics.iters_per_snapshot": (iters / snaps, "count"),
            "hydraulics.ms_per_snapshot": (1000.0 * eps_s / snaps, "ms"),
            "inp.load_s": (per_gen("inp.load"), "s"),
            "scenario.runtime_s": (per_gen("scenario.runtime"), "s"),
            "scenario.project_s": (per_gen("scenario.project"), "s"),
            "quality.simulate_s": (quality_s, "s"),
            "quality.substeps": (substeps, "count"),
            "quality.segments": (mean("quality.segments"), "count"),
            "quality.us_per_substep": (
                1e6 * quality_s / substeps if substeps else 0.0, "us"),
            "scada.extract_s": (per_gen("scada.extract"), "s"),
            "scada.corrupt_s": (per_gen("scada.corrupt"), "s"),
            "scada.write_s": (per_gen("scada.write"), "s"),
            "scada.cells": (mean("scada.cells"), "count"),
            "scada.csv_bytes": (mean("scada.csv_bytes"), "bytes"),
            "detection.fit_s": (tr.total("detection.fit") / n_det, "s"),
            "detection.apply_s": (tr.total("detection.apply") / n_det, "s"),
            "detection.evaluate_s": (tr.total("detection.evaluate") / n_det, "s"),
            "detection.rows": (mean("detection.rows"), "count"),
            "detection.sensors": (mean("detection.sensors"), "count"),
            "control.reset_s": (tr.total("control.reset") / n_ep, "s"),
            "control.step_ms": (1000.0 * tr.total("control.step")
                                / max(tr.count("control.step"), 1), "ms"),
            "control.steps": (mean("control.steps"), "count"),
            "trace.overhead_s": (statistics.fmean(self.times["generate_traced"])
                                 - statistics.fmean(self.times["generate"]), "s"),
        }
