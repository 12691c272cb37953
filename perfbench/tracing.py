"""Spans recorded from outside the program.

A span is (id, name, parent id, start, end[, cpu]) in perf_counter seconds.
Spans stay in memory and are written out once, when the run ends.

`generate_calls` wraps the names that `run_scenario` calls through, module
globals of `wdnflow.scenario` and class attributes, so a traced generate runs
the program's own `run_scenario` with a span around each call.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager

import wdnflow.scenario as scenario
from wdnflow.hydraulics import EpsEngine
from wdnflow.scenario import ScenarioRuntime


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, cpu: bool = False):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        c0 = time.process_time() if cpu else None
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if cpu:
                rec["cpu"] = time.process_time() - c0
            self._stack.pop()

    @contextmanager
    def patched(self, owner, attr: str, name: str, cpu: bool = False,
                seen: dict | None = None):
        """Wrap owner.attr in a span while the block runs. With `seen`, the
        wrapper also keeps the last call's arguments there, traced or not.
        A no-op when neither applies."""
        if not self.enabled and seen is None:
            yield
            return
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen["args"] = args
            with self.span(name, cpu):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def total(self, name: str, key: str = "wall") -> float:
        if key == "cpu":
            return sum(s["cpu"] for s in self.spans if s["name"] == name)
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


@contextmanager
def generate_calls(tr: Tracer):
    """Span every public call `run_scenario` makes, while the block runs.

    Yields a dict that receives the (runtime, solved series) arguments of
    `project_series`, the leak-split series the physics checks need. It is
    filled in untraced generates too."""
    seen: dict = {}
    with ExitStack() as stack:
        for owner, attr, name, cpu in (
                (scenario, "build_runtime", "scenario.runtime", False),
                (scenario, "load_network", "inp.load", False),
                (EpsEngine, "run", "hydraulics.eps", True),
                (scenario, "simulate_quality", "quality.simulate", False),
                (scenario, "extract_readings", "scada.extract", False),
                (scenario, "corrupt", "scada.corrupt", False)):
            stack.enter_context(tr.patched(owner, attr, name, cpu))
        stack.enter_context(tr.patched(ScenarioRuntime, "project_series",
                                       "scenario.project", seen=seen))
        yield seen
