"""The benchmark's contract with the library.

`perfbench/tracing.py` times a run by wrapping, through `owner.__dict__`,
the names that `run_scenario` calls. A rename in the library would make every
benchmark operation fail; this test makes it fail here instead. The tracing
module is loaded from its file and used as it is.
"""

import importlib.util
from pathlib import Path

from wdnflow.events import LEAK_PIPE_SUFFIX, EventWindow, LeakageEvent
from wdnflow.hydraulics import StateSeries
from wdnflow.scenario import QualitySpec, ScenarioRuntime, run_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SPANS = ("scenario.runtime", "inp.load", "hydraulics.eps", "quality.simulate",
         "scada.extract", "scada.corrupt", "scenario.project")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_each_call_once(toy9_config_factory):
    tracing = load_tracing()
    config = toy9_config_factory(
        duration_s=3600,
        leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                               window=EventWindow(1800.0, 3600.0)),),
        quality=QualitySpec(source_nodes=(("r1", 1.0),)))
    tracer = tracing.Tracer(True)
    with tracing.generate_calls(tracer) as seen:
        run_scenario(config)
    assert {name: tracer.count(name) for name in SPANS} == \
        dict.fromkeys(SPANS, 1)
    runtime, series = seen["args"]
    assert isinstance(runtime, ScenarioRuntime)
    assert isinstance(series, StateSeries)
    # the solved series, on the leak-split network, before projection
    assert "p3" + LEAK_PIPE_SUFFIX in series.link_ids
