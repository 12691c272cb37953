"""The benchmark's contract with the library.

`perfbench/tracing.py` times a run by wrapping, through `owner.__dict__`,
the names that `run_scenario` calls, and `perfbench/checks.py` recomputes the
balances of its outputs from the raw states. A rename in the library, or a
change to what a state holds, would make every benchmark operation fail; these
tests make it fail here instead. Both modules are loaded from their files and
used as they are.
"""

from wdnflow import bundled
from wdnflow.control import NO_OP, Action, ScenarioEnv
from wdnflow.events import LEAK_PIPE_SUFFIX, EventWindow, LeakageEvent
from wdnflow.hydraulics import StateSeries
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import (
    QualitySpec, ScenarioConfig, ScenarioRuntime, run_scenario,
)

SPANS = ("scenario.runtime", "inp.load", "hydraulics.eps", "quality.simulate",
         "scada.extract", "scada.corrupt", "scenario.project")


def leak_and_quality(toy9_config_factory, leak_start=1800.0):
    return toy9_config_factory(
        duration_s=3600,
        leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                               window=EventWindow(leak_start, 3600.0)),),
        quality=QualitySpec(source_nodes=(("r1", 1.0),)))


def test_traced_run_records_each_call_once(toy9_config_factory,
                                           perfbench_module):
    tracing = perfbench_module("tracing")
    tracer = tracing.Tracer(True)
    with tracing.generate_calls(tracer) as seen:
        run_scenario(leak_and_quality(toy9_config_factory))
    assert {name: tracer.count(name) for name in SPANS} == \
        dict.fromkeys(SPANS, 1)
    runtime, series = seen["args"]
    assert isinstance(runtime, ScenarioRuntime)
    assert isinstance(series, StateSeries)
    # the solved series, on the leak-split network, before projection
    assert "p3" + LEAK_PIPE_SUFFIX in series.link_ids


def test_checks_pass_on_a_leak_and_quality_run(toy9_config_factory,
                                               perfbench_module):
    tracing = perfbench_module("tracing")
    checks = perfbench_module("checks")
    config = leak_and_quality(toy9_config_factory, leak_start=2400.0)
    with tracing.generate_calls(tracing.Tracer(False)) as seen:
        result = run_scenario(config)
    runtime, solved = seen["args"]
    assert checks.hydraulics(runtime.solve_network, solved) == []
    assert checks.tank_bounds(runtime.solve_network, solved.tank_ids,
                              solved.states) == []
    before = [q for q in result.quality_states if q.t < 2400.0]
    assert before and checks.ledger_residual(before) <= checks.LEDGER_RTOL
    assert checks.concentrations(result.quality_states, 1.0) == []


def test_checks_pass_on_a_pumpnet_episode_with_actions(perfbench_module):
    checks = perfbench_module("checks")
    config = ScenarioConfig(
        network_path=bundled.pumpnet_path(), duration_s=7200,
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(pressure_nodes=("j1", "j2"),
                                flow_links=("p1", "pu1"),
                                tank_level_tanks=("t1",)),
        seed=0)
    first_action = 6

    def policy(step):
        k = step - first_action
        if k < 0:
            return NO_OP
        return Action(pump_speeds={"pu1": 0.9 if (k // 2) % 2 else 1.0},
                      pump_states={"pu1": not 4 <= k < 6})

    batch = run_scenario(config).series
    env = ScenarioEnv(config)
    env.reset()
    step = 0
    while not env.step(policy(step)).done:
        step += 1
    history = env.state_history()
    network = env.runtime.report_network
    # the first two actions restate the pump's own setting; the third
    # slows it, and the check sees the states part there
    assert checks.same_states(batch.states, history, first_action + 2) == []
    assert checks.same_states(batch.states, history, first_action + 3) != []
    assert checks.tank_bounds(network, sorted(network.tanks), history) == []
    episode = env.runtime.project_series(env._engine.series())
    assert checks.hydraulics(network, episode) == []
