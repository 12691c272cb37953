"""End-to-end acceptance suite.

Eight checks covering hydraulic correctness, the event and uncertainty
inventories, a two-week leak-and-drift detection protocol, detector
calibration behaviour, quality mass conservation, run determinism, parser
robustness and the control environment contract.  Each test prints one
verdict line, so `pytest -s tests/test_acceptance.py` doubles as a checklist.

Tolerances are pinned as module constants and must not be loosened.
"""

import math
import time

import numpy as np

from wdnflow import WdnflowError, bundled, incidence, parse_inp
from wdnflow.control import NO_OP, Action, ScenarioEnv
from wdnflow.detection import SensorInterpolationDetector
from wdnflow.events import (
    EVENT_REGISTRY,
    EventWindow,
    LeakageEvent,
    SensorFaultEvent,
    event_registry,
)
from wdnflow.hydraulics import (
    Q_LAMINAR,
    hazen_williams_headloss,
    simulate_hydraulics,
)
from wdnflow.inp import write_inp
from wdnflow.network import networks_close
from wdnflow.quality import QualitySettings, decay, simulate_quality
from wdnflow.scada import SensorPlacement, to_csv, truth_to_csv
from wdnflow.scenario import ScenarioConfig, run_scenario, to_seconds
from wdnflow.uncertainty import UNCERTAINTY_KINDS, UncertaintyModel

DAY = 86400

MASS_TOL = 1e-6            # m3/s, per junction, every timestep
ENERGY_TOL = 1e-6          # m, per flowing open pipe, every timestep
CLOSED_FORM_HEAD = 89.55   # m, single-pipe hand calculation
CLOSED_FORM_RTOL = 1e-3
LEDGER_RTOL = 1e-6         # relative mass-ledger closure with zero decay
HALF_LIFE_ATOL = 1e-12
PROTOCOL_BUDGET_S = 60.0   # wall clock for the full two-week pipeline
CALIBRATION_RUNS = 50
FUZZ_MUTATIONS = 1000


def _verdict(num, label, problems):
    ok = not problems
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(problems)


def _junction_mass_residuals(network, state):
    """Junction imbalance recomputed from raw link flows and served demand."""
    inc = incidence(network)
    inflow = {jid: 0.0 for jid in network.junctions}
    for k, (from_idx, to_idx) in enumerate(zip(inc.link_from, inc.link_to)):
        q = float(state.flow[k])
        from_node, to_node = inc.node_ids[from_idx], inc.node_ids[to_idx]
        if from_node in inflow:
            inflow[from_node] -= q
        if to_node in inflow:
            inflow[to_node] += q
    out = []
    for i, jid in enumerate(network.junctions):
        net_in = inflow[jid] - float(state.actual_demand[i])
        net_in -= state.leak_flow.get(jid, 0.0)
        out.append(net_in)
    return out


def _pipe_energy_residuals(network, state):
    """Headloss-law violation per flowing open pipe, in metres."""
    inc = incidence(network)
    heads = dict(zip(inc.node_ids, (float(h) for h in state.head)))
    out = []
    for k, lid in enumerate(inc.link_ids):
        pipe = network.pipes.get(lid)
        if pipe is None or not pipe.open:
            continue
        q = float(state.flow[k])
        if abs(q) <= Q_LAMINAR:
            continue
        dh = heads[pipe.from_node] - heads[pipe.to_node]
        out.append(dh - hazen_williams_headloss(
            q, pipe.length, pipe.diameter, pipe.roughness))
    return out


def test_acceptance_1_hydraulic_correctness(toy9, series1):
    problems = []
    series = simulate_hydraulics(toy9, duration_s=DAY, hydraulic_step_s=300)
    for state in series.states:
        if not state.converged:
            problems.append(f"t={state.t}: snapshot did not converge")
            continue
        worst_mass = max(abs(r) for r in _junction_mass_residuals(toy9, state))
        if worst_mass > MASS_TOL:
            problems.append(f"t={state.t}: mass residual {worst_mass:.3e}")
        energy = _pipe_energy_residuals(toy9, state)
        worst_energy = max(abs(r) for r in energy) if energy else 0.0
        if worst_energy > ENERGY_TOL:
            problems.append(f"t={state.t}: energy residual {worst_energy:.3e}")

    single = simulate_hydraulics(series1)
    head = float(single.states[0].head[single.node_ids.index("j1")])
    law = 100.0 - hazen_williams_headloss(0.1, 1000.0, 0.3, 100.0)
    if abs(head - CLOSED_FORM_HEAD) > CLOSED_FORM_RTOL * CLOSED_FORM_HEAD:
        problems.append(f"single-pipe head {head:.4f} != {CLOSED_FORM_HEAD}")
    if abs(head - law) > 1e-9:
        problems.append(f"single-pipe head {head!r} off the law value {law!r}")

    _verdict(1, "hydraulic mass/energy balances and closed-form head",
             problems)


def test_acceptance_2_event_and_uncertainty_inventories():
    problems = []
    registry = event_registry()
    expected_sizes = {"leakage": 3, "actuator": 3, "sensor_fault": 5,
                      "communication": 2}
    if set(registry) != set(expected_sizes):
        problems.append(f"families {sorted(registry)}")
    for family, size in expected_sizes.items():
        kinds = registry.get(family, ())
        if len(kinds) != len(set(kinds)) or len(kinds) != size:
            problems.append(f"{family}: {kinds}")
    total = sum(len(kinds) for kinds in registry.values())
    if total != 13:
        problems.append(f"{total} event kinds, expected 13")
    if registry != dict(EVENT_REGISTRY):
        problems.append("event_registry() drifted from the registry constant")

    if len(UNCERTAINTY_KINDS) != 11 or \
            len(set(UNCERTAINTY_KINDS)) != len(UNCERTAINTY_KINDS):
        problems.append(f"{len(UNCERTAINTY_KINDS)} uncertainty kinds, "
                        "expected 11 distinct")

    _verdict(2, "13 event kinds (3/3/5/2) and 11 uncertainty kinds", problems)


def test_acceptance_3_two_week_detection_protocol():
    problems = []
    config = ScenarioConfig(
        network_path=bundled.toy9_path(),
        duration_s=to_seconds(days=14),
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(
            pressure_nodes=("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"),
            flow_links=("p1", "p5")),
        leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.001,
                         window=EventWindow(7 * DAY, 8 * DAY)),
            LeakageEvent(kind="incipient", link_id="p7", diameter=0.02,
                         window=EventWindow(11 * DAY, 13 * DAY,
                                            peak_time=12 * DAY)),
        ),
        sensor_faults=(
            SensorFaultEvent(kind="drift", sensor_ref=("flow", "p5"),
                             param=1.1, window=EventWindow(9 * DAY, 10 * DAY)),
        ),
        uncertainties=(UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                                        params={"sigma": 0.005}),),
        seed=0,
    )

    started = time.perf_counter()
    result = run_scenario(config)
    values = result.scada.values
    split = values.shape[0] // 2                      # 2016 of 4032 rows
    detector = SensorInterpolationDetector().fit(values[:split])
    report = detector.apply(values[split:],
                            times=tuple(result.scada.times[split:]))
    elapsed = time.perf_counter() - started

    if any(not s.converged for s in result.series.states):
        problems.append("non-converged snapshots in the two-week run")
    if any(r.start_s < split * 300 for r in result.scada.ground_truth):
        problems.append("an event intrudes into the calibration half")

    alarms = np.array([report.times[i] for i in report.suspicious])
    in_abrupt = int(np.sum((alarms >= 7 * DAY) & (alarms < 8 * DAY)))
    in_drift = int(np.sum((alarms >= 9 * DAY) & (alarms < 10 * DAY)))
    in_incipient = int(np.sum((alarms >= 11 * DAY) & (alarms < 13 * DAY)))
    if in_abrupt < 1:
        problems.append("abrupt 1 mm leak raised no alarm in its window")
    if in_drift < 1:
        problems.append("drift fault raised no alarm in its window")
    if elapsed > PROTOCOL_BUDGET_S:
        problems.append(f"pipeline took {elapsed:.1f} s "
                        f"(budget {PROTOCOL_BUDGET_S} s)")

    # The incipient leak carries no assertion either way; report it only.
    print(f"    abrupt {in_abrupt}/288, drift {in_drift}/288, "
          f"incipient {in_incipient}/576 rows alarmed, {elapsed:.1f} s")
    _verdict(3, "two-week protocol detects the abrupt leak and the drift",
             problems)


def test_acceptance_4_zero_alarms_on_calibration_window():
    noise_pool = (
        None,
        UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                         params={"sigma": 1e-3}),
        UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                         params={"sigma": 0.01}),
        UncertaintyModel(kind="uniform_abs", target="sensor_noise",
                         params={"amplitude": 2e-3}),
        UncertaintyModel(kind="uniform_rel", target="sensor_noise",
                         params={"amplitude": 0.02}),
        UncertaintyModel(kind="trunc_gauss_abs", target="sensor_noise",
                         params={"sigma": 1e-3}),
        UncertaintyModel(kind="percentage", target="sensor_noise",
                         params={"fraction": 1.5}),
        UncertaintyModel(kind="random_walk", target="sensor_noise",
                         params={"sigma": 5e-4}),
        UncertaintyModel(kind="sinusoidal", target="sensor_noise",
                         params={"amplitude": 2e-3, "period": 24}),
        UncertaintyModel(kind="regime_shift", target="sensor_noise",
                         params={"amplitude": 1e-3, "mean_dwell": 36}),
        UncertaintyModel(kind="spike", target="sensor_noise",
                         params={"probability": 0.05, "amplitude": 3e-3}),
        UncertaintyModel(kind="compound", target="sensor_noise", submodels=(
            UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                             params={"sigma": 5e-4}),
            UncertaintyModel(kind="spike", target="sensor_noise",
                             params={"probability": 0.02,
                                     "amplitude": 2e-3}),
        )),
    )

    problems = []
    for seed in range(CALIBRATION_RUNS):
        noise = noise_pool[seed % len(noise_pool)]
        config = ScenarioConfig(
            network_path=bundled.toy9_path(),
            duration_s=DAY,
            hydraulic_time_step_s=300,
            sensors=SensorPlacement(
                pressure_nodes=("n1", "n2", "n3", "n4", "n5", "n6"),
                flow_links=("p1", "p5")),
            uncertainties=() if noise is None else (noise,),
            seed=seed,
        )
        result = run_scenario(config)
        values = result.scada.values
        detector = SensorInterpolationDetector().fit(values)
        report = detector.apply(values, times=tuple(result.scada.times))
        if report.suspicious:
            kind = "none" if noise is None else noise.kind
            problems.append(f"seed {seed} ({kind} noise): "
                            f"{len(report.suspicious)} alarms")

    _verdict(4, f"zero alarms on the calibration window across "
                f"{CALIBRATION_RUNS} event-free scenarios", problems)


def test_acceptance_5_quality_mass_conservation(toy9):
    problems = []
    series = simulate_hydraulics(toy9, duration_s=DAY, hydraulic_step_s=300)
    states = simulate_quality(series, toy9, QualitySettings(
        quality_time_step=60, decay_rate_k=0.0, source_nodes={"r1": 1.0}))
    worst = 0.0
    for qs in states:
        closure = qs.stored_mass + qs.withdrawn_mass + qs.decayed_mass \
            - qs.injected_mass
        rel = abs(closure) / max(qs.injected_mass, 1e-12)
        worst = max(worst, rel)
    if worst > LEDGER_RTOL:
        problems.append(f"ledger closure {worst:.3e} relative")
    if any(qs.decayed_mass != 0.0 for qs in states):
        problems.append("decay accrued with k=0")

    half_life_k = math.log(2.0) / 3600.0
    survived = decay(1.0, half_life_k, 3600.0)
    if abs(survived - 0.5) > HALF_LIFE_ATOL:
        problems.append(f"half-life decay returned {survived!r}")

    _verdict(5, "zero-decay mass ledger closes and half-life is analytic",
             problems)


def test_acceptance_6_seeded_determinism(tmp_path):
    problems = []

    def config(seed):
        return ScenarioConfig(
            network_path=bundled.toy9_path(),
            duration_s=DAY,
            hydraulic_time_step_s=300,
            sensors=SensorPlacement(
                pressure_nodes=("n1", "n2", "n3", "n4"),
                flow_links=("p1",)),
            sensor_faults=(SensorFaultEvent(
                kind="gaussian", sensor_ref=("pressure", "n2"), param=0.05,
                window=EventWindow(0.0, 12 * 3600.0)),),
            seed=seed,
        )

    first = run_scenario(config(3))
    second = run_scenario(config(3))
    if to_csv(first.scada) != to_csv(second.scada):
        problems.append("same seed produced different SCADA CSV bytes")
    if truth_to_csv(first.scada.ground_truth) != \
            truth_to_csv(second.scada.ground_truth):
        problems.append("same seed produced different truth CSV bytes")

    reseeded = run_scenario(config(4))
    if to_csv(first.scada) == to_csv(reseeded.scada):
        problems.append("new seed left the gaussian-fault draws unchanged")
    if first.series.digest() != reseeded.series.digest():
        problems.append("new seed altered the hydraulic truth")
    if not np.array_equal(first.scada_true.values, reseeded.scada_true.values):
        problems.append("new seed altered the uncorrupted readings")

    _verdict(6, "byte-identical reruns; reseeding moves only the noise",
             problems)


def test_acceptance_7_parser_round_trip_and_fuzz():
    problems = []
    sources = []
    for path in (bundled.toy9_path(), bundled.series1_path(),
                 bundled.pumpnet_path()):
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
        original = parse_inp(sources[-1])
        recovered = parse_inp(write_inp(original))
        if not networks_close(original, recovered):
            problems.append(f"round trip changed {path}")

    bad = "[JUNCTIONS]\nj1 10 0.001\nj2 twelve 0.0\n"
    try:
        parse_inp(bad)
        problems.append("malformed elevation was accepted")
    except WdnflowError as err:
        if "line 3" not in str(err):
            problems.append(f"expected 'line 3' in: {err}")

    rng = np.random.default_rng(20260814)
    garbage_tokens = ("xx", "-3.5", "1e309", "nan", "", ";", "[PIPES]", "1/0")
    garbage_lines = ("[BOGUS]", "1 2 3 4 5 6 7 8 9", "????", "\t",
                     "[PIPES] trailing")
    crashes = 0
    for trial in range(FUZZ_MUTATIONS):
        text = sources[trial % len(sources)]
        lines = text.splitlines()
        op = int(rng.integers(0, 7))
        k = int(rng.integers(0, len(lines)))
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2 and len(lines[k]) >= 2:
            c = int(rng.integers(0, len(lines[k]) - 1))
            s = lines[k]
            lines[k] = s[:c] + s[c + 1] + s[c] + s[c + 2:]
        elif op == 3:
            tokens = lines[k].split()
            if tokens:
                tokens[int(rng.integers(0, len(tokens)))] = \
                    garbage_tokens[int(rng.integers(0, len(garbage_tokens)))]
                lines[k] = " ".join(tokens)
        elif op == 4:
            lines.insert(k, garbage_lines[int(rng.integers(
                0, len(garbage_lines)))])
        elif op == 5:
            cut = int(rng.integers(0, len(text)))
            lines = text[:cut].splitlines()
        elif op == 6 and k + 1 < len(lines):
            lines[k] = lines[k] + " " + lines.pop(k + 1)
        mutant = "\n".join(lines)
        try:
            parse_inp(mutant)
        except WdnflowError:
            pass
        except Exception as err:                      # noqa: BLE001
            crashes += 1
            if crashes <= 3:
                problems.append(
                    f"trial {trial}: {type(err).__name__}: {err}")
    if crashes:
        problems.append(f"{crashes}/{FUZZ_MUTATIONS} mutants crashed "
                        "the parser")

    _verdict(7, "fixtures round-trip; 1000 mutated inputs never crash",
             problems)


def test_acceptance_8_control_environment_contract(toy9, toy9_config_factory):
    problems = []

    env = ScenarioEnv(toy9_config_factory())
    env.reset()
    while not env.step(NO_OP).done:
        pass
    reference = simulate_hydraulics(toy9, duration_s=7200,
                                    hydraulic_step_s=300)
    replayed = env.runtime.project_series(env._engine.series())
    if replayed.digest() != reference.digest():
        problems.append("no-op episode diverged from the batch simulation")

    def pump_config():
        return ScenarioConfig(
            network_path=bundled.pumpnet_path(),
            duration_s=7200,
            hydraulic_time_step_s=300,
            sensors=SensorPlacement(pressure_nodes=("j1", "j2"),
                                    flow_links=("p1", "pu1"),
                                    tank_level_tanks=("t1",)),
            seed=0)

    on_env = ScenarioEnv(pump_config())
    off_env = ScenarioEnv(pump_config())
    on_env.reset()
    off_env.reset()
    pump_off = Action(pump_states={"pu1": False})
    for _ in range(3):
        on_env.step(NO_OP)
        off_env.step(pump_off)
    idx = sorted(("j1", "j2")).index("j1")  # canonical junction order
    for step, (s_on, s_off) in enumerate(zip(on_env.state_history(),
                                             off_env.state_history())):
        if not float(s_off.pressure_head[idx]) < \
                float(s_on.pressure_head[idx]):
            problems.append(f"step {step}: pump-off did not reduce the "
                            "downstream pressure")

    _verdict(8, "no-op env replays the batch run; pump-off drops pressure",
             problems)
