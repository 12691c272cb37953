"""The benchmark's workloads: scenario configs, warm-up cuts and policies.

Every input is made from the workload seed. The seed sets the sensor-noise
draws everywhere, and on the grids also the network itself (netgen), the
sensor placement and the leaking pipe. The toy9 hydraulics and quality inputs
do not depend on the seed.

A round is one generate, plus one detect where `calibration_rows` is set,
one episode where `episode` is set, and the ledger operation on
toy9_quality. The warm-up runs the same generate and episode calls on
`warmup`, a short event-free cut of the scenario.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

import netgen
from wdnflow import bundled
from wdnflow.control import Action
from wdnflow.events import EventWindow, LeakageEvent, SensorFaultEvent
from wdnflow.inp import load_network
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import QualitySpec, ScenarioConfig
from wdnflow.uncertainty import UncertaintyModel

HOUR = 3600
DAY = 86400
OUTPUTS = {"scada_csv_path": "scada.csv", "truth_csv_path": "truth.csv"}
NOISE = (UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                          params={"sigma": 0.005}),)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: ScenarioConfig
    warmup: ScenarioConfig
    calibration_rows: int | None = None    # detect: fit rows, the rest applied
    episode: bool = False                  # control episode over `generate`
    first_action: int = 0                  # episode step of the first action
    alarm_windows: tuple[tuple[float, float], ...] = ()   # each must alarm
    calibration_silent: bool = False       # no alarms on the fitted rows
    leak_start: float | None = None        # quality ledger: before vs during
    min_rounds: int = 2                    # timed rounds, whatever --seconds

    def policy(self, step: int) -> Action | None:
        """Scripted actions: no-op until first_action, then the pump speed
        alternates between 1.0 and 0.9 every 2 steps, and the valve is
        closed from the 3rd to the 5th action."""
        if step < self.first_action:
            return None
        k = step - self.first_action
        return Action(pump_speeds={netgen.PUMP_ID: 0.9 if (k // 2) % 2 else 1.0},
                      valve_states={netgen.VALVE_ID: not 2 <= k < 5})


def _cut(config: ScenarioConfig, duration_s: int) -> ScenarioConfig:
    """The first duration_s of a scenario, without its events."""
    return replace(config, duration_s=duration_s, leakages=(),
                   sensor_faults=())


def _toy9_twoweek(seed: int, path: str, net) -> Workload:
    generate = ScenarioConfig(
        network_path=path, duration_s=14 * DAY, hydraulic_time_step_s=300,
        sensors=SensorPlacement(
            pressure_nodes=("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"),
            flow_links=("p1", "p5")),
        leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.001,
                         window=EventWindow(7 * DAY, 8 * DAY)),
            LeakageEvent(kind="incipient", link_id="p7", diameter=0.02,
                         window=EventWindow(11 * DAY, 13 * DAY,
                                            peak_time=12 * DAY))),
        sensor_faults=(SensorFaultEvent(
            kind="drift", sensor_ref=("flow", "p5"), param=1.1,
            window=EventWindow(9 * DAY, 10 * DAY)),),
        uncertainties=NOISE, seed=seed, **OUTPUTS)
    return Workload("toy9_twoweek", generate, _cut(generate, 12 * HOUR),
                    calibration_rows=2016,
                    alarm_windows=((7 * DAY, 8 * DAY), (9 * DAY, 10 * DAY)),
                    min_rounds=3)


def _toy9_quality(seed: int, path: str, net) -> Workload:
    leak_start = DAY + 6 * HOUR
    generate = ScenarioConfig(
        network_path=path, duration_s=2 * DAY,
        hydraulic_time_step_s=300, quality_time_step_s=60,
        sensors=SensorPlacement(pressure_nodes=("n1", "n3", "n5", "n7"),
                                flow_links=("p1",),
                                quality_nodes=("n2", "n4", "n6", "n8")),
        leakages=(LeakageEvent(kind="abrupt", link_id="p3", diameter=0.01,
                               window=EventWindow(leak_start, 2 * DAY)),),
        quality=QualitySpec(decay_rate_k=2e-5, source_nodes=(("r1", 1.0),)),
        uncertainties=NOISE, seed=seed, **OUTPUTS)
    return Workload("toy9_quality", generate, _cut(generate, 6 * HOUR),
                    leak_start=leak_start)


def _pick(rng, ids, k: int) -> tuple[str, ...]:
    return tuple(sorted(rng.choice(sorted(ids), size=k, replace=False)))


def _grid_detect(seed: int, path: str, net) -> Workload:
    rng = np.random.default_rng([seed, 1])
    duration, calibration = 30 * HOUR, 27 * HOUR + 30 * 60
    pipes = sorted(net.pipes)
    sensors = SensorPlacement(
        pressure_nodes=_pick(rng, net.junctions, 140),
        flow_links=_pick(rng, pipes, 107) + (netgen.PUMP_ID, netgen.VALVE_ID),
        tank_level_tanks=(netgen.TANK_ID,))
    leak_pipe = str(rng.choice(pipes))
    generate = ScenarioConfig(
        network_path=path, duration_s=duration, hydraulic_time_step_s=300,
        sensors=sensors,
        leakages=(LeakageEvent(kind="abrupt", link_id=leak_pipe, diameter=0.02,
                               window=EventWindow(calibration, duration)),),
        uncertainties=NOISE, seed=seed, **OUTPUTS)
    return Workload("grid_detect", generate, _cut(generate, HOUR),
                    calibration_rows=calibration // 300,
                    calibration_silent=True)


def _grid_control(seed: int, path: str, net) -> Workload:
    rng = np.random.default_rng([seed, 1])
    pipes = sorted(net.pipes)
    sensors = SensorPlacement(
        pressure_nodes=_pick(rng, net.junctions, 6),
        flow_links=_pick(rng, pipes, 1) + (netgen.PUMP_ID, netgen.VALVE_ID),
        tank_level_tanks=(netgen.TANK_ID,))
    leak_pipe = str(rng.choice(pipes))
    generate = ScenarioConfig(
        network_path=path, duration_s=DAY, hydraulic_time_step_s=HOUR,
        sensors=sensors,
        leakages=(LeakageEvent(kind="abrupt", link_id=leak_pipe, diameter=0.02,
                               window=EventWindow(8 * HOUR, 20 * HOUR)),),
        uncertainties=NOISE, seed=seed, **OUTPUTS)
    return Workload("grid_control", generate, _cut(generate, 3 * HOUR),
                    episode=True, first_action=6)


# name -> (builder, grid side or None for bundled toy9)
BUILDERS = {"toy9_twoweek": (_toy9_twoweek, None),
            "toy9_quality": (_toy9_quality, None),
            "grid_detect": (_grid_detect, 12),
            "grid_control": (_grid_control, 24)}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Make the workload's inputs; grids are written as INP files into
    workdir. The network is loaded once here through the public loader."""
    builder, side = BUILDERS[name]
    if side is None:
        path = bundled.toy9_path()
    else:
        path = os.path.join(workdir, f"grid{side}_seed{seed}.inp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(netgen.grid_inp(side, seed))
    return builder(seed, path, load_network(path))
