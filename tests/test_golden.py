"""Golden bytes: the SCADA CSV, the truth CSV and the state-series digest of
three scenarios at two seeds, pinned by sha256. Two are short runs on
bundled networks; the third runs on a 144-junction grid, whose band
half-width is 12, with its tank closed at its maximum for most of the run.

Any change to the solver's arithmetic, the run's bookkeeping, the reading
extraction or the corruption shows here as a changed hash. A change that
means to move these bytes must say so and update the pins with a reason.
"""

import hashlib

import pytest

from wdnflow import bundled
from wdnflow.events import (
    ActuatorEvent, EventWindow, LeakageEvent, SensorFaultEvent,
)
from wdnflow.scada import SensorPlacement, to_csv, truth_to_csv
from wdnflow.scenario import ScenarioConfig, run_scenario
from wdnflow.uncertainty import UncertaintyModel

from test_hydraulics import grid_inp

HOUR = 3600.0
NOISE = (UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                          params={"sigma": 0.005}),)


def toy9_leaks(seed):
    """Half a day of toy9: an abrupt and an incipient leak, and a drift
    fault on a flow sensor."""
    return ScenarioConfig(
        network_path=bundled.toy9_path(), duration_s=12 * 3600,
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(
            pressure_nodes=("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"),
            flow_links=("p1", "p5")),
        leakages=(
            LeakageEvent(kind="abrupt", link_id="p3", diameter=0.002,
                         window=EventWindow(2 * HOUR, 5 * HOUR)),
            LeakageEvent(kind="incipient", link_id="p7", diameter=0.01,
                         window=EventWindow(4 * HOUR, 11 * HOUR,
                                            peak_time=8 * HOUR))),
        sensor_faults=(SensorFaultEvent(
            kind="drift", sensor_ref=("flow", "p5"), param=1.1,
            window=EventWindow(3 * HOUR, 9 * HOUR)),),
        uncertainties=NOISE, seed=seed)


def pumpnet_actuator(seed):
    """Six hours of pumpnet with the pump slowed for two of them."""
    return ScenarioConfig(
        network_path=bundled.pumpnet_path(), duration_s=6 * 3600,
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(pressure_nodes=("j1", "j2"),
                                flow_links=("p1", "pu1"),
                                tank_level_tanks=("t1",)),
        actuator_events=(ActuatorEvent(
            kind="pump_speed", target_id="pu1", value=0.85,
            window=EventWindow(2 * HOUR, 4 * HOUR)),),
        uncertainties=NOISE, seed=seed)


def grid_tank_full(seed, path):
    """Two days of `grid_inp(12)` (144 junctions) at 900 s steps, written to
    path with the tank's initial level raised to 8.5 m of its 9.0 m
    maximum: an abrupt 20 mm leak, the pump sped up to 1.3 and the valve
    closed, in overlapping windows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_inp(12).replace(" t1  38.0  4.0 ", " t1  38.0  8.5 "))
    return ScenarioConfig(
        network_path=str(path), duration_s=2 * 86400,
        hydraulic_time_step_s=900,
        sensors=SensorPlacement(
            pressure_nodes=("j000000", "j005005", "j011011"),
            flow_links=("pt", "pu1", "v1"), tank_level_tanks=("t1",)),
        leakages=(LeakageEvent(kind="abrupt", link_id="phj004003",
                               diameter=0.02,
                               window=EventWindow(6 * HOUR, 30 * HOUR)),),
        actuator_events=(
            ActuatorEvent(kind="pump_speed", target_id="pu1", value=1.3,
                          window=EventWindow(10 * HOUR, 22 * HOUR)),
            ActuatorEvent(kind="valve_state", target_id="v1", value=False,
                          window=EventWindow(18 * HOUR, 40 * HOUR))),
        uncertainties=NOISE, seed=seed)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (scenario, seed) -> sha256 of (SCADA CSV, truth CSV), and series.digest()
GOLDEN = {
    ("toy9_leaks", 3): (
        "a51ab300fa3864936eb26eabc58856b01368d1ff125630ad0b4548486819882c",
        "d7a181bd3e9fdfb03bbba70360c22a85429dfd6f8b088e0e6661ef00583e80e1",
        "dfce4af4d6f53826333d19768ef0f6fde44a8b589f9e3637b82b88bdb1eb8b6a"),
    ("toy9_leaks", 7): (
        "df1aecc8b4d1d3a241a14e191ac982540be0ccd37215e39134c859967f014283",
        "d7a181bd3e9fdfb03bbba70360c22a85429dfd6f8b088e0e6661ef00583e80e1",
        "dfce4af4d6f53826333d19768ef0f6fde44a8b589f9e3637b82b88bdb1eb8b6a"),
    ("pumpnet_actuator", 3): (
        "5ca680ea6ab59a7bceb580fb25296b52a5c3eea0ff4d5ecbfa41d8f323e5288e",
        "e9d2835cdc957f2de76e85e722b3be1e4d57c1e5f0a2090f8cae04c018a82acd",
        "edef8b05843d0c7ff6806a4a369f9fab89361b290934e7df1bd1aee7847d647d"),
    ("pumpnet_actuator", 7): (
        "bc039b4484100f9b944262789ac3f6356e386ec4cf15de32396185e0e522336c",
        "e9d2835cdc957f2de76e85e722b3be1e4d57c1e5f0a2090f8cae04c018a82acd",
        "edef8b05843d0c7ff6806a4a369f9fab89361b290934e7df1bd1aee7847d647d"),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, seed):
    config = {"toy9_leaks": toy9_leaks,
              "pumpnet_actuator": pumpnet_actuator}[name](seed)
    result = run_scenario(config)
    got = (sha(to_csv(result.scada)),
           sha(truth_to_csv(result.scada.ground_truth)),
           result.series.digest())
    assert got == GOLDEN[name, seed]


GRID_GOLDEN = {
    3: ("ec73cfb51e3c843f53ccd9d526d5ef946ac5dd713faec6a0c4c084903fe63207",
        "a2622c91875208d52feb090754bdc23f2826f0bfb4f37ac6f8ff233e102ccba3",
        "a7172b8faf4cbe5986a4d8dd4b7c07eb160d39177cdb7d3fecbbf2c715ff418c"),
    7: ("326c44a32a9e4d8c6e2ff9096aa8026f33be6339890f80cbe4d649e26bb71b8b",
        "a2622c91875208d52feb090754bdc23f2826f0bfb4f37ac6f8ff233e102ccba3",
        "a7172b8faf4cbe5986a4d8dd4b7c07eb160d39177cdb7d3fecbbf2c715ff418c"),
}


@pytest.mark.parametrize("seed", sorted(GRID_GOLDEN))
def test_grid_bytes_with_a_closed_tank_are_pinned(seed, tmp_path):
    result = run_scenario(grid_tank_full(seed, tmp_path / "grid12.inp"))
    series = result.series
    at_top = (series.tank_level[:, 0] >= 9.0) \
        & (series.tank_net_inflow[:, 0] == 0.0)
    assert at_top.sum() > len(series.t) // 2
    got = (sha(to_csv(result.scada)),
           sha(truth_to_csv(result.scada.ground_truth)),
           series.digest())
    assert got == GRID_GOLDEN[seed]
