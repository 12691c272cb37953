"""Golden bytes: the SCADA CSV, the truth CSV and the state-series digest of
two short scenarios at two seeds, pinned by sha256.

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


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (scenario, seed) -> sha256 of (SCADA CSV, truth CSV), and series.digest()
GOLDEN = {
    ("toy9_leaks", 3): (
        "83b93868038c76a82b036735a72a4c959ce8909ed7cff5644ce02d5429f77b83",
        "d7a181bd3e9fdfb03bbba70360c22a85429dfd6f8b088e0e6661ef00583e80e1",
        "4ddeee42faf637b589e584c5bcd7bb0b3aa2e82d25dbb88fb53b917607f52d1b"),
    ("toy9_leaks", 7): (
        "2b6862bedc07fda33ddfd2f7d4f534a01cdab98723c7b4805966de2290bb091c",
        "d7a181bd3e9fdfb03bbba70360c22a85429dfd6f8b088e0e6661ef00583e80e1",
        "4ddeee42faf637b589e584c5bcd7bb0b3aa2e82d25dbb88fb53b917607f52d1b"),
    ("pumpnet_actuator", 3): (
        "79a6034670bb18ff7bc12fc2317b0e14c28742e022b85ab9241f6ae96581282a",
        "e9d2835cdc957f2de76e85e722b3be1e4d57c1e5f0a2090f8cae04c018a82acd",
        "9c9c26995f23087129a2755d1041f1c3496dfc8e49910b8671874c1c28521fed"),
    ("pumpnet_actuator", 7): (
        "d134fb144a08b12f901ef662d392b05c3154178fff1326b9887ea4a45c51ca18",
        "e9d2835cdc957f2de76e85e722b3be1e4d57c1e5f0a2090f8cae04c018a82acd",
        "9c9c26995f23087129a2755d1041f1c3496dfc8e49910b8671874c1c28521fed"),
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
