import importlib.util
from pathlib import Path

import pytest

from wdnflow import bundled
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import ScenarioConfig


@pytest.fixture(scope="session")
def toy9():
    return bundled.load_toy9()


@pytest.fixture(scope="session")
def series1():
    return bundled.load_series1()


@pytest.fixture(scope="session")
def pumpnet():
    return bundled.load_pumpnet()


@pytest.fixture(scope="session")
def perfbench_module():
    """Loads a benchmark module from its file under perfbench/, as it is,
    without putting perfbench on the import path."""
    root = Path(__file__).resolve().parents[1] / "perfbench"

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", root / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture
def toy9_config_factory():
    """Builds a toy9 scenario config with sane defaults; override by kwarg."""
    def make(**kw):
        defaults = dict(
            network_path=bundled.toy9_path(),
            duration_s=7200,
            hydraulic_time_step_s=300,
            sensors=SensorPlacement(
                pressure_nodes=("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"),
                flow_links=("p1", "p5")),
            seed=0)
        defaults.update(kw)
        return ScenarioConfig(**defaults)
    return make
