"""Small networks shipped with the package, handy for demos and tests."""

from __future__ import annotations

from importlib.resources import files

from .inp import load_network
from .network import Network

__all__ = ["data_path", "toy9_path", "series1_path", "pumpnet_path",
           "load_toy9", "load_series1", "load_pumpnet"]


def data_path(name: str) -> str:
    return str(files("wdnflow").joinpath("data", name))


def toy9_path() -> str:
    """Nine nodes, ten pipes, two loops, diurnal demand pattern."""
    return data_path("toy9.inp")


def series1_path() -> str:
    """One reservoir, one pipe, one junction; single snapshot horizon."""
    return data_path("series1.inp")


def pumpnet_path() -> str:
    """Reservoir, single-point pump curve, two junctions and a tank."""
    return data_path("pumpnet.inp")


def load_toy9() -> Network:
    return load_network(toy9_path())


def load_series1() -> Network:
    return load_network(series1_path())


def load_pumpnet() -> Network:
    return load_network(pumpnet_path())
