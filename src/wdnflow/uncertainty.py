"""Uncertainty models for physical parameters and sensor readings.

Parameter targets (pipe_length, pipe_diameter, pipe_roughness, decay_rate)
are perturbed once when a scenario is built, yielding a "twin" network;
sensor_noise targets are applied to every extracted reading. All randomness
flows through SeededStream so that identical (seed, path) pairs always yield
identical draws, no matter in what order scenario pieces execute.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .network import Network

__all__ = [
    "UNCERTAINTY_KINDS", "PARAMETER_TARGETS", "TARGETS", "uncertainty_registry",
    "SeededStream", "UncertaintyModel", "perturb_scalar", "SeriesPerturber",
    "perturb_series", "apply_parameter_uncertainty",
]

UNCERTAINTY_KINDS = (
    "gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel", "trunc_gauss_abs",
    "percentage", "random_walk", "sinusoidal", "regime_shift", "spike",
    "compound",
)
_SCALAR_KINDS = ("gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel",
                 "trunc_gauss_abs", "percentage")
PARAMETER_TARGETS = ("pipe_length", "pipe_diameter", "pipe_roughness",
                     "decay_rate")
TARGETS = PARAMETER_TARGETS + ("sensor_noise",)
_POSITIVITY_FLOOR = 1e-9

_REQUIRED_PARAMS = {
    "gauss_abs": ("sigma",),
    "gauss_rel": ("sigma",),
    "uniform_abs": ("amplitude",),
    "uniform_rel": ("amplitude",),
    "trunc_gauss_abs": ("sigma",),
    "percentage": ("fraction",),
    "random_walk": ("sigma",),
    "sinusoidal": ("amplitude", "period"),
    "regime_shift": ("amplitude", "mean_dwell"),
    "spike": ("probability", "amplitude"),
    "compound": (),
}


def uncertainty_registry() -> tuple[str, ...]:
    """All implemented uncertainty kinds."""
    return UNCERTAINTY_KINDS


@dataclass(frozen=True)
class SeededStream:
    """Hierarchical deterministic RNG source.

    Each (seed, path) pair maps to an independent numpy Generator; the path is
    hashed, so adding scenario pieces never shifts the draws of others.
    """

    seed: int
    path: tuple = ()

    def child(self, *parts) -> "SeededStream":
        return SeededStream(self.seed, self.path + parts)

    def generator(self, *parts) -> np.random.Generator:
        tokens = "/".join(f"{type(p).__name__}:{p}" for p in self.path + parts)
        digest = hashlib.sha256(tokens.encode()).digest()
        words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
        ss = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, *words])
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class UncertaintyModel:
    kind: str
    target: str
    params: dict[str, float] | None = None
    submodels: tuple["UncertaintyModel", ...] | None = None

    def __post_init__(self):
        if self.kind not in UNCERTAINTY_KINDS:
            raise ConfigError(f"unknown uncertainty kind '{self.kind}'")
        if self.target not in TARGETS:
            raise ConfigError(f"unknown uncertainty target '{self.target}'")
        if self.params is not None:
            object.__setattr__(self, "params",
                               {k: float(v) for k, v in self.params.items()})
        params = self.params or {}
        for name, value in params.items():
            if not math.isfinite(value):
                raise ConfigError(f"{self.kind} param '{name}' must be finite")
        for name in _REQUIRED_PARAMS[self.kind]:
            if name not in params:
                raise ConfigError(f"{self.kind} uncertainty needs param '{name}'")
        if self.kind == "compound":
            if not self.submodels or len(self.submodels) < 2:
                raise ConfigError("compound uncertainty needs >= 2 submodels")
            for sub in self.submodels:
                if sub.kind == "compound":
                    raise ConfigError("compound uncertainty cannot be nested")
                if sub.target != self.target:
                    raise ConfigError("compound submodels must share the target")
        for name in ("sigma", "amplitude"):
            if name in params and params[name] < 0:
                raise ConfigError(f"{self.kind} param '{name}' must be >= 0")
        if "period" in params and params["period"] <= 0:
            raise ConfigError("sinusoidal period must be > 0")
        if "mean_dwell" in params and params["mean_dwell"] <= 0:
            raise ConfigError("regime_shift mean_dwell must be > 0")
        if "probability" in params and not 0.0 <= params["probability"] <= 1.0:
            raise ConfigError("spike probability must lie in [0, 1]")
        if "fraction" in params and params["fraction"] <= -1.0:
            raise ConfigError("percentage fraction must be > -1")

    def param(self, name: str) -> float:
        return (self.params or {})[name]


def _perturb_scalar_with(model: UncertaintyModel, value: float,
                         gen: np.random.Generator) -> float:
    if model.kind == "gauss_abs":
        return value + gen.normal(0.0, model.param("sigma"))
    if model.kind == "gauss_rel":
        return value * (1.0 + gen.normal(0.0, model.param("sigma")))
    if model.kind == "uniform_abs":
        a = model.param("amplitude")
        return value + gen.uniform(-a, a)
    if model.kind == "uniform_rel":
        r = model.param("amplitude")
        return value * (1.0 + gen.uniform(-r, r))
    if model.kind == "trunc_gauss_abs":
        sigma = model.param("sigma")
        draw = gen.normal(0.0, sigma)
        while abs(draw) > 3.0 * sigma:
            draw = gen.normal(0.0, sigma)
        return value + draw
    if model.kind == "percentage":
        return value * (1.0 + model.param("fraction"))
    raise ConfigError(f"'{model.kind}' applies to series, not scalars")


def perturb_scalar(model: UncertaintyModel, value: float,
                   stream: SeededStream) -> float:
    """One perturbed draw; physical targets are clamped to stay positive."""
    if model.kind == "compound":
        out = value
        for i, sub in enumerate(model.submodels):
            out = _perturb_scalar_with(sub, out, stream.generator("sub", i))
    else:
        out = _perturb_scalar_with(model, value, stream.generator())
    if model.target in PARAMETER_TARGETS:
        out = max(out, _POSITIVITY_FLOOR)
    return out


class SeriesPerturber:
    """Stateful per-sample application of one uncertainty model.

    Batch (perturb_series) and incremental (SCADA row-by-row) consumers share
    this class, so both orderings see identical draws. The sample index plays
    the role of time; sinusoidal period and regime_shift dwell are in samples.
    """

    def __init__(self, model: UncertaintyModel, stream: SeededStream):
        self.model = model
        if model.kind == "compound":
            self.subs = [SeriesPerturber(sub, stream.child("sub", i))
                         for i, sub in enumerate(model.submodels)]
            return
        self.gen = stream.generator()
        self.index = 0
        if model.kind == "random_walk":
            self.acc = 0.0
        elif model.kind == "sinusoidal":
            self.phase = self.gen.uniform(0.0, 2.0 * math.pi)
        elif model.kind == "regime_shift":
            a = model.param("amplitude")
            self.offset = self.gen.uniform(-a, a)
            self.next_switch = self.gen.exponential(model.param("mean_dwell"))

    def step(self, value: float) -> float:
        model = self.model
        if model.kind == "compound":
            for sub in self.subs:
                value = sub.step(value)
            return value
        i = self.index
        self.index += 1
        if model.kind in _SCALAR_KINDS:
            return _perturb_scalar_with(model, value, self.gen)
        if model.kind == "random_walk":
            self.acc += self.gen.normal(0.0, model.param("sigma"))
            return value + self.acc
        if model.kind == "sinusoidal":
            amp = model.param("amplitude")
            period = model.param("period")
            return value + amp * math.sin(2.0 * math.pi * i / period + self.phase)
        if model.kind == "regime_shift":
            a = model.param("amplitude")
            tau = model.param("mean_dwell")
            while i >= self.next_switch:
                self.offset = self.gen.uniform(-a, a)
                self.next_switch += self.gen.exponential(tau)
            return value + self.offset
        # spike: both draws happen every step so the stream stays aligned
        hit = self.gen.random()
        magnitude = self.gen.uniform(1.0, 10.0)
        if hit < model.param("probability"):
            return value + magnitude * model.param("amplitude")
        return value


def perturb_series(model: UncertaintyModel, values, stream: SeededStream) -> np.ndarray:
    """Perturb a whole series sample by sample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot perturb an empty series")
    perturber = SeriesPerturber(model, stream)
    return np.array([perturber.step(float(v)) for v in values])


def apply_parameter_uncertainty(network: Network, models,
                                stream: SeededStream) -> Network:
    """Build the perturbed twin network used for simulation.

    Pipe-target models draw per pipe (keyed by pipe id); several models on the
    same target compose in list order. decay_rate and sensor_noise targets are
    left for the quality settings and the SCADA layer respectively.
    """
    pipes = dict(network.pipes)
    for m_idx, model in enumerate(models):
        if model.target not in ("pipe_length", "pipe_diameter", "pipe_roughness"):
            continue
        attr = {"pipe_length": "length", "pipe_diameter": "diameter",
                "pipe_roughness": "roughness"}[model.target]
        for pid in sorted(pipes):
            pipe = pipes[pid]
            new_value = perturb_scalar(
                model, getattr(pipe, attr),
                stream.child("param", m_idx, model.target, pid))
            pipes[pid] = replace(pipe, **{attr: new_value})
    if pipes == network.pipes:
        return network
    return replace(network, pipes=pipes)
