"""Uncertainty models for physical parameters and sensor readings.

Parameter targets (pipe_length, pipe_diameter, pipe_roughness, decay_rate)
are perturbed once when a scenario is built, yielding a "twin" network;
sensor_noise targets are applied to every extracted reading. Each kind is
written once, as its draws for n samples (noise_draws): factors or offsets
that do not depend on the values. perturb_series applies them, and
perturb_scalar is the same at n = 1. All randomness flows through
SeededStream so that identical (seed, path) pairs always yield identical
draws, no matter in what order scenario pieces execute. A model's params
are checked by `network._finite` against one table of lower bounds
(`_PARAM_BOUNDS`) and stored as floats; a model takes exactly the params its
kind reads (`_REQUIRED_PARAMS`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .network import Network, _finite

__all__ = [
    "UNCERTAINTY_KINDS", "PARAMETER_TARGETS", "TARGETS", "uncertainty_registry",
    "SeededStream", "UncertaintyModel", "noise_draws", "apply_draws",
    "perturb_scalar", "perturb_series", "apply_parameter_uncertainty",
]

UNCERTAINTY_KINDS = (
    "gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel", "trunc_gauss_abs",
    "percentage", "random_walk", "sinusoidal", "regime_shift", "spike",
    "compound",
)
_SCALAR_KINDS = ("gauss_abs", "gauss_rel", "uniform_abs", "uniform_rel",
                 "trunc_gauss_abs", "percentage")
_FACTOR_KINDS = ("gauss_rel", "uniform_rel", "percentage")
PARAMETER_TARGETS = ("pipe_length", "pipe_diameter", "pipe_roughness",
                     "decay_rate")
TARGETS = PARAMETER_TARGETS + ("sensor_noise",)
_POSITIVITY_FLOOR = 1e-9

# the params each kind reads: every one is required, and no other is taken
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
# each param a kind reads: (least value, whether the bound is strict); any
# other param is checked as a finite number, then refused
_PARAM_BOUNDS = {"sigma": (0.0, False), "amplitude": (0.0, False),
                 "probability": (0.0, False), "period": (0.0, True),
                 "mean_dwell": (0.0, True), "fraction": (-1.0, True)}


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
        # sorted floats, and None for no params or submodels, so the
        # canonical JSON form is a fixed point
        object.__setattr__(self, "params", {
            k: _finite(self.params[k], f"{self.kind} param '{k}'",
                       *_PARAM_BOUNDS.get(k, (-math.inf, False)))
            for k in sorted(self.params)} if self.params else None)
        object.__setattr__(self, "submodels",
                           tuple(self.submodels) if self.submodels else None)
        params = self.params or {}
        reads = _REQUIRED_PARAMS[self.kind]
        for name in reads:
            if name not in params:
                raise ConfigError(f"{self.kind} uncertainty needs param '{name}'")
        for name in params:
            if name not in reads:
                raise ConfigError(
                    f"{self.kind} uncertainty takes no param '{name}'")
        if self.kind == "compound":
            if not self.submodels or len(self.submodels) < 2:
                raise ConfigError("compound uncertainty needs >= 2 submodels")
            for sub in self.submodels:
                if sub.kind == "compound":
                    raise ConfigError("compound uncertainty cannot be nested")
                if sub.target != self.target:
                    raise ConfigError("compound submodels must share the target")
        if params.get("probability", 0.0) > 1.0:
            raise ConfigError(f"{self.kind} param 'probability' must be <= 1")

    def param(self, name: str) -> float:
        return (self.params or {})[name]


def _kind_draws(model: UncertaintyModel, gen: np.random.Generator,
                n: int) -> np.ndarray:
    """n draws of one non-compound kind: factors for the _FACTOR_KINDS,
    offsets for the others. The sample index plays the role of time."""
    kind, p = model.kind, model.param
    if kind == "percentage":
        return np.full(n, 1.0 + p("fraction"))
    if kind == "sinusoidal":
        phase = gen.uniform(0.0, 2.0 * math.pi)
        return np.array([p("amplitude") * math.sin(
            2.0 * math.pi * i / p("period") + phase) for i in range(n)],
            dtype=float)
    if kind == "spike":
        # a hit test and a gen.uniform(1.0, 10.0) magnitude for every sample;
        # a miss adds -0.0, which leaves any reading (-0.0 too) as it was
        hit, unit = gen.random((n, 2)).T
        return np.where(hit < p("probability"),
                        (1.0 + 9.0 * unit) * p("amplitude"), -0.0)
    if kind in ("gauss_abs", "gauss_rel", "random_walk"):
        draws = gen.normal(0.0, p("sigma"), n)
    elif kind in ("uniform_abs", "uniform_rel"):
        draws = gen.uniform(-p("amplitude"), p("amplitude"), n)
    elif kind == "trunc_gauss_abs":
        draws = np.empty(n)
        for i in range(n):
            draws[i] = gen.normal(0.0, p("sigma"))
            while abs(draws[i]) > 3.0 * p("sigma"):
                draws[i] = gen.normal(0.0, p("sigma"))
    else:   # regime_shift: a uniform level held for exponential dwells
        a, tau = p("amplitude"), p("mean_dwell")
        level, next_switch = gen.uniform(-a, a), gen.exponential(tau)
        draws = np.empty(n)
        for i in range(n):
            while i >= next_switch:
                level = gen.uniform(-a, a)
                next_switch += gen.exponential(tau)
            draws[i] = level
    if kind == "random_walk":
        return np.cumsum(draws)
    return 1.0 + draws if kind in _FACTOR_KINDS else draws


def noise_draws(model: UncertaintyModel, stream: SeededStream,
                n: int) -> list[tuple[bool, np.ndarray]]:
    """The model's draws for n samples, as (multiplies, draws) steps applied
    in order. They do not depend on the values perturbed. A compound model
    chains its submodels' draws, each from its own ("sub", i) substream."""
    if model.kind == "compound":
        return [step for i, sub in enumerate(model.submodels)
                for step in noise_draws(sub, stream.child("sub", i), n)]
    return [(model.kind in _FACTOR_KINDS,
             _kind_draws(model, stream.generator(), n))]


def apply_draws(steps: list[tuple[bool, np.ndarray]], values) -> np.ndarray:
    """Values with noise_draws steps applied; draws index the first axis."""
    values = np.asarray(values, dtype=float)
    for multiplies, draws in steps:
        values = values * draws if multiplies else values + draws
    return values


def perturb_series(model: UncertaintyModel, values, stream: SeededStream) -> np.ndarray:
    """Perturb a whole series; sinusoidal period and regime_shift dwell are
    in samples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot perturb an empty series")
    return apply_draws(noise_draws(model, stream, len(values)), values)


def perturb_scalar(model: UncertaintyModel, value: float,
                   stream: SeededStream) -> float:
    """perturb_series of one sample, for the kinds that need no series;
    physical targets are clamped to stay positive."""
    for m in model.submodels or (model,):
        if m.kind not in _SCALAR_KINDS:
            raise ConfigError(f"'{m.kind}' applies to series, not scalars")
    out = float(perturb_series(model, [value], stream)[0])
    if model.target in PARAMETER_TARGETS:
        out = max(out, _POSITIVITY_FLOOR)
    return out


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
