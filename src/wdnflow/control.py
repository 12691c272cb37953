"""Step/reset control environment over a scenario.

The agent observes corrupted SCADA rows and sets pump speeds/states and valve
states. Each step re-solves the snapshot at the current time under the chosen
controls, then advances one hydraulic step. Scheduled actuator events take
priority by the engine's one rule: while an event window is active, its
link drops every agent command on it, whatever the command's kind (an event
on a pump's state also blocks the agent's speed for that pump). With no
agent intervention the episode reproduces the batch simulation bit for bit,
because both run the same engine. The environment makes its one engine and
plans its one corruptor over the horizon when it is made; each reset
rewinds both, and the reset preview is the corruptor's row 0.

Reward per step, in consistent units: minus the pump power proxy
rho g Q dH / 0.75 (W) minus `pressure_penalty` per meter of pressure-head
shortfall below `min_pressure_head` summed over junctions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError, EpisodeFinishedError, InvalidActionError, UnknownTargetError,
)
from .hydraulics import G, Controls, HydraulicState
from .network import _finite
from .scada import RowReader
from .scenario import ScenarioConfig, ScenarioRuntime, build_runtime

__all__ = ["Action", "StepOutcome", "ScenarioEnv"]

RHO = 1000.0          # kg/m3
PUMP_EFFICIENCY = 0.75


@dataclass(frozen=True)
class Action:
    pump_speeds: dict[str, float] = field(default_factory=dict)
    pump_states: dict[str, bool] = field(default_factory=dict)
    valve_states: dict[str, bool] = field(default_factory=dict)


NO_OP = Action()


@dataclass(frozen=True, eq=False)
class StepOutcome:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


class ScenarioEnv:
    """Sequential interface around one scenario episode."""

    def __init__(self, config: ScenarioConfig,
                 min_pressure_head: float = 20.0,
                 pressure_penalty: float = 1.0):
        self.min_pressure_head = _finite(min_pressure_head, "min_pressure_head")
        self.pressure_penalty = _finite(pressure_penalty, "pressure_penalty", 0.0)
        self.runtime: ScenarioRuntime = build_runtime(config)
        self.config = config
        self.columns = config.sensors.columns()
        # sensors and the pressure deficit read the solved states directly:
        # each pre-split element keeps its id, and its values, in the solve
        # network
        solve = self.runtime.solve_layout
        self._reader = RowReader(self.columns, solve)
        # (link index, suction node, discharge node) per pump, in dict order
        # so the power sum keeps one summation order
        pumps = self.runtime.solve_network.pumps
        links = [solve.link_index[pid] for pid in pumps]
        self._pumps = list(zip(links, solve.link_from[links].tolist(),
                               solve.link_to[links].tolist()))
        self._truth = self.runtime.truth_records()
        self._engine = self.runtime.make_engine()
        self._corruptor = self.runtime.make_corruptor(self.columns,
                                                      self._engine.times)
        self._started = False

    # -------------------------------------------------------------- helpers

    def _observe(self, state: HydraulicState) -> np.ndarray:
        return self._corruptor.corrupt_next(self._reader.read(state)[None])[0]

    def _reward_terms(self, state: HydraulicState) -> tuple[float, float]:
        # a pump that is not running, or runs at speed 0, is a closed link:
        # it carries no flow and so draws no power
        power = 0.0
        for link, suction, discharge in self._pumps:
            q = float(state.flow[link])
            gain = float(state.head[discharge] - state.head[suction])
            if q > 0.0 and gain > 0.0:
                power += RHO * G * q * gain / PUMP_EFFICIENCY
        # deficit over the pre-split junctions only, so the reward scale does
        # not shift when a leak adds virtual nodes
        pressure = state.pressure_head[self.runtime.junction_sel]
        deficit = float(np.sum(np.maximum(
            0.0, self.min_pressure_head - pressure)))
        return power, deficit

    # ------------------------------------------------------------------ api

    @property
    def total_steps(self) -> int:
        return self._engine.total_steps

    @property
    def current_step(self) -> int:
        return self._engine.step_index

    def reset(self) -> np.ndarray:
        """Start a fresh episode; returns the corrupted observation at t=0
        under baseline controls, before any agent action."""
        self._engine.reset()
        self._corruptor.next_row = 0
        observation = self._observe(self._engine.solve_current())
        # the first step corrupts row 0 again, as the agent's action left it
        self._corruptor.next_row = 0
        self._started = True
        return observation

    def step(self, action: Action | None = None) -> StepOutcome:
        if not self._started:
            raise EpisodeFinishedError("call reset() before step()")
        if self._engine.step_index >= self.total_steps:
            raise EpisodeFinishedError("episode horizon already reached")
        action = action or NO_OP
        # the engine checks the commands as overrides, and the step's plan
        # drops those on a link it names
        try:
            state = self._engine.step_once(Controls(
                pump_running=action.pump_states, pump_speed=action.pump_speeds,
                valve_open=action.valve_states))
        except (UnknownTargetError, ConfigError) as exc:
            raise InvalidActionError(str(exc)) from None
        observation = self._observe(state)
        power, deficit = self._reward_terms(state)
        reward = -power - self.pressure_penalty * deficit
        done = self._engine.step_index == self.total_steps
        info = {
            "t": state.t,
            "iterations": state.iterations,
            "converged": state.converged,
            "active_events": tuple(
                rec.event_id for rec in self._truth
                if rec.start_s <= state.t < rec.end_s),
            "pump_power_w": power,
            "pressure_deficit_m": deficit,
        }
        return StepOutcome(observation=observation, reward=reward, done=done,
                           info=info)

    def state_history(self) -> tuple[HydraulicState, ...]:
        """Projected states of the episode so far, batch-layout order."""
        return self.runtime.project_series(self._engine.series()).states
