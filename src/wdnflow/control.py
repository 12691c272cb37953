"""Step/reset control environment over a scenario.

The agent observes corrupted SCADA rows and sets pump speeds/states and valve
states. Each step re-solves the snapshot at the current time under the chosen
controls, then advances one hydraulic step. Scheduled actuator events take
priority: while an event window is active, agent commands on that target are
ignored. With no agent intervention the episode reproduces the batch
simulation bit for bit, because both run the same engine.

Reward per step, in consistent units: minus the pump power proxy
rho g Q dH / 0.75 (W) minus `pressure_penalty` per meter of pressure-head
shortfall below `min_pressure_head` summed over junctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EpisodeFinishedError, InvalidActionError
from .hydraulics import G, Controls, EpsEngine, HydraulicState
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
        if config.sensors.quality_nodes:
            raise ConfigError(
                "quality sensors are not supported in the control environment")
        if not math.isfinite(min_pressure_head):
            raise ConfigError("min_pressure_head must be finite")
        if not 0 <= pressure_penalty < math.inf:
            raise ConfigError("pressure_penalty must be finite and >= 0")
        self.runtime: ScenarioRuntime = build_runtime(config)
        self.config = config
        self.min_pressure_head = min_pressure_head
        self.pressure_penalty = pressure_penalty
        self.columns = config.sensors.columns()
        self._reader = RowReader(self.columns, self.runtime.report_layout)
        solve = self.runtime.solve_layout
        # (pump id, link index, suction node, discharge node), in dict order
        # so the power sum keeps one summation order
        pumps = list(self.runtime.solve_network.pumps)
        links = [solve.link_index[pid] for pid in pumps]
        self._pumps = list(zip(pumps, links, solve.link_from[links].tolist(),
                               solve.link_to[links].tolist()))
        self._truth = self.runtime.truth_records()
        self._engine: EpsEngine | None = None
        self._corruptor = None
        self._states: list[HydraulicState] = []

    # -------------------------------------------------------------- helpers

    def _observe(self, state: HydraulicState, corruptor) -> np.ndarray:
        return corruptor.corrupt_next(self._reader.read(state)[None])[0]

    def _blocked_targets(self, t: float) -> set[str]:
        return {e.target_id for e in self.config.actuator_events
                if e.window.contains(t)}

    def _merge_action(self, action: Action, t: float) -> Controls:
        controls = self.runtime.control_hook(t)
        pumps = self.runtime.solve_network.pumps
        valves = self.runtime.solve_network.valves
        blocked = self._blocked_targets(t)
        speed = dict(controls.pump_speed)
        running = dict(controls.pump_running)
        v_open = dict(controls.valve_open)
        for pid, omega in action.pump_speeds.items():
            if pid not in pumps:
                raise InvalidActionError(f"no pump '{pid}'")
            if isinstance(omega, bool) or not isinstance(omega, (int, float)) \
                    or not math.isfinite(omega) or omega < 0:
                raise InvalidActionError(
                    f"pump speed for '{pid}' must be a finite number >= 0")
            if pid not in blocked:
                speed[pid] = float(omega)
        for pid, on in action.pump_states.items():
            if pid not in pumps:
                raise InvalidActionError(f"no pump '{pid}'")
            if not isinstance(on, bool):
                raise InvalidActionError(f"pump state for '{pid}' must be bool")
            if pid not in blocked:
                running[pid] = on
        for vid, is_open in action.valve_states.items():
            if vid not in valves:
                raise InvalidActionError(f"no valve '{vid}'")
            if not isinstance(is_open, bool):
                raise InvalidActionError(f"valve state for '{vid}' must be bool")
            if vid not in blocked:
                v_open[vid] = is_open
        return Controls(pipe_open=controls.pipe_open, pump_running=running,
                        pump_speed=speed, valve_open=v_open)

    def _reward_terms(self, state: HydraulicState,
                      projected: HydraulicState,
                      controls: Controls) -> tuple[float, float]:
        power = 0.0
        for pid, link, suction, discharge in self._pumps:
            if not controls.pump_running.get(pid, True):
                continue
            q = float(state.flow[link])
            gain = float(state.head[discharge] - state.head[suction])
            if q > 0.0 and gain > 0.0:
                power += RHO * G * q * gain / PUMP_EFFICIENCY
        # deficit over the pre-split junctions only, so the reward scale does
        # not shift when a leak adds virtual nodes
        deficit = float(np.sum(np.maximum(
            0.0, self.min_pressure_head - projected.pressure_head)))
        return power, deficit

    # ------------------------------------------------------------------ api

    @property
    def total_steps(self) -> int:
        return self.config.duration_s // self.config.hydraulic_time_step_s

    @property
    def current_step(self) -> int:
        return self._engine.step_index if self._engine is not None else 0

    def reset(self) -> np.ndarray:
        """Start a fresh episode; returns the corrupted observation at t=0
        under baseline controls, before any agent action."""
        if self._engine is None:
            self._engine = self.runtime.make_engine()
        self._engine.reset()
        self._states = []
        peek = self._engine.solve_current()
        # the preview corrupts row 0 alone; the episode starts over at row 0
        times = [float(k * self.config.hydraulic_time_step_s)
                 for k in range(self.total_steps)]
        observation = self._observe(self.runtime.project_state(peek),
                                    self.runtime.make_corruptor(
                                        self.columns, times[:1]))
        self._corruptor = self.runtime.make_corruptor(self.columns, times)
        return observation

    def step(self, action: Action | None = None) -> StepOutcome:
        if self._engine is None:
            raise EpisodeFinishedError("call reset() before step()")
        if self._engine.step_index >= self.total_steps:
            raise EpisodeFinishedError("episode horizon already reached")
        if action is None:
            action = NO_OP
        t = float(self._engine.step_index
                  * self.config.hydraulic_time_step_s)
        controls = self._merge_action(action, t)
        state = self._engine.step_once(controls)
        projected = self.runtime.project_state(state)
        self._states.append(projected)
        observation = self._observe(projected, self._corruptor)
        power, deficit = self._reward_terms(state, projected, controls)
        reward = -power - self.pressure_penalty * deficit
        done = self._engine.step_index == self.total_steps
        info = {
            "t": state.t,
            "iterations": state.iterations,
            "converged": state.converged,
            "active_events": tuple(
                rec.event_id for rec in self._truth
                if rec.start_s <= t < rec.end_s),
            "pump_power_w": power,
            "pressure_deficit_m": deficit,
        }
        return StepOutcome(observation=observation, reward=reward, done=done,
                           info=info)

    def state_history(self) -> tuple[HydraulicState, ...]:
        """Projected states of the episode so far, batch-layout order."""
        return tuple(self._states)
