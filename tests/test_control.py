"""Tests for the step/reset control environment."""

import numpy as np
import pytest

from wdnflow import ConfigError, bundled, hydraulics
from wdnflow.control import (
    NO_OP,
    Action,
    EpisodeFinishedError,
    InvalidActionError,
    ScenarioEnv,
)
from wdnflow.events import (
    ActuatorEvent,
    CommunicationEvent,
    EventWindow,
    LeakageEvent,
    SensorFaultEvent,
)
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import QualitySpec, ScenarioConfig, run_scenario
from wdnflow.uncertainty import UncertaintyModel


def pumpnet_config(**kw):
    defaults = dict(
        network_path=bundled.pumpnet_path(),
        duration_s=7200,
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(pressure_nodes=("j1", "j2"),
                                flow_links=("p1", "pu1"),
                                tank_level_tanks=("t1",)),
        seed=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestEpisodeProtocol:
    def test_reset_returns_first_observation(self, toy9_config_factory):
        env = ScenarioEnv(toy9_config_factory())
        obs = env.reset()
        assert obs.shape == (10,)
        batch = run_scenario(toy9_config_factory())
        assert np.array_equal(obs, batch.scada.values[0])

    def test_step_before_reset_rejected(self, toy9_config_factory):
        env = ScenarioEnv(toy9_config_factory())
        with pytest.raises(EpisodeFinishedError):
            env.step()

    def test_episode_has_exactly_total_steps(self, toy9_config_factory):
        env = ScenarioEnv(toy9_config_factory())
        env.reset()
        assert env.total_steps == 24
        outcomes = []
        for _ in range(env.total_steps):
            outcomes.append(env.step())
        assert [o.done for o in outcomes] == [False] * 23 + [True]
        with pytest.raises(EpisodeFinishedError):
            env.step()

    def test_observations_match_batch_rows(self, toy9_config_factory):
        noise = (UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                                  params={"sigma": 0.02}),)
        # the pumpnet case reads a level column through a leak split
        leaky_pumpnet = pumpnet_config(
            leakages=(LeakageEvent(kind="abrupt", link_id="p1",
                                   diameter=0.01,
                                   window=EventWindow(1800.0, 5400.0)),),
            uncertainties=noise)
        # noise that needs a series, faults, a freeze and an outage
        corrupted = toy9_config_factory(
            uncertainties=(
                UncertaintyModel(kind="random_walk", target="sensor_noise",
                                 params={"sigma": 0.01}),
                UncertaintyModel(kind="gauss_rel", target="sensor_noise",
                                 params={"sigma": 0.005})),
            sensor_faults=(
                SensorFaultEvent(kind="gaussian", sensor_ref=("pressure", "n2"),
                                 param=0.3, window=EventWindow(900.0, 4500.0)),
                SensorFaultEvent(kind="drift", sensor_ref=("flow", "p1"),
                                 param=0.5, window=EventWindow(1200.0, 6000.0))),
            communication_events=(
                CommunicationEvent(kind="freeze",
                                   window=EventWindow(1800.0, 3600.0),
                                   sensor_ref=("pressure", "n2")),
                CommunicationEvent(kind="data_loss",
                                   window=EventWindow(4800.0, 5700.0))))
        for config in (toy9_config_factory(uncertainties=noise),
                       leaky_pumpnet, corrupted):
            batch = run_scenario(config)
            env = ScenarioEnv(config)
            preview = env.reset()
            rows = [env.step().observation for _ in range(env.total_steps)]
            # the reset preview and the first step both report the t=0 row
            assert np.array_equal(preview, rows[0])
            # bit for bit, so gaps (NaN) and signed zeros count too
            assert np.vstack(rows).tobytes() == batch.scada.values.tobytes()

    def test_no_op_episode_reproduces_batch_hydraulics(
            self, toy9_config_factory):
        config = toy9_config_factory()
        batch = run_scenario(config)
        env = ScenarioEnv(config)
        env.reset()
        while True:
            if env.step(NO_OP).done:
                break
        assert len(env.state_history()) == len(batch.series.states)
        for mine, theirs in zip(env.state_history(), batch.series.states):
            assert np.array_equal(mine.flow, theirs.flow)
            assert np.array_equal(mine.head, theirs.head)

    def test_two_resets_give_identical_episodes(self, toy9_config_factory):
        config = toy9_config_factory(uncertainties=(
            UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                             params={"sigma": 0.02}),))
        env = ScenarioEnv(config)
        first = [env.reset()]
        first += [env.step().observation for _ in range(env.total_steps - 1)]
        second = [env.reset()]
        second += [env.step().observation for _ in range(env.total_steps - 1)]
        assert np.array_equal(np.vstack(first), np.vstack(second))

    def test_info_reports_time_and_convergence(self, toy9_config_factory):
        env = ScenarioEnv(toy9_config_factory())
        env.reset()
        outcome = env.step()
        assert outcome.info["t"] == 0.0
        assert outcome.info["converged"] is True
        assert outcome.info["iterations"] > 0
        assert env.current_step == 1
        second = env.step()
        assert second.info["t"] == 300.0


class TestActions:
    def test_pump_toggle_changes_downstream_pressure(self):
        config = pumpnet_config()
        env = ScenarioEnv(config)
        env.reset()
        on = env.step(NO_OP)
        env.reset()
        off = env.step(Action(pump_states={"pu1": False}))
        # observation order: pressure:j1, pressure:j2, flow:p1, flow:pu1, ...
        assert off.observation[0] < on.observation[0]
        assert off.observation[3] == 0.0

    def test_pump_speed_scales_delivery(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        full = env.step(NO_OP)
        env.reset()
        slow = env.step(Action(pump_speeds={"pu1": 0.7}))
        assert 0.0 < slow.observation[3] < full.observation[3]

    def test_unknown_target_rejected(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        with pytest.raises(InvalidActionError):
            env.step(Action(pump_states={"ghost": False}))
        with pytest.raises(InvalidActionError):
            env.step(Action(valve_states={"p1": False}))

    def test_bad_value_types_rejected(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        with pytest.raises(InvalidActionError):
            env.step(Action(pump_states={"pu1": 0}))
        with pytest.raises(InvalidActionError):
            env.step(Action(pump_speeds={"pu1": True}))
        with pytest.raises(InvalidActionError):
            env.step(Action(pump_speeds={"pu1": -0.5}))

    def test_actuator_event_blocks_agent_commands(self):
        config = pumpnet_config(actuator_events=(
            ActuatorEvent(kind="pump_state", target_id="pu1", value=False,
                          window=EventWindow(0.0, 3600.0)),))
        env = ScenarioEnv(config)
        env.reset()
        # inside the outage window the agent cannot restart the pump
        blocked = env.step(Action(pump_states={"pu1": True}))
        assert blocked.observation[3] == 0.0
        assert "actuator_0" in blocked.info["active_events"]
        # past the window the same command works again
        for _ in range(12):
            outcome = env.step(Action(pump_states={"pu1": True}))
        assert outcome.info["active_events"] == ()
        assert outcome.observation[3] > 0.0


class TestReward:
    def test_reward_is_negative_cost(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        outcome = env.step(NO_OP)
        assert outcome.reward < 0.0
        assert outcome.info["pump_power_w"] > 0.0

    def test_stopping_the_pump_saves_power_but_risks_pressure(self):
        env = ScenarioEnv(pumpnet_config(), min_pressure_head=30.0,
                          pressure_penalty=0.0)
        env.reset()
        running = env.step(NO_OP)
        env.reset()
        parked = env.step(Action(pump_states={"pu1": False}))
        assert parked.info["pump_power_w"] == 0.0
        assert parked.info["pressure_deficit_m"] > \
            running.info["pressure_deficit_m"]
        assert parked.reward > running.reward

    def test_pressure_penalty_scales_reward(self):
        # the threshold sits above the pump-off pressures so the deficit
        # term is exercised
        mild = ScenarioEnv(pumpnet_config(), min_pressure_head=30.0,
                           pressure_penalty=1.0)
        harsh = ScenarioEnv(pumpnet_config(), min_pressure_head=30.0,
                            pressure_penalty=10.0)
        mild.reset()
        harsh.reset()
        action = Action(pump_states={"pu1": False})
        a = mild.step(action)
        b = harsh.step(action)
        assert a.info["pressure_deficit_m"] > 0.0
        assert b.reward < a.reward

    def test_power_matches_hydraulic_formula(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        outcome = env.step(NO_OP)
        state = env.state_history()[-1]
        flow = outcome.observation[3]
        node_index = {nid: i for i, nid in enumerate(
            run_scenario(pumpnet_config()).series.node_ids)}
        gain = float(state.head[node_index["j1"]]) - \
            float(state.head[node_index["r1"]])
        expected = 1000.0 * 9.80665 * flow * gain / 0.75
        assert outcome.info["pump_power_w"] == pytest.approx(expected,
                                                             rel=1e-9)


class TestEnvLimits:
    def test_quality_sensors_unsupported(self, toy9_config_factory):
        config = toy9_config_factory(
            sensors=SensorPlacement(pressure_nodes=("n1",),
                                    quality_nodes=("n1",)),
            quality=QualitySpec(source_nodes=(("r1", 1.0),)))
        with pytest.raises(ConfigError):
            ScenarioEnv(config)


class TestEngineReuse:
    """reset() rewinds the env's one engine, so later episodes reuse its
    layout, its topologies and their reference solves."""

    STATE_ARRAYS = ("flow", "head", "pressure_head", "tank_level",
                    "actual_demand")

    def env(self):
        return ScenarioEnv(pumpnet_config(
            leakages=(LeakageEvent(kind="abrupt", link_id="p1",
                                   diameter=0.01,
                                   window=EventWindow(1800.0, 5400.0)),),
            uncertainties=(UncertaintyModel(kind="gauss_abs",
                                            target="sensor_noise",
                                            params={"sigma": 0.02}),)))

    def episode(self, env):
        """Observations, rewards and history of one episode whose pump
        changes speed and stops for two steps."""
        observations, rewards = [env.reset()], []
        for k in range(env.total_steps):
            action = Action(pump_speeds={"pu1": 0.9 if k % 3 else 1.0},
                            pump_states={"pu1": k not in (4, 5)})
            outcome = env.step(action)
            observations.append(outcome.observation)
            rewards.append(outcome.reward)
        return np.vstack(observations), rewards, env.state_history()

    def test_three_episodes_are_identical(self):
        env = self.env()
        observations, rewards, history = self.episode(env)
        for _ in range(2):
            again = self.episode(env)
            assert np.array_equal(again[0], observations)
            assert again[1] == rewards
            assert len(again[2]) == len(history)
            for mine, first in zip(again[2], history):
                for name in self.STATE_ARRAYS:
                    assert np.array_equal(getattr(mine, name),
                                          getattr(first, name))
                assert mine.leak_flow == first.leak_flow

    def test_later_resets_build_no_layout_or_topology(self, monkeypatch):
        env = self.env()
        self.episode(env)
        built = []
        for cls in (hydraulics._Layout, hydraulics._Topology):
            def spy(obj, *args, _init=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _init(obj, *args)
            monkeypatch.setattr(cls, "__init__", spy)
        self.episode(env)
        assert built == []
