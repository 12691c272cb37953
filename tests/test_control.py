"""Tests for the step/reset control environment."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wdnflow import ConfigError, CurveFitError, bundled, hydraulics, scenario
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
from wdnflow.network import Curve
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
        for speed in (True, np.True_):
            with pytest.raises(InvalidActionError, match="pump_speed value"):
                env.step(Action(pump_speeds={"pu1": speed}))
        for speed in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidActionError, match="pump 'pu1'"):
                env.step(Action(pump_speeds={"pu1": speed}))

    def test_a_numpy_bool_is_a_state(self):
        env = ScenarioEnv(pumpnet_config())
        for state in (False, True):
            env.reset()
            plain = env.step(Action(pump_states={"pu1": state}))
            env.reset()
            numpy = env.step(Action(pump_states={"pu1": np.bool_(state)}))
            assert numpy.observation.tobytes() == plain.observation.tobytes()
            assert numpy.reward == plain.reward

    def test_a_rejected_action_leaves_no_trace(self):
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        env.step(Action(pump_speeds={"pu1": 0.7}))
        engine = env._engine

        def trace():
            return (engine.step_index, engine.tank_levels.tobytes(),
                    [(key, id(state)) for key, state in engine._memo.items()],
                    engine.solves, env._corruptor.next_row)
        before = trace()
        for action in (Action(pump_states={"ghost": False}),
                       Action(valve_states={"p1": False}),
                       Action(pump_speeds={"pu1": 0.7},
                              pump_states={"pu1": 1})):
            with pytest.raises(InvalidActionError):
                env.step(action)
            assert trace() == before

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


    def test_pump_state_event_blocks_agent_speed(self):
        # the event keeps pu1 at its own state, running, until t = 600 s; it
        # names the pump, so the agent's speed on pu1 waits for its end too
        config = pumpnet_config(actuator_events=(
            ActuatorEvent(kind="pump_state", target_id="pu1", value=True,
                          window=EventWindow(0.0, 600.0)),))
        env = ScenarioEnv(config)
        env.reset()
        free = [env.step(NO_OP).observation[3] for _ in range(3)]
        env.reset()
        slow = [env.step(Action(pump_speeds={"pu1": 0.7})).observation[3]
                for _ in range(3)]
        assert slow[:2] == free[:2]
        assert 0.0 < slow[2] < free[2]


def stop_then_slow_config():
    """pu1 stopped over the hour, and run at speed 0.8 from t = 600 s by a
    later event on the same pump."""
    return pumpnet_config(duration_s=3600, actuator_events=(
        ActuatorEvent(kind="pump_state", target_id="pu1", value=False,
                      window=EventWindow(0.0, 3600.0)),
        ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.8,
                      window=EventWindow(600.0, 3600.0))))


class TestOverlappingActuatorEvents:
    """The active event of highest precedence on a link takes all of its
    settings, so a later speed event ends an earlier stop."""

    def test_later_speed_event_runs_a_stopped_pump(self):
        batch = run_scenario(stop_then_slow_config())
        # the same run with the stop ending where the speed event starts
        split = run_scenario(pumpnet_config(duration_s=3600, actuator_events=(
            ActuatorEvent(kind="pump_state", target_id="pu1", value=False,
                          window=EventWindow(0.0, 600.0)),
            ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.8,
                          window=EventWindow(600.0, 3600.0)))))
        assert batch.series.flow.tobytes() == split.series.flow.tobytes()
        assert batch.series.head.tobytes() == split.series.head.tobytes()
        flow = batch.series.flow[:, batch.series.link_ids.index("pu1")]
        assert np.all(flow[:2] == 0.0)
        assert np.all(flow[2:] > 0.0)

    def test_no_op_episode_matches_the_batch_run(self):
        config = stop_then_slow_config()
        batch = run_scenario(config)
        env = ScenarioEnv(config)
        env.reset()
        rows = [env.step(NO_OP).observation for _ in range(env.total_steps)]
        assert np.vstack(rows).tobytes() == batch.scada.values.tobytes()
        history = env.state_history()
        for name in ("flow", "head"):
            assert np.vstack([getattr(s, name) for s in history]).tobytes() \
                == getattr(batch.series, name).tobytes()
        # observation order: pressure:j1, pressure:j2, flow:p1, flow:pu1, ...
        assert [r[3] > 0.0 for r in rows] == [False] * 2 + [True] * 10


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


    def test_no_power_from_a_pump_the_network_parks(self, pumpnet,
                                                    monkeypatch):
        # pu1 is not running in the network itself, and no control says
        # otherwise until the agent starts it
        pump = replace(pumpnet.pumps["pu1"], running=False)
        parked = replace(pumpnet, pumps={"pu1": pump})
        monkeypatch.setattr(scenario, "load_network",
                            lambda path, warnings: parked)
        env = ScenarioEnv(pumpnet_config())
        env.reset()
        idle = env.step(NO_OP)
        assert idle.info["pump_power_w"] == 0.0
        assert idle.observation[3] == 0.0
        started = env.step(Action(pump_states={"pu1": True}))
        assert started.info["pump_power_w"] > 0.0

class TestEnvLimits:
    def test_unfittable_pump_curve_raises_when_made(self, pumpnet,
                                                    monkeypatch):
        # the env plans its horizon when it is made, not at reset()
        bad = replace(pumpnet, curves={"c1": Curve("c1", ((0.0, 40.0),
                                                          (0.02, 10.0)))})
        monkeypatch.setattr(scenario, "load_network",
                            lambda path, warnings: bad)
        with pytest.raises(CurveFitError):
            ScenarioEnv(pumpnet_config())

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

    def test_alternating_actions_are_served_from_the_memo(self):
        # a no-op and a slower pump alternate; the no-op's t = 0 snapshot is
        # reset's preview, and the second episode repeats every input of the
        # first, so its snapshots all come from the memo
        env = ScenarioEnv(pumpnet_config())
        slow = Action(pump_speeds={"pu1": 0.9})
        for _ in range(2):
            env.reset()
            for k in range(env.total_steps):
                env.step(slow if k % 2 else NO_OP)
            assert env._engine.solves == 24

    def test_an_episode_opening_with_an_action_stays_in_the_memo(self):
        # the first action is not a no-op, so an episode meets one snapshot
        # more than it has steps (reset's preview under no overrides); the
        # memo keeps them all, and a second episode solves nothing
        env = ScenarioEnv(pumpnet_config())
        slow = Action(pump_speeds={"pu1": 0.9})
        solves = []
        for _ in range(2):
            env.reset()
            for k in range(env.total_steps):
                env.step(NO_OP if k % 2 else slow)
            solves.append(env._engine.solves)
        assert solves == [env.total_steps + 1] * 2

    def test_one_engine_and_one_corruptor_for_every_reset(self,
                                                          monkeypatch):
        made = []

        def spy(cls):
            class Spy(cls):
                def __init__(self, *args, **kw):
                    made.append(cls.__name__)
                    super().__init__(*args, **kw)
            monkeypatch.setattr(scenario, cls.__name__, Spy)
        spy(scenario.EpsEngine)
        spy(scenario.RowCorruptor)
        env = ScenarioEnv(pumpnet_config())
        for _ in range(3):
            env.reset()
            env.step()
        assert sorted(made) == ["EpsEngine", "RowCorruptor"]

    def test_memo_evicts_past_an_episode(self):
        # the pump runs slower in the second episode, so its steps are new
        # snapshots that push the first episode's out of the memo; each
        # episode still equals a fresh env's
        def episode(env, speed):
            observations, rewards, sizes = [env.reset()], [], []
            for _ in range(env.total_steps):
                outcome = env.step(Action(pump_speeds={"pu1": speed}))
                observations.append(outcome.observation)
                rewards.append(outcome.reward)
                sizes.append(len(env._engine._memo))
            return np.vstack(observations), rewards, env.state_history(), \
                sizes

        env = ScenarioEnv(pumpnet_config())
        for speed in (0.9, 0.8):
            observations, rewards, history, sizes = episode(env, speed)
            fresh = episode(ScenarioEnv(pumpnet_config()), speed)
            assert max(sizes) <= env.total_steps + 1
            assert observations.tobytes() == fresh[0].tobytes()
            assert rewards == fresh[1]
            for mine, theirs in zip(history, fresh[2], strict=True):
                for name in self.STATE_ARRAYS:
                    assert getattr(mine, name).tobytes() \
                        == getattr(theirs, name).tobytes()
        # more snapshots were solved than the memo can hold
        assert env._engine.solves > env.total_steps + 1

    def test_second_episode_reuses_solves_and_matches_batch(self):
        config = pumpnet_config(
            leakages=(LeakageEvent(kind="abrupt", link_id="p1",
                                   diameter=0.01,
                                   window=EventWindow(1800.0, 5400.0)),),
            actuator_events=(ActuatorEvent(kind="pump_speed",
                                           target_id="pu1", value=0.9,
                                           window=EventWindow(3600.0,
                                                              4800.0)),))
        batch = run_scenario(config).series.states
        env = ScenarioEnv(config)
        solves = []
        for _ in range(2):
            env.reset()
            while not env.step(NO_OP).done:
                pass
            solves.append(env._engine.solves)
            history = env.state_history()
            assert len(history) == len(batch)
            for mine, theirs in zip(history, batch):
                for name in self.STATE_ARRAYS:
                    assert getattr(mine, name).tobytes() \
                        == getattr(theirs, name).tobytes()
                assert (mine.t, mine.leak_flow, mine.iterations) \
                    == (theirs.t, theirs.leak_flow, theirs.iterations)
        # the reset preview and every step of the second episode are hits
        assert solves == [env.total_steps, env.total_steps]

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
