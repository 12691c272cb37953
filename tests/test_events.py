"""Tests for event definitions, fault transforms, and leak plumbing."""

import math

import numpy as np
import pytest

from wdnflow import ConfigError, UnknownTargetError, incidence, validate
from wdnflow.events import (
    EVENT_REGISTRY,
    LEAK_JUNCTION_SUFFIX,
    ActuatorEvent,
    CommunicationEvent,
    EventWindow,
    LeakageEvent,
    SensorFaultEvent,
    event_registry,
    faulted_readings,
    leak_effective_area,
    leak_emitter_coef,
    leak_flow,
    precedence,
    resolve_controls,
    split_pipes_for_leaks,
)
from wdnflow.hydraulics import G, Controls, solve_snapshot


class TestRegistry:
    def test_exactly_thirteen_kinds_in_four_families(self):
        registry = event_registry()
        assert set(registry) == {"leakage", "actuator", "sensor_fault",
                                 "communication"}
        assert registry["leakage"] == ("abrupt", "incipient", "pattern")
        assert registry["actuator"] == ("pump_state", "pump_speed",
                                        "valve_state")
        assert registry["sensor_fault"] == ("offset", "drift", "gaussian",
                                            "gain", "stuck_zero")
        assert registry["communication"] == ("data_loss", "freeze")
        assert sum(len(v) for v in registry.values()) == 13

    def test_registry_copy_is_detached(self):
        registry = event_registry()
        registry["leakage"] = ()
        assert EVENT_REGISTRY["leakage"] == ("abrupt", "incipient", "pattern")


class TestEventWindow:
    def test_start_inclusive_end_exclusive(self):
        window = EventWindow(600.0, 1200.0)
        assert not window.contains(599.9)
        assert window.contains(600.0)
        assert window.contains(1199.9)
        assert not window.contains(1200.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(Exception):
            EventWindow(1200.0, 600.0)

    def test_peak_must_fall_inside(self):
        with pytest.raises(Exception):
            EventWindow(0.0, 100.0, peak_time=200.0)

    @pytest.mark.parametrize("make", [
        lambda w: ActuatorEvent("pump_state", "pu1", False, w),
        lambda w: SensorFaultEvent("offset", ("pressure", "n1"), 0.5, w),
        lambda w: CommunicationEvent("data_loss", w),
    ], ids=["actuator", "sensor_fault", "communication"])
    def test_only_a_leak_takes_a_peak(self, make):
        """The JSON form has a peak key for leaks only, so an event that
        kept a peak could be saved but not loaded again."""
        with pytest.raises(ConfigError, match="peak_time"):
            make(EventWindow(0.0, 3600.0, 1800.0))


class TestLeakGeometry:
    def test_orifice_area_from_diameter(self):
        event = LeakageEvent(kind="abrupt", link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 100.0))
        area = leak_effective_area(event, 0.0)
        assert area == pytest.approx(math.pi * 0.01 ** 2, abs=1e-8)

    def test_flow_through_orifice(self):
        # 20 mm hole under 30 m of head with discharge coefficient 0.75
        area = math.pi * 0.01 ** 2
        flow = leak_flow(area, 30.0, discharge_coef=0.75)
        assert flow == pytest.approx(
            0.75 * area * math.sqrt(2.0 * G * 30.0), rel=1e-12)
        assert flow == pytest.approx(5.72e-3, rel=1e-2)

    def test_emitter_coefficient_reproduces_flow(self):
        event = LeakageEvent(kind="abrupt", link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 100.0))
        coef = leak_emitter_coef(event, 50.0)
        assert coef * math.sqrt(30.0) == pytest.approx(
            leak_flow(leak_effective_area(event, 50.0), 30.0), rel=1e-12)

    def test_abrupt_leak_is_zero_outside_window(self):
        event = LeakageEvent(kind="abrupt", link_id="p1", diameter=0.02,
                             window=EventWindow(600.0, 1200.0))
        assert leak_emitter_coef(event, 0.0) == 0.0
        assert leak_emitter_coef(event, 1200.0) == 0.0
        assert leak_emitter_coef(event, 600.0) > 0.0


class TestIncipientLeak:
    def test_area_ramps_linearly_to_peak(self):
        event = LeakageEvent(kind="incipient", link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 1000.0, peak_time=500.0))
        full = math.pi * 0.01 ** 2
        assert leak_effective_area(event, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert leak_effective_area(event, 250.0) == pytest.approx(0.5 * full)
        assert leak_effective_area(event, 500.0) == pytest.approx(full)

    def test_area_holds_after_peak(self):
        event = LeakageEvent(kind="incipient", link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 1000.0, peak_time=500.0))
        full = math.pi * 0.01 ** 2
        assert leak_effective_area(event, 750.0) == pytest.approx(full)
        assert leak_effective_area(event, 999.0) == pytest.approx(full)


class TestPatternLeak:
    def test_pattern_spans_the_window(self):
        event = LeakageEvent(kind="pattern", link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 400.0),
                             area_pattern=(0.0, 1.0, 0.5, 0.25))
        full = math.pi * 0.01 ** 2
        assert leak_effective_area(event, 0.0) == pytest.approx(0.0,
                                                                abs=1e-15)
        assert leak_effective_area(event, 100.0) == pytest.approx(full)
        assert leak_effective_area(event, 200.0) == pytest.approx(0.5 * full)
        assert leak_effective_area(event, 300.0) == pytest.approx(0.25 * full)


    def test_area_pattern_on_another_kind_rejected(self):
        for kind, peak in (("abrupt", None), ("incipient", 200.0)):
            with pytest.raises(ConfigError, match="takes no area_pattern"):
                LeakageEvent(kind=kind, link_id="p1", diameter=0.02,
                             window=EventWindow(0.0, 400.0, peak_time=peak),
                             area_pattern=(5.0, -3.0))


def winners(events, times):
    """The event that wins at each time, or -1: events are written in
    precedence order over their windows, so the last one written wins."""
    won = np.full(len(times), -1)
    for i in precedence(events):
        won[events[i].window.contains(np.asarray(times))] = i
    return won.tolist()


class TestOverlapPrecedence:
    def test_later_start_wins(self):
        early = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                                 param=1.0, window=EventWindow(0.0, 1000.0))
        late = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                                param=2.0, window=EventWindow(500.0, 800.0))
        assert precedence([early, late]) == [0, 1]
        assert precedence([late, early]) == [1, 0]
        assert winners([early, late], [600.0, 400.0, 900.0, 1000.0]) == \
            [1, 0, 0, -1]

    def test_equal_start_resolved_by_list_order(self):
        a = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                             param=1.0, window=EventWindow(0.0, 100.0))
        b = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                             param=2.0, window=EventWindow(0.0, 100.0))
        assert precedence([a, b]) == [0, 1]
        assert precedence([b, a]) == [0, 1]
        assert winners([a, b], [50.0]) == [1]


class TestSensorFaults:
    def window(self):
        return EventWindow(3600.0, 36000.0)

    def fault(self, event, reading, t, noise=0.0):
        """One in-window reading at time t under the fault."""
        (out,) = faulted_readings(np.array([reading]), event, np.array([t]),
                                  np.array([noise]))
        return out

    def test_offset_adds_constant(self):
        event = SensorFaultEvent(kind="offset", sensor_ref=("flow", "p1"),
                                 param=0.5, window=self.window())
        assert self.fault(event, 10.0, 7200.0) == 10.5

    def test_drift_grows_per_elapsed_hour(self):
        event = SensorFaultEvent(kind="drift", sensor_ref=("flow", "p1"),
                                 param=1.1, window=self.window())
        # two hours into the window the added drift is 2 x 1.1
        assert self.fault(event, 10.0, 3600.0 + 7200.0) == \
            pytest.approx(12.2, rel=1e-12)
        assert self.fault(event, 10.0, 3600.0) == 10.0

    def test_gain_scales(self):
        event = SensorFaultEvent(kind="gain", sensor_ref=("flow", "p1"),
                                 param=1.2, window=self.window())
        assert self.fault(event, 10.0, 7200.0) == pytest.approx(12.0)

    def test_stuck_zero_clamps(self):
        event = SensorFaultEvent(kind="stuck_zero", sensor_ref=("flow", "p1"),
                                 param=0.0, window=self.window())
        assert self.fault(event, 10.0, 7200.0) == 0.0

    def test_gaussian_adds_supplied_draws(self):
        event = SensorFaultEvent(kind="gaussian", sensor_ref=("flow", "p1"),
                                 param=0.3, window=self.window())
        assert self.fault(event, 10.0, 7200.0, noise=0.25) == 10.25
        assert self.fault(event, 10.0, 7200.0, noise=-0.5) == 9.5

    def test_nan_passes_through_untouched(self):
        event = SensorFaultEvent(kind="offset", sensor_ref=("flow", "p1"),
                                 param=0.5, window=self.window())
        assert math.isnan(self.fault(event, float("nan"), 7200.0))


class TestActuatorEvents:
    """An active event sets its link in the controls; the network's own
    setting stays in the network."""

    @staticmethod
    def stop(start=0.0, end=3600.0, target="pu1"):
        return ActuatorEvent(kind="pump_state", target_id=target, value=False,
                             window=EventWindow(start, end))

    def test_pump_state_override(self):
        controls = resolve_controls([self.stop()], 0.0)
        assert controls.pump_running == {"pu1": False}
        assert controls.pump_speed == {}
        assert Controls().pump_running == {}

    def test_pump_speed_override(self):
        event = ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.8,
                              window=EventWindow(0.0, 3600.0))
        controls = resolve_controls([event], 0.0)
        assert controls.pump_speed == {"pu1": 0.8}

    def test_outside_window_is_a_no_op(self):
        events = [self.stop()]
        resolve_controls(events, 0.0)
        controls = resolve_controls(events, 3600.0)
        assert controls == Controls()
        assert controls.pump_running == {}

    def test_unknown_target_raises(self, pumpnet):
        # the override is added as given; the solver rejects it, since an
        # override must name a link of its kind
        controls = resolve_controls([self.stop(target="nope")], 0.0)
        with pytest.raises(UnknownTargetError, match="no pump 'nope'"):
            solve_snapshot(pumpnet, {}, controls)

    def test_resolve_controls_applies_only_active_events(self):
        events = [
            ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.5,
                          window=EventWindow(0.0, 1800.0)),
            ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.9,
                          window=EventWindow(1800.0, 3600.0)),
        ]
        assert resolve_controls(events, 0.0).pump_speed == {"pu1": 0.5}
        assert resolve_controls(events, 1800.0).pump_speed == {"pu1": 0.9}
        assert resolve_controls(events, 3600.0).pump_speed == {}

    def test_highest_event_takes_every_setting_of_its_link(self):
        # a later speed event ends an earlier stop of the same pump; an event
        # on another link keeps its own entry
        speed = ActuatorEvent(kind="pump_speed", target_id="pu1", value=0.8,
                              window=EventWindow(600.0, 3600.0))
        valve = ActuatorEvent(kind="valve_state", target_id="v1", value=False,
                              window=EventWindow(0.0, 3600.0))
        for events in ([self.stop(), speed, valve],
                       [speed, valve, self.stop()]):
            assert resolve_controls(events, 0.0) == Controls(
                pump_running={"pu1": False}, valve_open={"v1": False})
            assert resolve_controls(events, 600.0) == Controls(
                pump_speed={"pu1": 0.8}, valve_open={"v1": False})
        # at one start the later listed wins
        tied = [self.stop(600.0), speed]
        assert resolve_controls(tied, 600.0) == Controls(
            pump_speed={"pu1": 0.8})
        assert resolve_controls(tied[::-1], 600.0) == Controls(
            pump_running={"pu1": False})


class TestPipeSplitting:
    # the midpoint elevation interpolates the endpoints' heights (p3: n2 at
    # 6, n3 at 7); a reservoir's height is its head (p1: r1 at 60, n1 at 5)
    @pytest.mark.parametrize("pipe, elevation", [("p3", 6.5), ("p1", 32.5)])
    def test_split_creates_midpoint_junction(self, toy9, pipe, elevation):
        split, leak_nodes = split_pipes_for_leaks(toy9, [pipe])
        leak_id = pipe + LEAK_JUNCTION_SUFFIX
        assert leak_nodes == {pipe: leak_id}
        assert leak_id in split.junctions
        assert split.junctions[leak_id].base_demand == 0.0
        assert split.junctions[leak_id].elevation == elevation

    def test_split_halves_share_the_length(self, toy9):
        split, _ = split_pipes_for_leaks(toy9, ["p3"])
        first = split.pipes["p3"]
        second = split.pipes["p3__leakb"]
        original = toy9.pipes["p3"]
        assert first.length == pytest.approx(original.length / 2.0)
        assert second.length == pytest.approx(original.length / 2.0)
        assert first.diameter == original.diameter
        assert second.roughness == original.roughness
        assert first.to_node == "p3" + LEAK_JUNCTION_SUFFIX
        assert second.from_node == "p3" + LEAK_JUNCTION_SUFFIX
        assert second.to_node == original.to_node

    def test_split_network_is_still_consistent(self, toy9):
        split, _ = split_pipes_for_leaks(toy9, ["p3", "p7"])
        inc = incidence(split)
        assert len(inc.link_ids) == len(incidence(toy9).link_ids) + 2
        assert validate(split) == []

    def test_original_network_untouched(self, toy9):
        before = len(toy9.pipes)
        split_pipes_for_leaks(toy9, ["p3"])
        assert len(toy9.pipes) == before
        assert "p3__leak" not in toy9.junctions

    def test_unknown_pipe_raises(self, toy9):
        with pytest.raises(UnknownTargetError):
            split_pipes_for_leaks(toy9, ["p99"])

    def test_reserved_id_collision_raises(self, toy9):
        split, _ = split_pipes_for_leaks(toy9, ["p3"])
        with pytest.raises(ConfigError, match="reserved leak id 'p3__leak'"):
            split_pipes_for_leaks(split, ["p3"])


class TestCommunicationEvents:
    def test_kinds_are_declared(self):
        assert CommunicationEvent(kind="data_loss",
                                  window=EventWindow(0.0, 10.0)).kind == \
            "data_loss"
        freeze = CommunicationEvent(kind="freeze",
                                    window=EventWindow(0.0, 10.0),
                                    sensor_ref=("pressure", "n1"))
        assert freeze.sensor_ref == ("pressure", "n1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            CommunicationEvent(kind="jamming", window=EventWindow(0.0, 10.0))
