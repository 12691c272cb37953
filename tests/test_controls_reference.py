"""Differential tests: control sets resolved to link settings and applied
to the compiled layout, against the per-link walk they replaced
(reference_controls.py).

Both must give the same open-link mask and pump speeds, byte for byte, for
any set of overrides, and reject an override that names a link of another
kind with the same UnknownTargetError.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference_controls as ref
from test_hydraulics import with_pump, with_valve_closed
from wdnflow import UnknownTargetError, parse_inp
from wdnflow.hydraulics import Controls, _active_mask, _layout, _link_settings

FIELDS = ("pipe_open", "pump_running", "pump_speed", "valve_open")
SPEEDS = st.one_of(st.just(0.0), st.floats(0.0, 1.5))
DRAWS = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)


@pytest.fixture(scope="module")
def networks(toy9, pumpnet, perfbench_module):
    grid = parse_inp(perfbench_module("netgen").grid_inp(6, 3))
    return {
        "toy9": toy9,
        "pumpnet": pumpnet,
        "pumpnet_parked": with_pump(pumpnet, running=False),
        "pumpnet_speed0": with_pump(pumpnet, speed=0.0),
        "grid": grid,
        "grid_parked_valve_closed": with_valve_closed(
            with_pump(grid, running=False)),
    }


def group(network, field):
    """The links a Controls field may name."""
    return {"pipe_open": network.pipes, "valve_open": network.valves}.get(
        field, network.pumps)


@st.composite
def control_sets(draw, network):
    """Overrides of random links of each kind, with random settings."""
    maps = {}
    for field in FIELDS:
        ids = sorted(group(network, field))
        chosen = draw(st.lists(st.sampled_from(ids), unique=True)) \
            if ids else []
        values = SPEEDS if field == "pump_speed" else st.booleans()
        maps[field] = {lid: draw(values) for lid in chosen}
    return Controls(**maps)


@DRAWS
@given(name=st.sampled_from(["toy9", "pumpnet", "pumpnet_parked",
                             "pumpnet_speed0", "grid",
                             "grid_parked_valve_closed"]),
       data=st.data())
def test_mask_and_speeds_equal_the_per_link_walk(networks, name, data):
    net = networks[name]
    controls = data.draw(control_sets(net))
    layout = _layout(net)
    resolved = _link_settings(layout.inc, controls)
    for new, old in zip(_active_mask(layout, resolved),
                        ref._active_mask(net, controls)):
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


@DRAWS
@given(name=st.sampled_from(["toy9", "pumpnet", "grid"]),
       field=st.sampled_from(FIELDS), data=st.data())
def test_wrong_kind_id_raises_as_in_the_per_link_walk(networks, name, field,
                                                      data):
    net = networks[name]
    own = group(net, field)
    wrong = sorted(set(net.link_ids()) - set(own)) \
        + sorted(net.junctions)[:2] + ["nope"]
    lid = data.draw(st.sampled_from(wrong))
    valid = data.draw(control_sets(net))
    value = 0.5 if field == "pump_speed" else False
    controls = replace(valid, **{field: {**getattr(valid, field), lid: value}})
    with pytest.raises(UnknownTargetError) as new:
        _link_settings(_layout(net).inc, controls)
    with pytest.raises(UnknownTargetError) as old:
        ref._active_mask(net, controls)
    assert str(new.value) == str(old.value)
