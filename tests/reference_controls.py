"""The per-link control resolution that the compiled link settings replaced.

A frozen copy of `hydraulics._active_mask` as it was when it walked every
link in Python, reading each link's own setting from the network and its
override, if any, from the control set. Kept only as the oracle of the
differential tests in test_controls_reference.py. Nothing in wdnflow
imports it.
"""

from __future__ import annotations

import numpy as np

from wdnflow.errors import UnknownTargetError
from wdnflow.hydraulics import Controls
from wdnflow.network import Network, incidence


def _active_mask(net: Network,
                 controls: Controls) -> tuple[np.ndarray, np.ndarray]:
    """Per-link open mask and per-pump effective speed under the controls,
    before any tank closes; both read-only. An override must name a link of
    its map's kind."""
    inc = incidence(net)
    for overrides, group, kind in (
            (controls.pipe_open, net.pipes, "pipe"),
            (controls.pump_running, net.pumps, "pump"),
            (controls.pump_speed, net.pumps, "pump"),
            (controls.valve_open, net.valves, "valve")):
        for lid in overrides:
            if lid not in group:
                raise UnknownTargetError(f"no {kind} '{lid}'")
    active = np.ones(len(inc.link_ids), dtype=bool)
    speed = np.zeros(len(inc.link_ids))
    for j, (lid, k) in enumerate(zip(inc.link_ids, inc.link_kind.tolist())):
        if k == 0:
            active[j] = controls.pipe_open.get(lid, net.pipes[lid].open)
        elif k == 1:
            pump = net.pumps[lid]
            running = controls.pump_running.get(lid, pump.running)
            w = controls.pump_speed.get(lid, pump.speed)
            speed[j] = w if running else 0.0
            active[j] = running and w > 0.0
        else:
            active[j] = controls.valve_open.get(lid, net.valves[lid].open)
    active.flags.writeable = speed.flags.writeable = False
    return active, speed
