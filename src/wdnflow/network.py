"""Immutable data model of a water distribution network.

All quantities are strict SI: lengths and heads in m, flows in m3/s,
times in s. Roughness is the dimensionless Hazen-Williams C.

`incidence` compiles a network into the layout every layer shares, and
validates it, once per Network object; `_compiled` is how such a compile is
kept on its network, for the incidence and for the solver's layout alike.
`_traverse` is the one graph traversal: `validate` and the solver's
topologies both walk the graph by it.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DanglingReferenceError, InvalidNetworkError

__all__ = [
    "Junction", "Reservoir", "Tank", "Pipe", "Pump", "Valve",
    "Pattern", "Curve", "SimOptions", "Network", "Violation",
    "Incidence", "validate", "incidence", "pattern_value",
    "expand_pump_curve", "networks_close",
]


@dataclass(frozen=True)
class Junction:
    id: str
    elevation: float
    base_demand: float = 0.0
    demand_pattern_id: str | None = None


@dataclass(frozen=True)
class Reservoir:
    id: str
    head: float
    head_pattern_id: str | None = None


@dataclass(frozen=True)
class Tank:
    id: str
    elevation: float
    diameter: float
    init_level: float
    min_level: float
    max_level: float

    @property
    def area(self) -> float:
        return math.pi * (self.diameter / 2.0) ** 2


@dataclass(frozen=True)
class Pipe:
    id: str
    from_node: str
    to_node: str
    length: float
    diameter: float
    roughness: float
    open: bool = True


@dataclass(frozen=True)
class Pump:
    id: str
    from_node: str
    to_node: str
    curve_id: str
    speed: float = 1.0
    running: bool = True


@dataclass(frozen=True)
class Valve:
    id: str
    from_node: str
    to_node: str
    diameter: float
    minor_loss_coef: float = 0.0
    open: bool = True


@dataclass(frozen=True)
class Pattern:
    """Periodic multiplier series; repeats cyclically past its end."""

    id: str
    multipliers: tuple[float, ...]
    step: float = 3600.0


@dataclass(frozen=True)
class Curve:
    """Head curve: points (flow m3/s, head m), strictly increasing in flow."""

    id: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SimOptions:
    duration_s: int = 86400
    hydraulic_step_s: int = 300
    quality_step_s: int = 60
    pattern_step_s: int = 3600


@dataclass(frozen=True)
class Network:
    """Whole-network container. Modify via dataclasses.replace (copy-on-modify)."""

    junctions: dict[str, Junction] = field(default_factory=dict)
    reservoirs: dict[str, Reservoir] = field(default_factory=dict)
    tanks: dict[str, Tank] = field(default_factory=dict)
    pipes: dict[str, Pipe] = field(default_factory=dict)
    pumps: dict[str, Pump] = field(default_factory=dict)
    valves: dict[str, Valve] = field(default_factory=dict)
    patterns: dict[str, Pattern] = field(default_factory=dict)
    curves: dict[str, Curve] = field(default_factory=dict)
    options: SimOptions = field(default_factory=SimOptions)
    title: str = ""

    def node_ids(self) -> list[str]:
        """Canonical node order: junctions, reservoirs, tanks, each sorted."""
        return (sorted(self.junctions) + sorted(self.reservoirs) + sorted(self.tanks))

    def link_ids(self) -> list[str]:
        """Canonical link order: pipes, pumps, valves, each sorted."""
        return sorted(self.pipes) + sorted(self.pumps) + sorted(self.valves)

    def node(self, node_id: str):
        for group in (self.junctions, self.reservoirs, self.tanks):
            if node_id in group:
                return group[node_id]
        raise KeyError(node_id)

    def link(self, link_id: str):
        for group in (self.pipes, self.pumps, self.valves):
            if link_id in group:
                return group[link_id]
        raise KeyError(link_id)

    def links(self):
        for lid in self.link_ids():
            yield self.link(lid)

    def total_base_demand(self) -> float:
        return sum(j.base_demand for j in self.junctions.values())


@dataclass(frozen=True)
class Violation:
    element_kind: str
    element_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.element_kind} '{self.element_id}': {self.message}"


def pattern_value(pattern: Pattern | None, t: float) -> float:
    """Multiplier at time t; the pattern repeats cyclically. None means 1.0."""
    if pattern is None:
        return 1.0
    idx = int(t // pattern.step) % len(pattern.multipliers)
    return pattern.multipliers[idx]


def expand_pump_curve(curve: Curve) -> Curve:
    """Expand a single-point curve (Q0, H0) to the standard three-point form.

    Shutoff head 1.33*H0 at zero flow, maximum flow 2*Q0 at zero head.
    Curves with three or more points pass through unchanged.
    """
    if len(curve.points) != 1:
        return curve
    q0, h0 = curve.points[0]
    return Curve(curve.id, ((0.0, 1.33 * h0), (q0, h0), (2.0 * q0, 0.0)))


def _real(value, low: float = -math.inf, above: bool = False) -> bool:
    """The one rule for a numeric field: a real number, not a bool, finite,
    and at least `low` (above it, where `above` is set)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value) and (value > low if above else value >= low)


def _positive_whole(value) -> bool:
    """The one rule for a duration in seconds: `_real`, positive and whole."""
    return _real(value, 0.0, above=True) and value == round(value)


def validate(network: Network) -> list[Violation]:
    """Check every element invariant plus graph closure and source reachability.

    Violations are returned, never raised; an empty list means the network
    is well formed.
    """
    out: list[Violation] = []
    add = out.append

    node_ids: set[str] = set()
    for kind, group in (("junction", network.junctions),
                        ("reservoir", network.reservoirs),
                        ("tank", network.tanks)):
        for nid, elem in group.items():
            if nid != elem.id:
                add(Violation(kind, nid, f"keyed as '{nid}' but id is '{elem.id}'"))
            if elem.id in node_ids:
                add(Violation(kind, elem.id, "duplicate node id"))
            node_ids.add(elem.id)

    link_ids: set[str] = set()
    for kind, group in (("pipe", network.pipes),
                        ("pump", network.pumps),
                        ("valve", network.valves)):
        for lid, elem in group.items():
            if lid != elem.id:
                add(Violation(kind, lid, f"keyed as '{lid}' but id is '{elem.id}'"))
            if elem.id in link_ids:
                add(Violation(kind, elem.id, "duplicate link id"))
            link_ids.add(elem.id)

    for j in network.junctions.values():
        if not _real(j.elevation):
            add(Violation("junction", j.id, "elevation not finite"))
        if not _real(j.base_demand, 0.0):
            add(Violation("junction", j.id, "base_demand must be >= 0"))
        if j.demand_pattern_id is not None and j.demand_pattern_id not in network.patterns:
            add(Violation("junction", j.id,
                          f"demand pattern '{j.demand_pattern_id}' not defined"))

    for r in network.reservoirs.values():
        if not _real(r.head):
            add(Violation("reservoir", r.id, "head not finite"))
        if r.head_pattern_id is not None and r.head_pattern_id not in network.patterns:
            add(Violation("reservoir", r.id,
                          f"head pattern '{r.head_pattern_id}' not defined"))

    for tk in network.tanks.values():
        if not _real(tk.elevation):
            add(Violation("tank", tk.id, "elevation not finite"))
        if not _real(tk.diameter, 0.0, above=True):
            add(Violation("tank", tk.id, "diameter must be finite and > 0"))
        levels = (tk.min_level, tk.init_level, tk.max_level)
        if not (all(_real(x, 0.0) for x in levels)
                and tk.min_level <= tk.init_level <= tk.max_level):
            add(Violation("tank", tk.id,
                          "levels must satisfy 0 <= min <= init <= max < inf"))

    def check_endpoints(kind, elem):
        for attr in ("from_node", "to_node"):
            ref = getattr(elem, attr)
            if ref not in node_ids:
                add(Violation(kind, elem.id, f"{attr} '{ref}' does not exist"))

    for p in network.pipes.values():
        check_endpoints("pipe", p)
        for name in ("length", "diameter", "roughness"):
            if not _real(getattr(p, name), 0.0, above=True):
                add(Violation("pipe", p.id, f"{name} must be finite and > 0"))

    for pu in network.pumps.values():
        check_endpoints("pump", pu)
        if pu.curve_id not in network.curves:
            add(Violation("pump", pu.id, f"curve '{pu.curve_id}' not defined"))
        if not _real(pu.speed, 0.0):
            add(Violation("pump", pu.id, "speed must be finite and >= 0"))

    for v in network.valves.values():
        check_endpoints("valve", v)
        if not _real(v.diameter, 0.0, above=True):
            add(Violation("valve", v.id, "diameter must be finite and > 0"))
        if not _real(v.minor_loss_coef, 0.0):
            add(Violation("valve", v.id,
                          "minor_loss_coef must be finite and >= 0"))

    for pat in network.patterns.values():
        if not pat.multipliers:
            add(Violation("pattern", pat.id, "must have at least one multiplier"))
        elif not all(_real(m, 0.0) for m in pat.multipliers):
            add(Violation("pattern", pat.id,
                          "multipliers must be finite and >= 0"))
        if not _real(pat.step, 0.0, above=True):
            add(Violation("pattern", pat.id, "step must be finite and > 0"))

    for c in network.curves.values():
        if not c.points:
            add(Violation("curve", c.id, "must have at least one point"))
            continue
        flows = [q for q, _ in c.points]
        heads = [h for _, h in c.points]
        if not all(map(_real, flows + heads)):
            add(Violation("curve", c.id, "points must be finite"))
            continue
        if any(b <= a for a, b in zip(flows, flows[1:])):
            add(Violation("curve", c.id, "flows must be strictly increasing"))
        if any(b > a for a, b in zip(heads, heads[1:])):
            add(Violation("curve", c.id, "heads must be non-increasing"))

    sources = set(network.reservoirs) | set(network.tanks)
    if not sources:
        add(Violation("network", "", "no head source (reservoir or tank)"))
    elif not out:
        # reachability is only meaningful once the graph is closed
        index = {nid: i for i, nid in enumerate(network.node_ids())}
        src = sorted(index[nid] for nid in sources)
        root, _ = _traverse(len(index), [(index[l.from_node], index[l.to_node])
                                         for l in network.links()], src)
        for j in network.junctions.values():
            if j.base_demand > 0 and root[index[j.id]] not in src:
                add(Violation("junction", j.id, "demand node unreachable from any head source"))

    return out


def _traverse(n: int, edges, sources: list[int]) -> tuple[list[int], list[int]]:
    """The one graph traversal: breadth first over nodes 0..n-1, each edge
    (a, b) walked both ways. All sources start together, so every node they
    reach gets its nearest source as root and its hop count from it; then
    each node still unseen starts an island of its own, rooted at its
    smallest node. Returns (root, hops) per node."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = [-1] * n
    hops = [0] * n
    for seed in [sources] + [[v] for v in range(n)]:
        queue = deque(s for s in seed if root[s] < 0)
        for s in queue:
            root[s] = s
        while queue:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if root[v] < 0:
                    root[v], hops[v] = root[u], hops[u] + 1
                    queue.append(v)
    return root, hops


@dataclass(frozen=True, eq=False)
class Incidence:
    """The compiled layout of one network, shared by every layer.

    Nodes run junctions, reservoirs, tanks and links run pipes, pumps,
    valves, each group sorted by id. Link j runs from node link_from[j] to
    node link_to[j]; positive flow leaves the from node and enters the to
    node. link_kind[j] is 0 for a pipe, 1 for a pump and 2 for a valve. The
    arrays are read-only.
    """

    node_ids: tuple[str, ...]
    link_ids: tuple[str, ...]
    junction_ids: tuple[str, ...]
    reservoir_ids: tuple[str, ...]
    tank_ids: tuple[str, ...]
    node_index: dict[str, int]
    link_index: dict[str, int]
    link_from: np.ndarray
    link_to: np.ndarray
    link_kind: np.ndarray


def _compiled(network: Network, name: str, build):
    """build(network), kept on the network under `name`: built on first use
    and shared by every later caller. Networks are copy-on-modify, so what is
    kept cannot go stale, and dataclasses.replace gives a network that
    compiles afresh. A build that raises keeps nothing."""
    compiled = network.__dict__.get(name)
    if compiled is None:
        compiled = build(network)
        object.__setattr__(network, name, compiled)
    return compiled


def incidence(network: Network) -> Incidence:
    """The network's compiled layout, built and validated once per Network
    object and kept on it. Raises DanglingReferenceError when a violation
    names a missing element, InvalidNetworkError for any other."""
    return _compiled(network, "_incidence", _compile_incidence)


def _compile_incidence(network: Network) -> Incidence:
    violations = validate(network)
    dangling = [v for v in violations
                if "does not exist" in v.message or "not defined" in v.message]
    if dangling:
        raise DanglingReferenceError("; ".join(str(v) for v in dangling))
    if violations:
        raise InvalidNetworkError(violations)
    junction_ids = tuple(sorted(network.junctions))
    reservoir_ids = tuple(sorted(network.reservoirs))
    tank_ids = tuple(sorted(network.tanks))
    node_ids = junction_ids + reservoir_ids + tank_ids
    node_index = {nid: i for i, nid in enumerate(node_ids)}

    link_ids: list[str] = []
    ends: list[tuple[int, int, int]] = []
    groups = (network.pipes, network.pumps, network.valves)
    for kind, group in enumerate(groups):
        for lid in sorted(group):
            elem = group[lid]
            link_ids.append(lid)
            ends.append((node_index[elem.from_node], node_index[elem.to_node],
                         kind))
    link_from, link_to, link_kind = np.array(
        ends, dtype=np.intp).reshape(-1, 3).T.copy()
    for arr in (link_from, link_to, link_kind):
        arr.flags.writeable = False

    return Incidence(
        node_ids=node_ids,
        link_ids=tuple(link_ids),
        junction_ids=junction_ids,
        reservoir_ids=reservoir_ids,
        tank_ids=tank_ids,
        node_index=node_index,
        link_index={lid: j for j, lid in enumerate(link_ids)},
        link_from=link_from,
        link_to=link_to,
        link_kind=link_kind,
    )


def _close(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-30)


def networks_close(a: Network, b: Network, rtol: float = 1e-9) -> bool:
    """Equal titles, options and elements, each float field within rtol."""
    for attr in ("junctions", "reservoirs", "tanks", "pipes", "pumps",
                 "valves", "patterns", "curves"):
        ga, gb = getattr(a, attr), getattr(b, attr)
        if set(ga) != set(gb):
            return False
        for key, ea in ga.items():
            eb = gb[key]
            if type(ea) is not type(eb):
                return False
            for fname in ea.__dataclass_fields__:
                va, vb = getattr(ea, fname), getattr(eb, fname)
                if isinstance(va, float) and isinstance(vb, float):
                    if not _close(va, vb, rtol):
                        return False
                elif isinstance(va, tuple) and va and isinstance(va[0], tuple):
                    if len(va) != len(vb):
                        return False
                    for pa, pb in zip(va, vb):
                        if not all(_close(x, y, rtol) for x, y in zip(pa, pb)):
                            return False
                elif isinstance(va, tuple):
                    if len(va) != len(vb):
                        return False
                    if not all(_close(float(x), float(y), rtol) for x, y in zip(va, vb)):
                        return False
                elif va != vb:
                    return False
    return a.title == b.title and a.options == b.options
