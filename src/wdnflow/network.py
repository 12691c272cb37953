"""Immutable data model of a water distribution network.

All quantities are strict SI: lengths and heads in m, flows in m3/s,
times in s. Roughness is the dimensionless Hazen-Williams C.

`incidence` compiles a network into the layout every layer shares, and
validates it, once per Network object; `_compiled` is how such a compile is
kept on its network, for the incidence and for the solver's layout alike.
`_walk` is the one breadth-first walk: `_traverse` (for `validate` and the
solver's topologies) and `_reverse_cuthill_mckee` (their numbering) use it.
`_real` is the one rule for a number: `validate` applies it through one
table of numeric fields, and `_finite` to every config number.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DanglingReferenceError, InvalidNetworkError

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
    """Multipliers, one per `SimOptions.pattern_step_s`, cycled at the end."""

    id: str
    multipliers: tuple[float, ...]


@dataclass(frozen=True)
class Curve:
    """Head curve: points (flow m3/s, head m), strictly increasing in flow."""

    id: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SimOptions:
    """The network's one time base, as EPANET's [TIMES]: whole seconds."""

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


def pattern_value(pattern: Pattern | None, t: float, step: float) -> float:
    """Multiplier at time t when each multiplier holds for `step` seconds;
    the pattern repeats cyclically. None means 1.0."""
    if pattern is None:
        return 1.0
    idx = int(t // step) % len(pattern.multipliers)
    return pattern.multipliers[idx]


def _node_height(network: Network, node_id: str) -> float:
    """A node's height: a reservoir's head, else its elevation."""
    if node_id in network.reservoirs:
        return network.reservoirs[node_id].head
    return network.node(node_id).elevation


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


def _finite(value, what: str, low: float = -math.inf,
            above: bool = False) -> float:
    """A config number: value as a float, held to `_real`'s rule; a
    ConfigError naming `what` and its bound otherwise."""
    if not _real(value, low, above):
        raise ConfigError(f"{what} must be a finite number" + (
            f" {'>' if above else '>='} {low:g}" if low > -math.inf else ""))
    return float(value)


def _positive_whole(value) -> bool:
    """The one rule for a duration in seconds: `_real`, positive and whole."""
    return _real(value, 0.0, above=True) and value == round(value)


def _nearest_second(value: float) -> int | None:
    """A span's nearest whole second, if it is finite and within 1e-9 s."""
    whole = math.isfinite(value) and abs(value - round(value)) <= 1e-9
    return round(value) if whole else None


_NODE_GROUPS = ("junctions", "reservoirs", "tanks")
_LINK_GROUPS = ("pipes", "pumps", "valves")

# Each numeric field per element group: (field, least value, whether the
# bound is strict, the violation it gives). Groups run in the order their
# violations are listed.
_FIELDS = {
    "junctions": (("elevation", -math.inf, False, "elevation not finite"),
                  ("base_demand", 0.0, False, "base_demand must be >= 0")),
    "reservoirs": (("head", -math.inf, False, "head not finite"),),
    "tanks": (("elevation", -math.inf, False, "elevation not finite"),
              ("diameter", 0.0, True, "diameter must be finite and > 0")),
    "pipes": tuple((name, 0.0, True, f"{name} must be finite and > 0")
                   for name in ("length", "diameter", "roughness")),
    "pumps": (("speed", 0.0, False, "speed must be finite and >= 0"),),
    "valves": (("diameter", 0.0, True, "diameter must be finite and > 0"),
               ("minor_loss_coef", 0.0, False,
                "minor_loss_coef must be finite and >= 0")),
    "patterns": (),
    "curves": (),
}

# Each reference: (group, field, target group, noun). A pattern reference
# may be None (multiplier 1); a curve reference may not.
_REFS = (("junctions", "demand_pattern_id", "patterns", "demand pattern"),
         ("reservoirs", "head_pattern_id", "patterns", "head pattern"),
         ("pumps", "curve_id", "curves", "curve"))


def _shape(group: str, elem):
    """The checks no table states: a tank's level order, a link's two ends,
    a pattern's multipliers and a curve's points."""
    if group in _LINK_GROUPS and elem.from_node == elem.to_node:
        yield f"from_node and to_node are the same node '{elem.to_node}'"
    elif group == "tanks":
        levels = (elem.min_level, elem.init_level, elem.max_level)
        if not (all(_real(x, 0.0) for x in levels)
                and elem.min_level <= elem.init_level <= elem.max_level):
            yield "levels must satisfy 0 <= min <= init <= max < inf"
    elif group == "patterns":
        if not elem.multipliers:
            yield "must have at least one multiplier"
        elif not all(_real(m, 0.0) for m in elem.multipliers):
            yield "multipliers must be finite and >= 0"
    elif group == "curves":
        flows = [q for q, _ in elem.points]
        heads = [h for _, h in elem.points]
        if not elem.points:
            yield "must have at least one point"
        elif not all(map(_real, flows + heads)):
            yield "points must be finite"
        else:
            if any(b <= a for a, b in zip(flows, flows[1:])):
                yield "flows must be strictly increasing"
            if any(b > a for a, b in zip(heads, heads[1:])):
                yield "heads must be non-increasing"


def validate(network: Network) -> list[Violation]:
    """Check every element invariant plus graph closure and source reachability.

    Violations are returned, never raised; an empty list means the network
    is well formed. Ids come first, then each group in `_FIELDS` order,
    each element's endpoints, references, fields and shape in turn, then
    reachability, then the options' times.
    """
    return _violations(network)[0]


def _violations(network: Network) -> tuple[list[Violation], list[Violation]]:
    """`validate`'s violations, and apart those naming a missing element."""
    out: list[Violation] = []
    dangling: list[Violation] = []
    add = out.append

    node_ids: set[str] = set()
    link_ids: set[str] = set()
    for role, seen, groups in (("node", node_ids, _NODE_GROUPS),
                               ("link", link_ids, _LINK_GROUPS)):
        for group in groups:
            for key, elem in getattr(network, group).items():
                if key != elem.id:
                    add(Violation(group[:-1], key,
                                  f"keyed as '{key}' but id is '{elem.id}'"))
                if elem.id in seen:
                    add(Violation(group[:-1], elem.id, f"duplicate {role} id"))
                seen.add(elem.id)

    for group, fields in _FIELDS.items():
        kind = group[:-1]
        ends = ("from_node", "to_node") if group in _LINK_GROUPS else ()
        refs = [(name, getattr(network, target), target == "patterns", noun)
                for g, name, target, noun in _REFS if g == group]
        for elem in getattr(network, group).values():
            for end in ends:
                ref = getattr(elem, end)
                if ref not in node_ids:
                    add(Violation(kind, elem.id, f"{end} '{ref}' does not exist"))
                    dangling.append(out[-1])
            for name, targets, optional, noun in refs:
                ref = getattr(elem, name)
                if ref not in targets and not (optional and ref is None):
                    add(Violation(kind, elem.id, f"{noun} '{ref}' not defined"))
                    dangling.append(out[-1])
            for name, low, above, message in fields:
                if not _real(getattr(elem, name), low, above):
                    add(Violation(kind, elem.id, message))
            for message in _shape(group, elem):
                add(Violation(kind, elem.id, message))

    sources = set(network.reservoirs) | set(network.tanks)
    if not sources:
        add(Violation("network", "", "no head source (reservoir or tank)"))
    elif not out:
        # reachability is only meaningful once the graph is closed
        index = {nid: i for i, nid in enumerate(network.node_ids())}
        levels, _ = _traverse(len(index), [
            (index[l.from_node], index[l.to_node]) for l in network.links()],
            [index[nid] for nid in sources])
        reached = {v for level in levels for v in level}
        for j in network.junctions.values():
            if j.base_demand > 0 and index[j.id] not in reached:
                add(Violation("junction", j.id, "demand node unreachable from any head source"))

    for name in SimOptions.__dataclass_fields__:
        if not _positive_whole(getattr(network.options, name)):
            add(Violation("options", name,
                          "must be a positive whole number of seconds"))
    return out, dangling


def _traverse(n: int, edges, sources: list[int]
              ) -> tuple[list[list[int]], list[list[int]]]:
    """The one graph traversal over nodes 0..n-1, each edge (a, b) walked
    both ways: the levels `_walk` takes from all the sources together, and
    the node lists of the islands they do not reach, each walked from its
    smallest node, in the order of those nodes."""
    adj = _adjacency(n, edges)
    seen: set[int] = set()
    levels = _walk(adj, sources, seen)
    islands = [[v for level in _walk(adj, [s], seen) for v in level]
               for s in range(n) if s not in seen]
    return levels, islands


def _walk(adj: list[list[int]], roots, seen: set[int]) -> list[list[int]]:
    """The one breadth-first walk: from the roots, over the nodes not in
    `seen` (which gains them). Level k holds the nodes k hops from the
    nearest root, first met first, each node's neighbours in `adj` order."""
    levels = [list(roots)]
    seen.update(roots)
    while levels[-1]:
        level: list[int] = []
        for u in levels[-1]:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    level.append(v)
        levels.append(level)
    return levels[:-1]


def _adjacency(n: int, edges) -> list[list[int]]:
    """Each node's neighbours over the edges (a, b), both ways, in order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _reverse_cuthill_mckee(n: int, edges) -> list[int]:
    """Nodes 0..n-1, coupled by the edges (a, b), in reverse Cuthill-McKee
    order (George & Liu 1981), which bands a matrix numbered in it. Each
    component, by its lowest-degree node, is walked breadth first, visiting
    neighbours by ascending degree (ties by node), from George & Liu's
    pseudo-peripheral node: start at the lowest-degree node, and move to
    the lowest-degree node of the walk's last level while that adds levels.
    Position k holds the node numbered k."""
    adj = _adjacency(n, edges)
    key = [(len(nbrs), v) for v, nbrs in enumerate(adj)].__getitem__
    adj = [sorted(nbrs, key=key) for nbrs in adj]
    order: list[int] = []
    done: set[int] = set()
    for start in sorted(range(n), key=key):
        if start not in done:
            walk = _walk(adj, [start], done)
            while len(far := _walk(adj, [min(walk[-1], key=key)],
                                   set())) > len(walk):
                walk = far
            order += [v for level in walk for v in level]
    return order[::-1]


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
    violations, dangling = _violations(network)
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
