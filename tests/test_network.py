import math
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import wdnflow.network
from wdnflow.errors import DanglingReferenceError, InvalidNetworkError
from wdnflow.network import (
    Curve, Junction, Network, Pattern, Pipe, Pump, Reservoir, SimOptions,
    Tank, Valve, Violation, _traverse, expand_pump_curve, incidence,
    networks_close, pattern_value, validate,
)


def tiny_net(**overrides):
    parts = dict(
        junctions={"j1": Junction("j1", 10.0, 0.01)},
        reservoirs={"r1": Reservoir("r1", 50.0)},
        pipes={"p1": Pipe("p1", "r1", "j1", 100.0, 0.2, 100.0)},
    )
    parts.update(overrides)
    return Network(**parts)


def test_pattern_value_is_cyclic():
    pat = Pattern("p", (1.0, 2.0, 3.0))
    assert pattern_value(pat, 0.0, 3600) == 1.0
    assert pattern_value(pat, 3599.0, 3600) == 1.0
    assert pattern_value(pat, 3600.0, 3600) == 2.0
    assert pattern_value(pat, 3 * 3600.0, 3600) == 1.0          # wraps
    assert pattern_value(pat, 7 * 3600.0 + 1.0, 3600) == 2.0
    assert pattern_value(pat, 3600.0, 1800) == 3.0     # the step is given
    assert pattern_value(None, 12345.0, 3600) == 1.0


def test_a_pattern_has_no_step_of_its_own():
    """The network's options hold the one pattern step, as EPANET's
    [TIMES] does."""
    assert list(Pattern.__dataclass_fields__) == ["id", "multipliers"]
    with pytest.raises(TypeError):
        Pattern("p", (1.0,), 1800.0)


def test_tank_area():
    tank = Tank("t", elevation=5.0, diameter=11.283791670955126,
                init_level=2.0, min_level=0.0, max_level=4.0)
    assert tank.area == pytest.approx(100.0, rel=1e-12)


def test_expand_pump_curve_single_point():
    out = expand_pump_curve(Curve("c", ((0.02, 40.0),)))
    assert out.points == ((0.0, pytest.approx(53.2)), (0.02, 40.0), (0.04, 0.0))


def test_expand_pump_curve_three_points_passthrough():
    curve = Curve("c", ((0.0, 50.0), (0.02, 40.0), (0.04, 10.0)))
    assert expand_pump_curve(curve) is curve


def test_validate_clean_network():
    assert validate(tiny_net()) == []


def test_validate_dangling_endpoint():
    net = tiny_net(pipes={"p1": Pipe("p1", "r1", "ghost", 100.0, 0.2, 100.0)})
    msgs = [v.message for v in validate(net)]
    assert any("ghost" in m for m in msgs)


def test_validate_duplicate_id_across_groups():
    net = tiny_net(reservoirs={"j1": Reservoir("j1", 50.0)},
                   pipes={"p1": Pipe("p1", "j1", "j1", 100.0, 0.2, 100.0)})
    msgs = [v.message for v in validate(net)]
    assert any("duplicate" in m for m in msgs)


def test_validate_negative_demand_and_lengths():
    net = tiny_net(junctions={"j1": Junction("j1", 10.0, -0.01)})
    assert any("demand" in v.message for v in validate(net))
    net = tiny_net(pipes={"p1": Pipe("p1", "r1", "j1", -5.0, 0.2, 100.0)})
    assert any("length" in v.message for v in validate(net))


def test_validate_tank_levels():
    bad = Tank("t", 0.0, 10.0, init_level=5.0, min_level=1.0, max_level=4.0)
    net = tiny_net(tanks={"t": bad},
                   pipes={"p1": Pipe("p1", "r1", "t", 100.0, 0.2, 100.0)})
    assert any("level" in v.message for v in validate(net))


def test_validate_no_source():
    net = Network(junctions={"j1": Junction("j1", 0.0, 0.0),
                             "j2": Junction("j2", 0.0, 0.0)},
                  pipes={"p1": Pipe("p1", "j1", "j2", 10.0, 0.1, 100.0)})
    assert any("source" in v.message for v in validate(net))


def test_validate_unreachable_demand():
    net = Network(
        junctions={"j1": Junction("j1", 0.0, 0.01),
                   "far": Junction("far", 0.0, 0.02),
                   "far2": Junction("far2", 0.0, 0.0)},
        reservoirs={"r1": Reservoir("r1", 50.0)},
        pipes={"p1": Pipe("p1", "r1", "j1", 10.0, 0.1, 100.0),
               "p2": Pipe("p2", "far", "far2", 10.0, 0.1, 100.0)})
    hits = [v for v in validate(net) if "unreachable" in v.message]
    assert [v.element_id for v in hits] == ["far"]


def test_validate_link_from_a_node_to_itself():
    """As EPANET's input error 222: one violation per such pipe, pump or
    valve."""
    net = every_kind_net()
    net = replace(
        net, pipes={**net.pipes, "p3": Pipe("p3", "j1", "j1", 10.0, 0.1,
                                            100.0)},
        pumps={"pu": replace(net.pumps["pu"], to_node="r1")},
        valves={"v1": replace(net.valves["v1"], from_node="t1")})
    same = "from_node and to_node are the same node"
    assert [str(v) for v in validate(net)] == [
        f"pipe 'p3': {same} 'j1'", f"pump 'pu': {same} 'r1'",
        f"valve 'v1': {same} 't1'"]
    with pytest.raises(InvalidNetworkError, match="'p3'"):
        incidence(net)


def test_validate_pump_curve_shape():
    curve = Curve("c", ((0.0, 10.0), (0.02, 20.0), (0.04, 5.0)))  # rising head
    net = tiny_net(pumps={"pu": Pump("pu", "r1", "j1", "c")},
                   curves={"c": curve})
    assert any("non-increasing" in v.message for v in validate(net))


def every_kind_net():
    """A valid network with one element of each kind."""
    return tiny_net(
        junctions={"j1": Junction("j1", 10.0, 0.01, "pat")},
        tanks={"t1": Tank("t1", 5.0, 10.0, 2.0, 0.5, 4.0)},
        pipes={"p1": Pipe("p1", "r1", "j1", 100.0, 0.2, 100.0),
               "p2": Pipe("p2", "j1", "t1", 50.0, 0.15, 110.0)},
        pumps={"pu": Pump("pu", "r1", "j1", "c")},
        valves={"v1": Valve("v1", "j1", "t1", 0.2, 1.5)},
        patterns={"pat": Pattern("pat", (1.0, 0.5))},
        curves={"c": Curve("c", ((0.02, 40.0),))})


LEVELS = "levels must satisfy 0 <= min <= init <= max < inf"
# each numeric field: its group, element, field, the violation it gives and
# how a bad value sits in the field
NUMERIC_FIELDS = [
    ("junctions", "j1", "elevation", "elevation not finite", None),
    ("junctions", "j1", "base_demand", "base_demand must be >= 0", None),
    ("reservoirs", "r1", "head", "head not finite", None),
    ("tanks", "t1", "elevation", "elevation not finite", None),
    ("tanks", "t1", "diameter", "diameter must be finite and > 0", None),
    ("tanks", "t1", "init_level", LEVELS, None),
    ("tanks", "t1", "min_level", LEVELS, None),
    ("tanks", "t1", "max_level", LEVELS, None),
    ("pipes", "p1", "length", "length must be finite and > 0", None),
    ("pipes", "p1", "diameter", "diameter must be finite and > 0", None),
    ("pipes", "p1", "roughness", "roughness must be finite and > 0", None),
    ("pumps", "pu", "speed", "speed must be finite and >= 0", None),
    ("valves", "v1", "diameter", "diameter must be finite and > 0", None),
    ("valves", "v1", "minor_loss_coef",
     "minor_loss_coef must be finite and >= 0", None),
    ("patterns", "pat", "multipliers", "multipliers must be finite and >= 0",
     lambda bad: (1.0, bad)),
    ("curves", "c", "points", "points must be finite",
     lambda bad: ((bad, 40.0),)),
    ("curves", "c", "points", "points must be finite",
     lambda bad: ((0.02, bad),)),
]


@pytest.mark.parametrize("bad", ["1", None, True, math.nan],
                         ids=["str", "None", "bool", "nan"])
@pytest.mark.parametrize("group, eid, name, message, place", NUMERIC_FIELDS)
def test_every_numeric_field_is_a_real_finite_number(group, eid, name,
                                                     message, place, bad):
    net = every_kind_net()
    assert validate(net) == []
    elems = getattr(net, group)
    value = place(bad) if place else bad
    net = replace(net, **{group: {**elems,
                                  eid: replace(elems[eid], **{name: value})}})
    kind = group[:-1]
    assert Violation(kind, eid, message) in validate(net)
    with pytest.raises(InvalidNetworkError):
        incidence(net)


def test_validate_lists_violations_in_group_order():
    """One bad value in every group: ids and keys come first, then junctions,
    reservoirs, tanks, pipes, pumps, valves, patterns, curves and options,
    as `wdnflow inspect` and InvalidNetworkError print them."""
    net = every_kind_net()

    def bad(group, eid, **fields):
        return {**getattr(net, group), eid: replace(getattr(net, group)[eid],
                                                    **fields)}
    net = replace(
        net,
        junctions=bad("junctions", "j1", elevation=math.nan),
        reservoirs=bad("reservoirs", "r1", head=math.inf),
        tanks=bad("tanks", "t1", max_level=-1.0),
        pipes={**bad("pipes", "p1", roughness=0.0),
               "p3": Pipe("p2", "j1", "ghost", 10.0, 0.1, 100.0)},
        pumps=bad("pumps", "pu", curve_id="nope"),
        valves=bad("valves", "v1", minor_loss_coef=-1.0),
        patterns=bad("patterns", "pat", multipliers=()),
        curves=bad("curves", "c", points=((0.04, 40.0), (0.02, 30.0))),
        options=replace(net.options, pattern_step_s=0))
    assert [str(v) for v in validate(net)] == [
        "pipe 'p3': keyed as 'p3' but id is 'p2'",
        "pipe 'p2': duplicate link id",
        "junction 'j1': elevation not finite",
        "reservoir 'r1': head not finite",
        "tank 't1': levels must satisfy 0 <= min <= init <= max < inf",
        "pipe 'p1': roughness must be finite and > 0",
        "pipe 'p2': to_node 'ghost' does not exist",
        "pump 'pu': curve 'nope' not defined",
        "valve 'v1': minor_loss_coef must be finite and >= 0",
        "pattern 'pat': must have at least one multiplier",
        "curve 'c': flows must be strictly increasing",
        "options 'pattern_step_s': must be a positive whole number of seconds",
    ]


TIME_OPTIONS = ("duration_s", "hydraulic_step_s", "quality_step_s",
                "pattern_step_s")


@pytest.mark.parametrize("bad", ["1", None, True, math.nan, math.inf, 0,
                                 -300, 0.5, 1800.5],
                         ids=["str", "None", "bool", "nan", "inf", "zero",
                              "negative", "half", "fraction"])
@pytest.mark.parametrize("name", TIME_OPTIONS)
def test_every_time_option_is_a_positive_whole_number(name, bad):
    """validate holds the network's [TIMES] as the solver and the writer
    read them: one options violation per bad time, which incidence
    refuses like any other."""
    net = every_kind_net()
    net = replace(net, options=replace(net.options, **{name: bad}))
    assert validate(net) == [Violation(
        "options", name, "must be a positive whole number of seconds")]
    with pytest.raises(InvalidNetworkError, match=f"options '{name}'"):
        incidence(net)


def test_whole_float_times_are_valid():
    net = every_kind_net()
    assert validate(replace(net, options=SimOptions(
        86400.0, 300.0, 60.0, 1800.0))) == []


def test_incidence_layout():
    net = tiny_net(tanks={"t1": Tank("t1", 5.0, 10.0, 2.0, 0.5, 4.0)},
                   pipes={"p1": Pipe("p1", "r1", "j1", 100.0, 0.2, 100.0),
                          "p2": Pipe("p2", "j1", "t1", 50.0, 0.15, 110.0)})
    inc = incidence(net)
    assert inc.node_ids == ("j1", "r1", "t1")      # junctions, reservoirs, tanks
    assert inc.link_ids == ("p1", "p2")
    assert (inc.junction_ids, inc.reservoir_ids, inc.tank_ids) == (
        ("j1",), ("r1",), ("t1",))
    assert list(inc.link_kind) == [0, 0]                # both pipes
    f, t = inc.link_from[0], inc.link_to[0]
    assert (inc.node_ids[f], inc.node_ids[t]) == ("r1", "j1")
    # positive flow leaves a link's from node and enters its to node, so j1
    # receives p1 and feeds p2
    j1 = inc.node_index["j1"]
    assert list(inc.link_to == j1) == [True, False]
    assert list(inc.link_from == j1) == [False, True]
    assert not inc.link_from.flags.writeable


def test_incidence_raises_on_dangling():
    net = tiny_net(pipes={"p1": Pipe("p1", "r1", "nope", 1.0, 0.1, 100.0)})
    with pytest.raises(DanglingReferenceError):
        incidence(net)


@pytest.mark.parametrize("key", ["j1 does not exist", "j1 not defined"])
def test_a_key_reading_like_a_dangling_reference_is_not_one(key):
    # a violation is dangling where it is found, not by its message's text
    net = tiny_net(junctions={key: Junction("j1", 10.0, 0.01)})
    with pytest.raises(InvalidNetworkError, match="keyed as"):
        incidence(net)
    # a missing endpoint next to it still dangles
    dangling = replace(net, pipes={"p1": Pipe("p1", "r1", "nope", 1.0, 0.1,
                                              100.0)})
    with pytest.raises(DanglingReferenceError, match="to_node 'nope'"):
        incidence(dangling)


def test_incidence_compiled_once_per_network(monkeypatch):
    validated = []
    violations_ = wdnflow.network._violations
    monkeypatch.setattr(wdnflow.network, "_violations",
                        lambda net: validated.append(net) or violations_(net))
    net = tiny_net()
    assert incidence(net) is incidence(net)
    assert validated == [net]
    # dataclasses.replace makes a new network, compiled afresh
    p1 = net.pipes["p1"]
    longer = replace(net, pipes={"p1": replace(p1, length=200.0)})
    assert incidence(longer) is not incidence(net)
    assert len(validated) == 2
    # a failed compile is not kept: the invalid network raises every time
    for bad, error in ((replace(p1, to_node="nope"), DanglingReferenceError),
                       (replace(p1, length=-1.0), InvalidNetworkError)):
        broken = replace(net, pipes={"p1": bad})
        for _ in range(2):
            with pytest.raises(error):
                incidence(broken)


def test_networks_close():
    a = tiny_net()
    b = tiny_net(pipes={"p1": Pipe("p1", "r1", "j1", 100.0 * (1 + 1e-12),
                                   0.2, 100.0)})
    c = tiny_net(pipes={"p1": Pipe("p1", "r1", "j1", 101.0, 0.2, 100.0)})
    assert networks_close(a, b)
    assert not networks_close(a, c)
    assert not networks_close(a, tiny_net(junctions={
        "j1": Junction("j1", 10.0, 0.01), "j2": Junction("j2", 0.0, 0.0)}))
    assert not networks_close(a, replace(a, title="x"))


def test_total_base_demand(toy9):
    assert toy9.total_base_demand() == pytest.approx(0.000175, rel=1e-9)


def test_node_and_link_orders(toy9):
    assert toy9.node_ids()[:3] == ["n1", "n2", "n3"]
    assert toy9.node_ids()[-1] == "r1"
    assert toy9.link_ids() == ["p1", "p10", "p2", "p3", "p4", "p5", "p6",
                               "p7", "p8", "p9"]


# --- the one graph traversal, against networkx --------------------------------

ORACLE = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)


@st.composite
def graphs(draw):
    """Up to 16 nodes, random edges (self-loops and repeats included) and up
    to three sources."""
    n = draw(st.integers(1, 16))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    sources = sorted(draw(st.sets(node, max_size=3)))
    return n, edges, sources


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@ORACLE
@given(graphs())
def test_traverse_matches_networkx(graph):
    n, edges, sources = graph
    root, hops = _traverse(n, edges, sources)
    g = nx_graph(n, edges)
    reached = {v for s in sources for v in nx.node_connected_component(g, s)}
    assert {v for v in range(n) if root[v] in sources} == reached
    dist = nx.multi_source_dijkstra_path_length(g, sources) if sources else {}
    for v in reached:
        assert hops[v] == dist[v]
        assert root[v] in sources
        assert nx.shortest_path_length(g, root[v], v) == hops[v]
    for island in nx.connected_components(g):
        if not island & reached:
            assert {root[v] for v in island} == {min(island)}


@ORACLE
@given(graphs(), st.data())
def test_validate_unreachable_matches_networkx(graph, data):
    n, edges, sources = graph
    sources = sources or [0]
    tanks = set(data.draw(st.sets(st.sampled_from(sources))))
    demand = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    name = [f"n{i:02d}" for i in range(n)]
    net = Network(
        junctions={name[i]: Junction(name[i], 0.0, 0.01 if demand[i] else 0.0)
                   for i in range(n) if i not in sources},
        reservoirs={name[i]: Reservoir(name[i], 50.0)
                    for i in sources if i not in tanks},
        tanks={name[i]: Tank(name[i], 10.0, 5.0, 1.0, 0.0, 2.0)
               for i in tanks},
        # a self-loop is a violation of its own and changes no connectivity
        pipes={f"p{j}": Pipe(f"p{j}", name[a], name[b], 100.0, 0.2, 100.0)
               for j, (a, b) in enumerate(edges) if a != b})
    g = nx_graph(n, edges)
    reached = {v for s in sources for v in nx.node_connected_component(g, s)}
    cut = {name[i] for i in range(n)
           if i not in sources and demand[i] and i not in reached}
    violations = validate(net)
    assert all("unreachable" in v.message for v in violations)
    assert {v.element_id for v in violations} == cut
