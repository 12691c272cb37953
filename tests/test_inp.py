import hashlib
import string
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import wdnflow.inp
from wdnflow import bundled
from wdnflow.errors import (
    DanglingReferenceError, InpError, InvalidNetworkError,
    MalformedSectionError, UnsupportedOptionError, UnsupportedUnitsError,
    WdnflowError,
)
from wdnflow.inp import (
    parse_inp, parse_inp_report, save_network, tokenize_inp, write_inp,
)
from wdnflow.network import (
    Curve, Junction, Network, Pattern, Pipe, Pump, Reservoir, SimOptions,
    Tank, Valve, networks_close,
)

MINIMAL = """
[JUNCTIONS]
 j1  10.0  0.02
[RESERVOIRS]
 r1  50.0
[PIPES]
 p1  r1  j1  100  200  120
[OPTIONS]
 Units  LPS
[END]
"""


def test_tokenize_comments_and_sections():
    doc = tokenize_inp("; top comment\n[JUNCTIONS]\n j1 1.0 0.0 ; inline\n")
    rows = doc.sections["[JUNCTIONS]"]
    assert rows[0].tokens == ["j1", "1.0", "0.0"]
    assert rows[0].comment == "inline"
    assert rows[0].line_no == 3


def test_tokenize_stops_at_end_marker():
    doc = tokenize_inp("[JUNCTIONS]\n j1 1.0\n[END]\n j2 2.0\n")
    assert len(doc.sections["[JUNCTIONS]"]) == 1


def test_unknown_section_warns_and_skips():
    doc = tokenize_inp("[COORDINATES]\n j1 0 0\n[JUNCTIONS]\n j1 1.0\n")
    assert any("COORDINATES" in w for w in doc.warnings)
    assert "[COORDINATES]" not in doc.sections
    assert len(doc.sections["[JUNCTIONS]"]) == 1


def test_data_before_header_names_line():
    with pytest.raises(MalformedSectionError) as e:
        tokenize_inp("\n\n j1 1.0\n")
    assert e.value.line_no == 3
    assert str(e.value).startswith("line 3:")


def test_lps_units_scale_demand():
    net = parse_inp(MINIMAL)
    assert net.junctions["j1"].base_demand == pytest.approx(2e-5)
    assert net.pipes["p1"].diameter == pytest.approx(0.2)


def test_cms_is_default_units():
    text = MINIMAL.replace(" Units  LPS\n", "")
    net = parse_inp(text)
    assert net.junctions["j1"].base_demand == pytest.approx(0.02)


def test_unsupported_units_rejected():
    with pytest.raises(UnsupportedUnitsError):
        parse_inp(MINIMAL.replace("LPS", "GPM"))


def test_unsupported_headloss_rejected():
    text = MINIMAL.replace("[OPTIONS]\n Units  LPS",
                           "[OPTIONS]\n Units  LPS\n Headloss  D-W")
    with pytest.raises(UnsupportedOptionError):
        parse_inp(text)


def test_pressure_driven_demand_rejected():
    text = MINIMAL.replace("[OPTIONS]\n Units  LPS",
                           "[OPTIONS]\n Units  LPS\n Demand Model PDA")
    with pytest.raises(UnsupportedOptionError):
        parse_inp(text)


def test_other_demand_options_are_ignored_with_a_warning():
    text = MINIMAL.replace("[OPTIONS]\n Units  LPS",
                           "[OPTIONS]\n Units  LPS\n Demand Multiplier 1.5")
    warnings: list[str] = []
    net = parse_inp(text, warnings=warnings)
    assert net.junctions["j1"].base_demand == pytest.approx(0.02e-3)
    assert warnings == ["line 10: option 'Demand Multiplier 1.5' ignored"]


def test_times_require_explicit_units():
    text = MINIMAL.replace("[OPTIONS]", "[TIMES]\n Duration 24\n[OPTIONS]")
    with pytest.raises(MalformedSectionError) as e:
        parse_inp(text)
    assert "unit" in str(e.value)


def test_times_clock_and_unit_forms():
    text = MINIMAL.replace(
        "[OPTIONS]",
        "[TIMES]\n Duration 1:30\n Hydraulic Timestep 300 SEC\n"
        " Pattern Timestep 2 HOURS\n[OPTIONS]")
    net = parse_inp(text)
    assert net.options.duration_s == 5400
    assert net.options.hydraulic_step_s == 300
    assert net.options.pattern_step_s == 7200


ZERO_TIME = "positive whole number of seconds"


@pytest.mark.parametrize("row, message", [
    ("Duration 0:00", ZERO_TIME), ("Hydraulic Timestep 0:00", ZERO_TIME),
    ("Quality Timestep 0:00:00", ZERO_TIME),
    ("Pattern Timestep 00:00", ZERO_TIME),
    ("Duration inf SEC", ZERO_TIME), ("Duration nan HOURS", ZERO_TIME),
    ("Duration 1:75", "bad clock time '1:75'"),
    ("Duration 1:2:3:4", "bad clock time '1:2:3:4'"),
])
def test_bad_clock_time_names_its_line(row, message):
    text = MINIMAL.replace("[OPTIONS]", f"[TIMES]\n {row}\n[OPTIONS]")
    with pytest.raises(MalformedSectionError) as e:
        parse_inp(text)
    assert e.value.line_no == text.splitlines().index(f" {row}") + 1
    assert message in str(e.value)


def test_fractional_seconds_rejected():
    text = MINIMAL.replace("[OPTIONS]",
                           "[TIMES]\n Duration 0.5 SEC\n[OPTIONS]")
    with pytest.raises(MalformedSectionError):
        parse_inp(text)


def test_demands_section_overrides_junction_demand():
    text = MINIMAL.replace("[OPTIONS]", "[DEMANDS]\n j1  5.0\n[OPTIONS]")
    net = parse_inp(text)
    assert net.junctions["j1"].base_demand == pytest.approx(5e-3)


def test_duplicate_demand_row_rejected():
    text = MINIMAL.replace("[OPTIONS]",
                           "[DEMANDS]\n j1 5.0\n j1 6.0\n[OPTIONS]")
    with pytest.raises(MalformedSectionError):
        parse_inp(text)


def test_demand_row_unknown_junction():
    text = MINIMAL.replace("[OPTIONS]", "[DEMANDS]\n ghost 5.0\n[OPTIONS]")
    with pytest.raises(MalformedSectionError) as e:
        parse_inp(text)
    assert "ghost" in str(e.value)


def test_closed_pipe_status():
    text = MINIMAL.replace("p1  r1  j1  100  200  120",
                           "p1  r1  j1  100  200  120  0  CLOSED")
    net = parse_inp(text.replace(" j1  10.0  0.02", " j1  10.0  0.0"))
    assert net.pipes["p1"].open is False


def test_check_valve_rejected():
    text = MINIMAL.replace("p1  r1  j1  100  200  120",
                           "p1  r1  j1  100  200  120  0  CV")
    with pytest.raises(MalformedSectionError):
        parse_inp(text)


def test_pipe_minor_loss_must_be_zero():
    text = MINIMAL.replace("p1  r1  j1  100  200  120",
                           "p1  r1  j1  100  200  120  5.0")
    with pytest.raises(MalformedSectionError):
        parse_inp(text)


def test_dangling_reference_raised():
    text = MINIMAL.replace("p1  r1  j1", "p1  r1  ghost")
    with pytest.raises(DanglingReferenceError):
        parse_inp(text)


def test_invalid_network_raised_for_bad_values():
    text = MINIMAL.replace("100  200  120", "-100  200  120")
    with pytest.raises(InvalidNetworkError):
        parse_inp(text)


def test_link_from_a_node_to_itself_raised():
    text = MINIMAL.replace(" p1  r1  j1  100  200  120",
                           " p1  r1  j1  100  200  120\n p2  j1  j1  10  200  120")
    with pytest.raises(InvalidNetworkError,
                       match="pipe 'p2': from_node and to_node are the same"):
        parse_inp(text)


def test_parse_report_returns_violations():
    text = MINIMAL.replace("100  200  120", "-100  200  120")
    net, violations = parse_inp_report(text)
    assert len(net.pipes) == 1
    assert any("length" in v.message for v in violations)


def test_error_line_numbers_point_at_bad_row():
    lines = MINIMAL.strip().splitlines()
    bad = lines.index(" p1  r1  j1  100  200  120") + 1
    with pytest.raises(InpError) as e:
        parse_inp(MINIMAL.strip().replace("100  200  120", "abc  200  120"))
    assert e.value.line_no == bad


def test_pump_speed_keyword():
    text = """
[JUNCTIONS]
 j1  0.0  0.01
[RESERVOIRS]
 r1  10.0
[PUMPS]
 pu1  r1  j1  HEAD  c1  SPEED  1.2
[CURVES]
 c1  0.02  40.0
[OPTIONS]
 Units  CMS
"""
    net = parse_inp(text)
    assert net.pumps["pu1"].speed == pytest.approx(1.2)
    assert net.curves["c1"].points == ((0.02, 40.0),)


def test_curve_flow_scaled_by_units():
    text = """
[JUNCTIONS]
 j1  0.0  1.0
[RESERVOIRS]
 r1  10.0
[PUMPS]
 pu1  r1  j1  HEAD  c1
[CURVES]
 c1  20  40.0
[OPTIONS]
 Units  LPS
"""
    net = parse_inp(text)
    assert net.curves["c1"].points == ((pytest.approx(0.02), 40.0),)


def test_roundtrip_bundled_fixtures():
    for path in (bundled.toy9_path(), bundled.series1_path(),
                 bundled.pumpnet_path()):
        with open(path, encoding="utf-8") as fh:
            original = parse_inp(fh.read())
        recovered = parse_inp(write_inp(original))
        assert networks_close(original, recovered), path


def test_roundtrip_preserves_closed_pipe_and_valve():
    text = """
[JUNCTIONS]
 j1  0.0  0.05
 jm  0.0  0.0
[RESERVOIRS]
 r1  50.0
[PIPES]
 p1  r1  jm  500  200  100
 p2  r1  j1  400  150  95  0  CLOSED
[VALVES]
 vv  jm  j1  200  TCV  2.5
[OPTIONS]
 Units  CMS
"""
    original = parse_inp(text)
    recovered = parse_inp(write_inp(original))
    assert networks_close(original, recovered)
    assert recovered.pipes["p2"].open is False
    assert recovered.valves["vv"].minor_loss_coef == pytest.approx(2.5)


def test_warnings_collected_through_parse():
    warnings: list[str] = []
    parse_inp(MINIMAL.replace("[JUNCTIONS]", "[REPORT]\n x y\n[JUNCTIONS]"),
              warnings=warnings)
    assert any("REPORT" in w for w in warnings)


def test_tank_min_volume_warns_and_parses(pumpnet):
    text = """
[JUNCTIONS]
 j1  0.0  0.01
[RESERVOIRS]
 r1  40.0
[TANKS]
 t1  30.0  2.0  0.5  6.0  20.0  15.0
[PIPES]
 p1  r1  j1  100  200  120
 p2  j1  t1  100  150  110
[OPTIONS]
 Units  CMS
"""
    warnings: list[str] = []
    net = parse_inp(text, warnings=warnings)
    assert net.tanks["t1"].diameter == pytest.approx(20.0)
    assert any("minimum volume" in w for w in warnings)


# section -> (a well-formed row, rows with too few and too many tokens, the
# token-count message, the message for a repeated first token or None)
ROW_RULES = {
    "[PATTERNS]": ("pat 1.0", ("pat",),
                   "pattern row needs id and multipliers", None),
    "[CURVES]": ("c1 0 10", ("c1 0", "c1 0 10 1"),
                 "curve row is: id flow head", None),
    "[JUNCTIONS]": ("j1 1", ("j1", "j1 1 0 pat x"),
                    "junction row is: id elevation [demand] [pattern]",
                    "duplicate junction id 'j1'"),
    "[DEMANDS]": ("j1 0.1", ("j1", "j1 0.1 pat x"),
                  "demand row is: junction demand [pattern]",
                  "multiple demand rows for junction 'j1' not supported"),
    "[RESERVOIRS]": ("r1 50", ("r1", "r1 50 pat x"),
                     "reservoir row is: id head [pattern]",
                     "duplicate reservoir id 'r1'"),
    "[TANKS]": ("t1 10 1 0 2 5", ("t1 10 1 0 2", "t1 10 1 0 2 5 0 x"),
                "tank row is: id elevation init_level min_level max_level"
                " diameter [min_volume]", "duplicate tank id 't1'"),
    "[PIPES]": ("p1 a b 100 200 120",
                ("p1 a b 100 200", "p1 a b 100 200 120 0 OPEN x"),
                "pipe row is: id from to length diameter_mm roughness"
                " [minor_loss] [status]", "duplicate pipe id 'p1'"),
    "[PUMPS]": ("u1 a b HEAD c1", ("u1 a b HEAD", "u1 a b HEAD c1 SPEED"),
                "pump row is: id from to HEAD curve_id [SPEED value]",
                "duplicate pump id 'u1'"),
    "[VALVES]": ("v1 a b 200 TCV 0.5",
                 ("v1 a b 200 TCV", "v1 a b 200 TCV 0.5 0 x"),
                 "valve row is: id from to diameter_mm TCV loss_coef",
                 "duplicate valve id 'v1'"),
    "[STATUS]": ("p1 CLOSED", ("p1", "p1 CLOSED x"),
                 "status row is: link_id OPEN|CLOSED",
                 "duplicate status row for link 'p1'"),
}

# rows a section's rows may refer to
SECTION_HEAD = {"[DEMANDS]": "[JUNCTIONS]\n j1 1\n",
                "[STATUS]": "[PIPES]\n p1 a b 100 200 120\n"}


def section_text(section, *rows):
    """The section holding `rows`, after what they refer to: [DEMANDS]
    follows a junction j1 and [STATUS] a pipe p1."""
    return SECTION_HEAD.get(section, "") + section + "\n" \
        + "".join(f" {row}\n" for row in rows)


def last_row_error(text) -> tuple[str, str]:
    """The parse error of `text`, and the prefix naming its last line, the
    row at fault."""
    with pytest.raises(MalformedSectionError) as e:
        parse_inp(text)
    return str(e.value), f"line {len(text.splitlines())}: "


@pytest.mark.parametrize("section", ROW_RULES)
def test_row_token_count_message(section):
    good, bad_rows, usage, _ = ROW_RULES[section]
    for bad in bad_rows:
        error, prefix = last_row_error(section_text(section, good, bad))
        assert error == prefix + usage


@pytest.mark.parametrize("section", [s for s, rule in ROW_RULES.items()
                                     if rule[3] is not None])
def test_repeated_row_id_message(section):
    good, _, _, duplicate = ROW_RULES[section]
    error, prefix = last_row_error(section_text(section, good, good))
    assert error == prefix + duplicate


STATUS_TEXT = """
[JUNCTIONS]
 j1  0.0  0.05
 jm  0.0  0.0
[RESERVOIRS]
 r1  50.0
[PIPES]
 p1  r1  jm  500  200  100  0  CLOSED
 p2  r1  j1  400  150  95  0  OPEN
[PUMPS]
 u1  r1  jm  HEAD  c1
[VALVES]
 vv  jm  j1  200  TCV  2.5
[CURVES]
 c1  0.02  40
[STATUS]
 p1  open
 p2  CLOSED
 u1  Closed
 vv  CLOSED
"""


def test_status_rows_set_link_states_over_the_pipe_rows():
    net = parse_inp(STATUS_TEXT)
    assert net.pipes["p1"].open is True
    assert net.pipes["p2"].open is False
    assert net.pumps["u1"].running is False
    assert net.valves["vv"].open is False


@pytest.mark.parametrize("row, message", [
    ("ghost CLOSED", "status row references unknown link 'ghost'"),
    ("j1 CLOSED", "status row references unknown link 'j1'"),
    ("vv 0.5", "status must be OPEN or CLOSED, got '0.5'"),
    ("vv ACTIVE", "status must be OPEN or CLOSED, got 'ACTIVE'"),
    ("u1 OPEN", "duplicate status row for link 'u1'"),
])
def test_bad_status_row_names_its_line(row, message):
    text = STATUS_TEXT.replace(" vv  CLOSED\n", f" {row}\n")
    error, prefix = last_row_error(text)
    assert error == prefix + message


@pytest.mark.parametrize("section, row, message", [
    ("[JUNCTIONS]", "j2 x", "junction elevation: not a number 'x'"),
    ("[JUNCTIONS]", "j2 1 x", "junction demand: not a number 'x'"),
    ("[PIPES]", "p1 a b 100 x 120", "pipe diameter: not a number 'x'"),
    ("[TANKS]", "t1 10 1 0 2 5 x", "tank minimum volume: not a number 'x'"),
    ("[PUMPS]", "u1 a b POWER c1", "expected HEAD keyword, got 'POWER'"),
    ("[PUMPS]", "u1 a b HEAD c1 PATTERN 1",
     "expected SPEED keyword, got 'PATTERN'"),
    ("[VALVES]", "v1 a b 200 PRV 0.5", "expected TCV keyword, got 'PRV'"),
    ("[PIPES]", "p1 a b 100 200 120 5",
     "pipe minor loss not supported (must be 0)"),
    ("[VALVES]", "v1 a b 200 TCV 0.5 1",
     "valve minor loss not supported (must be 0)"),
    ("[PIPES]", "p1 a b 100 200 120 0 ACTIVE",
     "pipe status must be OPEN or CLOSED, got 'ACTIVE'"),
    ("[PIPES]", "p1 a b 100 200 120 0 CV", "check valves not supported"),
    ("[PUMPS]", "u1 a b HEAD c1 SPEED -1", "pump speed must be >= 0"),
])
def test_bad_column_names_its_row(section, row, message):
    """One bad token of each column kind: a float, a flow, millimetres, an
    ignored value, a keyword, a must-be-0 value, a status and a speed."""
    text = section_text(section, row)
    with pytest.raises(MalformedSectionError) as e:
        parse_inp(text)
    assert e.value.line_no == len(text.splitlines())
    assert str(e.value) == f"line {e.value.line_no}: {message}"


# sha256 of what write_inp writes for each network: its bytes, pinned
WRITTEN_SHA256 = {
    "toy9": "05e4f6b1075a163fa4a8f3478dfcd1f52f05173b8000a7e5c6e5548502a19728",
    "pumpnet":
        "b51ee1a1e426b911a2f1c6910f70917416dc7939c3255c77152ebe487a84c05e",
    "series1":
        "c8d684d4356408b3dafbb2a9d1da33a5681e50cb011def35d931ae8543f01f7f",
    "grid_inp(3, 3)":
        "5694e6e666fe1ee2e277e4831c5fc177e4f151202e676c7774987cda4f00aba1",
}


def test_written_bytes_are_pinned(toy9, pumpnet, perfbench_module):
    grid = parse_inp(perfbench_module("netgen").grid_inp(3, 3))
    for name, network in (("toy9", toy9), ("pumpnet", pumpnet),
                          ("series1", bundled.load_series1()),
                          ("grid_inp(3, 3)", grid)):
        digest = hashlib.sha256(write_inp(network).encode()).hexdigest()
        assert digest == WRITTEN_SHA256[name], name


def test_status_round_trips_a_stopped_pump_and_a_closed_valve(
        pumpnet, perfbench_module):
    stopped = replace(pumpnet, pumps={
        "pu1": replace(pumpnet.pumps["pu1"], running=False)})
    grid = parse_inp(perfbench_module("netgen").grid_inp(3, 3))
    shut = replace(grid, valves={
        "v1": replace(grid.valves["v1"], open=False)})
    for net in (stopped, shut):
        text = write_inp(net)
        assert networks_close(parse_inp(text), net)
    assert write_inp(stopped).count(" CLOSED\n") == 1
    assert " pu1  CLOSED\n" in write_inp(stopped)
    assert " v1  CLOSED\n" in write_inp(shut)
    # nothing stopped or closed: no [STATUS] section
    assert "[STATUS]" not in write_inp(pumpnet)


def refusal(network) -> str:
    with pytest.raises(InpError) as e:
        write_inp(network)
    return str(e.value)


def test_a_network_pattern_step_round_trips(toy9):
    """The network's options hold the one pattern step, so any whole step
    writes as the [TIMES] Pattern Timestep and reads back."""
    half = replace(toy9, options=replace(toy9.options, pattern_step_s=1800))
    text = write_inp(half)
    assert " Pattern Timestep    1800 SEC\n" in text
    back = parse_inp(text)
    assert back.options.pattern_step_s == 1800
    assert networks_close(back, half)
    assert write_inp(back) == text


def test_write_refuses_an_invalid_network_before_its_text(toy9, tmp_path):
    """A time option that is not a positive whole number of seconds is a
    violation of the network, which the writer refuses as the solver does;
    save_network then writes no file."""
    zero = replace(toy9, options=replace(toy9.options, duration_s=0))
    with pytest.raises(InvalidNetworkError,
                       match="options 'duration_s': must be a positive whole"
                             " number of seconds"):
        write_inp(zero)
    path = tmp_path / "zero.inp"
    with pytest.raises(InvalidNetworkError):
        save_network(zero, str(path))
    assert not path.exists()


def test_write_refuses_what_it_cannot_read_back(toy9, tmp_path):
    for title in ("a; b", "[X]", "a\n\nb", "a  b", " a"):
        assert refusal(replace(toy9, title=title)) \
            == f"title {title!r} would not read back as written"
    j = next(iter(toy9.junctions.values()))
    spaced = replace(toy9, junctions={
        **{k: v for k, v in toy9.junctions.items() if k != j.id},
        "a b": replace(j, id="a b")})
    # the pipes still name the old id, so rename the links' ends too
    spaced = replace(spaced, pipes={
        pid: replace(p, from_node="a b" if p.from_node == j.id else p.from_node,
                     to_node="a b" if p.to_node == j.id else p.to_node)
        for pid, p in toy9.pipes.items()})
    assert refusal(spaced) == "junction id 'a b' is not one INP token"
    # save_network writes no file for a network it refuses
    path = tmp_path / "spaced.inp"
    with pytest.raises(InpError):
        save_network(spaced, str(path))
    assert not path.exists()


# --- round trip over generated networks --------------------------------------

TOKEN = st.text(string.ascii_letters + string.digits + "_.-:", min_size=1,
                max_size=4)
# ids and titles the reader may not give back: whitespace, comments, headers
ODD = st.text(" \t;[]ab\xa0\u2028", max_size=3)
FINITE = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


def reals(low, high):
    return st.floats(low, high, **FINITE)


@st.composite
def inp_networks(draw):
    """A valid network of every element kind, with patterns, curves, tanks,
    link states and a title. A draw that is not clean may hold ids and a
    title that do not read back."""
    clean = draw(st.booleans())
    ident = TOKEN if clean else st.one_of(TOKEN, TOKEN, ODD)
    step = draw(st.sampled_from([900, 1800, 3600, 7200]))
    patterns = {pid: Pattern(pid, tuple(draw(st.lists(
        reals(0.0, 3.0), min_size=1, max_size=8))))
        for pid in draw(st.lists(ident, max_size=2, unique=True))}
    pattern = st.one_of(st.none(), st.sampled_from(sorted(patterns))) \
        if patterns else st.none()
    curves = {}
    for cid in draw(st.lists(ident, max_size=2, unique=True)):
        q, h = draw(reals(1e-3, 1.0)), draw(reals(1.0, 100.0))
        curves[cid] = Curve(cid, ((q, h),) if draw(st.booleans()) else
                            ((0.0, 1.5 * h), (q, h), (2.0 * q, 0.2 * h)))

    n_nodes = draw(st.integers(2, 7))
    nodes = draw(st.lists(ident, min_size=n_nodes, max_size=n_nodes,
                          unique=True))
    n_res = draw(st.integers(1, min(2, n_nodes - 1)))
    n_tank = draw(st.integers(0, min(2, n_nodes - n_res - 1)))
    reservoirs = {r: Reservoir(r, draw(reals(0.0, 200.0)), draw(pattern))
                  for r in nodes[:n_res]}
    tanks = {}
    for t in nodes[n_res:n_res + n_tank]:
        low, mid, high = sorted(draw(reals(0.0, 20.0)) for _ in range(3))
        tanks[t] = Tank(t, draw(reals(-10.0, 100.0)), draw(reals(0.5, 40.0)),
                        mid, low, high)
    junctions = {j: Junction(j, draw(reals(-50.0, 100.0)),
                             draw(reals(0.0, 0.1)), draw(pattern))
                 for j in nodes[n_res + n_tank:]}

    # a tree from the sources reaches every node; then a few more links
    ends = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_nodes)]
    ends += draw(st.lists(st.tuples(st.integers(0, n_nodes - 1),
                                    st.integers(0, n_nodes - 1)).filter(
        lambda e: e[0] != e[1]), max_size=2))
    links = draw(st.lists(ident, min_size=len(ends), max_size=len(ends),
                          unique=True))
    kinds = ["pipe", "valve"] + (["pump"] if curves else [])
    pipes, pumps, valves = {}, {}, {}
    for lid, (a, b) in zip(links, ends):
        kind = draw(st.sampled_from(kinds))
        a, b = nodes[a], nodes[b]
        if kind == "pipe":
            pipes[lid] = Pipe(lid, a, b, draw(reals(0.1, 5000.0)),
                              draw(reals(0.01, 2.0)), draw(reals(50.0, 150.0)),
                              draw(st.booleans()))
        elif kind == "pump":
            pumps[lid] = Pump(lid, a, b, draw(st.sampled_from(sorted(curves))),
                              draw(reals(0.0, 2.0)), draw(st.booleans()))
        else:
            valves[lid] = Valve(lid, a, b, draw(reals(0.01, 2.0)),
                                draw(reals(0.0, 50.0)), draw(st.booleans()))

    title = draw(st.one_of(st.just(""), st.lists(TOKEN, min_size=1,
                                                 max_size=3).map(" ".join))
                 if clean else ODD)
    options = SimOptions(*(draw(st.integers(1, 10**6)) for _ in range(3)),
                         pattern_step_s=step)
    return Network(junctions, reservoirs, tanks, pipes, pumps, valves,
                   patterns, curves, options, title)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(network=inp_networks())
def test_write_inp_round_trips_exactly_what_it_writes(network):
    """write_inp raises InpError exactly where the text it would write,
    unchecked, does not read back as the network with its title; else the
    network reads back close, and one round trip reaches a fixed point."""
    with mock.patch.object(wdnflow.inp, "_check_writable", lambda net: None):
        unchecked = write_inp(network)
    try:
        back = parse_inp(unchecked)
        reads_back = networks_close(back, network) \
            and back.title == network.title
    except WdnflowError:
        reads_back = False
    if not reads_back:
        with pytest.raises(InpError):
            write_inp(network)
        return
    text = write_inp(network)
    assert text == unchecked
    once = write_inp(parse_inp(text))
    assert write_inp(parse_inp(once)) == once
