import pytest

from wdnflow import bundled
from wdnflow.errors import (
    DanglingReferenceError, InpError, InvalidNetworkError,
    MalformedSectionError, UnsupportedOptionError, UnsupportedUnitsError,
)
from wdnflow.inp import (
    parse_inp, parse_inp_report, tokenize_inp, write_inp,
)
from wdnflow.network import networks_close

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
}


def section_text(section, *rows):
    """The section holding `rows`; [DEMANDS] follows a junction j1."""
    head = "[JUNCTIONS]\n j1 1\n" if section == "[DEMANDS]" else ""
    return head + section + "\n" + "".join(f" {row}\n" for row in rows)


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
