"""Reader and writer for a declared subset of the EPANET INP text format.

Supported sections: [TITLE] [JUNCTIONS] [RESERVOIRS] [TANKS] [PIPES] [PUMPS]
[VALVES] [STATUS] [DEMANDS] [PATTERNS] [CURVES] [TIMES] [OPTIONS]. Unknown
sections are skipped with a warning. ";" starts a comment; tokens are
whitespace-delimited (tabs and spaces are equivalent). A [STATUS] row
`id OPEN|CLOSED` opens or closes a pipe or valve, or runs or stops a pump,
and wins over the status of a pipe's own row, as in EPANET.

One table states each element section's row format for the reader, the
writer and the writability check; `_TIMES` and `_LINK_STATES` do the same for
[TIMES] and [STATUS] rows. Patterns carry no step of their own: the one
Pattern Timestep of [TIMES] is the network's `pattern_step_s`, and `validate`
checks every time there. `write_inp` writes only valid networks, and only what
`parse_inp` reads back: it raises InpError on an id that is not one token or a
title that does not read back as itself. Stopped pumps and closed valves are
written as [STATUS] rows.

Units: only LPS and CMS flow units are accepted and everything is converted
to strict SI (m3/s) on read. Pipe and valve diameters are millimetres in the
file, as EPANET defines for metric flow units; tank diameters are metres.
Time values must carry an explicit unit (SEC/MIN/HOURS/DAYS) or use HH:MM[:SS]
clock form, and be a positive whole number of seconds in either form; bare
numbers are rejected rather than guessed at.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

from .errors import (
    InpError,
    MalformedSectionError,
    UnsupportedOptionError,
    UnsupportedUnitsError,
)
from .network import (
    Curve,
    Junction,
    Network,
    Pattern,
    Pipe,
    Pump,
    Reservoir,
    SimOptions,
    Tank,
    Valve,
    incidence,
    validate,
)

__all__ = ["InpRow", "InpDocument", "tokenize_inp", "parse_inp",
           "parse_inp_report", "write_inp", "load_network", "save_network",
           "KNOWN_SECTIONS"]

_FLOW_UNITS = {"LPS": 1e-3, "CMS": 1.0}  # m3/s per file flow unit
_TIME_UNIT_S = {
    "SEC": 1.0, "SECONDS": 1.0,
    "MIN": 60.0, "MINUTES": 60.0,
    "HR": 3600.0, "HOURS": 3600.0,
    "DAY": 86400.0, "DAYS": 86400.0,
}

# [TIMES] rows as the writer words them, and the SimOptions field each sets
_TIMES = (("Duration", "duration_s"), ("Hydraulic Timestep", "hydraulic_step_s"),
          ("Quality Timestep", "quality_step_s"),
          ("Pattern Timestep", "pattern_step_s"))

# link groups a [STATUS] row may name, in lookup order, and the field it sets
_LINK_STATES = (("pipes", "open"), ("pumps", "running"), ("valves", "open"))

# The row format of an element section, for the reader, the writer and the
# writability check alike: its Network field and element class, the noun
# messages use, the token counts a row may have and the message for others,
# the writer's header comment, and the columns in file order, which a row
# may leave off from the end. A column is (the field it fills or None, the
# label messages use, its kind): "id" (as is), "float", "flow" (in the file's
# flow unit), "mm" (millimetres), "nonneg" (>= 0), "zero" (must be 0),
# "status" (OPEN or CLOSED), "keyword" (the label) or "ignored" (a warning).
_Section = namedtuple(
    "_Section", "header field cls noun lengths usage comment columns")
_LINK = (("id", "id", "id"), ("from_node", "from", "id"), ("to_node", "to", "id"))
_ELEMENTS = (
    _Section("[JUNCTIONS]", "junctions", Junction, "junction", range(2, 5),
             "junction row is: id elevation [demand] [pattern]",
             ";id  elevation_m  demand_cms  pattern",
             (("id", "id", "id"), ("elevation", "junction elevation", "float"),
              ("base_demand", "junction demand", "flow"),
              ("demand_pattern_id", "pattern", "id"))),
    _Section("[RESERVOIRS]", "reservoirs", Reservoir, "reservoir", range(2, 4),
             "reservoir row is: id head [pattern]", ";id  head_m  pattern",
             (("id", "id", "id"), ("head", "reservoir head", "float"),
              ("head_pattern_id", "pattern", "id"))),
    _Section("[TANKS]", "tanks", Tank, "tank", range(6, 8),
             "tank row is: id elevation init_level min_level max_level"
             " diameter [min_volume]",
             ";id  elevation_m  init_m  min_m  max_m  diameter_m",
             (("id", "id", "id"), ("elevation", "tank elevation", "float"),
              ("init_level", "tank initial level", "float"),
              ("min_level", "tank minimum level", "float"),
              ("max_level", "tank maximum level", "float"),
              ("diameter", "tank diameter", "float"),
              (None, "tank minimum volume", "ignored"))),
    _Section("[PIPES]", "pipes", Pipe, "pipe", range(6, 9),
             "pipe row is: id from to length diameter_mm roughness"
             " [minor_loss] [status]",
             ";id  from  to  length_m  diameter_mm  roughness  minor_loss  status",
             _LINK + (("length", "pipe length", "float"),
                      ("diameter", "pipe diameter", "mm"),
                      ("roughness", "pipe roughness", "float"),
                      (None, "pipe minor loss", "zero"),
                      ("open", "pipe status", "status"))),
    _Section("[PUMPS]", "pumps", Pump, "pump", (5, 7),
             "pump row is: id from to HEAD curve_id [SPEED value]",
             ";id  from  to  HEAD  curve  SPEED  value",
             _LINK + ((None, "HEAD", "keyword"), ("curve_id", "curve", "id"),
                      (None, "SPEED", "keyword"),
                      ("speed", "pump speed", "nonneg"))),
    _Section("[VALVES]", "valves", Valve, "valve", (6, 7),
             "valve row is: id from to diameter_mm TCV loss_coef",
             ";id  from  to  diameter_mm  type  loss_coef",
             _LINK + (("diameter", "valve diameter", "mm"),
                      (None, "TCV", "keyword"),
                      ("minor_loss_coef", "valve loss coefficient", "float"),
                      (None, "valve minor loss", "zero"))),
)

KNOWN_SECTIONS = ("[TITLE]", *(s.header for s in _ELEMENTS), "[STATUS]",
                  "[DEMANDS]", "[PATTERNS]", "[CURVES]", "[TIMES]", "[OPTIONS]")


@dataclass
class InpRow:
    line_no: int
    tokens: list[str]
    comment: str = ""


@dataclass
class InpDocument:
    """Lexical view of an INP file: token rows grouped under section headers."""

    sections: dict[str, list[InpRow]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def tokenize_inp(text: str) -> InpDocument:
    doc = InpDocument()
    current: str | None = None
    skipping = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        comment = ""
        if ";" in raw:
            raw, comment = raw.split(";", 1)
            comment = comment.strip()
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0].startswith("["):
            header = tokens[0].upper()
            if len(tokens) > 1:
                raise MalformedSectionError(
                    f"unexpected tokens after section header {header}", line_no)
            if not (header.endswith("]") and header[1:-1].isalpha()):
                raise MalformedSectionError(
                    f"malformed section header '{tokens[0]}'", line_no)
            if header == "[END]":
                break
            if header not in KNOWN_SECTIONS:
                doc.warnings.append(
                    f"line {line_no}: unknown section {header} ignored")
                skipping = True
                current = None
                continue
            skipping = False
            current = header
            doc.sections.setdefault(header, [])
            continue
        if skipping:
            continue
        if current is None:
            raise MalformedSectionError("data before first section header", line_no)
        doc.sections[current].append(InpRow(line_no, tokens, comment))
    return doc


def _float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedSectionError(f"{what}: not a number '{token}'", line_no) from None


def _time_seconds(tokens: list[str], line_no: int) -> int:
    """Parse ["300", "SEC"] or ["1:30"] style time values to whole seconds."""
    if len(tokens) == 1 and ":" in tokens[0]:
        parts = tokens[0].split(":")
        if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts) \
                or any(int(p) >= 60 for p in parts[1:]):
            raise MalformedSectionError(f"bad clock time '{tokens[0]}'", line_no)
        value = sum(int(p) * unit for p, unit in zip(parts, (3600, 60, 1)))
    elif len(tokens) != 2:
        raise MalformedSectionError(
            "time value needs an explicit unit (SEC/MIN/HOURS/DAYS) or HH:MM form",
            line_no)
    else:
        scale = _TIME_UNIT_S.get(tokens[1].upper())
        if scale is None:
            raise MalformedSectionError(f"unknown time unit '{tokens[1]}'", line_no)
        value = _float(tokens[0], line_no, "time value") * scale
    rounded = round(value)
    if abs(value - rounded) > 1e-9 or rounded <= 0:
        raise MalformedSectionError(
            f"time value must be a positive whole number of seconds, got {value}",
            line_no)
    return int(rounded)


def _parse_options(doc: InpDocument) -> float:
    """Validate [OPTIONS]; return the flow scale (file flow unit -> m3/s)."""
    flow_scale = 1.0  # default CMS when no Units row is present
    for row in doc.sections.get("[OPTIONS]", []):
        key = row.tokens[0].upper()
        if key == "UNITS":
            if len(row.tokens) != 2:
                raise MalformedSectionError("Units takes one value", row.line_no)
            unit = row.tokens[1].upper()
            if unit not in _FLOW_UNITS:
                raise UnsupportedUnitsError(
                    f"flow units '{unit}' not supported (use LPS or CMS)",
                    row.line_no)
            flow_scale = _FLOW_UNITS[unit]
        elif key == "HEADLOSS":
            if len(row.tokens) != 2 or row.tokens[1].upper() != "H-W":
                raise UnsupportedOptionError(
                    "only Hazen-Williams (H-W) headloss is supported", row.line_no)
        elif key == "DEMAND":
            words = [t.upper() for t in row.tokens[1:]]
            if words[:1] == ["MODEL"]:
                if words[1:] != ["DDA"]:
                    raise UnsupportedOptionError(
                        "only demand-driven analysis (Demand Model DDA) is supported",
                        row.line_no)
            else:
                doc.warnings.append(
                    f"line {row.line_no}: option 'Demand {' '.join(row.tokens[1:])}' ignored")
        else:
            doc.warnings.append(
                f"line {row.line_no}: option '{' '.join(row.tokens)}' ignored")
    return flow_scale


def _parse_times(doc: InpDocument) -> SimOptions:
    values = {}
    for row in doc.sections.get("[TIMES]", []):
        for label, name in _TIMES:
            words = label.upper().split()
            if [t.upper() for t in row.tokens[:len(words)]] == words:
                values[name] = _time_seconds(row.tokens[len(words):], row.line_no)
                break
        else:
            doc.warnings.append(
                f"line {row.line_no}: time setting '{' '.join(row.tokens)}' ignored")
    return SimOptions(**values)


def _rows(doc: InpDocument, section: str, lengths, usage: str,
          duplicate: str | None = None):
    """Yield (first token, row) for a section's rows after the checks they
    share: the token count is in `lengths`, else `usage` is the error; and
    where `duplicate` is given, the first token is new, else `duplicate`
    names it."""
    seen: set[str] = set()
    for row in doc.sections.get(section, []):
        if len(row.tokens) not in lengths:
            raise MalformedSectionError(usage, row.line_no)
        if duplicate is not None:
            if row.tokens[0] in seen:
                raise MalformedSectionError(duplicate.format(row.tokens[0]),
                                            row.line_no)
            seen.add(row.tokens[0])
        yield row.tokens[0], row


def _reader(label: str, kind: str, flow_scale: float, warnings: list[str]):
    """The function reading a token of a column, at a line, to its value;
    None for an id, whose value is its token."""
    if kind == "id":
        return None
    if kind == "float":
        return lambda token, line_no: _float(token, line_no, label)
    if kind == "flow":
        return lambda token, line_no: _float(token, line_no, label) * flow_scale
    if kind == "mm":
        return lambda token, line_no: _float(token, line_no, label) / 1000.0

    def read(token, line_no):  # the rarer kinds
        word = token.upper()
        if kind == "keyword" and word != label:
            raise MalformedSectionError(
                f"expected {label} keyword, got '{token}'", line_no)
        if kind == "status" and word == "CV":
            raise MalformedSectionError("check valves not supported", line_no)
        if kind == "status" and word not in ("OPEN", "CLOSED"):
            raise MalformedSectionError(
                f"{label} must be OPEN or CLOSED, got '{token}'", line_no)
        if kind in ("keyword", "status"):
            return word == "OPEN"
        value = _float(token, line_no, label)
        if kind == "nonneg" and value < 0:
            raise MalformedSectionError(f"{label} must be >= 0", line_no)
        if kind == "zero" and value != 0.0:
            raise MalformedSectionError(f"{label} not supported (must be 0)",
                                        line_no)
        if kind == "ignored":
            warnings.append(f"line {line_no}: {label} ignored")
        return value
    return read


def _read_elements(doc: InpDocument, section: _Section,
                   flow_scale: float) -> dict:
    """The elements of a section's rows by id, read with each column's reader
    resolved once; positional arguments are a third cheaper than keywords."""
    names = [f.name for f in fields(section.cls)]
    defaults = [f.default for f in fields(section.cls)]
    plan = [(None if name is None else names.index(name),
             _reader(label, kind, flow_scale, doc.warnings))
            for name, label, kind in section.columns]
    elements = {}
    for eid, row in _rows(doc, section.header, section.lengths, section.usage,
                          f"duplicate {section.noun} id '{{}}'"):
        args = defaults.copy()
        for (slot, read), token in zip(plan, row.tokens):
            value = token if read is None else read(token, row.line_no)
            if slot is not None:
                args[slot] = value
        elements[eid] = section.cls(*args)
    return elements


def _parse(text: str, warnings: list[str] | None) -> Network:
    """The network an INP text declares, not yet validated."""
    doc = tokenize_inp(text)
    flow_scale = _parse_options(doc)
    options = _parse_times(doc)

    title = "\n".join(" ".join(r.tokens) for r in doc.sections.get("[TITLE]", []))

    patterns: dict[str, Pattern] = {}
    for pid, row in _rows(doc, "[PATTERNS]", range(2, sys.maxsize),
                          "pattern row needs id and multipliers"):
        mults = tuple(_float(t, row.line_no, "pattern multiplier")
                      for t in row.tokens[1:])
        if pid in patterns:
            mults = patterns[pid].multipliers + mults
        patterns[pid] = Pattern(pid, mults)

    curves: dict[str, Curve] = {}
    for cid, row in _rows(doc, "[CURVES]", (3,), "curve row is: id flow head"):
        point = (_float(row.tokens[1], row.line_no, "curve flow") * flow_scale,
                 _float(row.tokens[2], row.line_no, "curve head"))
        points = curves[cid].points + (point,) if cid in curves else (point,)
        curves[cid] = Curve(cid, points)

    elements = {section.field: _read_elements(doc, section, flow_scale)
                for section in _ELEMENTS}

    junctions = elements["junctions"]
    # a repeated junction passed the unknown-junction check on its first row
    for jid, row in _rows(doc, "[DEMANDS]", range(2, 4),
                          "demand row is: junction demand [pattern]",
                          "multiple demand rows for junction '{}' not supported"):
        if jid not in junctions:
            raise MalformedSectionError(
                f"demand row references unknown junction '{jid}'", row.line_no)
        demand = _float(row.tokens[1], row.line_no, "demand") * flow_scale
        pattern_id = row.tokens[2] if len(row.tokens) == 3 else None
        junctions[jid] = Junction(jid, junctions[jid].elevation, demand, pattern_id)

    read_status = _reader("status", "status", flow_scale, doc.warnings)
    for lid, row in _rows(doc, "[STATUS]", (2,),
                          "status row is: link_id OPEN|CLOSED",
                          "duplicate status row for link '{}'"):
        status = read_status(row.tokens[1], row.line_no)
        for name, attr in _LINK_STATES:
            group = elements[name]
            if lid in group:
                group[lid] = replace(group[lid], **{attr: status})
                break
        else:
            raise MalformedSectionError(
                f"status row references unknown link '{lid}'", row.line_no)

    if warnings is not None:
        warnings.extend(doc.warnings)
    return Network(**elements, patterns=patterns, curves=curves,
                   options=options, title=title)


def parse_inp_report(text: str, warnings: list[str] | None = None
                     ) -> tuple[Network, list]:
    """Like parse_inp, but returns (network, violations) instead of raising
    on semantic violations. Syntax errors still raise."""
    network = _parse(text, warnings)
    return network, validate(network)


def parse_inp(text: str, warnings: list[str] | None = None) -> Network:
    """Parse INP text; collects non-fatal notes into `warnings` when given."""
    network = _parse(text, warnings)
    incidence(network)
    return network


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips back to the same float."""
    return repr(float(x))


def _reads_back(text: str) -> bool:
    """Whether the tokenizer gives back this row text as written: its tokens
    joined by single spaces, with no comment and no section header."""
    return text != "" and " ".join(text.split()) == text \
        and ";" not in text and not text.startswith("[")


def _check_writable(network: Network) -> None:
    """Raise InpError where parse_inp would not read back what write_inp
    writes: a title line or an id that does not read back (an id must also
    be one token)."""
    title = network.title
    if title and not all(map(_reads_back, title.split("\n"))):
        raise InpError(f"title {title!r} would not read back as written")
    # every id group is a dict field of Network named for its kind
    for group in fields(Network):
        ids = getattr(network, group.name)
        for eid in ids if isinstance(ids, dict) else ():
            if not _reads_back(eid) or " " in eid:
                raise InpError(f"{group.name[:-1]} id {eid!r} is not one INP token")


# how the writer words a column's value, by kind; other numbers by `_fmt`
_WORDS = {"id": str, "status": lambda v: "OPEN" if v else "CLOSED",
          "mm": lambda v: _fmt(v * 1000.0)}


def _row(section: _Section, element) -> str:
    """An element's row, less the trailing columns it has nothing for."""
    tokens, end = [], 0
    for name, label, kind in section.columns:
        value = None if name is None else getattr(element, name)
        if kind in ("keyword", "zero"):
            tokens.append(label if kind == "keyword" else "0")
        elif value is not None:
            tokens.append(_WORDS.get(kind, _fmt)(value))
            end = len(tokens)
    return " " + "  ".join(tokens[:end])


def write_inp(network: Network) -> str:
    """Serialize to INP text (CMS units); parse_inp recovers an equal network.
    Raises InpError instead where it would not (see `_check_writable`)."""
    incidence(network)
    _check_writable(network)
    out: list[str] = []
    w = out.append

    w("[TITLE]")
    if network.title:
        w(network.title)
    w("")
    w("[OPTIONS]")
    w(" Units     CMS")
    w(" Headloss  H-W")
    w(" Demand    Model DDA")
    w("")
    w("[TIMES]")
    for label, name in _TIMES:
        w(f" {label:<20}{getattr(network.options, name)} SEC")
    w("")

    for section in _ELEMENTS:
        group = getattr(network, section.field)
        if group:
            w(section.header)
            w(section.comment)
            for eid in sorted(group):
                w(_row(section, group[eid]))
            w("")
    # a link state that its own row has no column for goes in a [STATUS] row
    in_rows = {(s.field, column[0]) for s in _ELEMENTS for column in s.columns}
    closed = [lid for name, attr in _LINK_STATES if (name, attr) not in in_rows
              for lid, link in sorted(getattr(network, name).items())
              if not getattr(link, attr)]
    if closed:
        w("[STATUS]")
        w(";id  status")
        for lid in closed:
            w(f" {lid}  CLOSED")
        w("")
    if network.patterns:
        w("[PATTERNS]")
        w(";id  multipliers")
        for pid in sorted(network.patterns):
            pat = network.patterns[pid]
            mults = list(pat.multipliers)
            for i in range(0, len(mults), 6):
                chunk = "  ".join(_fmt(m) for m in mults[i:i + 6])
                w(f" {pat.id}  {chunk}")
        w("")
    if network.curves:
        w("[CURVES]")
        w(";id  flow_cms  head_m")
        for cid in sorted(network.curves):
            for q, h in network.curves[cid].points:
                w(f" {cid}  {_fmt(q)}  {_fmt(h)}")
        w("")

    w("[END]")
    w("")
    return "\n".join(out)


def load_network(path: str, warnings: list[str] | None = None) -> Network:
    with open(path, encoding="utf-8") as fh:
        return parse_inp(fh.read(), warnings)


def save_network(network: Network, path: str) -> None:
    """Write the network's INP text to path; a network that write_inp
    refuses leaves no file."""
    text = write_inp(network)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
