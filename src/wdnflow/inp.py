"""Reader and writer for a declared subset of the EPANET INP text format.

Supported sections: [TITLE] [JUNCTIONS] [RESERVOIRS] [TANKS] [PIPES] [PUMPS]
[VALVES] [STATUS] [DEMANDS] [PATTERNS] [CURVES] [TIMES] [OPTIONS]. Unknown
sections are skipped with a warning. ";" starts a comment; tokens are
whitespace-delimited (tabs and spaces are equivalent). A [STATUS] row
`id OPEN|CLOSED` opens or closes a pipe or valve, or runs or stops a pump,
and wins over the status of a pipe's own row, as in EPANET.

`write_inp` writes only what `parse_inp` reads back: it raises InpError on
an id that is not one token, a title that does not read back as itself, a
time option that is not a positive whole number of seconds, or a pattern
whose step is not the network's pattern step. Stopped pumps and closed valves
are written as [STATUS] rows.

Units: only LPS and CMS flow units are accepted and everything is converted
to strict SI (m3/s) on read. Pipe and valve diameters are millimetres in the
file, as EPANET defines for metric flow units; tank diameters are metres.
Time values must carry an explicit unit (SEC/MIN/HOURS/DAYS) or use HH:MM[:SS]
clock form; bare numbers are rejected rather than guessed at.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

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
    _real,
    incidence,
    validate,
)

__all__ = ["InpRow", "InpDocument", "tokenize_inp", "parse_inp",
           "parse_inp_report", "write_inp", "load_network", "save_network",
           "KNOWN_SECTIONS"]

KNOWN_SECTIONS = (
    "[TITLE]", "[JUNCTIONS]", "[RESERVOIRS]", "[TANKS]", "[PIPES]",
    "[PUMPS]", "[VALVES]", "[STATUS]", "[DEMANDS]", "[PATTERNS]",
    "[CURVES]", "[TIMES]", "[OPTIONS]",
)

_TIME_UNIT_S = {
    "SEC": 1.0, "SECONDS": 1.0,
    "MIN": 60.0, "MINUTES": 60.0,
    "HR": 3600.0, "HOURS": 3600.0,
    "DAY": 86400.0, "DAYS": 86400.0,
}


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
        if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
            raise MalformedSectionError(f"bad clock time '{tokens[0]}'", line_no)
        h, m = int(parts[0]), int(parts[1])
        s = int(parts[2]) if len(parts) == 3 else 0
        if m >= 60 or s >= 60:
            raise MalformedSectionError(f"bad clock time '{tokens[0]}'", line_no)
        return h * 3600 + m * 60 + s
    if len(tokens) != 2:
        raise MalformedSectionError(
            "time value needs an explicit unit (SEC/MIN/HOURS/DAYS) or HH:MM form",
            line_no)
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
            if unit == "LPS":
                flow_scale = 1e-3
            elif unit == "CMS":
                flow_scale = 1.0
            else:
                raise UnsupportedUnitsError(
                    f"flow units '{unit}' not supported (use LPS or CMS)",
                    row.line_no)
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
        key = row.tokens[0].upper()
        if key == "DURATION":
            values["duration_s"] = _time_seconds(row.tokens[1:], row.line_no)
        elif key in ("HYDRAULIC", "QUALITY", "PATTERN") and len(row.tokens) >= 2 \
                and row.tokens[1].upper() == "TIMESTEP":
            field_name = {"HYDRAULIC": "hydraulic_step_s",
                          "QUALITY": "quality_step_s",
                          "PATTERN": "pattern_step_s"}[key]
            values[field_name] = _time_seconds(row.tokens[2:], row.line_no)
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
        patterns[pid] = Pattern(pid, mults, float(options.pattern_step_s))

    curves: dict[str, Curve] = {}
    for cid, row in _rows(doc, "[CURVES]", (3,), "curve row is: id flow head"):
        point = (_float(row.tokens[1], row.line_no, "curve flow") * flow_scale,
                 _float(row.tokens[2], row.line_no, "curve head"))
        points = curves[cid].points + (point,) if cid in curves else (point,)
        curves[cid] = Curve(cid, points)

    junctions: dict[str, Junction] = {}
    for jid, row in _rows(doc, "[JUNCTIONS]", range(2, 5),
                          "junction row is: id elevation [demand] [pattern]",
                          "duplicate junction id '{}'"):
        elevation = _float(row.tokens[1], row.line_no, "junction elevation")
        demand = 0.0
        if len(row.tokens) >= 3:
            demand = _float(row.tokens[2], row.line_no, "junction demand") * flow_scale
        pattern_id = row.tokens[3] if len(row.tokens) == 4 else None
        junctions[jid] = Junction(jid, elevation, demand, pattern_id)

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

    reservoirs: dict[str, Reservoir] = {}
    for rid, row in _rows(doc, "[RESERVOIRS]", range(2, 4),
                          "reservoir row is: id head [pattern]",
                          "duplicate reservoir id '{}'"):
        head = _float(row.tokens[1], row.line_no, "reservoir head")
        pattern_id = row.tokens[2] if len(row.tokens) == 3 else None
        reservoirs[rid] = Reservoir(rid, head, pattern_id)

    tanks: dict[str, Tank] = {}
    for tid, row in _rows(doc, "[TANKS]", range(6, 8),
                          "tank row is: id elevation init_level min_level max_level"
                          " diameter [min_volume]", "duplicate tank id '{}'"):
        nums = [_float(t, row.line_no, "tank value") for t in row.tokens[1:7]]
        if len(row.tokens) == 7:
            doc.warnings.append(f"line {row.line_no}: tank minimum volume ignored")
        tanks[tid] = Tank(tid, elevation=nums[0], init_level=nums[1],
                          min_level=nums[2], max_level=nums[3], diameter=nums[4])

    pipes: dict[str, Pipe] = {}
    for pid, row in _rows(doc, "[PIPES]", range(6, 9),
                          "pipe row is: id from to length diameter_mm roughness"
                          " [minor_loss] [status]", "duplicate pipe id '{}'"):
        length = _float(row.tokens[3], row.line_no, "pipe length")
        diameter = _float(row.tokens[4], row.line_no, "pipe diameter") / 1000.0
        roughness = _float(row.tokens[5], row.line_no, "pipe roughness")
        if len(row.tokens) >= 7:
            if _float(row.tokens[6], row.line_no, "pipe minor loss") != 0.0:
                raise MalformedSectionError(
                    "pipe minor losses not supported (must be 0)", row.line_no)
        open_ = True
        if len(row.tokens) == 8:
            status = row.tokens[7].upper()
            if status == "CV":
                raise MalformedSectionError("check valves not supported", row.line_no)
            if status not in ("OPEN", "CLOSED"):
                raise MalformedSectionError(
                    f"pipe status must be OPEN or CLOSED, got '{row.tokens[7]}'",
                    row.line_no)
            open_ = status == "OPEN"
        pipes[pid] = Pipe(pid, row.tokens[1], row.tokens[2],
                          length, diameter, roughness, open_)

    pumps: dict[str, Pump] = {}
    for uid, row in _rows(doc, "[PUMPS]", (5, 7),
                          "pump row is: id from to HEAD curve_id [SPEED value]",
                          "duplicate pump id '{}'"):
        if row.tokens[3].upper() != "HEAD":
            raise MalformedSectionError(
                "only HEAD-curve pumps supported", row.line_no)
        speed = 1.0
        if len(row.tokens) == 7:
            if row.tokens[5].upper() != "SPEED":
                raise MalformedSectionError(
                    f"expected SPEED keyword, got '{row.tokens[5]}'", row.line_no)
            speed = _float(row.tokens[6], row.line_no, "pump speed")
            if speed < 0:
                raise MalformedSectionError("pump speed must be >= 0", row.line_no)
        pumps[uid] = Pump(uid, row.tokens[1], row.tokens[2],
                          curve_id=row.tokens[4], speed=speed)

    valves: dict[str, Valve] = {}
    for vid, row in _rows(doc, "[VALVES]", (6, 7),
                          "valve row is: id from to diameter_mm TCV loss_coef",
                          "duplicate valve id '{}'"):
        if row.tokens[4].upper() != "TCV":
            raise MalformedSectionError(
                f"only TCV valves supported, got '{row.tokens[4]}'", row.line_no)
        diameter = _float(row.tokens[3], row.line_no, "valve diameter") / 1000.0
        coef = _float(row.tokens[5], row.line_no, "valve loss coefficient")
        if len(row.tokens) == 7:
            if _float(row.tokens[6], row.line_no, "valve minor loss") != 0.0:
                raise MalformedSectionError(
                    "extra valve minor loss not supported (must be 0)", row.line_no)
        valves[vid] = Valve(vid, row.tokens[1], row.tokens[2],
                            diameter=diameter, minor_loss_coef=coef)

    for lid, row in _rows(doc, "[STATUS]", (2,),
                          "status row is: link_id OPEN|CLOSED",
                          "duplicate status row for link '{}'"):
        status = row.tokens[1].upper()
        if status not in ("OPEN", "CLOSED"):
            raise MalformedSectionError(
                f"status must be OPEN or CLOSED, got '{row.tokens[1]}'",
                row.line_no)
        for group, attr in ((pipes, "open"), (pumps, "running"),
                            (valves, "open")):
            if lid in group:
                group[lid] = replace(group[lid], **{attr: status == "OPEN"})
                break
        else:
            raise MalformedSectionError(
                f"status row references unknown link '{lid}'", row.line_no)

    if warnings is not None:
        warnings.extend(doc.warnings)
    return Network(junctions=junctions, reservoirs=reservoirs, tanks=tanks,
                   pipes=pipes, pumps=pumps, valves=valves,
                   patterns=patterns, curves=curves,
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
    be one token), a time option that is not a positive whole number of
    seconds, or a pattern step other than the network's."""
    title = network.title
    if title and not all(map(_reads_back, title.split("\n"))):
        raise InpError(f"title {title!r} would not read back as written")
    for kind, group in (("junction", network.junctions),
                        ("reservoir", network.reservoirs),
                        ("tank", network.tanks), ("pipe", network.pipes),
                        ("pump", network.pumps), ("valve", network.valves),
                        ("pattern", network.patterns),
                        ("curve", network.curves)):
        for eid in group:
            if not _reads_back(eid) or " " in eid:
                raise InpError(f"{kind} id {eid!r} is not one INP token")
    for name, value in vars(network.options).items():
        if not (_real(value, 0.0, above=True) and value == round(value)):
            raise InpError(f"options {name} {value!r} is not a positive"
                           " whole number of seconds")
    step = network.options.pattern_step_s
    for pat in network.patterns.values():
        if pat.step != step:
            raise InpError(f"pattern '{pat.id}' step {pat.step:g} s differs"
                           f" from the pattern timestep {step} s")


def write_inp(network: Network) -> str:
    """Serialize to INP text (CMS units); parse_inp recovers an equal network.
    Raises InpError instead where it would not (see `_check_writable`)."""
    incidence(network)
    _check_writable(network)
    opt = network.options
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
    w(f" Duration            {opt.duration_s} SEC")
    w(f" Hydraulic Timestep  {opt.hydraulic_step_s} SEC")
    w(f" Quality Timestep    {opt.quality_step_s} SEC")
    w(f" Pattern Timestep    {opt.pattern_step_s} SEC")
    w("")

    if network.junctions:
        w("[JUNCTIONS]")
        w(";id  elevation_m  demand_cms  pattern")
        for jid in sorted(network.junctions):
            j = network.junctions[jid]
            row = f" {j.id}  {_fmt(j.elevation)}  {_fmt(j.base_demand)}"
            if j.demand_pattern_id is not None:
                row += f"  {j.demand_pattern_id}"
            w(row)
        w("")
    if network.reservoirs:
        w("[RESERVOIRS]")
        w(";id  head_m  pattern")
        for rid in sorted(network.reservoirs):
            r = network.reservoirs[rid]
            row = f" {r.id}  {_fmt(r.head)}"
            if r.head_pattern_id is not None:
                row += f"  {r.head_pattern_id}"
            w(row)
        w("")
    if network.tanks:
        w("[TANKS]")
        w(";id  elevation_m  init_m  min_m  max_m  diameter_m")
        for tid in sorted(network.tanks):
            t = network.tanks[tid]
            w(f" {t.id}  {_fmt(t.elevation)}  {_fmt(t.init_level)}"
              f"  {_fmt(t.min_level)}  {_fmt(t.max_level)}  {_fmt(t.diameter)}")
        w("")
    if network.pipes:
        w("[PIPES]")
        w(";id  from  to  length_m  diameter_mm  roughness  minor_loss  status")
        for pid in sorted(network.pipes):
            p = network.pipes[pid]
            status = "OPEN" if p.open else "CLOSED"
            w(f" {p.id}  {p.from_node}  {p.to_node}  {_fmt(p.length)}"
              f"  {_fmt(p.diameter * 1000.0)}  {_fmt(p.roughness)}  0  {status}")
        w("")
    if network.pumps:
        w("[PUMPS]")
        w(";id  from  to  HEAD  curve  SPEED  value")
        for uid in sorted(network.pumps):
            u = network.pumps[uid]
            w(f" {u.id}  {u.from_node}  {u.to_node}  HEAD  {u.curve_id}"
              f"  SPEED  {_fmt(u.speed)}")
        w("")
    if network.valves:
        w("[VALVES]")
        w(";id  from  to  diameter_mm  type  loss_coef")
        for vid in sorted(network.valves):
            v = network.valves[vid]
            w(f" {v.id}  {v.from_node}  {v.to_node}  {_fmt(v.diameter * 1000.0)}"
              f"  TCV  {_fmt(v.minor_loss_coef)}")
        w("")
    stopped = [uid for uid in sorted(network.pumps)
               if not network.pumps[uid].running]
    closed = [vid for vid in sorted(network.valves)
              if not network.valves[vid].open]
    if stopped or closed:
        w("[STATUS]")
        w(";id  status")
        for lid in stopped + closed:
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
