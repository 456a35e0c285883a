"""File formats: network, trips/history, demand, targets spec and trace CSV.

All formats are line-oriented UTF-8 text with LF endings and deterministic
formatting, so identical inputs always serialize to identical bytes.  Floats
are written with repr (shortest round-trip form): files parse back losslessly.
"""

from __future__ import annotations

import csv
import io as _io
import math
import re
from pathlib import Path

import numpy as np

from .metrics import (
    CHARACTERISTICS,
    DEFAULT_EDGES,
    MismatchEntry,
    MismatchSpec,
    TargetDistribution,
    beta_target,
    gaussian_mixture_target,
    poisson_target,
)
from .model import DAY_TYPES, Leg, ODTriple, Route, Stop, validate_route
from .planner import Line, TransitNetwork
from .sampler import RunTrace
from .synth import DayData


class FormatError(ValueError):
    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _fmt(x: float) -> str:
    return repr(float(x))


# Whitespace separates the fields of the network and targets files, commas
# those of the trips and demand files.
_NOT_IN_IDS = re.compile(r"[\s,]")
_ID_RULE = "ids are non-empty, without whitespace or commas"


def _id(value: str) -> str:
    """value, when a file can carry it as one field; ValueError otherwise."""
    if not value or _NOT_IN_IDS.search(value):
        raise ValueError(f"id {value!r} cannot be written: {_ID_RULE}")
    return value


def _read_id(path, lineno: int, what: str, value: str) -> str:
    """value, when the writers accept it as an id; FormatError otherwise."""
    try:
        return _id(value)
    except ValueError:
        raise FormatError(path, lineno, f"bad {what} {value!r}: {_ID_RULE}") from None


def _once(seen: dict[str, int], path, lineno: int, what: str, key: str) -> None:
    """Record key's line in seen; FormatError when an earlier line named it."""
    first = seen.setdefault(key, lineno)
    if first != lineno:
        raise FormatError(path, lineno, f"duplicate {what} {key!r}, first at line {first}")


def _stop_name(name: str | None) -> str:
    """The end of a stop line: a space and the name, read back verbatim."""
    if not name:
        return ""
    if name != name.strip() or len(name.splitlines()) != 1:
        raise ValueError(f"stop name {name!r} cannot be written: it must not start or "
                         "end with whitespace or hold a line break")
    return f" {name}"


# ---------------------------------------------------------------------------
# Network file: key/value lines, nested line blocks closed by "end".
# ---------------------------------------------------------------------------


def write_network(net: TransitNetwork, path) -> None:
    out = ["network"]
    out.append(f"transfer_penalty_s {net.transfer_penalty_s}")
    out.append(f"walk_speed_mps {_fmt(net.walk_speed_mps)}")
    out.append(f"max_walk_m {_fmt(net.max_walk_m)}")
    for s in net.stops:
        out.append(f"stop {_id(s.stop_id)} {_fmt(s.lat)} {_fmt(s.lon)}{_stop_name(s.name)}")
    for line in net.lines:
        out.append(
            f"line {_id(line.line_id)} headway {line.headway_s} "
            f"first {line.first_dep_s} last {line.last_dep_s}"
        )
        out.append(f"  stop {line.stop_ids[0]}")
        for sid, ride, dist in zip(line.stop_ids[1:], line.seg_ride_s, line.seg_dist_m):
            out.append(f"  seg {ride} {_fmt(dist)}")
            out.append(f"  stop {sid}")
        out.append("end")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def _field(path, lineno: int, parts: list[str], at: int, conv=float):
    """parts[at] parsed by conv; a FormatError at path:lineno when it is
    missing, does not parse, or is a float that is not finite."""
    if at >= len(parts):
        raise FormatError(path, lineno, f"{parts[0]}: missing value")
    try:
        value = conv(parts[at])
        if conv is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise FormatError(path, lineno, f"{parts[0]}: bad {conv.__name__} {parts[at]!r}") from None
    return value


_NETWORK_FIELDS = {"transfer_penalty_s": int, "walk_speed_mps": float, "max_walk_m": float}


def read_network(path) -> TransitNetwork:
    numbered = enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1)
    stops: list[Stop] = []
    lines: list[Line] = []
    fields: dict[str, float] = {}
    stop_lineno: dict[str, int] = {}  # stop id -> line of its `stop` directive
    line_lineno: dict[str, int] = {}  # line id -> line of its `line` directive
    line_stops: list[tuple[int, str]] = []  # (line, stop id) of each stop a line block names

    def fail(lineno, msg):
        raise FormatError(path, lineno, msg)

    if next(numbered, (1, ""))[1].strip() != "network":
        fail(1, "expected header 'network'")
    for lineno, raw in numbered:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        if key in _NETWORK_FIELDS:
            fields[key] = _field(path, lineno, parts, 1, _NETWORK_FIELDS[key])
            try:  # the network's own range check, on this one value
                TransitNetwork(stops=(), lines=(), **{key: fields[key]})
            except ValueError as exc:
                fail(lineno, str(exc))
        elif key == "stop":
            parts = raw.split(None, 4)  # the name is the rest of the line, spaces and all
            if len(parts) < 4:
                fail(lineno, "stop needs: stop <id> <lat> <lon> [name]")
            stop_id = _read_id(path, lineno, "stop id", parts[1])
            _once(stop_lineno, path, lineno, "stop id", stop_id)
            name = parts[4].rstrip() if len(parts) == 5 else None
            try:
                stops.append(Stop(stop_id, float(parts[2]), float(parts[3]), name))
            except ValueError as exc:
                fail(lineno, str(exc))
        elif key == "line":
            if len(parts) != 8 or parts[2] != "headway" or parts[4] != "first" or parts[6] != "last":
                fail(lineno, "line needs: line <id> headway <s> first <s> last <s>")
            line_id = _read_id(path, lineno, "line id", parts[1])
            _once(line_lineno, path, lineno, "line id", line_id)
            headway, first_dep, last_dep = (
                _field(path, lineno, parts, at, int) for at in (3, 5, 7)
            )
            stop_ids: list[str] = []
            rides: list[int] = []
            dists: list[float] = []
            for lineno, raw in numbered:
                p2 = raw.split()
                if p2 == ["end"]:
                    break
                if not p2:
                    fail(lineno, f"line {line_id!r}: blank line inside the line block")
                if p2[0] == "stop":
                    stop_ids.append(_field(path, lineno, p2, 1, str))
                    line_stops.append((lineno, stop_ids[-1]))
                elif p2[0] == "seg":
                    rides.append(_field(path, lineno, p2, 1, int))
                    dists.append(_field(path, lineno, p2, 2))
                else:
                    fail(lineno, f"unexpected token {p2[0]!r} inside line block")
            else:
                fail(lineno, f"line {line_id!r}: missing 'end'")
            try:
                lines.append(
                    Line(
                        line_id=line_id,
                        stop_ids=tuple(stop_ids),
                        seg_ride_s=tuple(rides),
                        seg_dist_m=tuple(dists),
                        headway_s=headway,
                        first_dep_s=first_dep,
                        last_dep_s=last_dep,
                    )
                )
            except ValueError as exc:
                fail(lineno, str(exc))
        else:
            fail(lineno, f"unknown directive {key!r}")
    for lineno, stop_id in line_stops:
        if stop_id not in stop_lineno:
            fail(lineno, f"unknown stop {stop_id!r}")
    return TransitNetwork(stops=tuple(stops), lines=tuple(lines), **fields)


# ---------------------------------------------------------------------------
# Trips / history file: one route per record, comma-delimited, ragged legs.
#   day,day_type,demand_id,line,board,board_s,alight,alight_s,dist_m,[...legs]
# ---------------------------------------------------------------------------


def write_trips(records, path) -> None:
    """records: iterable of (day, day_type, demand_id, Route)."""
    rows = []
    for day, day_type, demand_id, route in records:
        row = [str(day), day_type, _id(demand_id)]
        for leg in route.legs:
            row.extend(
                [
                    _id(leg.line_id),
                    _id(leg.board_stop.stop_id),
                    str(leg.board_time),
                    _id(leg.alight_stop.stop_id),
                    str(leg.alight_time),
                    _fmt(leg.leg_distance),
                ]
            )
        rows.append(",".join(row))
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline="\n")


def read_trips(path, stops_by_id: dict[str, Stop],
               line_stops: dict[str, tuple[str, ...]] | None = None):
    """(day, day_type, demand_id, Route) per row, one row per demand id.
    Each route must pass `validate_route`; if `line_stops` (each line's stop
    order) is given, each leg must ride a line in it from a stop to a later
    one.  In a `day_###_<type>` file each row must carry the file name's day
    and day type."""
    out = []
    demand_lineno: dict[str, int] = {}
    named = parse_day_file_name(path)
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) < 9 or (len(parts) - 3) % 6 != 0:
            raise FormatError(path, lineno, f"bad field count {len(parts)}")
        try:
            day = int(parts[0])
        except ValueError:
            raise FormatError(path, lineno, f"bad day {parts[0]!r}") from None
        day_type = parts[1]
        if day_type not in DAY_TYPES:
            raise FormatError(path, lineno, f"unknown day_type {day_type!r}")
        if named is not None and (day, day_type) != named:
            raise FormatError(path, lineno, f"day {day},{day_type} differs from the file "
                                            f"name's {named[0]},{named[1]}")
        demand_id = _read_id(path, lineno, "demand id", parts[2])
        _once(demand_lineno, path, lineno, "demand id", demand_id)
        legs = []
        for off in range(3, len(parts), 6):
            line_id, board, bt, alight, at, dist = parts[off : off + 6]
            _read_id(path, lineno, "line id", line_id)
            try:
                legs.append(
                    Leg(
                        board_stop=stops_by_id[board],
                        alight_stop=stops_by_id[alight],
                        board_time=int(bt),
                        alight_time=int(at),
                        line_id=line_id,
                        leg_distance=float(dist),
                    )
                )
            except KeyError as exc:
                raise FormatError(path, lineno, f"unknown stop {exc.args[0]!r}") from None
            except ValueError as exc:
                raise FormatError(path, lineno, str(exc)) from None
        route = Route(legs=tuple(legs))
        problems = validate_route(route)
        if problems:
            raise FormatError(path, lineno, problems[0])
        for leg in legs if line_stops is not None else ():
            stops = line_stops.get(leg.line_id)
            if stops is None:
                raise FormatError(path, lineno, f"unknown line {leg.line_id!r}")
            board, alight = leg.board_stop.stop_id, leg.alight_stop.stop_id
            if board not in stops or alight not in stops[stops.index(board) + 1:]:
                raise FormatError(path, lineno, f"line {leg.line_id!r} does not ride "
                                                f"from {board!r} to {alight!r}")
        out.append((day, day_type, demand_id, route))
    return out


# ---------------------------------------------------------------------------
# Demand file: demand_id,origin,destination,depart_s[,round_trip]
# ---------------------------------------------------------------------------


def write_demand(triples, path) -> None:
    rows = []
    for t in triples:
        row = [_id(t.demand_id), _id(t.origin.stop_id), _id(t.destination.stop_id),
               str(t.depart_time)]
        if t.round_trip_allowed:
            row.append("1")
        rows.append(",".join(row))
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline="\n")


def read_demand(path, stops_by_id: dict[str, Stop]) -> list[ODTriple]:
    """One triple per row, one row per demand id."""
    out = []
    demand_lineno: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) not in (4, 5):
            raise FormatError(path, lineno, f"bad field count {len(parts)}")
        if parts[4:] not in ([], ["1"]):
            raise FormatError(path, lineno, f"bad round-trip flag {parts[4]!r}, expected '1'")
        demand_id = _read_id(path, lineno, "demand id", parts[0])
        _once(demand_lineno, path, lineno, "demand id", demand_id)
        try:
            out.append(
                ODTriple(
                    origin=stops_by_id[parts[1]],
                    destination=stops_by_id[parts[2]],
                    depart_time=int(parts[3]),
                    demand_id=demand_id,
                    round_trip_allowed=len(parts) == 5,
                )
            )
        except KeyError as exc:
            raise FormatError(path, lineno, f"unknown stop {exc.args[0]!r}") from None
        except ValueError as exc:
            raise FormatError(path, lineno, str(exc)) from None
    return out


# ---------------------------------------------------------------------------
# Targets spec: one block per characteristic, closed by "end".
# ---------------------------------------------------------------------------


def write_targets(spec: MismatchSpec, path) -> None:
    out = []
    for e in spec.entries:
        out.append(f"characteristic {e.tag}")
        out.append(f"weight {_fmt(e.weight)}")
        t = e.target
        out.append(f"kind {t.kind}")
        if t.kind == "empirical":
            out.append("edges " + " ".join(_fmt(x) for x in t.edges))
            out.append("masses " + " ".join(_fmt(x) for x in t.masses))
        elif t.kind == "beta":
            out.append(f"alpha {_fmt(t.params[0])}")
            out.append(f"beta {_fmt(t.params[1])}")
            out.append("edges " + " ".join(_fmt(x) for x in t.edges))
        elif t.kind == "poisson":
            out.append(f"lambda {_fmt(t.params[0])}")
            out.append("edges " + " ".join(_fmt(x) for x in t.edges))
        elif t.kind == "gaussian_mixture":
            for w, mu, sd in t.params:
                out.append(f"component {_fmt(w)} {_fmt(mu)} {_fmt(sd)}")
            out.append("edges " + " ".join(_fmt(x) for x in t.edges))
        else:
            raise ValueError(f"unknown target kind {t.kind!r}")
        out.append("end")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def read_targets(path) -> MismatchSpec:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    entries: list[MismatchEntry] = []
    block: dict | None = None
    components: list[tuple[float, float, float]] = []
    tag_lineno: dict[str, int] = {}  # tag -> line of its `characteristic` directive

    def fail(lineno, msg):
        raise FormatError(path, lineno, msg)

    def close(lineno):
        nonlocal block, components
        tag = block["tag"]
        kind = block.get("kind")
        edges = block["edges"] if "edges" in block else DEFAULT_EDGES[tag]
        try:
            if kind == "empirical":
                masses = block["masses"]
                target = TargetDistribution(kind="empirical", edges=edges, masses=masses)
            elif kind == "beta":
                target = beta_target(block["alpha"], block["beta"], edges)
            elif kind == "poisson":
                target = poisson_target(block["lambda"], edges)
            elif kind == "gaussian_mixture":
                target = gaussian_mixture_target(components, edges)
            else:
                raise ValueError(f"unknown kind {kind!r}")
            entries.append(MismatchEntry(tag=tag, target=target, weight=block.get("weight", 1.0)))
        except KeyError as exc:
            fail(lineno, f"characteristic {tag!r}: kind {kind} needs {exc.args[0]!r}")
        except ValueError as exc:
            fail(lineno, f"characteristic {tag!r}: {exc}")
        block = None
        components = []

    for lineno, raw in enumerate(text, start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        key = parts[0]
        if key == "characteristic":
            if block is not None:
                fail(lineno, "previous characteristic block not closed with 'end'")
            tag = _field(path, lineno, parts, 1, str)
            if tag not in CHARACTERISTICS:
                fail(lineno, f"unknown characteristic {tag!r}, expected one of {CHARACTERISTICS}")
            _once(tag_lineno, path, lineno, "characteristic", tag)
            block = {"tag": tag}
        elif block is None:
            fail(lineno, f"directive {key!r} outside a characteristic block")
        elif key == "end":
            close(lineno)
        elif key == "kind":
            block["kind"] = _field(path, lineno, parts, 1, str)
        elif key in ("weight", "alpha", "beta", "lambda"):
            block[key] = _field(path, lineno, parts, 1)
        elif key in ("edges", "masses"):
            block[key] = np.array([_field(path, lineno, parts, at) for at in range(1, len(parts))])
        elif key == "component":
            components.append(tuple(_field(path, lineno, parts, at) for at in (1, 2, 3)))
        else:
            fail(lineno, f"unknown directive {key!r}")
    if block is not None:
        raise FormatError(path, None, "unterminated characteristic block")
    try:
        return MismatchSpec(entries=tuple(entries))
    except ValueError as exc:
        raise FormatError(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# Trace CSV.
# ---------------------------------------------------------------------------

TRACE_HEADER = ("iteration", "error", "acceptance_rate", "temperature")


def write_trace(trace: RunTrace, path) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for c in trace.checkpoints:
        writer.writerow([c.iteration, _fmt(c.error), _fmt(c.acceptance_rate), _fmt(c.temperature)])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


def write_table(records: list[dict], path) -> None:
    """Generic CSV table writer with a stable header order."""
    if not records:
        Path(path).write_text("", encoding="utf-8", newline="\n")
        return
    header: list[str] = []
    for rec in records:
        for key in rec:
            if key not in header:
                header.append(key)
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow([_cell(rec.get(k)) for k in header])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


# ---------------------------------------------------------------------------
# Collection directory layout: network.txt + day_###_<type>.trips/.demand
# ---------------------------------------------------------------------------


def day_file_stem(day: int, day_type: str) -> str:
    return f"day_{day:03d}_{day_type}"


def parse_day_file_name(path) -> tuple[int, str] | None:
    """(day, day_type) from a `day_###_<type>` file name.  None for a name
    that does not start `day_`; FormatError for one that does but breaks
    the layout."""
    stem = Path(path).stem
    if not stem.startswith("day_"):
        return None
    parts = stem.split("_")
    if len(parts) != 3:
        raise FormatError(path, None, f"bad day file name {stem!r}")
    try:
        day = int(parts[1])
    except ValueError:
        raise FormatError(path, None, f"bad day {parts[1]!r} in file name") from None
    day_type = parts[2]
    if day_type not in DAY_TYPES:
        raise FormatError(path, None, f"unknown day_type {day_type!r} in file name")
    return day, day_type


def write_collection(collection, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_network(collection.network, out / "network.txt")
    for d in collection.days:
        stem = day_file_stem(d.day, d.day_type)
        write_trips(
            [(d.day, d.day_type, t.demand_id, r) for t, r in zip(d.triples, d.routes)],
            out / f"{stem}.trips",
        )
        write_demand(d.triples, out / f"{stem}.demand")


def read_collection(history_dir, network: TransitNetwork | None = None):
    """Load a collection directory back into DayData objects.

    Returns (network, [DayData...]); demand files are matched to trips by
    demand_id so triples and routes stay aligned.  A trips or demand file
    without its pair is a FormatError.
    """
    root = Path(history_dir)
    if network is None:
        net_path = root / "network.txt"
        if not net_path.exists():
            raise FormatError(net_path, None, "network file not found")
        network = read_network(net_path)
    stops_by_id = {s.stop_id: s for s in network.stops}
    line_stops = {line.line_id: line.stop_ids for line in network.lines}
    for demand_path in sorted(root.glob("day_*.demand")):
        if not demand_path.with_suffix(".trips").exists():
            raise FormatError(demand_path, None, "matching trips file not found")
    days = []
    seen: dict[int, Path] = {}  # day -> its trips file
    for trips_path in sorted(root.glob("day_*.trips")):
        day, day_type = parse_day_file_name(trips_path)
        if day in seen:
            raise FormatError(trips_path, None, f"day {day} is also in {seen[day]}")
        seen[day] = trips_path
        records = read_trips(trips_path, stops_by_id, line_stops)
        demand_path = root / f"{trips_path.stem}.demand"
        if not demand_path.exists():
            raise FormatError(demand_path, None, "matching demand file not found")
        triples = read_demand(demand_path, stops_by_id)
        routes_by_demand = {demand_id: route for _, _, demand_id, route in records}
        if len(routes_by_demand) != len(triples):
            raise FormatError(trips_path, None, "trips and demand files disagree on records")
        try:
            routes = tuple(routes_by_demand[t.demand_id] for t in triples)
        except KeyError as exc:
            raise FormatError(trips_path, None, f"no route for demand {exc.args[0]!r}") from None
        days.append(DayData(day=day, day_type=day_type, triples=tuple(triples), routes=routes))
    return network, days
