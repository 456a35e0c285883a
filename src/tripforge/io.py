"""File formats: network, trips/history, demand, targets spec and trace CSV.

All formats are line-oriented UTF-8 text with LF endings and deterministic
formatting, so identical inputs always serialize to identical bytes.  Floats
are written with repr (shortest round-trip form): files parse back losslessly.
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np

from .metrics import (
    DEFAULT_EDGES,
    MismatchEntry,
    MismatchSpec,
    TargetDistribution,
    beta_target,
    gaussian_mixture_target,
    poisson_target,
)
from .model import Leg, ODTriple, Route, Stop
from .planner import Line, TransitNetwork
from .sampler import RunTrace
from .synth import DayData, WORKING, WEEKEND


class FormatError(ValueError):
    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Network file: key/value lines, nested line blocks closed by "end".
# ---------------------------------------------------------------------------


def write_network(net: TransitNetwork, path) -> None:
    out = ["network"]
    out.append(f"transfer_penalty_s {net.transfer_penalty_s}")
    out.append(f"walk_speed_mps {_fmt(net.walk_speed_mps)}")
    out.append(f"max_walk_m {_fmt(net.max_walk_m)}")
    for s in net.stops:
        name = f" {s.name}" if s.name else ""
        out.append(f"stop {s.stop_id} {_fmt(s.lat)} {_fmt(s.lon)}{name}")
    for line in net.lines:
        out.append(
            f"line {line.line_id} headway {line.headway_s} "
            f"first {line.first_dep_s} last {line.last_dep_s}"
        )
        out.append(f"  stop {line.stop_ids[0]}")
        for sid, ride, dist in zip(line.stop_ids[1:], line.seg_ride_s, line.seg_dist_m):
            out.append(f"  seg {ride} {_fmt(dist)}")
            out.append(f"  stop {sid}")
        out.append("end")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def read_network(path) -> TransitNetwork:
    lines_txt = Path(path).read_text(encoding="utf-8").splitlines()
    stops: list[Stop] = []
    lines: list[Line] = []
    penalty = 300
    walk_speed = 1.2
    max_walk = 800.0

    i = 0
    n = len(lines_txt)

    def fail(lineno, msg):
        raise FormatError(path, lineno + 1, msg)

    if not lines_txt or lines_txt[0].strip() != "network":
        fail(0, "expected header 'network'")
    i = 1
    while i < n:
        raw = lines_txt[i].strip()
        i += 1
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        key = parts[0]
        if key == "transfer_penalty_s":
            penalty = int(parts[1])
        elif key == "walk_speed_mps":
            walk_speed = float(parts[1])
        elif key == "max_walk_m":
            max_walk = float(parts[1])
        elif key == "stop":
            if len(parts) < 4:
                fail(i - 1, "stop needs: stop <id> <lat> <lon> [name]")
            name = " ".join(parts[4:]) or None
            try:
                stops.append(Stop(parts[1], float(parts[2]), float(parts[3]), name))
            except ValueError as exc:
                fail(i - 1, str(exc))
        elif key == "line":
            if len(parts) != 8 or parts[2] != "headway" or parts[4] != "first" or parts[6] != "last":
                fail(i - 1, "line needs: line <id> headway <s> first <s> last <s>")
            line_id = parts[1]
            headway, first_dep, last_dep = int(parts[3]), int(parts[5]), int(parts[7])
            stop_ids: list[str] = []
            rides: list[int] = []
            dists: list[float] = []
            while i < n:
                raw2 = lines_txt[i].strip()
                i += 1
                if raw2 == "end":
                    break
                p2 = raw2.split()
                if p2[0] == "stop":
                    stop_ids.append(p2[1])
                elif p2[0] == "seg":
                    rides.append(int(p2[1]))
                    dists.append(float(p2[2]))
                else:
                    fail(i - 1, f"unexpected token {p2[0]!r} inside line block")
            else:
                fail(n - 1, f"line {line_id!r}: missing 'end'")
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
                fail(i - 1, str(exc))
        else:
            fail(i - 1, f"unknown directive {key!r}")
    try:
        return TransitNetwork(
            stops=tuple(stops),
            lines=tuple(lines),
            transfer_penalty_s=penalty,
            walk_speed_mps=walk_speed,
            max_walk_m=max_walk,
        )
    except ValueError as exc:
        raise FormatError(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# Trips / history file: one route per record, comma-delimited, ragged legs.
#   day,day_type,demand_id,line,board,board_s,alight,alight_s,dist_m,[...legs]
# ---------------------------------------------------------------------------


def write_trips(records, path) -> None:
    """records: iterable of (day, day_type, demand_id, Route)."""
    rows = []
    for day, day_type, demand_id, route in records:
        row = [str(day), day_type, demand_id]
        for leg in route.legs:
            row.extend(
                [
                    leg.line_id,
                    leg.board_stop.stop_id,
                    str(leg.board_time),
                    leg.alight_stop.stop_id,
                    str(leg.alight_time),
                    _fmt(leg.leg_distance),
                ]
            )
        rows.append(",".join(row))
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline="\n")


def read_trips(path, stops_by_id: dict[str, Stop], source_tag: str = "history"):
    """Yields (day, day_type, demand_id, Route) tuples."""
    out = []
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
        if day_type not in (WORKING, WEEKEND):
            raise FormatError(path, lineno, f"unknown day_type {day_type!r}")
        demand_id = parts[2]
        legs = []
        for off in range(3, len(parts), 6):
            line_id, board, bt, alight, at, dist = parts[off : off + 6]
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
        out.append((day, day_type, demand_id, Route(legs=tuple(legs), source_tag=source_tag)))
    return out


# ---------------------------------------------------------------------------
# Demand file: demand_id,origin,destination,depart_s[,round_trip]
# ---------------------------------------------------------------------------


def write_demand(triples, path) -> None:
    rows = []
    for t in triples:
        row = [t.demand_id, t.origin.stop_id, t.destination.stop_id, str(t.depart_time)]
        if t.round_trip_allowed:
            row.append("1")
        rows.append(",".join(row))
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline="\n")


def read_demand(path, stops_by_id: dict[str, Stop]) -> list[ODTriple]:
    out = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) not in (4, 5):
            raise FormatError(path, lineno, f"bad field count {len(parts)}")
        try:
            out.append(
                ODTriple(
                    origin=stops_by_id[parts[1]],
                    destination=stops_by_id[parts[2]],
                    depart_time=int(parts[3]),
                    demand_id=parts[0],
                    round_trip_allowed=len(parts) == 5 and parts[4] == "1",
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

    def fail(lineno, msg):
        raise FormatError(path, lineno, msg)

    def close(lineno):
        nonlocal block, components
        tag = block["tag"]
        kind = block.get("kind")
        edges = block.get("edges")
        if edges is None:
            if tag not in DEFAULT_EDGES:
                fail(lineno, f"characteristic {tag!r} needs explicit edges")
            edges = DEFAULT_EDGES[tag]
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
                fail(lineno, f"characteristic {tag!r}: unknown kind {kind!r}")
        except (ValueError, KeyError) as exc:
            fail(lineno, f"characteristic {tag!r}: {exc}")
        entries.append(MismatchEntry(tag=tag, target=target, weight=block.get("weight", 1.0)))
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
            block = {"tag": parts[1]}
        elif block is None:
            fail(lineno, f"directive {key!r} outside a characteristic block")
        elif key == "end":
            close(lineno)
        elif key == "weight":
            block["weight"] = float(parts[1])
        elif key == "kind":
            block["kind"] = parts[1]
        elif key == "edges":
            block["edges"] = np.array([float(x) for x in parts[1:]])
        elif key == "masses":
            block["masses"] = np.array([float(x) for x in parts[1:]])
        elif key == "alpha":
            block["alpha"] = float(parts[1])
        elif key == "beta":
            block["beta"] = float(parts[1])
        elif key == "lambda":
            block["lambda"] = float(parts[1])
        elif key == "component":
            components.append((float(parts[1]), float(parts[2]), float(parts[3])))
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


def write_collection(collection, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_network(collection.config.network, out / "network.txt")
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
    demand_id so triples and routes stay aligned.
    """
    root = Path(history_dir)
    if network is None:
        net_path = root / "network.txt"
        if not net_path.exists():
            raise FormatError(net_path, None, "network file not found")
        network = read_network(net_path)
    stops_by_id = {s.stop_id: s for s in network.stops}
    days = []
    for trips_path in sorted(root.glob("day_*.trips")):
        stem = trips_path.stem
        parts = stem.split("_")
        if len(parts) != 3:
            raise FormatError(trips_path, None, f"bad day file name {stem!r}")
        try:
            day = int(parts[1])
        except ValueError:
            raise FormatError(trips_path, None, f"bad day {parts[1]!r} in file name") from None
        day_type = parts[2]
        if day_type not in (WORKING, WEEKEND):
            raise FormatError(trips_path, None, f"unknown day_type {day_type!r} in file name")
        records = read_trips(trips_path, stops_by_id, source_tag="synthetic")
        demand_path = root / f"{stem}.demand"
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
