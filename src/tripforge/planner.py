"""Compact schedule-based trip planner.

Lines run both ways as separate directed lines with headway-based departures
inside a service window.  A query enumerates loopless leg skeletons
(board/alight pairs on lines, transfers on foot) in static-cost order, then
realizes departure times from the headways.  Static cost (rides + walks +
transfer penalties) is a lower bound on realized generalized cost, so the
enumeration can stop as soon as no unseen skeleton can beat the k-th realized
route: the returned ranking is exact within the leg cap.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

from .metrics import full_trip_time
from .model import Leg, ODTriple, Route, Stop, great_circle_m

DEFAULT_MAX_LEGS = 3
_CEILING_CAP_S = 2 * 86_400


class PlannerError(ValueError):
    pass


@dataclass(frozen=True)
class Line:
    """A directed line: ordered stops, per-segment ride seconds and meters,
    and headway-based departures from the first stop within a service window."""

    line_id: str
    stop_ids: tuple[str, ...]
    seg_ride_s: tuple[int, ...]
    seg_dist_m: tuple[float, ...]
    headway_s: int
    first_dep_s: int
    last_dep_s: int

    def __post_init__(self) -> None:
        if len(self.stop_ids) < 2:
            raise ValueError(f"line {self.line_id!r}: needs at least 2 stops")
        if len(self.seg_ride_s) != len(self.stop_ids) - 1:
            raise ValueError(f"line {self.line_id!r}: segment ride count mismatch")
        if len(self.seg_dist_m) != len(self.stop_ids) - 1:
            raise ValueError(f"line {self.line_id!r}: segment distance count mismatch")
        if self.headway_s <= 0:
            raise ValueError(f"line {self.line_id!r}: headway must be positive")
        if any(t <= 0 for t in self.seg_ride_s):
            raise ValueError(f"line {self.line_id!r}: segment ride times must be positive")
        if self.last_dep_s < self.first_dep_s:
            raise ValueError(f"line {self.line_id!r}: empty service window")


@dataclass(frozen=True)
class TransitNetwork:
    stops: tuple[Stop, ...]
    lines: tuple[Line, ...]
    transfer_penalty_s: int = 300
    walk_speed_mps: float = 1.2
    max_walk_m: float = 800.0

    def __post_init__(self) -> None:
        ids = [s.stop_id for s in self.stops]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate stop ids in network")
        known = set(ids)
        for line in self.lines:
            missing = [s for s in line.stop_ids if s not in known]
            if missing:
                raise ValueError(f"line {line.line_id!r}: unknown stops {missing}")

    @cached_property
    def _index(self) -> _NetworkIndex:
        """The planner's derived index, built on first use and owned by the
        network, so it lives exactly as long as the network does."""
        return _NetworkIndex(self)


# ---------------------------------------------------------------------------
# Derived index, cached per network object.
# ---------------------------------------------------------------------------


class _NetworkIndex:
    def __init__(self, net: TransitNetwork):
        self.net = net
        self.stops = list(net.stops)
        self.pos = {s.stop_id: i for i, s in enumerate(net.stops)}
        self.lines = list(net.lines)

        self.line_stops: list[list[int]] = []
        self.ride_prefix: list[list[int]] = []
        self.dist_prefix: list[list[float]] = []
        # stop index -> [(line index, position on line)] where boarding is possible
        self.boardings: list[list[tuple[int, int]]] = [[] for _ in net.stops]
        for li, line in enumerate(net.lines):
            stop_idx = [self.pos[sid] for sid in line.stop_ids]
            self.line_stops.append(stop_idx)
            rp = [0]
            dp = [0.0]
            for r, d in zip(line.seg_ride_s, line.seg_dist_m):
                rp.append(rp[-1] + int(r))
                dp.append(dp[-1] + float(d))
            self.ride_prefix.append(rp)
            self.dist_prefix.append(dp)
            for pos_on_line, si in enumerate(stop_idx[:-1]):
                self.boardings[si].append((li, pos_on_line))

        # walkable neighbors within the transfer radius, self included
        self.walk: list[list[tuple[int, int]]] = []
        walk_speed = net.walk_speed_mps
        for i, a in enumerate(net.stops):
            nbrs = [(i, 0)]
            for j, b in enumerate(net.stops):
                if i == j:
                    continue
                d = great_circle_m(a, b)
                if d <= net.max_walk_m:
                    nbrs.append((j, int(math.ceil(d / walk_speed))))
            self.walk.append(nbrs)

        self.skeletons: dict[tuple[int, int, int], _SkeletonCache] = {}


@dataclass
class _SkeletonCache:
    complete: list  # sorted by (static_cost, tie, skeleton)
    exhausted_ceiling: int
    space_exhausted: bool


def _enumerate_skeletons(
    index: _NetworkIndex, origin: int, dest: int, ceiling: int, max_legs: int
) -> _SkeletonCache:
    """All loopless skeletons origin->dest with static cost <= ceiling.

    A skeleton is a tuple of (line, board position, alight position) legs plus
    the walk seconds before each leg.  Board stops are unique within a
    skeleton, consecutive legs use different lines, the first leg boards
    exactly at the origin, no leg boards at the destination, and a leg
    alighting at the destination completes the skeleton.
    """
    net = index.net
    penalty = net.transfer_penalty_s
    complete: list = []
    pruned = False
    # (static cost, current stop, legs tuple, walks tuple, boarded stops)
    stack: list = [(0, origin, (), (), frozenset())]
    while stack:
        cost, at, legs, walks, boarded = stack.pop()
        first = not legs
        prev_line = -1 if first else legs[-1][0]
        for nb, walk_s in index.walk[at] if not first else [(origin, 0)]:
            if nb == dest or nb in boarded:
                continue
            for li, pos in index.boardings[nb]:
                if li == prev_line:
                    continue
                line_stops = index.line_stops[li]
                rp = index.ride_prefix[li]
                for apos in range(pos + 1, len(line_stops)):
                    alight = line_stops[apos]
                    if alight in boarded or alight == nb:
                        continue
                    new_cost = cost + walk_s + (rp[apos] - rp[pos]) + (0 if first else penalty)
                    if new_cost > ceiling:
                        pruned = True
                        continue
                    new_legs = legs + ((li, pos, apos),)
                    if alight == dest:
                        complete.append((new_cost, 0, new_legs, walks + (walk_s,)))
                    elif len(new_legs) < max_legs:
                        stack.append(
                            (new_cost, alight, new_legs, walks + (walk_s,), boarded | {nb})
                        )
    complete.sort(key=lambda c: (c[0], c[2]))
    return _SkeletonCache(
        complete=complete,
        exhausted_ceiling=ceiling,
        space_exhausted=not pruned,
    )


def _next_departure(line: Line, ride_offset: int, t: int) -> int | None:
    """Earliest departure from a stop with the given ride offset at/after t."""
    first = line.first_dep_s + ride_offset
    if t <= first:
        return first
    k = (t - first + line.headway_s - 1) // line.headway_s
    dep = first + k * line.headway_s
    if dep - ride_offset > line.last_dep_s:
        return None
    return dep


def _realize(index: _NetworkIndex, legs, walks, depart_time: int) -> Route | None:
    net = index.net
    out: list[Leg] = []
    t = depart_time
    for (li, pos, apos), walk_s in zip(legs, walks):
        line = net.lines[li]
        rp = index.ride_prefix[li]
        dp = index.dist_prefix[li]
        dep = _next_departure(line, rp[pos], t + walk_s)
        if dep is None:
            return None
        arr = dep + (rp[apos] - rp[pos])
        out.append(
            Leg(
                board_stop=index.stops[index.line_stops[li][pos]],
                alight_stop=index.stops[index.line_stops[li][apos]],
                board_time=dep,
                alight_time=arr,
                line_id=line.line_id,
                leg_distance=dp[apos] - dp[pos],
            )
        )
        t = arr
    return Route(legs=tuple(out), source_tag="planner")


def generalized_cost(route: Route, transfer_penalty_s: int) -> float:
    """Ranking cost: full trip time plus a penalty per transfer."""
    return full_trip_time(route) + transfer_penalty_s * (len(route.legs) - 1)


def k_top_routes(
    net: TransitNetwork,
    triple: ODTriple,
    k: int = 5,
    max_legs: int = DEFAULT_MAX_LEGS,
) -> list[Route]:
    """Up to k loopless routes for the demand, ranked by generalized cost.

    Returns [] for round-trip demand (origin == destination) and for
    unreachable destinations; raises PlannerError on unknown stops.
    """
    if k < 1:
        raise PlannerError("k must be at least 1")
    index = net._index
    try:
        o = index.pos[triple.origin.stop_id]
        d = index.pos[triple.destination.stop_id]
    except KeyError as exc:
        raise PlannerError(f"unknown stop {exc.args[0]!r}") from None
    if o == d:
        return []

    cache_key = (o, d, max_legs)
    cache = index.skeletons.get(cache_key)
    ceiling = 2700 + 2 * net.transfer_penalty_s
    if cache is not None:
        ceiling = max(ceiling, cache.exhausted_ceiling)

    while True:
        if cache is None or (cache.exhausted_ceiling < ceiling and not cache.space_exhausted):
            cache = _enumerate_skeletons(index, o, d, ceiling, max_legs)
            index.skeletons[cache_key] = cache

        # Realize skeletons in static-cost order.  Realized cost >= static
        # cost, so once the k-th best realized cost drops strictly below the
        # next static cost no later skeleton can enter the top k (ties are
        # still scanned so the (cost, legs, identity) ordering stays exact).
        realized: list[tuple[float, int, tuple, Route]] = []
        cost_board: list[float] = []
        scanned_all = True
        for static_cost, _, legs, walks in cache.complete:
            if len(cost_board) >= k and cost_board[k - 1] < static_cost:
                scanned_all = False
                break
            route = _realize(index, legs, walks, triple.depart_time)
            if route is None:
                continue
            cost = generalized_cost(route, net.transfer_penalty_s)
            realized.append((cost, len(legs), route.identity, route))
            bisect.insort(cost_board, cost)
        realized.sort(key=lambda r: (r[0], r[1], r[2]))

        done = len(realized) >= k and (not scanned_all or realized[k - 1][0] <= cache.exhausted_ceiling)
        if done or cache.space_exhausted or ceiling >= _CEILING_CAP_S:
            return [r[3] for r in realized[:k]]
        ceiling = min(_CEILING_CAP_S, ceiling * 2)
