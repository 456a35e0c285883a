"""Compact schedule-based trip planner.

Lines run both ways as separate directed lines with headway-based departures
inside a service window.  One depth-first search per origin enumerates the
loopless leg skeletons (board/alight pairs on lines, transfers on foot) to
every destination; a query realizes its destination's skeletons on integer
times in the order of a wait-aware lower bound on their generalized cost.

The bound is static cost (rides + walks + transfer penalties) plus, at each
transfer from line A to line B, the least wait the two timetables allow.
A's departures from its first stop lie on first_dep_s + m*h_A, so it reaches
its alight stop at a time congruent to A's phase there (first_dep_s plus the
ride prefix) modulo h_A; B leaves its board stop at times congruent to B's
phase there modulo h_B.  Every realized wait is therefore congruent to
phase_B - phase_A - walk modulo gcd(h_A, h_B), and being non-negative it is
at least that residue.  Service windows only remove departures, so the sum
stays a lower bound (the A* admissibility argument of Hart, Nilsson and
Raphael, 1968).  Realization stops as soon as no unseen skeleton can beat the
k-th realized route: the returned ranking is exact within the leg cap.  Only
the k routes returned are built as Route objects.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .metrics import full_trip_time
from .model import Leg, ODTriple, Route, Stop, great_circle_m

DEFAULT_MAX_LEGS = 3
_CEILING_CAP_S = 2 * 86_400
_RANK = itemgetter(0, 1, 2)  # (cost, legs, identity) of a realized skeleton


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
        if not all(math.isfinite(d) and d > 0 for d in self.seg_dist_m):
            raise ValueError(f"line {self.line_id!r}: segment distances must be finite and > 0")
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
        if self.transfer_penalty_s < 0:
            raise ValueError(f"transfer_penalty_s must be >= 0, got {self.transfer_penalty_s}")
        if not (math.isfinite(self.walk_speed_mps) and self.walk_speed_mps > 0):
            raise ValueError(f"walk_speed_mps must be finite and > 0, got {self.walk_speed_mps}")
        if not (math.isfinite(self.max_walk_m) and self.max_walk_m >= 0):
            raise ValueError(f"max_walk_m must be finite and >= 0, got {self.max_walk_m}")
        ids = [s.stop_id for s in self.stops]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate stop ids in network")
        line_ids = [line.line_id for line in self.lines]
        if len(set(line_ids)) != len(line_ids):
            raise ValueError("duplicate line ids in network")
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
    # Holds no reference to the network: the network holds the index, and a
    # cycle would keep both alive until a full garbage collection.
    def __init__(self, net: TransitNetwork):
        self.transfer_penalty_s = net.transfer_penalty_s
        self.lines = net.lines
        self.stops = list(net.stops)
        self.pos = {s.stop_id: i for i, s in enumerate(net.stops)}

        self.line_stops: list[list[int]] = []
        self.ride_prefix: list[list[int]] = []
        # phase[li][pos]: first_dep_s plus the ride prefix; every departure
        # of line li from position pos is this plus a multiple of its headway
        self.phase: list[list[int]] = []
        self.dist_prefix: list[list[float]] = []
        # leg_ids[li][pos][apos]: the leg's (line id, board id, alight id)
        self.leg_ids: list[list[list[tuple[str, str, str]]]] = []
        # stop index -> [(line, board position, ((alight position, alight
        # stop, ride seconds), ...))], one entry per possible boarding
        self.boardings: list[list[tuple]] = [[] for _ in net.stops]
        for li, line in enumerate(net.lines):
            stop_idx = [self.pos[sid] for sid in line.stop_ids]
            self.line_stops.append(stop_idx)
            rp = [0]
            dp = [0.0]
            for r, d in zip(line.seg_ride_s, line.seg_dist_m):
                rp.append(rp[-1] + int(r))
                dp.append(dp[-1] + float(d))
            self.ride_prefix.append(rp)
            self.phase.append([line.first_dep_s + r for r in rp])
            self.dist_prefix.append(dp)
            ids = line.stop_ids
            self.leg_ids.append([[(line.line_id, a, b) for b in ids] for a in ids])
            for pos, si in enumerate(stop_idx[:-1]):
                hops = tuple(
                    (a, stop_idx[a], rp[a] - rp[pos]) for a in range(pos + 1, len(stop_idx))
                )
                self.boardings[si].append((li, pos, hops))

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

        # skeleton key fields, low to high: walk_s, alight_pos, board_pos, line, node
        w = max((s for nbrs in self.walk for _, s in nbrs), default=0).bit_length()
        p = max((len(s) - 1 for s in self.line_stops), default=0).bit_length()
        self.key_offsets = (0, w, w + p, w + 2 * p, w + 2 * p + (len(self.lines) - 1).bit_length())
        self.node_bits = sum(len(s) * (len(s) - 1) // 2 for s in self.line_stops).bit_length()

        # wait_gcd[a][b]: gcd of the headways of lines a and b.  The extra
        # last row is all ones, so row -1 (no line ridden yet) bounds no wait.
        self.wait_gcd = [[math.gcd(a.headway_s, b.headway_s) for b in net.lines]
                         for a in net.lines]
        self.wait_gcd.append([1] * len(net.lines))

        self.skeletons: dict[tuple[int, int], _SkeletonCache] = {}


@dataclass
class _SkeletonCache:
    """The skeletons from one origin with static cost <= ceiling.

    A skeleton is a flat int tuple (bound, line, board_pos, alight_pos,
    walk_s, line, ...), walk_s being the walk to the leg's board stop and
    bound the wait-aware lower bound on its realized generalized cost (see
    the module docstring).  by_dest[d] files those ending at stop d as sorted
    int keys, so in bound order: bound << shift over the node (an index into
    nodes, which holds the flat legs before the last) and the last leg, at
    _NetworkIndex.key_offsets.  The ceiling is on static cost, at most the
    bound, so a skeleton it leaves out has a bound above the ceiling too.
    Bit d of `exhausted` is set when the ceiling cut nothing on the way to d,
    so by_dest[d] is all of d's skeletons.
    """

    ceiling: int
    by_dest: list[list[int]]
    exhausted: int
    nodes: list[tuple[int, ...]]
    shift: int


def _search_origin(
    index: _NetworkIndex, origin: int, ceiling: int, max_legs: int
) -> _SkeletonCache:
    """One depth-first search for the skeletons from `origin` to every stop.

    Board stops are unique within a skeleton, consecutive legs use different
    lines, the first leg boards exactly at the origin, and no leg alights at
    a stop boarded before (so none boards at its destination).  A path is a
    skeleton of its last alighting stop unless an earlier leg alighted there:
    a route ends at its destination.  A cut extension would have been
    explored for every destination its path neither boarded nor alighted at,
    bar its board stop, so those lose their exhausted bit.

    Static cost decides the ceiling cut; the bound in a key's high bits adds
    each transfer's least wait (see the module docstring).
    """
    penalty = index.transfer_penalty_s
    phase = index.phase
    _, apos_at, pos_at, line_at, node_at = index.key_offsets
    shift = node_at + (max_legs - 1) * index.node_bits  # < n_legs ** (max_legs - 1) nodes
    # each hop also carries its key part: ride_s added to the bound, alight_pos
    boardings = [[(li, pos, [(a, s, r, r << shift | a << apos_at) for a, s, r in hops])
                  for li, pos, hops in b] for b in index.boardings]
    by_dest: list[list[int]] = [[] for _ in index.stops]
    nodes: list[tuple[int, ...]] = [()]
    exhausted = -1  # bit d set: nothing on the way to d was cut
    # (static cost, bound, current stop, node of the path, boarded mask, alighted mask)
    stack: list = [(0, 0, origin, 0, 0, 0)]
    while stack:
        cost, bound, at, node, boarded, alighted = stack.pop()
        legs = nodes[node]
        extend = len(legs) < 4 * max_legs - 4
        if legs:
            prev_line, transfer_s, nbrs = legs[-4], penalty, index.walk[at]
            arrive = phase[prev_line][legs[-2]]
        else:
            prev_line, transfer_s, nbrs, arrive = -1, 0, ((origin, 0),), 0
        gcds = index.wait_gcd[prev_line]
        for nb, walk_s in nbrs:
            if boarded >> nb & 1:
                continue
            base = cost + walk_s + transfer_s
            bound_base = bound + walk_s + transfer_s
            ready = arrive + walk_s
            now_boarded = boarded | (1 << nb)
            for li, pos, hops in boardings[nb]:
                if li == prev_line:
                    continue
                wait_base = bound_base + (phase[li][pos] - ready) % gcds[li]
                key = wait_base << shift | node << node_at | li << line_at | pos << pos_at | walk_s
                for apos, alight, ride_s, hop_key in hops:
                    if now_boarded >> alight & 1:
                        continue
                    new_cost = base + ride_s
                    if new_cost > ceiling:
                        # later alight positions only cost more
                        exhausted &= now_boarded | alighted
                        break
                    if not alighted >> alight & 1:
                        by_dest[alight].append(key + hop_key)
                    if extend:
                        stack.append((new_cost, wait_base + ride_s, alight, len(nodes),
                                      now_boarded, alighted | (1 << alight)))
                        nodes.append(legs + (li, pos, apos, walk_s))
    for keys in by_dest:
        keys.sort()
    return _SkeletonCache(ceiling, by_dest, exhausted, nodes, shift)


def _realize(index: _NetworkIndex, skeleton: tuple[int, ...], depart_time: int) -> list[int] | None:
    """Board and alight time of each leg, flat, taking the earliest
    departure at or after arrival on foot; None if a leg misses the last
    departure of its line."""
    times: list[int] = []
    t = depart_time
    for i in range(1, len(skeleton), 4):
        li, pos, apos, walk_s = skeleton[i : i + 4]
        line = index.lines[li]
        rp = index.ride_prefix[li]
        offset = rp[pos]
        first = line.first_dep_s + offset
        t += walk_s
        if t <= first:
            dep = first
        else:
            dep = first + (t - first + line.headway_s - 1) // line.headway_s * line.headway_s
            if dep - offset > line.last_dep_s:
                return None
        t = dep + rp[apos] - offset
        times += (dep, t)
    return times


def _route(index: _NetworkIndex, skeleton: tuple[int, ...], times: list[int]) -> Route:
    legs = []
    for i in range(1, len(skeleton), 4):
        li, pos, apos = skeleton[i : i + 3]
        stops, dp = index.line_stops[li], index.dist_prefix[li]
        legs.append(Leg(board_stop=index.stops[stops[pos]], alight_stop=index.stops[stops[apos]],
                        board_time=times[i // 2], alight_time=times[i // 2 + 1],
                        line_id=index.lines[li].line_id, leg_distance=dp[apos] - dp[pos]))
    return Route(legs=tuple(legs))


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
    if max_legs < 1:
        raise PlannerError("max_legs must be at least 1")
    index = net._index
    try:
        o = index.pos[triple.origin.stop_id]
        d = index.pos[triple.destination.stop_id]
    except KeyError as exc:
        raise PlannerError(f"unknown stop {exc.args[0]!r}") from None
    if o == d:
        return []

    penalty = net.transfer_penalty_s
    leg_ids = index.leg_ids
    cache_key = (o, max_legs)
    cache = index.skeletons.get(cache_key)
    ceiling = 2700 + 2 * penalty
    if cache is not None:
        ceiling = max(ceiling, cache.ceiling)

    while True:
        if cache is None or (cache.ceiling < ceiling and not cache.exhausted >> d & 1):
            cache = _search_origin(index, o, ceiling, max_legs)
            index.skeletons[cache_key] = cache

        # Realize skeletons in bound order, keeping the realized ones sorted
        # by (cost, legs, identity).  Realized cost >= bound, so once the
        # k-th best realized cost drops strictly below the next bound no
        # later skeleton can enter the top k (ties are still scanned so the
        # ordering stays exact).  The cost is the double generalized_cost
        # gives; the identity is Route.identity as a list.
        realized: list[tuple[float, int, list, tuple[int, ...], list[int]]] = []
        at = (*index.key_offsets, cache.shift)
        fields = [(lo, (1 << hi - lo) - 1) for lo, hi in zip(at, at[1:])]  # (offset, mask)
        for key in cache.by_dest[d]:
            if len(realized) >= k and realized[k - 1][0] < key >> cache.shift:
                break
            walk_s, apos, pos, li, node = [key >> lo & mask for lo, mask in fields]
            skeleton = (key >> cache.shift, *cache.nodes[node], li, pos, apos, walk_s)
            times = _realize(index, skeleton, triple.depart_time)
            if times is None:
                continue
            n_legs = len(times) // 2
            cost = float(times[-1] - times[0]) + penalty * (n_legs - 1)
            identity = [
                leg_ids[skeleton[i]][skeleton[i + 1]][skeleton[i + 2]]
                for i in range(1, len(skeleton), 4)
            ]
            bisect.insort(realized, (cost, n_legs, identity, skeleton, times), key=_RANK)

        # A skeleton the ceiling left out costs more than the ceiling.
        done = len(realized) >= k and realized[k - 1][0] <= cache.ceiling
        if done or cache.exhausted >> d & 1 or ceiling >= _CEILING_CAP_S:
            return [_route(index, r[3], r[4]) for r in realized[:k]]
        ceiling = min(_CEILING_CAP_S, ceiling * 2)
