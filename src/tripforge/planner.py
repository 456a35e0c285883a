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
k-th realized route, so the returned ranking is exact; the only limit on the
route space is the cap of MAX_LEGS legs.  Legs are tabled once per network,
each origin's skeletons are filed as machine integers with a fixed tie order
(see _SkeletonCache), and a caller keeping one route builds one Route.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .model import Leg, ODTriple, Route, Stop, great_circle_m

MAX_LEGS = 3
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
        self.pos = {s.stop_id: i for i, s in enumerate(net.stops)}

        self.line_stops: list[list[int]] = []
        # phase[li][pos]: first_dep_s plus the ride prefix; every departure
        # of line li from position pos is this plus a multiple of its headway
        self.phase: list[list[int]] = []
        # legs[li][pos][apos], apos > pos: first and last departure at the board
        # stop, headway, ride seconds, identity and (board stop, alight stop,
        # line id, distance)
        self.legs: list[list[list[tuple | None]]] = []
        for line in net.lines:
            stop_idx = [self.pos[sid] for sid in line.stop_ids]
            self.line_stops.append(stop_idx)
            rp = [0]
            dp = [0.0]
            for r, d in zip(line.seg_ride_s, line.seg_dist_m):
                rp.append(rp[-1] + int(r))
                dp.append(dp[-1] + float(d))
            self.phase.append([line.first_dep_s + r for r in rp])
            stops = [net.stops[i] for i in stop_idx]
            self.legs.append([
                [(line.first_dep_s + rp[pos], line.last_dep_s + rp[pos], line.headway_s,
                  rp[apos] - rp[pos], (line.line_id, a.stop_id, b.stop_id),
                  (a, b, line.line_id, dp[apos] - dp[pos])) if apos > pos else None
                 for apos, b in enumerate(stops)]
                for pos, a in enumerate(stops)
            ])
        self.headways = [line.headway_s for line in net.lines]

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

        self.entries = self._last_legs()
        self.skeletons: dict[int, _SkeletonCache] = {}  # by origin

    def _last_legs(self) -> list[list[tuple]]:
        """Per arrival state, the legs a search can take next.  State s <
        len(stops) is the first leg from stop s; (line, alight position) pairs
        follow in line order.  An entry is (board|alight stop mask, bound
        added, entry id, alight stop bit, next state), in search order; the
        bound adds the walk, the transfer penalty, the least wait (see the
        module docstring) and the ride.  Ids number each state's entries in
        (line, board pos, alight pos, walk) order, after the earlier states';
        steps[id] is (line, board pos, alight pos, walk_s, legs record) and
        adds[id] the bound added, also in add_array with alight_array."""
        boardings: list[list[tuple[int, int]]] = [[] for _ in self.walk]
        for li, stops in enumerate(self.line_stops):
            for pos, si in enumerate(stops[:-1]):
                boardings[si].append((li, pos))
        # the state of (li, apos) is base[li] + apos
        base = list(accumulate((len(s) - 1 for s in self.line_stops), initial=len(self.walk) - 1))
        self.steps, self.adds = [], []  # by entry id

        def at(nbrs, prev_line: int, headway: int, arrive: int, transfer_s: int) -> list[tuple]:
            # (step, bound added, board stop, alight stop, next state); a line
            # that visits a stop twice has no leg from that stop to itself
            found = []
            for nb, walk_s in nbrs:
                for li, pos in boardings[nb]:
                    if li != prev_line:
                        gcd = math.gcd(headway, self.headways[li])
                        wait_s = (self.phase[li][pos] - arrive - walk_s) % gcd
                        stops, legs = self.line_stops[li], self.legs[li][pos]
                        found += [((li, pos, a, walk_s, legs[a]), walk_s + transfer_s + wait_s
                                   + legs[a][3], nb, stops[a], base[li] + a)
                                  for a in range(pos + 1, len(stops)) if stops[a] != nb]
            ranked = sorted(found)  # steps differ before their legs record
            ids = {id(f[0]): len(self.steps) + i for i, f in enumerate(ranked)}
            self.steps += [f[0] for f in ranked]
            self.adds += [f[1] for f in ranked]
            return [(1 << nb | 1 << alight, add, ids[id(step)], 1 << alight, state)
                    for step, add, nb, alight, state in found]

        # a first leg waits for no earlier line: a headway of 1 bounds no wait
        entries = [at(((origin, 0),), -1, 1, 0, 0) for origin in range(len(self.walk))]
        entries += [at(self.walk[stops[apos]], li, self.headways[li], self.phase[li][apos],
                       self.transfer_penalty_s)
                    for li, stops in enumerate(self.line_stops) for apos in range(1, len(stops))]
        # a bound sums at most MAX_LEGS adds: int64 unless rides last aeons
        wide = MAX_LEGS * max(self.adds, default=0) >> 63
        self.add_array = np.array(self.adds, dtype=object if wide else np.int64)
        self.alight_array = np.array([self.line_stops[li][a] for li, _, a, *_ in self.steps])
        return entries


@dataclass
class _SkeletonCache:
    """Every skeleton from one origin of at most MAX_LEGS legs.

    A skeleton is the tuple of its legs' entry ids (see _NetworkIndex._last_legs);
    its bound, the wait-aware lower bound on its realized generalized cost
    (see the module docstring), sums their adds.  nodes[n] is a path the
    search extended (node 0 is the empty path) and bounds[n] its bound.
    by_dest[d] files the skeletons ending at stop d as int64 codes, node *
    len(index.steps) + last entry id, sorted by (bound, node, entry id): equal
    bounds are realized by the path they extend, in search order, then by the
    last leg's (line, board pos, alight pos, walk).  The ranking keeps that
    order among equal (cost, legs, identity), as on a line visiting a stop twice.
    """

    by_dest: list[array]
    nodes: list[tuple[int, ...]]
    bounds: list[int]


def _search_origin(index: _NetworkIndex, origin: int) -> _SkeletonCache:
    """One depth-first search for the skeletons from `origin` to every stop.

    Board stops are unique within a skeleton, consecutive legs use different
    lines, the first leg boards exactly at the origin, and no leg alights at
    a stop boarded before (so none boards at its destination).  A path is a
    skeleton of its last alighting stop unless an earlier leg alighted there:
    a route ends at its destination.
    """
    entries, n_entries = index.entries, len(index.steps)
    found = array("q")  # node * n_entries + last entry id, per skeleton
    nodes, bounds = [()], [0]  # per node: its path's entry ids, its bound
    # (arrival state, node of the path, boarded mask, alighted mask)
    stack: list = [(origin, 0, 0, 0)]
    while stack:
        state, node, boarded, alighted = stack.pop()
        path, bound = nodes[node], bounds[node]
        extend = len(path) < MAX_LEGS - 1
        code = node * n_entries
        for mask, add, entry, alight_bit, next_state in entries[state]:
            if boarded & mask:
                continue
            if not alighted & alight_bit:
                found.append(code + entry)
            if extend:
                stack.append((next_state, len(nodes), boarded | mask ^ alight_bit,
                              alighted | alight_bit))
                nodes.append(path + (entry,))
                bounds.append(bound + add)
    # both factors of a code count objects held in memory, so it fits int64
    codes = np.frombuffer(found, dtype=np.int64)
    node, entry = np.divmod(codes, n_entries)
    dest = index.alight_array[entry]
    bound = np.array(bounds, dtype=index.add_array.dtype)[node] + index.add_array[entry]
    order = np.lexsort((codes, bound, dest))
    cuts = np.searchsorted(dest[order], np.arange(1, len(index.walk)))
    by_dest = [array("q", part.tobytes()) for part in np.split(codes[order], cuts)]
    return _SkeletonCache(by_dest, nodes, bounds)


def _realize(index: _NetworkIndex, skeleton: tuple[int, ...], depart_time: int) -> list[int] | None:
    """Board and alight time of each leg, flat, taking the earliest
    departure at or after arrival on foot; None if a leg misses the last
    departure of its line."""
    times: list[int] = []
    t = depart_time
    steps = index.steps
    for entry in skeleton:
        _, _, _, walk_s, (first, last, headway, ride_s, _, _) = steps[entry]
        t += walk_s
        if t <= first:
            dep = first
        else:
            dep = first + (t - first + headway - 1) // headway * headway
            if dep > last:
                return None
        t = dep + ride_s
        times += (dep, t)
    return times


def _route(net: TransitNetwork, skeleton: tuple[int, ...], times: list[int]) -> Route:
    legs = []
    steps = net._index.steps
    for i, entry in enumerate(skeleton):
        board, alight, line_id, distance = steps[entry][4][5]
        legs.append(Leg(board, alight, times[2 * i], times[2 * i + 1], line_id, distance))
    return Route(legs=tuple(legs))


def k_top_routes(net: TransitNetwork, triple: ODTriple, k: int) -> list[Route]:
    """Up to k loopless routes of at most MAX_LEGS legs for the demand,
    ranked by generalized cost.

    Returns [] for round-trip demand (origin == destination) and for
    unreachable destinations; raises PlannerError on unknown stops.
    """
    return [_route(net, skeleton, times) for skeleton, times in _ranked(net, triple, k)]


def _ranked(
    net: TransitNetwork, triple: ODTriple, k: int
) -> list[tuple[tuple[int, ...], list[int]]]:
    """(skeleton, times) of the routes `k_top_routes` returns, in rank order."""
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
    cache = index.skeletons.get(o)
    if cache is None:
        cache = index.skeletons[o] = _search_origin(index, o)

    # Realize skeletons in bound order, keeping the realized ones sorted by
    # (cost, legs, identity).  Realized cost >= bound, so once the k-th best
    # realized cost drops strictly below the next bound no later skeleton can
    # enter the top k (ties are still scanned so the ordering stays exact); a
    # skeleton costing more than the k-th is never returned and is dropped
    # unranked.  The cost is trip time plus the penalty per transfer, as a
    # double; the identity is Route.identity as a list.
    penalty = index.transfer_penalty_s
    steps, adds, n_entries = index.steps, index.adds, len(index.steps)
    nodes, bounds = cache.nodes, cache.bounds
    depart_time = triple.depart_time
    realized: list[tuple[float, int, list, tuple[int, ...], list[int]]] = []
    kth = math.inf  # the k-th realized cost, once there are k
    for code in cache.by_dest[d]:
        node, entry = divmod(code, n_entries)
        if kth < bounds[node] + adds[entry]:
            break
        skeleton = nodes[node] + (entry,)
        times = _realize(index, skeleton, depart_time)
        if times is None:
            continue
        n_legs = len(times) // 2
        cost = float(times[-1] - times[0]) + penalty * (n_legs - 1)
        if cost > kth:
            continue
        identity = [steps[e][4][4] for e in skeleton]
        bisect.insort(realized, (cost, n_legs, identity, skeleton, times), key=_RANK)
        if len(realized) >= k:
            kth = realized[k - 1][0]
    return [(r[3], r[4]) for r in realized[:k]]
