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
route space is the cap of MAX_LEGS legs.  Transfer options and leg records
are tabled once per network, and a caller keeping one route builds one Route.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from operator import itemgetter

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

        # skeleton key fields, low to high: walk_s, alight_pos, board_pos, line,
        # node, then the bound at `shift`; a node is a path of fewer than
        # MAX_LEGS legs, so there are fewer than n_legs ** (MAX_LEGS - 1) nodes
        w = max((s for nbrs in self.walk for _, s in nbrs), default=0).bit_length()
        p = max((len(s) - 1 for s in self.line_stops), default=0).bit_length()
        self.key_offsets = (0, w, w + p, w + 2 * p, w + 2 * p + (len(net.lines) - 1).bit_length())
        node_bits = sum(len(s) * (len(s) - 1) // 2 for s in self.line_stops).bit_length()
        self.shift = self.key_offsets[-1] + (MAX_LEGS - 1) * node_bits

        self.options = self._transfer_options()
        self.skeletons: dict[int, _SkeletonCache] = {}  # by origin

    def _transfer_options(self) -> list[list[tuple]]:
        """Per arrival state, the legs a search can take next.  State s <
        len(stops) is the first leg from stop s; (line, alight position) pairs
        follow in line order.  An option is (board stop bit, bound added, key
        low bits, hops), in search order; the bound adds the walk, the
        transfer penalty and the least wait (see the module docstring).  A hop
        is (alight stop bit, alight stop, ride seconds, key part, node legs
        added, next state)."""
        shift = self.shift
        _, apos_at, pos_at, line_at, _ = self.key_offsets
        boardings: list[list[tuple[int, int]]] = [[] for _ in self.walk]
        for li, stops in enumerate(self.line_stops):
            for pos, si in enumerate(stops[:-1]):
                boardings[si].append((li, pos))
        # the state of (li, apos) is base[li] + apos
        base = list(accumulate((len(s) - 1 for s in self.line_stops), initial=len(self.walk) - 1))

        @cache  # options boarding one line at one position after one walk share their hops
        def hops(li: int, pos: int, walk_s: int) -> tuple:
            stops, legs = self.line_stops[li], self.legs[li][pos]
            return tuple((1 << stops[a], stops[a], legs[a][3], legs[a][3] << shift | a << apos_at,
                          (li, pos, a, walk_s), base[li] + a) for a in range(pos + 1, len(stops)))

        def at(nbrs, prev_line: int, headway: int, arrive: int, transfer_s: int) -> list[tuple]:
            out = []
            for nb, walk_s in nbrs:
                for li, pos in boardings[nb]:
                    if li != prev_line:
                        gcd = math.gcd(headway, self.headways[li])
                        wait_s = (self.phase[li][pos] - arrive - walk_s) % gcd
                        out.append((1 << nb, walk_s + transfer_s + wait_s,
                                    li << line_at | pos << pos_at | walk_s, hops(li, pos, walk_s)))
            return out

        # a first leg waits for no earlier line: a headway of 1 bounds no wait
        options = [at(((origin, 0),), -1, 1, 0, 0) for origin in range(len(self.walk))]
        options += [at(self.walk[stops[apos]], li, self.headways[li], self.phase[li][apos],
                       self.transfer_penalty_s)
                    for li, stops in enumerate(self.line_stops) for apos in range(1, len(stops))]
        return options


@dataclass
class _SkeletonCache:
    """Every skeleton from one origin of at most MAX_LEGS legs.

    A skeleton is a flat int tuple (bound, line, board_pos, alight_pos,
    walk_s, line, ...), walk_s being the walk to the leg's board stop and
    bound the wait-aware lower bound on its realized generalized cost (see
    the module docstring).  by_dest[d] files those ending at stop d as sorted
    int keys, so in bound order: bound << _NetworkIndex.shift over the node
    (an index into nodes, which holds the flat legs before the last) and the
    last leg, at _NetworkIndex.key_offsets.
    """

    by_dest: list[list[int]]
    nodes: list[tuple[int, ...]]


def _search_origin(index: _NetworkIndex, origin: int) -> _SkeletonCache:
    """One depth-first search for the skeletons from `origin` to every stop.

    Board stops are unique within a skeleton, consecutive legs use different
    lines, the first leg boards exactly at the origin, and no leg alights at
    a stop boarded before (so none boards at its destination).  A path is a
    skeleton of its last alighting stop unless an earlier leg alighted there:
    a route ends at its destination.
    """
    node_at = index.key_offsets[-1]
    shift = index.shift
    options = index.options
    by_dest: list[list[int]] = [[] for _ in index.walk]
    nodes: list[tuple[int, ...]] = [()]
    # (bound, arrival state, node of the path, boarded mask, alighted mask)
    stack: list = [(0, origin, 0, 0, 0)]
    while stack:
        bound, state, node, boarded, alighted = stack.pop()
        legs = nodes[node]
        extend = len(legs) < 4 * MAX_LEGS - 4
        node_key = node << node_at
        for board_bit, bound_add, low, hops in options[state]:
            if boarded & board_bit:
                continue
            base = bound + bound_add
            key = base << shift | node_key | low
            now_boarded = boarded | board_bit
            for alight_bit, alight, ride_s, hop_key, leg, next_state in hops:
                if now_boarded & alight_bit:
                    continue
                if not alighted & alight_bit:
                    by_dest[alight].append(key + hop_key)
                if extend:
                    stack.append((base + ride_s, next_state, len(nodes),
                                  now_boarded, alighted | alight_bit))
                    nodes.append(legs + leg)
    for keys in by_dest:
        keys.sort()
    return _SkeletonCache(by_dest, nodes)


def _realize(index: _NetworkIndex, skeleton: tuple[int, ...], depart_time: int) -> list[int] | None:
    """Board and alight time of each leg, flat, taking the earliest
    departure at or after arrival on foot; None if a leg misses the last
    departure of its line."""
    times: list[int] = []
    t = depart_time
    legs = index.legs
    for i in range(1, len(skeleton), 4):
        first, last, headway, ride_s, _, _ = legs[skeleton[i]][skeleton[i + 1]][skeleton[i + 2]]
        t += skeleton[i + 3]
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
    records = net._index.legs
    for i in range(1, len(skeleton), 4):
        board, alight, line_id, distance = records[skeleton[i]][skeleton[i + 1]][skeleton[i + 2]][5]
        legs.append(Leg(board, alight, times[i // 2], times[i // 2 + 1], line_id, distance))
    return Route(legs=tuple(legs))


def k_top_routes(net: TransitNetwork, triple: ODTriple, k: int = 5) -> list[Route]:
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
    legs = index.legs
    depart_time = triple.depart_time
    shift, nodes = index.shift, cache.nodes
    _, apos_at, pos_at, line_at, node_at = offsets = index.key_offsets
    walk_mask, pos_mask, _, line_mask = [(1 << hi - lo) - 1 for lo, hi in zip(offsets, offsets[1:])]
    node_mask = (1 << shift - node_at) - 1
    realized: list[tuple[float, int, list, tuple[int, ...], list[int]]] = []
    kth = math.inf  # the k-th realized cost, once there are k
    for key in cache.by_dest[d]:
        bound = key >> shift
        if kth < bound:
            break
        skeleton = (bound, *nodes[key >> node_at & node_mask], key >> line_at & line_mask,
                    key >> pos_at & pos_mask, key >> apos_at & pos_mask, key & walk_mask)
        times = _realize(index, skeleton, depart_time)
        if times is None:
            continue
        n_legs = len(times) // 2
        cost = float(times[-1] - times[0]) + penalty * (n_legs - 1)
        if cost > kth:
            continue
        identity = [legs[skeleton[i]][skeleton[i + 1]][skeleton[i + 2]][4]
                    for i in range(1, len(skeleton), 4)]
        bisect.insort(realized, (cost, n_legs, identity, skeleton, times), key=_RANK)
        if len(realized) >= k:
            kth = realized[k - 1][0]
    return [(r[3], r[4]) for r in realized[:k]]
