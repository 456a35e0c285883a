"""Candidate-set construction: merge trip-planner recommendations with
observed routes from the trip history and assign prior weights."""

from __future__ import annotations

import bisect

from .model import CandidateSet, ODTriple, Route


class CandidateError(ValueError):
    pass


class TripHistory:
    """Observed routes over past days, indexed by (origin, destination) with
    first-boarding times sorted for slot lookups."""

    def __init__(self, routes):
        self.routes: list[Route] = list(routes)
        by_od: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for pos, route in enumerate(self.routes):
            key = (route.origin.stop_id, route.destination.stop_id)
            by_od.setdefault(key, []).append((route.legs[0].board_time, pos))
        # Per OD key: (first boardings, positions), sorted by boarding and
        # then by position, so that of equal boardings the earlier route
        # comes first.
        self._index: dict[tuple[str, str], tuple[tuple[int, ...], tuple[int, ...]]] = {
            key: tuple(zip(*sorted(pairs))) for key, pairs in by_od.items()
        }


def _reanchor(route: Route, depart_time: int) -> Route:
    """Shift all leg times so the first boarding happens at depart_time."""
    shift = depart_time - route.legs[0].board_time
    return Route(tuple(leg.shifted(shift) for leg in route.legs))


def history_lookup(
    hist: TripHistory, triple: ODTriple, slot_width: int
) -> list[tuple[Route, int]]:
    """History routes matching the demand's stops within +-slot_width seconds
    of its departure, one per route identity with its frequency, ranked by
    frequency (ties by identity).  Each identity's earliest-boarding route (of
    equal boardings, the first added) is re-anchored to the demand's departure
    time."""
    if slot_width <= 0:
        raise ValueError("slot_width must be positive")
    key = (triple.origin.stop_id, triple.destination.stop_id)
    entry = hist._index.get(key)
    if entry is None:
        return []
    times, ids = entry
    lo = bisect.bisect_left(times, triple.depart_time - slot_width)
    hi = bisect.bisect_right(times, triple.depart_time + slot_width)
    agg: dict[tuple, list] = {}  # identity -> [earliest route, frequency]
    for at in range(lo, hi):
        route = hist.routes[ids[at]]
        agg.setdefault(route.identity, [route, 0])[1] += 1
    ranked = sorted(agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [(_reanchor(route, triple.depart_time), freq) for _, (route, freq) in ranked]


def build_candidate_set(
    triple: ODTriple,
    planner_routes: list[Route],
    history_routes: list[tuple[Route, int]],
    lambda_mix: float,
) -> CandidateSet:
    """Merge the two route sources into one weighted candidate set.

    Planner routes share lambda_mix mass uniformly; history routes share the
    remaining mass proportionally to frequency.  A route present in both
    sources receives both contributions.  If one source is empty the other
    carries all mass.
    """
    if not 0.0 <= lambda_mix <= 1.0:
        raise ValueError("lambda_mix must lie in [0, 1]")
    if not planner_routes and not history_routes:
        raise CandidateError(f"no route assignment exists for demand {triple.demand_id!r}")

    # identity -> [first route, planner hits, history frequency], in the
    # order identities are first seen
    table: dict[tuple, list] = {}
    for route in planner_routes:
        table.setdefault(route.identity, [route, 0, 0])[1] += 1
    n_planner = len(table)

    total_freq = 0
    for route, freq in history_routes:
        if freq < 1:
            raise ValueError("history frequencies must be >= 1")
        table.setdefault(route.identity, [route, 0, 0])[2] += freq
        total_freq += freq

    planner_mass = lambda_mix if total_freq > 0 else 1.0
    if n_planner == 0:
        planner_mass = 0.0
    history_mass = 1.0 - planner_mass

    weighted: list[tuple[Route, float, int, int]] = []
    for route, hits, freq in table.values():
        w = 0.0
        if hits:
            w += planner_mass / n_planner
        if freq:
            w += history_mass * freq / total_freq
        if w > 0.0:
            # lambda_mix extremes assign zero mass to single-source candidates;
            # those are unreachable states and are dropped.
            weighted.append((route, w, hits, freq))
    scale = sum(w for _, w, _, _ in weighted)
    weighted = [(route, w / scale, hits, freq) for route, w, hits, freq in weighted]
    # A weight that rounds to 1.0 leaves the others less mass than a double
    # can hold beside it: the chain could never leave it, so it stands alone.
    weighted = [c for c in weighted if c[1] == 1.0] or weighted
    candidates = tuple((route, w) for route, w, _, _ in weighted)
    provenance = tuple((hits, freq) for _, _, hits, freq in weighted)
    return CandidateSet(triple=triple, candidates=candidates, provenance=provenance)
