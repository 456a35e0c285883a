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
        self.routes: list[Route] = []
        self._index: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        pos = len(self.routes)
        self.routes.append(route)
        key = (route.origin.stop_id, route.destination.stop_id)
        times, ids = self._index.setdefault(key, ([], []))
        t = route.legs[0].board_time
        at = bisect.bisect_right(times, t)
        times.insert(at, t)
        ids.insert(at, pos)


def _reanchor(route: Route, depart_time: int) -> Route:
    """Shift all leg times so the first boarding happens at depart_time."""
    shift = depart_time - route.legs[0].board_time
    return Route(tuple(leg.shifted(shift) for leg in route.legs))


def history_lookup(
    hist: TripHistory,
    triple: ODTriple,
    slot_width: int = 1200,
) -> list[tuple[Route, int]]:
    """History routes matching the demand's stops within +-slot_width seconds
    of its departure.  Frequencies are aggregated by route identity; returned
    routes are re-anchored to the demand's departure time, ranked by
    frequency (ties by identity)."""
    if slot_width <= 0:
        raise ValueError("slot_width must be positive")
    key = (triple.origin.stop_id, triple.destination.stop_id)
    entry = hist._index.get(key)
    if entry is None:
        return []
    times, ids = entry
    lo = bisect.bisect_left(times, triple.depart_time - slot_width)
    hi = bisect.bisect_right(times, triple.depart_time + slot_width)
    agg: dict[tuple, tuple[Route, int]] = {}
    for at in range(lo, hi):
        route = hist.routes[ids[at]]
        ident = route.identity
        if ident in agg:
            first, freq = agg[ident]
            agg[ident] = (first, freq + 1)
        else:
            agg[ident] = (route, 1)
    ranked = sorted(agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [(_reanchor(route, triple.depart_time), freq) for _, (route, freq) in ranked]


def build_candidate_set(
    triple: ODTriple,
    planner_routes: list[Route],
    history_routes: list[tuple[Route, int]],
    lambda_mix: float = 0.5,
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

    order: list[tuple] = []
    routes: dict[tuple, Route] = {}
    planner_hits: dict[tuple, int] = {}
    history_freq: dict[tuple, int] = {}

    for route in planner_routes:
        ident = route.identity
        if ident not in routes:
            order.append(ident)
            routes[ident] = route
        planner_hits[ident] = planner_hits.get(ident, 0) + 1
    n_planner = len(planner_hits)

    total_freq = 0
    for route, freq in history_routes:
        if freq < 1:
            raise ValueError("history frequencies must be >= 1")
        ident = route.identity
        if ident not in routes:
            order.append(ident)
            routes[ident] = route
        history_freq[ident] = history_freq.get(ident, 0) + freq
        total_freq += freq

    planner_mass = lambda_mix if total_freq > 0 else 1.0
    if n_planner == 0:
        planner_mass = 0.0
    history_mass = 1.0 - planner_mass

    weighted: list[tuple[tuple, float]] = []
    for ident in order:
        w = 0.0
        if ident in planner_hits:
            w += planner_mass / n_planner
        if ident in history_freq:
            w += history_mass * history_freq[ident] / total_freq
        if w > 0.0:
            # lambda_mix extremes assign zero mass to single-source candidates;
            # those are unreachable states and are dropped.
            weighted.append((ident, w))
    scale = sum(w for _, w in weighted)
    candidates = tuple((routes[ident], w / scale) for ident, w in weighted)
    provenance = tuple(
        (planner_hits.get(ident, 0), history_freq.get(ident, 0)) for ident, _ in weighted
    )
    return CandidateSet(triple=triple, candidates=candidates, provenance=provenance)
