"""Independent reference implementations used as test oracles.

These deliberately avoid the library's search/caching machinery: plain
recursive enumeration and per-assignment histogram recomputation.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from array import array

import numpy as np

from tripforge import (
    ChainState,
    Checkpoint,
    Histogram,
    Leg,
    Route,
    RunTrace,
    acceptance_probability,
    apply_delta,
    characteristic_values,
    delta_error,
    full_trip_time,
    great_circle_m,
    initialize,
    l1_mismatch,
    propose,
)
from tripforge import planner
from tripforge.sampler import _BLOCK


def characteristic_value(tag: str, route: Route) -> float:
    """The tagged characteristic of one route."""
    return float(characteristic_values(tag, (route,))[0])


def transfer_walk_problems(route: Route, max_walk_m: float) -> list[str]:
    """Transfers that walk further than the planner's limit `max_walk_m`.
    A planned route has none; an observed one may."""
    problems = []
    for i in range(len(route.legs) - 1):
        walk = great_circle_m(route.legs[i].alight_stop, route.legs[i + 1].board_stop)
        if walk > max_walk_m:
            problems.append(
                f"legs {i}->{i + 1}: transfer walk {walk:.0f} m exceeds limit {max_walk_m:.0f} m"
            )
    return problems


def cached_histograms(state) -> tuple[Histogram, ...]:
    """The histograms of a ChainState's cached bin counts."""
    return tuple(
        Histogram.from_counts(c, e.target.edges) for c, e in zip(state.counts, state.spec.entries)
    )


def total_error(state) -> float:
    """Weighted sum of L1 mismatches between a ChainState's cached histograms
    and its targets."""
    return float(sum(
        e.weight * l1_mismatch(h, e.target)
        for h, e in zip(cached_histograms(state), state.spec.entries)
    ))


def generalized_cost(route: Route, transfer_penalty_s: int) -> float:
    """The planner's ranking cost: full trip time plus a penalty per transfer."""
    return full_trip_time(route) + transfer_penalty_s * (len(route.legs) - 1)


def oracle_next_departure(line, pos: int, t: int):
    """Next departure from stop position `pos` at/after t, by linear scan."""
    offset = sum(line.seg_ride_s[:pos])
    dep_terminal = line.first_dep_s
    while dep_terminal <= line.last_dep_s:
        if dep_terminal + offset >= t:
            return dep_terminal + offset
        dep_terminal += line.headway_s
    return None


def oracle_enumerate_routes(net, triple, max_legs: int = 3) -> list[Route]:
    """Every realizable loopless route under the shared route-space contract,
    sorted by (generalized cost, legs, identity).

    Contract: first leg boards exactly at the origin; transfers walk at most
    max_walk_m; board stops are unique; consecutive legs use different lines;
    no boarding at the destination; a leg alighting at the destination ends
    the route; alighting at a previously boarded stop is not allowed.
    """
    stops = {s.stop_id: s for s in net.stops}
    origin = triple.origin.stop_id
    dest = triple.destination.stop_id
    if origin == dest:
        return []

    results: list[Route] = []

    def extend(legs: list[Leg], boarded: set[str], t: int):
        if len(legs) >= max_legs:
            return
        if legs:
            here = legs[-1].alight_stop
            candidates = []
            for sid, s in stops.items():
                walk = great_circle_m(here, s)
                if walk <= net.max_walk_m:
                    candidates.append((sid, int(math.ceil(walk / net.walk_speed_mps))))
        else:
            candidates = [(origin, 0)]
        for board_sid, walk_s in candidates:
            if board_sid == dest or board_sid in boarded:
                continue
            for line in net.lines:
                if legs and line.line_id == legs[-1].line_id:
                    continue
                for pos in range(len(line.stop_ids) - 1):
                    if line.stop_ids[pos] != board_sid:
                        continue
                    dep = oracle_next_departure(line, pos, t + walk_s)
                    if dep is None:
                        continue
                    ride = 0
                    dist = 0.0
                    for apos in range(pos + 1, len(line.stop_ids)):
                        ride += line.seg_ride_s[apos - 1]
                        dist += line.seg_dist_m[apos - 1]
                        alight_sid = line.stop_ids[apos]
                        if alight_sid in boarded or alight_sid == board_sid:
                            continue
                        leg = Leg(
                            board_stop=stops[board_sid],
                            alight_stop=stops[alight_sid],
                            board_time=dep,
                            alight_time=dep + ride,
                            line_id=line.line_id,
                            leg_distance=dist,
                        )
                        if alight_sid == dest:
                            results.append(Route(legs=tuple(legs) + (leg,)))
                        else:
                            extend(legs + [leg], boarded | {board_sid}, dep + ride)

    extend([], set(), triple.depart_time)
    keyed = [
        (generalized_cost(r, net.transfer_penalty_s), len(r.legs), r.identity, r) for r in results
    ]
    keyed.sort(key=lambda x: (x[0], x[1], x[2]))
    return [r for _, _, _, r in keyed]


def reference_search_origin(index, origin: int):
    """`planner._search_origin`, one leg at a time: a depth-first search
    tests every leg after every path against the path's boarded and alighted
    stop masks, and Python's sort files each destination's codes by (bound,
    code)."""
    entries, n_entries = index.entries, len(index.steps)
    found, nodes, bounds = [], [()], [0]
    # (arrival state, node of the path, boarded mask, alighted mask)
    stack = [(origin, 0, 0, 0)]
    while stack:
        state, node, boarded, alighted = stack.pop()
        path, bound = nodes[node], bounds[node]
        extend = len(path) < planner.MAX_LEGS - 1
        for mask, add, entry, alight_bit, next_state in entries[state]:
            if boarded & mask:
                continue
            if not alighted & alight_bit:
                found.append(node * n_entries + entry)
            if extend:
                stack.append((next_state, len(nodes), boarded | mask ^ alight_bit,
                              alighted | alight_bit))
                nodes.append(path + (entry,))
                bounds.append(bound + add)
    by_dest = [array("q") for _ in index.walk]
    for code in sorted(found, key=lambda c: (bounds[c // n_entries] + index.adds[c % n_entries], c)):
        by_dest[index.alight_array[code % n_entries]].append(code)
    return planner._SkeletonCache(by_dest, nodes, bounds)


def oracle_total_error(candidate_sets, spec, assignment) -> float:
    """Objective recomputed from raw characteristic values for one assignment."""
    err = 0.0
    for entry in spec.entries:
        vals = [
            characteristic_value(entry.tag, cs.candidates[i][0])
            for cs, i in zip(candidate_sets, assignment)
        ]
        h = Histogram.from_values(vals, entry.target.edges)
        err += entry.weight * l1_mismatch(h, entry.target)
    return err


def oracle_min_error(candidate_sets, spec):
    """Exhaustive minimum of the objective over all assignments."""
    best = math.inf
    best_assign = None
    for combo in itertools.product(*[range(len(cs)) for cs in candidate_sets]):
        err = oracle_total_error(candidate_sets, spec, combo)
        if err < best:
            best = err
            best_assign = combo
    return best, best_assign


class BlockDraws:
    """numpy's `Generator` on a chain's proposal seed, drawn in `run`'s block
    layout and served one scalar call at a time.

    Every `_BLOCK` rounds it draws `integers(0, m, _BLOCK)`, `random(_BLOCK)`
    and `random(_BLOCK)`.  A round is one `integers(0, m)` call, which hands
    out the round's pick, and two `random()` calls, which hand out its
    proposal double and then its acceptance double."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        self._rounds = iter(())
        self._doubles = iter(())

    def integers(self, low: int, high: int) -> int:
        assert low == 0
        round_ = next(self._rounds, None)
        if round_ is None:
            rng = self._rng
            self._rounds = zip(rng.integers(0, high, _BLOCK).tolist(),
                               rng.random(_BLOCK).tolist(), rng.random(_BLOCK).tolist())
            round_ = next(self._rounds)
        pick, *doubles = round_
        self._doubles = iter(doubles)
        return pick

    def random(self) -> float:
        return next(self._doubles)


def reference_run(candidate_sets, spec, config) -> RunTrace:
    """`sampler.run` composed from the public step functions: `propose`,
    `delta_error`, `acceptance_probability` and `apply_delta`, one call each
    per proposal, drawing from numpy's own `Generator` on the proposal seed in
    `run`'s block layout (`BlockDraws`)."""
    candidate_sets = list(candidate_sets)
    state = initialize(candidate_sets, spec, config.seed)
    initial_assignment = state.assignment.copy()
    rng = BlockDraws(config.seed)
    temperature = config.l0
    best_error = state.cached_error
    best_assignment = state.assignment.copy()
    checkpoints = []
    accepted = proposed = 0

    def record(iteration):
        nonlocal accepted, proposed
        rate = accepted / proposed if proposed else 0.0
        checkpoints.append(Checkpoint(iteration, state.cached_error, best_error, rate, temperature))
        accepted = proposed = 0

    record(0)
    for it in range(1, config.iterations + 1):
        j, cand, q_ratio = propose(state, rng)
        err_cand = delta_error(state, j, cand)
        alpha = acceptance_probability(state.cached_error, err_cand, q_ratio, temperature)
        proposed += 1
        if rng.random() < alpha:
            apply_delta(state, j, cand)
            accepted += 1
            if state.cached_error < best_error:
                best_error = state.cached_error
                best_assignment[:] = state.assignment
        if it % state.n == 0:
            temperature = max(config.l_min, temperature * config.decay)
        if it % config.checkpoint_every == 0 or it == config.iterations:
            record(it)

    best_state = ChainState(candidate_sets, spec, best_assignment)
    rebuilt = best_state.cached_error
    checkpoints = [
        dataclasses.replace(c, best_error=rebuilt) if c.best_error == best_error else c
        for c in checkpoints
    ]
    return RunTrace(tuple(checkpoints), initial_assignment, state, best_state)
