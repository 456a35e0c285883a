import numpy as np
import pytest

from tripforge import (
    CandidateError,
    CandidateSet,
    ODTriple,
    Route,
    TransitNetwork,
    TripHistory,
    build_candidate_set,
    history_lookup,
    validate_route,
)

from conftest import make_leg, make_stop
from oracles import transfer_walk_problems


def route_between(a, b, depart, ride=900, line="L1", dist=None):
    return Route(legs=(make_leg(a, b, depart, depart + ride, line=line, dist=dist),))


@pytest.fixture
def od_stops():
    return make_stop("o", 0.0), make_stop("d", 5000.0)


class TestHistoryLookup:
    def test_empty_history(self, od_stops):
        o, d = od_stops
        hist = TripHistory([])
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        assert history_lookup(hist, triple, 1200) == []

    def test_frequency_aggregation(self, od_stops):
        o, d = od_stops
        hist = TripHistory(route_between(o, d, 28_500 + 120 * i) for i in range(3))
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        matches = history_lookup(hist, triple, slot_width=1200)
        assert len(matches) == 1
        route, freq = matches[0]
        assert freq == 3
        assert route.legs[0].board_time == 28_800  # re-anchored

    def test_slot_filtering(self, od_stops):
        o, d = od_stops
        hist = TripHistory([route_between(o, d, 40_000)])
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        assert history_lookup(hist, triple, slot_width=1200) == []
        assert len(history_lookup(hist, triple, slot_width=86_400)) == 1

    def test_reanchoring_preserves_leg_offsets(self, od_stops):
        o, d = od_stops
        mid = make_stop("m", 2500.0)
        r = Route(
            legs=(
                make_leg(o, mid, 30_000, 30_600, line="A"),
                make_leg(mid, d, 31_200, 31_800, line="B"),
            ),
        )
        hist = TripHistory([r])
        triple = ODTriple(origin=o, destination=d, depart_time=29_000, demand_id="t")
        (anchored, _), = history_lookup(hist, triple, slot_width=1800)
        assert anchored.legs[0].board_time == 29_000
        assert anchored.legs[1].board_time - anchored.legs[0].alight_time == 600

    def test_earliest_boarding_route_stands_for_its_identity(self, od_stops):
        # Two routes on the same legs with different transfer gaps: the one
        # re-anchored is the one that boarded first and, of equal first
        # boardings, the one added first.
        o, d = od_stops
        mid = make_stop("m", 2500.0)
        triple = ODTriple(origin=o, destination=d, depart_time=30_000, demand_id="t")

        def two_legs(depart, gap):
            return Route(legs=(
                make_leg(o, mid, depart, depart + 600, line="A"),
                make_leg(mid, d, depart + 600 + gap, depart + 1200 + gap, line="B"),
            ))

        def anchored_gap(routes):
            (anchored, freq), = history_lookup(TripHistory(routes), triple, slot_width=1800)
            assert freq == 2
            return anchored.legs[1].board_time - anchored.legs[0].alight_time

        assert anchored_gap([two_legs(30_100, 900), two_legs(30_000, 300)]) == 300
        assert anchored_gap([two_legs(30_000, 300), two_legs(30_100, 900)]) == 300
        assert anchored_gap([two_legs(30_000, 300), two_legs(30_000, 900)]) == 300
        assert anchored_gap([two_legs(30_000, 900), two_legs(30_000, 300)]) == 900

    def test_lunchtime_slot_ranks_frequent_slow_route_first(self, od_stops):
        """One OD pair served by five routes; a slow one dominates lunch
        observations and must rank first in that slot."""
        o, d = od_stops
        routes = {
            name: route_between(o, d, 0, ride=ride, line=name)
            for name, ride in [("red", 900), ("blue", 950), ("magenta", 1000),
                               ("pink", 1600), ("green", 1800)]
        }
        recs = []
        # morning: planner-like routes dominate
        for name in ("red", "blue", "magenta"):
            for i in range(4):
                rt = Route(legs=(make_leg(o, d, 30_000 + i * 60, 30_900 + i * 60, line=name),))
                recs.append(rt)
        # lunch: the slow green route dominates
        for i in range(6):
            rt = Route(legs=(make_leg(o, d, 44_700 + i * 60, 46_500 + i * 60, line="green"),))
            recs.append(rt)
        for name in ("red", "pink"):
            rt = Route(legs=(make_leg(o, d, 45_000, 45_900, line=name),))
            recs.append(rt)
        hist = TripHistory(recs)

        lunch = ODTriple(origin=o, destination=d, depart_time=45_000, demand_id="lunch")
        matches = history_lookup(hist, lunch, slot_width=1200)
        top_route, top_freq = matches[0]
        assert top_route.legs[0].line_id == "green"
        assert top_freq == 6

        morning = ODTriple(origin=o, destination=d, depart_time=30_100, demand_id="am")
        am_matches = history_lookup(hist, morning, slot_width=1200)
        assert am_matches[0][0].legs[0].line_id != "green"


class TestBuildCandidateSet:
    def test_planner_only_uniform(self, od_stops):
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        planner = [route_between(o, d, 28_900, line="A"),
                   route_between(o, d, 29_000, line="B")]
        cs = build_candidate_set(triple, planner, [], lambda_mix=0.5)
        assert cs.weights == (0.5, 0.5)

    def test_history_only_frequency_proportional(self, od_stops):
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        history = [(route_between(o, d, 28_800, line="A"), 3),
                   (route_between(o, d, 28_800, line="B"), 1)]
        cs = build_candidate_set(triple, [], history, lambda_mix=0.5)
        assert cs.weights == (0.75, 0.25)

    def test_mixture_with_shared_route(self, od_stops):
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        a = route_between(o, d, 28_900, line="A")
        b = route_between(o, d, 29_000, line="B")
        b_hist = route_between(o, d, 29_100, line="B")
        c = route_between(o, d, 29_200, line="C")
        cs = build_candidate_set(triple, [a, b], [(b_hist, 3), (c, 1)], lambda_mix=0.5)
        by_line = {r.legs[0].line_id: w for r, w in cs.candidates}
        assert by_line["A"] == pytest.approx(0.25)
        assert by_line["B"] == pytest.approx(0.625)
        assert by_line["C"] == pytest.approx(0.125)

    def test_both_sources_empty(self, od_stops):
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        with pytest.raises(CandidateError):
            build_candidate_set(triple, [], [], 0.5)

    def test_pure_planner_regime_equal_weights(self, od_stops):
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        planner = [route_between(o, d, 28_900, line=l) for l in "ABC"]
        history = [(route_between(o, d, 29_000, line="Z"), 9)]
        cs = build_candidate_set(triple, planner, history, lambda_mix=1.0)
        # history-only candidates carry no mass and vanish; the rest are equal
        assert len(cs) == 3
        assert all(w == pytest.approx(1.0 / 3.0) for w in cs.weights)

    def test_weight_rounding_to_one_stands_alone(self, od_stops):
        # At lambda_mix 1e-20 the history route's weight rounds to 1.0, which
        # would make the restricted-kernel ratio 0 or divide by zero.
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        planner = [route_between(o, d, 28_900, line=l) for l in "AB"]
        z = route_between(o, d, 29_000, line="Z")
        cs = build_candidate_set(triple, planner, [(z, 9)], lambda_mix=1e-20)
        assert cs.candidates == ((z, 1.0),)
        assert cs.provenance == ((0, 9),)
        with pytest.raises(ValueError, match="demand 't': weight 1.0 in a set of 2"):
            CandidateSet(triple=triple, candidates=((z, 1.0), (planner[0], 1e-20)))

    def test_nan_weight_is_rejected(self, od_stops):
        # NaN passes both `weight <= 0` and the sum test; a chain over the set
        # would never move the demand.
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        r1, r2 = (route_between(o, d, 28_900, line=l) for l in "AB")
        with pytest.raises(ValueError, match="demand 't': weight nan is not positive"):
            CandidateSet(triple=triple, candidates=((r1, float("nan")), (r2, 0.5)))

    def test_dedup_bound(self, od_stops):
        rng = np.random.default_rng(71)
        o, d = od_stops
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        lines = ["A", "B", "C", "D"]
        planner = [route_between(o, d, 28_900, line=l)
                   for l in rng.choice(lines, size=3, replace=False)]
        history = [(route_between(o, d, 29_000, line=l), int(rng.integers(1, 5)))
                   for l in rng.choice(lines, size=2, replace=False)]
        cs = build_candidate_set(triple, planner, history, lambda_mix=0.4)
        assert len(cs) <= len(planner) + len(history)
        assert sum(cs.weights) == pytest.approx(1.0, abs=1e-9)
        assert all(validate_route(r) == [] for r in cs.routes)
        assert all(transfer_walk_problems(r, TransitNetwork.max_walk_m) == [] for r in cs.routes)
