import gc
import weakref

import numpy as np
import pytest

from tripforge import (
    Line,
    ODTriple,
    PlannerError,
    Stop,
    TransitNetwork,
    full_trip_time,
    generalized_cost,
    k_top_routes,
    validate_route,
)

from conftest import DEG_PER_M
from oracles import oracle_enumerate_routes


def grid_stop(sid, x_m, y_m=0.0):
    return Stop(stop_id=sid, lat=y_m * DEG_PER_M, lon=x_m * DEG_PER_M)


def simple_line(line_id, stops, ride_s=300, headway=600, first=6 * 3600, last=22 * 3600):
    n = len(stops) - 1
    dists = tuple(
        1.05 * 111_195.0 * abs(stops[i + 1].lon - stops[i].lon)
        + 1.05 * 111_195.0 * abs(stops[i + 1].lat - stops[i].lat)
        for i in range(n)
    )
    return Line(
        line_id=line_id,
        stop_ids=tuple(s.stop_id for s in stops),
        seg_ride_s=(ride_s,) * n,
        seg_dist_m=dists,
        headway_s=headway,
        first_dep_s=first,
        last_dep_s=last,
    )


@pytest.fixture
def two_line_net():
    """Line A rides direct in 20 min; line B needs a transfer onto C and is
    slower even before the transfer penalty."""
    a = grid_stop("a", 0.0)
    b = grid_stop("b", 9000.0)
    mid = grid_stop("m", 4000.0, 700.0)
    stops = (a, b, mid)
    line_a = simple_line("A", [a, b], ride_s=1200, headway=600)
    line_b = simple_line("B", [a, mid], ride_s=700, headway=600)
    line_c = simple_line("C", [mid, b], ride_s=700, headway=600)
    return TransitNetwork(stops=stops, lines=(line_a, line_b, line_c))


class TestKTopRoutes:
    def test_round_trip_demand_gets_no_recommendation(self, two_line_net):
        a = two_line_net.stops[0]
        triple = ODTriple(origin=a, destination=a, depart_time=30_000, demand_id="r",
                          round_trip_allowed=True)
        assert k_top_routes(two_line_net, triple, k=3) == []

    def test_unknown_stop_rejected(self, two_line_net):
        ghost = grid_stop("ghost", 1.0)
        triple = ODTriple(origin=ghost, destination=two_line_net.stops[1],
                          depart_time=30_000, demand_id="g")
        with pytest.raises(PlannerError):
            k_top_routes(two_line_net, triple, k=1)

    def test_direct_line_beats_transfer(self, two_line_net):
        triple = ODTriple(origin=two_line_net.stops[0], destination=two_line_net.stops[1],
                          depart_time=30_000, demand_id="t")
        routes = k_top_routes(two_line_net, triple, k=2)
        assert len(routes) == 2
        assert [leg.line_id for leg in routes[0].legs] == ["A"]
        assert [leg.line_id for leg in routes[1].legs] == ["B", "C"]
        costs = [generalized_cost(r, two_line_net.transfer_penalty_s) for r in routes]
        assert costs == sorted(costs)

    def test_results_valid_and_loopless(self, two_line_net):
        triple = ODTriple(origin=two_line_net.stops[0], destination=two_line_net.stops[1],
                          depart_time=30_000, demand_id="t")
        for r in k_top_routes(two_line_net, triple, k=5):
            assert validate_route(r) == []
            boards = [leg.board_stop.stop_id for leg in r.legs]
            assert len(set(boards)) == len(boards)
            assert r.legs[0].board_time >= triple.depart_time

    def test_unreachable_destination(self):
        a = grid_stop("a", 0.0)
        b = grid_stop("b", 5000.0)
        island = grid_stop("i", 50_000.0)
        net = TransitNetwork(stops=(a, b, island), lines=(simple_line("A", [a, b]),))
        triple = ODTriple(origin=a, destination=island, depart_time=30_000, demand_id="u")
        assert k_top_routes(net, triple, k=3) == []

    def test_no_service_after_window(self, two_line_net):
        triple = ODTriple(origin=two_line_net.stops[0], destination=two_line_net.stops[1],
                          depart_time=23 * 3600, demand_id="late")
        assert k_top_routes(two_line_net, triple, k=2) == []

    def test_queried_network_can_be_freed(self, two_line_net):
        net = TransitNetwork(stops=two_line_net.stops, lines=two_line_net.lines)
        triple = ODTriple(origin=net.stops[0], destination=net.stops[1],
                          depart_time=30_000, demand_id="t")
        assert k_top_routes(net, triple, k=1)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None


def random_network(rng) -> TransitNetwork:
    """Small random network: <= 8 stops, <= 4 bidirectional line pairs."""
    n_stops = int(rng.integers(4, 9))
    stops = []
    for i in range(n_stops):
        stops.append(
            grid_stop(f"s{i}", float(rng.uniform(0, 6000)), float(rng.uniform(0, 6000)))
        )
    lines = []
    n_lines = int(rng.integers(2, 5))
    for li in range(n_lines):
        length = int(rng.integers(2, min(5, n_stops) + 1))
        members = list(rng.choice(n_stops, size=length, replace=False))
        path = [stops[i] for i in members]
        headway = int(rng.choice([300, 450, 600, 900]))
        ride = int(rng.integers(180, 600))
        lines.append(simple_line(f"L{li}", path, ride_s=ride, headway=headway))
        lines.append(simple_line(f"L{li}r", list(reversed(path)), ride_s=ride, headway=headway))
    return TransitNetwork(stops=tuple(stops), lines=tuple(lines))


class TestAgainstEnumeration:
    def test_matches_exhaustive_top_k(self):
        rng = np.random.default_rng(101)
        checked = 0
        for trial in range(30):
            net = random_network(rng)
            o, d = rng.choice(len(net.stops), size=2, replace=False)
            triple = ODTriple(origin=net.stops[o], destination=net.stops[d],
                              depart_time=int(rng.integers(7 * 3600, 20 * 3600)),
                              demand_id=f"x{trial}")
            expected = oracle_enumerate_routes(net, triple, max_legs=3)
            got = k_top_routes(net, triple, k=5, max_legs=3)
            assert len(got) == min(5, len(expected))
            for mine, ref in zip(got, expected[:5]):
                assert mine.identity == ref.identity
                assert full_trip_time(mine) == full_trip_time(ref)
            checked += 1
        assert checked == 30

    def test_k_one_is_the_minimum_cost_route(self):
        rng = np.random.default_rng(202)
        for trial in range(10):
            net = random_network(rng)
            o, d = rng.choice(len(net.stops), size=2, replace=False)
            triple = ODTriple(origin=net.stops[o], destination=net.stops[d],
                              depart_time=int(rng.integers(7 * 3600, 20 * 3600)),
                              demand_id=f"y{trial}")
            expected = oracle_enumerate_routes(net, triple, max_legs=3)
            got = k_top_routes(net, triple, k=1, max_legs=3)
            if not expected:
                assert got == []
            else:
                assert generalized_cost(got[0], net.transfer_penalty_s) == pytest.approx(
                    generalized_cost(expected[0], net.transfer_penalty_s)
                )
