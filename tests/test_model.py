import numpy as np
import pytest

from tripforge import (
    Leg,
    ODTriple,
    Route,
    Stop,
    great_circle_m,
    validate_route,
)

from conftest import make_leg, make_stop
from oracles import transfer_walk_problems


class TestStop:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            Stop("x", 91.0, 0.0)

    def test_rejects_bad_longitude(self):
        with pytest.raises(ValueError):
            Stop("x", 0.0, -181.0)


class TestGreatCircle:
    def test_identity(self):
        a = Stop("a", 12.5, -3.25)
        assert great_circle_m(a, a) == 0.0

    def test_one_degree_longitude_at_equator(self):
        a = Stop("a", 0.0, 0.0)
        b = Stop("b", 0.0, 1.0)
        # R * pi/180 on the 6371 km sphere
        assert great_circle_m(a, b) == pytest.approx(111_195.0, abs=1.0)

    def test_hundredth_degree_latitude(self):
        a = Stop("a", 48.69, 6.18)
        b = Stop("b", 48.70, 6.18)
        assert great_circle_m(a, b) == pytest.approx(1_112.0, abs=1.0)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            pts = [Stop(f"s{i}", float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
                   for i in range(3)]
            ab = great_circle_m(pts[0], pts[1])
            ba = great_circle_m(pts[1], pts[0])
            assert ab == pytest.approx(ba, rel=1e-12)
            ac = great_circle_m(pts[0], pts[2])
            cb = great_circle_m(pts[2], pts[1])
            assert ab <= (ac + cb) * (1 + 1e-6)


class TestValidateRoute:
    def test_well_formed_single_leg(self):
        a, b = make_stop("a", 0.0), make_stop("b", 1000.0)
        route = Route(legs=(make_leg(a, b, 28800, 30000),))
        assert validate_route(route) == []

    def test_transfer_walk_over_limit(self):
        a = make_stop("a", 0.0)
        b = make_stop("b", 1000.0)
        c = make_stop("c", 3000.0)  # 2 km from b
        d = make_stop("d", 4000.0)
        route = Route(legs=(make_leg(a, b, 0, 600), make_leg(c, d, 1200, 1800)))
        problems = transfer_walk_problems(route, max_walk_m=800.0)
        assert len(problems) == 1
        assert "walk" in problems[0]

    def test_inverted_leg_times(self):
        a, b = make_stop("a", 0.0), make_stop("b", 1000.0)
        route = Route(legs=(make_leg(a, b, 30000, 28800),))
        problems = validate_route(route)
        assert len(problems) == 1
        assert "before board_time" in problems[0]

    def test_distance_below_great_circle(self):
        a, b = make_stop("a", 0.0), make_stop("b", 5000.0)
        route = Route(legs=(make_leg(a, b, 0, 600, dist=3000.0),))
        assert any("great-circle" in p for p in validate_route(route))

    def test_overlapping_legs(self):
        a, b, c = make_stop("a", 0.0), make_stop("b", 1000.0), make_stop("c", 2000.0)
        route = Route(legs=(make_leg(a, b, 0, 600), make_leg(b, c, 500, 1100)))
        assert any("before previous alighting" in p for p in validate_route(route))

    @pytest.mark.parametrize("dist", [float("nan"), float("inf"), -1.0])
    def test_distance_not_a_finite_number_at_least_zero(self, dist):
        a, b = make_stop("a", 0.0), make_stop("b", 1000.0)
        route = Route(legs=(make_leg(a, b, 0, 600), make_leg(b, a, 600, 1200, dist=dist)))
        assert validate_route(route)[0] == f"leg 1: leg_distance {dist} is not a finite number >= 0"

    def test_zero_total_ride_distance(self):
        a = make_stop("a", 0.0)
        route = Route(legs=(make_leg(a, a, 0, 600, dist=0.0),))
        assert validate_route(route) == ["total ride distance 0.0 is not positive"]


class TestRoute:
    def test_requires_a_leg(self):
        with pytest.raises(ValueError):
            Route(legs=())

    def test_identity_ignores_times(self):
        a, b = make_stop("a", 0.0), make_stop("b", 1000.0)
        r1 = Route(legs=(make_leg(a, b, 0, 600),))
        r2 = Route(legs=(make_leg(a, b, 3600, 4200),))
        assert r1.identity == r2.identity


class TestODTriple:
    def test_round_trip_needs_flag(self):
        a = make_stop("a", 0.0)
        with pytest.raises(ValueError):
            ODTriple(origin=a, destination=a, depart_time=100, demand_id="t")
        t = ODTriple(origin=a, destination=a, depart_time=100, demand_id="t",
                     round_trip_allowed=True)
        assert t.round_trip_allowed

    def test_depart_time_range(self):
        a, b = make_stop("a", 0.0), make_stop("b", 1000.0)
        with pytest.raises(ValueError):
            ODTriple(origin=a, destination=b, depart_time=86_400, demand_id="t")
