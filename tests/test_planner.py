import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripforge import (
    Line,
    ODTriple,
    PlannerError,
    Stop,
    SynthConfig,
    TransitNetwork,
    build_grid_network,
    full_trip_time,
    k_top_routes,
    validate_route,
)
from tripforge import planner

from conftest import DEG_PER_M
from oracles import generalized_cost, oracle_enumerate_routes, transfer_walk_problems


def grid_stop(sid, x_m, y_m=0.0):
    return Stop(stop_id=sid, lat=y_m * DEG_PER_M, lon=x_m * DEG_PER_M)


def simple_line(line_id, stops, ride_s=300, headway=600, first=6 * 3600, last=22 * 3600):
    n = len(stops) - 1
    # Line rejects a segment of 0 m, so stops drawn at one point are 1 m apart.
    dists = tuple(
        max(1.0, 1.05 * 111_195.0 * abs(stops[i + 1].lon - stops[i].lon)
            + 1.05 * 111_195.0 * abs(stops[i + 1].lat - stops[i].lat))
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


class TestTransitNetwork:
    def test_rejects_duplicate_line_ids(self, two_line_net):
        # A repeated id would merge two lines in Route.identity and in the
        # trips format.
        line_a, line_b, line_c = two_line_net.lines
        with pytest.raises(ValueError, match="duplicate line ids"):
            TransitNetwork(stops=two_line_net.stops,
                           lines=(line_a, line_b, replace(line_c, line_id="A")))


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
            assert transfer_walk_problems(r, two_line_net.max_walk_m) == []
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

    def test_route_longer_than_two_days(self):
        # one segment rides 3 days: the leg cap is the only limit on the routes
        a = grid_stop("a", 0.0)
        b = grid_stop("b", 5000.0)
        net = TransitNetwork(stops=(a, b), lines=(simple_line("slow", [a, b], ride_s=259_200),))
        triple = ODTriple(origin=a, destination=b, depart_time=30_000, demand_id="s")
        got = k_top_routes(net, triple, k=5)
        expected = oracle_enumerate_routes(net, triple)
        assert got
        assert [r.identity for r in got] == [r.identity for r in expected]
        assert [full_trip_time(r) for r in got] == [full_trip_time(r) for r in expected]

    def test_no_service_after_window(self, two_line_net):
        triple = ODTriple(origin=two_line_net.stops[0], destination=two_line_net.stops[1],
                          depart_time=23 * 3600, demand_id="late")
        assert k_top_routes(two_line_net, triple, k=2) == []

    def test_pinned_warm_query_legs(self):
        # sha256 of every leg 3 000 queries return at k=1 and k=5: line,
        # stops, board and alight times and the leg distance's repr.
        net = build_grid_network(rows=5, cols=6, seed=0)
        rng = np.random.default_rng(17)
        h = hashlib.sha256()
        for i in range(3_000):
            o, d = rng.choice(len(net.stops), size=2, replace=False)
            triple = ODTriple(origin=net.stops[o], destination=net.stops[d],
                              depart_time=int(rng.integers(6 * 3600, 22 * 3600)),
                              demand_id=f"q{i}")
            for k in (1, 5):
                for rank, route in enumerate(k_top_routes(net, triple, k=k)):
                    for leg in route.legs:
                        row = [i, k, rank, leg.line_id, leg.board_stop.stop_id, leg.board_time,
                               leg.alight_stop.stop_id, leg.alight_time, repr(leg.leg_distance)]
                        h.update((",".join(map(str, row)) + "\n").encode())
        assert h.hexdigest() == "1acecc632b3ea11d7192ffb8db14476b84cf5b2ee19164a40be6e3bcc621f8e6"

    def test_line_visiting_stops_twice(self):
        # loop and its reverse visit s0 and s1 twice, so two legs can share
        # an identity and a cost and differ only in their clock times; x runs
        # every 60 s, so routes that transfer onto it at s0 from either visit
        # tie too.  The sha256 of every leg pins which of them each k=5
        # ranking keeps, and in which order.
        pts = {"s0": (0, 0), "s1": (3000, 0), "s2": (3000, 3000), "s3": (6000, 0),
               "s4": (0, -3000), "s5": (3500, 3300)}
        stops = {sid: grid_stop(sid, x, y) for sid, (x, y) in pts.items()}

        def line(line_id, ids, **timetable):
            return simple_line(line_id, [stops[sid] for sid in ids.split()], **timetable)

        net = TransitNetwork(stops=tuple(stops.values()), lines=(
            line("loop", "s0 s1 s2 s0 s1 s3", ride_s=420, headway=600),
            line("loopr", "s3 s1 s0 s2 s1 s0", ride_s=420, headway=600),
            line("x", "s4 s0 s5", ride_s=500, headway=60, first=6 * 3600 + 120),
            line("xr", "s5 s0 s4", ride_s=500, headway=60, first=6 * 3600 + 120),
        ))
        h = hashlib.sha256()
        for o in net.stops:
            for d in net.stops:
                if o == d:
                    continue
                for depart in range(6 * 3600, 22 * 3600, 317):
                    triple = ODTriple(origin=o, destination=d, depart_time=depart, demand_id="l")
                    got = k_top_routes(net, triple, k=5)
                    expected = oracle_enumerate_routes(net, triple)[:5]
                    assert [r.identity for r in got] == [r.identity for r in expected]
                    assert [full_trip_time(r) for r in got] == [full_trip_time(r) for r in expected]
                    for rank, route in enumerate(got):
                        for leg in route.legs:
                            row = [o.stop_id, d.stop_id, depart, rank, leg.line_id,
                                   leg.board_stop.stop_id, leg.board_time,
                                   leg.alight_stop.stop_id, leg.alight_time]
                            h.update((",".join(map(str, row)) + "\n").encode())
        assert h.hexdigest() == "124126f564be24dd4050ce588894ef42058ed3c5f30d9af9dde2b90d29073da9"

    def test_queried_network_can_be_freed(self, two_line_net):
        net = TransitNetwork(stops=two_line_net.stops, lines=two_line_net.lines)
        triple = ODTriple(origin=net.stops[0], destination=net.stops[1],
                          depart_time=30_000, demand_id="t")
        assert k_top_routes(net, triple, k=1)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None

    def test_queried_network_is_freed_without_cycle_collection(self, two_line_net):
        # the index and its skeleton cache go as soon as the last reference
        # to the network does, not at the next full collection
        net = TransitNetwork(stops=two_line_net.stops, lines=two_line_net.lines)
        triple = ODTriple(origin=net.stops[0], destination=net.stops[1],
                          depart_time=30_000, demand_id="t")
        gc.disable()
        try:
            assert k_top_routes(net, triple, k=1)
            ref = weakref.ref(net)
            del net
            assert ref() is None
        finally:
            gc.enable()


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
            got = k_top_routes(net, triple, k=5)
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
            got = k_top_routes(net, triple, k=1)
            if not expected:
                assert got == []
            else:
                assert generalized_cost(got[0], net.transfer_penalty_s) == pytest.approx(
                    generalized_cost(expected[0], net.transfer_penalty_s)
                )


class TestSharedSearch:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Origins of the skeleton searches made while the test runs."""
        origins = []
        search = planner._search_origin

        def counting(index, origin):
            origins.append(origin)
            return search(index, origin)

        monkeypatch.setattr(planner, "_search_origin", counting)
        return origins

    def test_one_search_serves_every_destination(self, searches):
        net = build_grid_network(rows=5, cols=6, seed=0)
        origin = net.stops[7]
        for dest in net.stops:
            if dest != origin:
                triple = ODTriple(origin=origin, destination=dest, depart_time=12 * 3600,
                                  demand_id="s")
                assert k_top_routes(net, triple, k=5)
        assert searches == [7]

    def test_wait_bound_halves_the_skeletons_realized(self, monkeypatch):
        # Ordered by static cost, these k=5 queries realize 19.5 skeletons
        # per call; ordered by the wait-aware bound, 9.9.
        realized = []
        realize = planner._realize

        def counting(index, skeleton, depart_time):
            realized.append(skeleton)
            return realize(index, skeleton, depart_time)

        monkeypatch.setattr(planner, "_realize", counting)
        net = build_grid_network(rows=5, cols=6, seed=0)
        rng = np.random.default_rng(17)
        n_calls = 400
        for i in range(n_calls):
            o, d = rng.choice(len(net.stops), size=2, replace=False)
            triple = ODTriple(origin=net.stops[o], destination=net.stops[d],
                              depart_time=int(rng.integers(6 * 3600, 22 * 3600)),
                              demand_id=f"q{i}")
            assert len(k_top_routes(net, triple, k=5)) == 5
        assert len(realized) / n_calls <= 12

    def test_pinned_skeletons_of_every_origin(self):
        # 212 064 skeletons, 204 322 of them with 3 legs
        net = build_grid_network(rows=5, cols=6, seed=0)
        h = hashlib.sha256()
        for origin in range(len(net.stops)):
            cache = planner._search_origin(net._index, origin)
            by_dest = []
            for codes in cache.by_dest:
                # filed by bound, then node, then last entry id
                order = [(skeleton_of(net._index, cache, code)[0], code) for code in codes]
                assert order == sorted(order)
                by_dest.append(sorted((bound, *flat_legs(net._index, skeleton)) for bound, skeleton
                                      in (skeleton_of(net._index, cache, code) for code in codes)))
            h.update(repr(by_dest).encode())
        assert h.hexdigest() == "452e993ed874c8df09dc039f6042324552775bb919da52ccc30265a07efd0730"

    def test_skeleton_store_stays_small(self):
        # The 212 064 skeletons: as flat int tuples of 5 to 13 fields they
        # took 38.9 MB, as one packed Python int key each 10.4 MB.
        net = build_grid_network(rows=5, cols=6, seed=0)
        index = net._index
        tracemalloc.start()
        try:
            caches = [planner._search_origin(index, origin) for origin in range(len(net.stops))]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(codes) for cache in caches for codes in cache.by_dest) == 212_064
        assert peak <= 6e6

    def test_larger_grid_store_stays_small(self):
        # Every origin of the 8x10 grid, in a fresh process so that its peak
        # RSS is the search's own: the packed Python int keys added 246 MB.
        script = textwrap.dedent("""
            import resource
            from tripforge import build_grid_network, planner
            index = build_grid_network(rows=8, cols=10, seed=0)._index
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for origin in range(len(index.walk)):
                index.skeletons[origin] = planner._search_origin(index, origin)
            grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(sum(len(c) for cache in index.skeletons.values() for c in cache.by_dest), grown_kb)
        """)
        src = str(Path(planner.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        n_skeletons, grown_kb = map(int, done.stdout.split())
        assert n_skeletons == 4_347_172
        assert grown_kb <= 100 * 1024

    def test_od_pool_searches_each_origin_once(self, searches):
        cfg = SynthConfig(network=build_grid_network(rows=5, cols=6, seed=0), days=1,
                          trips_per_day=10, seed=3)
        assert len(cfg._od_pool) == cfg.od_pool_size
        assert len(searches) <= 30


LINE_SPANS = st.integers(5 * 3600, 9 * 3600).flatmap(
    lambda first: st.tuples(st.just(first), st.integers(first, 23 * 3600))
)


@st.composite
def small_networks(draw):
    """<= 8 stops on a 5 km square and 1-4 bidirectional lines, each with its
    own segment ride times, headway and service window."""
    n_stops = draw(st.integers(3, 8))
    coord = st.floats(0.0, 5000.0, allow_nan=False)
    stops = [grid_stop(f"s{i}", draw(coord), draw(coord)) for i in range(n_stops)]
    lines = []
    for li in range(draw(st.integers(1, 4))):
        members = draw(st.lists(st.integers(0, n_stops - 1), min_size=2,
                                max_size=min(5, n_stops), unique=True))
        rides = draw(st.lists(st.integers(60, 900), min_size=len(members) - 1,
                              max_size=len(members) - 1))
        headway = draw(st.sampled_from([300, 450, 600, 900]))
        first, last = draw(LINE_SPANS)
        for suffix, order, ride in (("", members, rides), ("r", members[::-1], rides[::-1])):
            line = simple_line(f"L{li}{suffix}", [stops[i] for i in order], headway=headway,
                               first=first, last=last)
            lines.append(replace(line, seg_ride_s=tuple(ride)))
    walk = draw(st.sampled_from([400.0, 800.0, 1500.0]))
    return TransitNetwork(stops=tuple(stops), lines=tuple(lines), max_walk_m=walk)


@st.composite
def planner_queries(draw):
    """A network and 1-4 queries (origin, destination, depart, k);
    the queries share origins, so later ones read the cached search."""
    net = draw(small_networks())
    n = len(net.stops)
    origins = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        o = draw(st.sampled_from(origins))
        d = draw(st.integers(0, n - 1).filter(lambda d: d != o))
        queries.append((o, d, draw(st.integers(0, 86_399)), draw(st.integers(1, 5))))
    return net, queries


class TestPlannerProperties:
    @settings(max_examples=1000, deadline=None)
    @given(planner_queries())
    def test_top_k_equals_exhaustive_enumeration(self, case):
        net, queries = case
        for o, d, depart, k in queries:
            triple = ODTriple(origin=net.stops[o], destination=net.stops[d],
                              depart_time=depart, demand_id="h")
            expected = oracle_enumerate_routes(net, triple)[:k]
            got = k_top_routes(net, triple, k=k)
            assert [r.identity for r in got] == [r.identity for r in expected]
            assert [full_trip_time(r) for r in got] == [full_trip_time(r) for r in expected]


def skeleton_of(index, cache, code) -> tuple[int, tuple[int, ...]]:
    """(bound, entry ids) of the skeleton a code files: the path of the
    cache's node it names, then its last entry; the bound is the node's
    plus that entry's add."""
    node, entry = divmod(code, len(index.steps))
    return cache.bounds[node] + index.adds[entry], cache.nodes[node] + (entry,)


def flat_legs(index, skeleton) -> tuple[int, ...]:
    """(line, board_pos, alight_pos, walk_s, line, ...) of a skeleton's legs."""
    return tuple(field for entry in skeleton for field in index.steps[entry][:4])


def static_cost(net, legs) -> int:
    """Rides, walks and transfer penalties of a skeleton's flat legs, from
    the lines."""
    cost = net.transfer_penalty_s * (len(legs) // 4 - 1)
    for i in range(0, len(legs), 4):
        li, pos, apos, walk_s = legs[i : i + 4]
        cost += sum(net.lines[li].seg_ride_s[pos:apos]) + walk_s
    return cost


class TestWaitBound:
    @settings(max_examples=300, deadline=None)
    @given(small_networks(), st.data())
    def test_bound_lies_between_static_and_realized_cost(self, net, data):
        origin = data.draw(st.integers(0, len(net.stops) - 1))
        departs = data.draw(st.lists(st.integers(0, 86_399), min_size=1, max_size=6))
        index = net._index
        cache = planner._search_origin(index, origin)
        for codes in cache.by_dest:
            for bound, skeleton in (skeleton_of(index, cache, code) for code in codes):
                assert static_cost(net, flat_legs(index, skeleton)) <= bound
                for depart in departs:
                    times = planner._realize(index, skeleton, depart)
                    if times is not None:
                        cost = times[-1] - times[0] + net.transfer_penalty_s * (len(times) // 2 - 1)
                        assert bound <= cost


class TestSkeletonKeys:
    @pytest.fixture
    def long_line_net(self):
        """A 300-stop line L, and a short line S, run both ways, with a stop
        700 m from L's stop 290: at 1 cm/s that transfer walks 70 000 s, so
        board and alight positions pass 255 and walks pass 65 535 s."""
        trunk = [grid_stop(f"l{i}", 1000.0 * i) for i in range(300)]
        t0 = grid_stop("t0", 290_000.0, 700.0)
        t1 = grid_stop("t1", 290_000.0, 5000.0)
        lines = (simple_line("L", trunk, ride_s=60, last=60 * 3600),
                 simple_line("S", [t0, t1], last=60 * 3600),
                 simple_line("Sr", [t1, t0], last=60 * 3600))
        return TransitNetwork(stops=(*trunk, t0, t1), lines=lines, walk_speed_mps=0.01)

    def test_fields_are_as_wide_as_the_network_needs(self, long_line_net):
        net = long_line_net
        index = net._index
        positions, walks_s = set(), set()
        for origin in (0, 280, 299, 301):
            cache = planner._search_origin(index, origin)
            for dest, codes in enumerate(cache.by_dest):
                for code in codes:
                    bound, skeleton = skeleton_of(index, cache, code)
                    assert bound == sum(index.adds[entry] for entry in skeleton)
                    legs = flat_legs(index, skeleton)
                    assert static_cost(net, legs) <= bound
                    at, walks = origin, [(origin, 0)]
                    for i in range(0, len(legs), 4):
                        li, pos, apos, walk_s = legs[i : i + 4]
                        assert 0 <= li < len(net.lines)
                        stops = index.line_stops[li]
                        assert 0 <= pos < apos < len(stops)
                        assert (stops[pos], walk_s) in walks
                        positions.update((pos, apos))
                        walks_s.add(walk_s)
                        at = stops[apos]
                        walks = index.walk[at]
                    assert at == dest
        assert max(positions) > 255
        assert max(walks_s) > 65_535

    def test_bounds_wider_than_int64(self):
        # rides of 2**62 s, with bc running when ab arrives: the bound of
        # ab then bc passes int64, so the search sorts bounds as Python ints
        a, b, c = (grid_stop(sid, 5000.0 * i) for i, sid in enumerate("abc"))
        day = {"first": 6 * 3600, "last": 22 * 3600}
        later = {"first": 2**62, "last": 2**62 + 86_400}
        lines = [simple_line(f"{x.stop_id}{y.stop_id}", [x, y], ride_s=ride_s, **window)
                 for p, q, ride_s, window in ((a, b, 2**62, day), (b, c, 2**62, later),
                                              (a, c, 3 * 2**62, day))
                 for x, y in ((p, q), (q, p))]
        net = TransitNetwork(stops=(a, b, c), lines=tuple(lines))
        assert net._index.add_array.dtype == object
        triple = ODTriple(origin=a, destination=c, depart_time=7 * 3600, demand_id="w")
        expected = oracle_enumerate_routes(net, triple)
        got = k_top_routes(net, triple, k=5)
        assert [r.identity for r in got] == [r.identity for r in expected]
        assert [full_trip_time(r) for r in got] == [full_trip_time(r) for r in expected]
        assert [[leg.line_id for leg in r.legs] for r in got] == [["ab", "bc"], ["ac"]]

    @pytest.mark.parametrize("origin, dest", [(0, 301), (280, 301), (301, 299), (5, 299)])
    def test_long_line_routes_equal_exhaustive_enumeration(self, long_line_net, origin, dest):
        net = long_line_net
        triple = ODTriple(origin=net.stops[origin], destination=net.stops[dest],
                          depart_time=7 * 3600, demand_id="w")
        expected = oracle_enumerate_routes(net, triple, max_legs=3)[:5]
        got = k_top_routes(net, triple, k=5)
        assert got
        assert [r.identity for r in got] == [r.identity for r in expected]
        assert [full_trip_time(r) for r in got] == [full_trip_time(r) for r in expected]
