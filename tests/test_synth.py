import gc
import hashlib
import weakref

import numpy as np
import pytest

from tripforge import (
    Line,
    Stop,
    SynthConfig,
    TransitNetwork,
    angle_ratio,
    build_grid_network,
    full_trip_time,
    generate_collection,
    generate_day,
    k_top_routes,
    transfer_time,
    validate_route,
)
from tripforge import planner, synth
from tripforge.synth import WEEKEND, WORKING

from oracles import transfer_walk_problems


@pytest.fixture(scope="module")
def small_net():
    return build_grid_network(rows=3, cols=4, seed=2)


def small_cfg(net, **kw):
    defaults = dict(network=net, days=2, day_types=(WORKING, WORKING),
                    trips_per_day=600, od_pool_size=80, seed=3)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestConfig:
    def test_probability_validation(self):
        net = build_grid_network(rows=2, cols=2, seed=0)
        with pytest.raises(ValueError):
            SynthConfig(network=net, p_round=1.3)
        with pytest.raises(ValueError):
            SynthConfig(network=net, p_round=0.6, p_detour=0.6)

    def test_default_weekly_pattern_over_25_days(self):
        net = build_grid_network(rows=2, cols=2, seed=0)
        cfg = SynthConfig(network=net, days=25)
        labels = [cfg.day_type(d) for d in range(25)]
        assert labels.count(WORKING) == 17
        assert labels.count(WEEKEND) == 8
        assert labels[0] == WEEKEND and labels[1] == WEEKEND and labels[2] == WORKING

    def test_collection_rejects_a_repeated_day_number(self):
        net = build_grid_network(rows=2, cols=2, seed=0)
        days = (synth.DayData(1, WORKING, (), ()), synth.DayData(1, WEEKEND, (), ()))
        with pytest.raises(ValueError, match="repeat"):
            synth.SynthCollection(network=net, days=days)

    def test_used_config_can_be_freed(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=20, od_pool_size=5)
        generate_day(cfg, 0)
        ref = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert ref() is None


class RecordingGenerator(np.random.Generator):
    """A Generator that logs each value its random() returns."""

    def __init__(self, bit_generator, events):
        super().__init__(bit_generator)
        self.events = events

    def random(self, *args, **kwargs):
        value = super().random(*args, **kwargs)
        self.events.append(("u", value))
        return value


class TestDetourDraw:
    @pytest.mark.parametrize("decay", [0.0, 0.5, 0.6, 1.0])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_cdf_draw_equals_choice(self, ranks, decay):
        # A detour draws its rank from a cached cdf; rng.choice with the
        # weights must give the same index from the same generator position.
        cdf = synth._detour_cdf(decay, ranks)
        w = np.array([decay**r for r in range(ranks)])
        ours, choice = np.random.default_rng(29), np.random.default_rng(29)
        for _ in range(2_000):
            assert (int(cdf.searchsorted(ours.random(), side="right"))
                    == int(choice.choice(ranks, p=w / w.sum())))
        assert ours.bit_generator.state == choice.bit_generator.state


class TestGenerateDay:
    # sha256 of every trip of a working and a weekend day: demand, legs and
    # times, taken when every trip asked the planner for 5 routes.  Asking
    # for the top route alone must not change a byte.
    @pytest.mark.parametrize("digest", [
        "04e5b45d0619a648e876bf0896b255116d64bc1fe64fb82d5e03f1ca0f0804b9",
    ], ids=["planner_k=5"])
    def test_pinned_collection(self, small_net, digest):
        cfg = small_cfg(small_net, day_types=(WORKING, WEEKEND))
        h = hashlib.sha256()
        for d in generate_collection(cfg).days:
            for t, r in zip(d.triples, d.routes):
                row = [d.day, d.day_type, t.demand_id, t.origin.stop_id, t.destination.stop_id,
                       t.depart_time, t.round_trip_allowed]
                for leg in r.legs:
                    row += [leg.line_id, leg.board_stop.stop_id, leg.board_time,
                            leg.alight_stop.stop_id, leg.alight_time, repr(leg.leg_distance)]
                h.update((",".join(map(str, row)) + "\n").encode())
        assert h.hexdigest() == digest

    @pytest.fixture
    def planner_log(self, monkeypatch):
        """(k, routes found) per ranked pass, and ("u", value) per
        rng.random() draw of generate_day, in call order."""
        events = []

        def logged(plan):
            def logged_plan(net, triple, k=5):
                routes = plan(net, triple, k)
                events.append((k, len(routes)))
                return routes
            return logged_plan

        monkeypatch.setattr(synth, "_ranked", logged(synth._ranked))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: RecordingGenerator(np.random.PCG64(seed), events))
        return events

    @pytest.fixture
    def built_routes(self, monkeypatch):
        """Every Route the planner builds, from synth or k_top_routes."""
        built = []
        build = planner._route

        def counting(net, skeleton, times):
            built.append(build(net, skeleton, times))
            return built[-1]

        monkeypatch.setattr(planner, "_route", counting)
        monkeypatch.setattr(synth, "_route", counting)
        return built

    def test_no_detour_asks_only_for_the_top_route(self, small_net, planner_log):
        cfg = small_cfg(small_net, p_detour=0.0)
        generate_day(cfg, 0)
        calls = [k for k, _ in planner_log if k != "u"]
        assert calls and set(calls) == {1}

    def test_only_a_detour_asks_for_planner_k_routes(self, small_net, planner_log,
                                                     built_routes):
        cfg = small_cfg(small_net)
        assert cfg._od_pool  # its probes are not trips
        planner_log.clear()
        built_routes.clear()
        routes = generate_day(cfg, 0).routes
        # The first draw after a trip finds its top route is the u that picks
        # round trip, detour or top route; a detour asks the planner next.
        detours, wide, after_top = [], [], False
        for at, (kind, value) in enumerate(planner_log):
            if kind == "u":
                if after_top and cfg.p_round <= value < cfg.p_round + cfg.p_detour:
                    detours.append(at + 1)
                after_top = False
            elif kind == 1:
                after_top = value > 0
            else:
                assert kind == synth._DETOUR_RANKS
                wide.append(at)
        assert len(detours) > 100
        assert wide == detours
        # a trip builds only the route it keeps
        assert len(built_routes) == len(routes)

    def test_od_pool_builds_no_route(self, small_net, built_routes):
        cfg = small_cfg(small_net)
        assert len(cfg._od_pool) == cfg.od_pool_size
        assert built_routes == []

    def test_deterministic_per_seed_and_day(self, small_net):
        cfg = small_cfg(small_net)
        d1 = generate_day(cfg, 0)
        d2 = generate_day(small_cfg(small_net), 0)
        assert d1.day_type == d2.day_type
        assert [t.demand_id for t in d1.triples] == [t.demand_id for t in d2.triples]
        assert [t.depart_time for t in d1.triples] == [t.depart_time for t in d2.triples]
        assert [r.identity for r in d1.routes] == [r.identity for r in d2.routes]
        assert ([r.legs[0].board_time for r in d1.routes]
                == [r.legs[0].board_time for r in d2.routes])

    def test_all_round_trips(self, small_net):
        cfg = small_cfg(small_net, p_round=1.0, p_detour=0.0, trips_per_day=300)
        day = generate_day(cfg, 0)
        triples, routes = day.triples, day.routes
        assert all(t.round_trip_allowed for t in triples)
        assert all(angle_ratio(r) < 0.05 for r in routes)

    def test_no_deviations_equals_planner_rank_one(self, small_net):
        cfg = small_cfg(small_net, p_round=0.0, p_detour=0.0, trips_per_day=300)
        day = generate_day(cfg, 0)
        triples, routes = day.triples, day.routes
        for t, r in zip(triples, routes):
            best = k_top_routes(small_net, t, k=1)[0]
            assert r.identity == best.identity
            assert full_trip_time(r) == full_trip_time(best)

    def test_observed_routes_validate(self, small_net):
        cfg = small_cfg(small_net)
        routes = generate_day(cfg, 0).routes
        assert all(validate_route(r) == [] for r in routes)
        assert all(transfer_walk_problems(r, small_net.max_walk_m) == [] for r in routes)

    def test_round_trip_rate_within_three_sigma(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=10_000, od_pool_size=100)
        triples = generate_day(cfg, 0).triples
        n_round = sum(1 for t in triples if t.round_trip_allowed)
        p = cfg.p_round
        sigma = (10_000 * p * (1 - p)) ** 0.5
        assert abs(n_round - 10_000 * p) <= 3 * sigma

    def test_weekend_scaling_and_labels(self, small_net):
        cfg = SynthConfig(network=small_net, days=3,
                          day_types=(WORKING, WEEKEND, WORKING),
                          trips_per_day=400, od_pool_size=80, seed=5)
        work, wend = generate_day(cfg, 0), generate_day(cfg, 1)
        assert work.day_type == WORKING and wend.day_type == WEEKEND
        assert len(work.routes) == 400 and len(wend.routes) == 200

    def test_deviation_shapes_default_day(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=4_000, od_pool_size=100)
        day = generate_day(cfg, 0)
        triples, routes = day.triples, day.routes
        f3 = np.array([angle_ratio(r) for r in routes])
        # bimodal directness: plenty of round trips near 0 and straight rides near 1
        assert (f3 <= 0.1).mean() >= 0.15
        assert (f3 >= 0.9).mean() >= 0.15
        # observed means exceed the planner-optimal means
        best = []
        for t in triples:
            if t.round_trip_allowed:
                continue
            routes_k = k_top_routes(small_net, t, k=1)
            best.append(routes_k[0])
        obs_full = np.mean([full_trip_time(r) for r in routes])
        plan_full = np.mean([full_trip_time(r) for r in best])
        obs_tr = np.mean([transfer_time(r) for r in routes])
        plan_tr = np.mean([transfer_time(r) for r in best])
        assert obs_full > plan_full
        assert obs_tr > plan_tr

    @pytest.fixture
    def one_way_net(self):
        """Line solo runs from a to b only."""
        a = Stop("a", 0.0, 0.0)
        b = Stop("b", 0.0, 0.5)
        line = Line(
            line_id="solo", stop_ids=("a", "b"), seg_ride_s=(600,), seg_dist_m=(60_000.0,),
            headway_s=600, first_dep_s=21_600, last_dep_s=79_200,
        )
        return TransitNetwork(stops=(a, b), lines=(line,))

    def test_one_way_network_only_samples_reachable_pairs(self, one_way_net):
        cfg = SynthConfig(network=one_way_net, days=1, day_types=(WORKING,), trips_per_day=10,
                          od_pool_size=10, seed=1)
        triples = generate_day(cfg, 0).triples  # only a->b is reachable
        assert all(t.origin.stop_id == "a" for t in triples if not t.round_trip_allowed)

    def test_one_way_line_is_never_ridden_backwards(self, one_way_net):
        # a round trip needs the reverse of every outbound line; solo has none
        cfg = SynthConfig(network=one_way_net, days=1, day_types=(WORKING,), trips_per_day=50,
                          od_pool_size=10, seed=1)
        day = generate_day(cfg, 0)
        triples, routes = day.triples, day.routes
        order = {line.line_id: line.stop_ids for line in one_way_net.lines}
        for route in routes:
            for leg in route.legs:
                stop_ids = order[leg.line_id]
                assert stop_ids.index(leg.board_stop.stop_id) < stop_ids.index(leg.alight_stop.stop_id)
        assert not any(t.round_trip_allowed for t in triples)
