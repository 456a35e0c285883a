import gc
import weakref

import numpy as np
import pytest

from tripforge import (
    SynthConfig,
    angle_ratio,
    build_grid_network,
    full_trip_time,
    generate_day,
    k_top_routes,
    transfer_time,
    validate_route,
)
from tripforge.synth import WEEKEND, WORKING


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

    def test_used_config_can_be_freed(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=20, od_pool_size=5)
        generate_day(cfg, 0)
        ref = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert ref() is None


class TestGenerateDay:
    def test_deterministic_per_seed_and_day(self, small_net):
        cfg = small_cfg(small_net)
        t1, r1, d1 = generate_day(cfg, 0)
        cfg2 = small_cfg(small_net)
        t2, r2, d2 = generate_day(cfg2, 0)
        assert d1 == d2
        assert [t.demand_id for t in t1] == [t.demand_id for t in t2]
        assert [t.depart_time for t in t1] == [t.depart_time for t in t2]
        assert [r.identity for r in r1] == [r.identity for r in r2]
        assert [r.legs[0].board_time for r in r1] == [r.legs[0].board_time for r in r2]

    def test_all_round_trips(self, small_net):
        cfg = small_cfg(small_net, p_round=1.0, p_detour=0.0, trips_per_day=300)
        triples, routes, _ = generate_day(cfg, 0)
        assert all(t.round_trip_allowed for t in triples)
        assert all(angle_ratio(r) < 0.05 for r in routes)

    def test_no_deviations_equals_planner_rank_one(self, small_net):
        cfg = small_cfg(small_net, p_round=0.0, p_detour=0.0, trips_per_day=300)
        triples, routes, _ = generate_day(cfg, 0)
        for t, r in zip(triples, routes):
            best = k_top_routes(small_net, t, k=1)[0]
            assert r.identity == best.identity
            assert full_trip_time(r) == full_trip_time(best)

    def test_observed_routes_validate(self, small_net):
        cfg = small_cfg(small_net)
        _, routes, _ = generate_day(cfg, 0)
        assert all(validate_route(r) == [] for r in routes)

    def test_round_trip_rate_within_three_sigma(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=10_000, od_pool_size=100)
        triples, _, _ = generate_day(cfg, 0)
        n_round = sum(1 for t in triples if t.round_trip_allowed)
        p = cfg.p_round
        sigma = (10_000 * p * (1 - p)) ** 0.5
        assert abs(n_round - 10_000 * p) <= 3 * sigma

    def test_weekend_scaling_and_labels(self, small_net):
        cfg = SynthConfig(network=small_net, days=3,
                          day_types=(WORKING, WEEKEND, WORKING),
                          trips_per_day=400, weekend_scale=0.5,
                          od_pool_size=80, seed=5)
        _, routes_work, label_w = generate_day(cfg, 0)
        _, routes_wend, label_e = generate_day(cfg, 1)
        assert label_w == WORKING and label_e == WEEKEND
        assert len(routes_wend) == 200

    def test_deviation_shapes_default_day(self, small_net):
        cfg = small_cfg(small_net, trips_per_day=4_000, od_pool_size=100)
        triples, routes, _ = generate_day(cfg, 0)
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

    def test_one_way_network_only_samples_reachable_pairs(self):
        from tripforge import Stop, TransitNetwork, Line

        a = Stop("a", 0.0, 0.0)
        b = Stop("b", 0.0, 0.5)
        line = Line(
            line_id="solo", stop_ids=("a", "b"), seg_ride_s=(600,), seg_dist_m=(60_000.0,),
            headway_s=600, first_dep_s=21_600, last_dep_s=79_200,
        )
        net = TransitNetwork(stops=(a, b), lines=(line,))
        cfg = SynthConfig(network=net, days=1, day_types=(WORKING,), trips_per_day=10,
                          od_pool_size=10, seed=1)
        triples, routes, _ = generate_day(cfg, 0)  # only a->b is reachable
        assert all(t.origin.stop_id == "a" for t in triples if not t.round_trip_allowed)
