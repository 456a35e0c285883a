import dataclasses

import numpy as np
import pytest

from tripforge import (
    ChainState,
    EvalConfig,
    EvalError,
    Route,
    SynthCollection,
    SynthConfig,
    build_grid_network,
    daytype_mix_eval,
    full_trip_time,
    mismatch_report,
    one_day_eval,
    online_eval,
    planner_baseline,
    prepare_day,
)
from tripforge.evaluation import FULL_TIME, TRANSFER_TIME
from tripforge.synth import WEEKEND, WORKING, DayData, generate_collection

from conftest import make_leg, make_stop


@pytest.fixture(scope="module")
def small_net():
    return build_grid_network(rows=3, cols=4, seed=2)


@pytest.fixture(scope="module")
def small_collection(small_net):
    cfg = SynthConfig(
        network=small_net,
        days=4,
        day_types=(WORKING,) * 4,
        trips_per_day=800,
        od_pool_size=80,
        seed=21,
    )
    return generate_collection(cfg)


def with_empty_day(collection, day):
    """The collection with the demand and trips of `day` taken out."""
    days = tuple(DayData(d.day, d.day_type, (), ()) if d.day == day else d
                 for d in collection.days)
    return SynthCollection(network=collection.network, days=days)


def fast_eval_cfg(**kw):
    defaults = dict(iterations=20_000, checkpoint_every=5_000, seed=3)
    defaults.update(kw)
    return EvalConfig(**defaults)


class TestMismatchReport:
    def test_identical_sets_zero_mismatch(self, small_collection):
        routes = list(small_collection.days[0].routes[:200])
        rep = mismatch_report(routes, list(routes))
        assert rep.total_l1() == 0.0
        for c in rep.comparisons:
            assert c.mean_gap == 0.0

    def test_transfer_gap_hand_value(self):
        a, b = make_stop("a", 0.0), make_stop("b", 2000.0)
        c = make_stop("c", 4000.0)
        without_gap = Route(legs=(make_leg(a, b, 0, 600), make_leg(b, c, 600, 1200, line="L2")))
        with_gap = Route(legs=(make_leg(a, b, 0, 600), make_leg(b, c, 1200, 1800, line="L2")))
        rep = mismatch_report([with_gap], [without_gap])
        assert rep.comparison(TRANSFER_TIME).mean_gap == 600.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvalError):
            mismatch_report([], [])

    def test_planner_baseline_is_over_optimistic(self, small_collection, small_net):
        day = small_collection.days[0]
        simulated = planner_baseline(day.triples, small_net)
        rep = mismatch_report(list(day.routes), simulated)
        assert rep.comparison(FULL_TIME).simulated_mean < rep.comparison(FULL_TIME).observed_mean
        assert (
            rep.comparison(TRANSFER_TIME).simulated_mean
            < rep.comparison(TRANSFER_TIME).observed_mean
        )

    def test_joint_grid_masses(self, small_collection, small_net):
        day = small_collection.days[0]
        simulated = planner_baseline(day.triples, small_net)
        rep = mismatch_report(list(day.routes), simulated, threshold_s=1800)
        assert rep.joint.observed_density.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.joint.simulated_density.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.joint.threshold_s == 1800


class _PoisonedRoutes(tuple):
    """Blows up on any access: proves the test day's observed routes are not
    read while candidates and targets are built."""

    def __iter__(self):
        raise AssertionError("test-day routes were read during preparation")

    def __getitem__(self, item):
        raise AssertionError("test-day routes were read during preparation")

    def __len__(self):
        raise AssertionError("test-day routes were read during preparation")


class TestPrepareDay:
    def test_requires_prior_day(self, small_collection):
        with pytest.raises(EvalError):
            prepare_day(small_collection, 0, fast_eval_cfg())

    def test_no_leakage_of_test_day_routes(self, small_collection):
        test_day = 3
        days = []
        for d in small_collection.days:
            if d.day == test_day:
                days.append(
                    DayData(day=d.day, day_type=d.day_type, triples=d.triples,
                            routes=_PoisonedRoutes())
                )
            else:
                days.append(d)
        poisoned = SynthCollection(network=small_collection.network, days=tuple(days))
        prepared = prepare_day(poisoned, test_day, fast_eval_cfg())
        reference = prepare_day(small_collection, test_day, fast_eval_cfg())
        assert prepared.prior_days == reference.prior_days
        assert len(prepared.candidate_sets) == len(reference.candidate_sets)
        for a, b in zip(prepared.candidate_sets, reference.candidate_sets):
            assert a.weights == b.weights
            assert [r.identity for r in a.routes] == [r.identity for r in b.routes]

    def test_day_without_demand_raises(self, small_collection):
        with pytest.raises(EvalError, match="day 2 has no demand"):
            prepare_day(with_empty_day(small_collection, 2), 2, fast_eval_cfg())

    def test_targets_only_from_prior_days(self, small_collection):
        prepared = prepare_day(small_collection, 2, fast_eval_cfg())
        assert prepared.prior_days == (0, 1)


class TestOneDayEval:
    def test_error_drops_on_same_process_day(self, small_collection):
        res = one_day_eval(small_collection, 3, fast_eval_cfg())
        assert res.final_error <= res.initial_error
        assert res.final_error < 0.5 * res.initial_error
        bests = [cp.best_error for cp in res.trace.checkpoints]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))

    def test_no_deviation_world_near_zero(self, small_net):
        cfg = SynthConfig(
            network=small_net, days=2, day_types=(WORKING, WORKING),
            trips_per_day=800, od_pool_size=80, p_round=0.0, p_detour=0.0, seed=31,
        )
        coll = generate_collection(cfg)
        res = one_day_eval(coll, 1, fast_eval_cfg())
        assert res.final_error <= res.initial_error
        assert res.final_error < 0.25

    def test_identical_days_reach_structural_floor(self, small_collection):
        # duplicate day 0 as day 1: targets equal the test day's own
        # distribution and all its routes exist in the history.  Candidate
        # deduplication by route identity keeps one timing variant per
        # physical route, so trips whose dwell pattern was collapsed cannot
        # land in their exact observed bins; the error drops to that
        # structural floor rather than to zero.
        d0 = small_collection.days[0]
        twin = SynthCollection(
            network=small_collection.network,
            days=(d0, DayData(day=1, day_type=d0.day_type, triples=d0.triples, routes=d0.routes)),
        )
        res = one_day_eval(twin, 1, fast_eval_cfg(iterations=40_000))
        assert res.final_error <= 0.2 * res.initial_error
        assert res.final_error < 0.3

    def test_before_report_is_the_chain_start(self, small_collection):
        cfg = fast_eval_cfg(iterations=2_000)
        res = one_day_eval(small_collection, 3, cfg)
        sets = res.prepared.candidate_sets
        start = res.trace.initial_assignment
        routes = [cs.candidates[a][0] for cs, a in zip(sets, start)]
        ref = mismatch_report(
            small_collection.day(3).routes, routes, threshold_s=cfg.joint_threshold_s
        )
        for got, want in zip(res.report_before.comparisons, ref.comparisons):
            np.testing.assert_array_equal(got.simulated.masses, want.simulated.masses)
            assert got.simulated_mean == want.simulated_mean
        np.testing.assert_array_equal(
            res.report_before.joint.simulated_density, ref.joint.simulated_density
        )
        assert ChainState(sets, res.prepared.spec, start).cached_error == res.trace.initial_error

    def test_mean_direction_before_after(self, small_collection):
        res = one_day_eval(small_collection, 3, fast_eval_cfg())
        before = res.report_before.comparison(FULL_TIME)
        after = res.report_after.comparison(FULL_TIME)
        # generation pulls the full-time histogram toward the observed shape
        assert after.l1 < before.l1


class TestOnlineEval:
    def test_rows_and_trend(self, small_collection):
        result = online_eval(small_collection, (WORKING,), fast_eval_cfg(iterations=10_000))
        assert [r.test_day for r in result.rows] == [1, 2, 3]
        assert [r.prior_days for r in result.rows] == [1, 2, 3]
        for row in result.rows:
            assert row.checkpoint_errors[0][0] == 0
            assert row.final_error <= row.initial_error

    def test_each_type_learns_from_its_own_earlier_days(self, small_net):
        cfg = SynthConfig(
            network=small_net, days=4, day_types=(WEEKEND, WORKING, WEEKEND, WORKING),
            trips_per_day=300, od_pool_size=80, seed=5,
        )
        coll = generate_collection(cfg)
        result = online_eval(coll, (WORKING, WEEKEND), fast_eval_cfg(iterations=2_000))
        assert [(r.test_day, r.day_type, r.prior_days) for r in result.rows] == [
            (2, WEEKEND, 1), (3, WORKING, 1)
        ]

    def test_skips_a_day_without_demand(self, small_collection):
        coll = with_empty_day(small_collection, 2)
        result = online_eval(coll, (WORKING,), fast_eval_cfg(iterations=2_000))
        assert [(r.test_day, r.prior_days) for r in result.rows] == [(1, 1), (3, 2)]

    def test_needs_two_days(self, small_collection):
        with pytest.raises(EvalError):
            online_eval(small_collection, (WEEKEND,), fast_eval_cfg())


class TestDayTypeMix:
    def test_skips_a_day_without_demand(self, small_collection):
        result = daytype_mix_eval(with_empty_day(small_collection, 2),
                                  fast_eval_cfg(iterations=2_000))
        assert [r.test_day for r in result.rows] == [1, 3]

    def test_single_type_collection_pooled_equals_matched(self, small_collection):
        result = daytype_mix_eval(small_collection, fast_eval_cfg(iterations=10_000))
        for row in result.rows:
            assert row.pooled_error == row.matched_error

    def test_indistinct_weekends_pool_for_free(self, small_net):
        # working days, every other one labelled a weekend: pooling the
        # targets changes only their sampling noise, so matched and pooled
        # errors agree closely on average
        cfg = SynthConfig(network=small_net, days=8, day_types=(WORKING,) * 8,
                          trips_per_day=1_500, od_pool_size=80, seed=43)
        days = generate_collection(cfg).days
        coll = SynthCollection(network=small_net, days=tuple(
            dataclasses.replace(d, day_type=WEEKEND) if d.day % 2 else d for d in days))
        result = daytype_mix_eval(coll, fast_eval_cfg(iterations=15_000))
        matched, pooled = result.mean_errors(WEEKEND)
        assert pooled == pytest.approx(matched, abs=0.06)

    def test_distinct_weekends_make_pooling_worse(self, small_net):
        # enough trips per day that target sampling noise stays below the
        # day-type signal (weekends deviate harder by construction)
        cfg = SynthConfig(
            network=small_net, days=10,
            day_types=tuple(WORKING if i % 2 == 0 else WEEKEND for i in range(10)),
            trips_per_day=2_000, od_pool_size=80, seed=37,
        )
        coll = generate_collection(cfg)
        result = daytype_mix_eval(coll, fast_eval_cfg(iterations=20_000, checkpoint_every=10_000))
        matched, pooled = result.mean_errors(WEEKEND)
        assert pooled > matched
        matched_w, pooled_w = result.mean_errors(WORKING)
        assert pooled_w > matched_w
