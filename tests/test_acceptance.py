"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  The heavier criteria share the session-scoped synthetic
collections from conftest."""

import math
import time

import numpy as np

from tripforge import (
    EvalConfig,
    Histogram,
    MismatchSpec,
    ODTriple,
    Route,
    SamplerConfig,
    acceptance_probability,
    angle_ratio,
    build_grid_network,
    fit_beta_moments,
    full_trip_time,
    generalized_cost,
    great_circle_m,
    k_top_routes,
    l1_mismatch,
    mismatch_report,
    one_day_eval,
    online_eval,
    daytype_mix_eval,
    planner_baseline,
    run,
    transfer_time,
)
from tripforge import io as tfio
from tripforge.cli import main as cli_main
from tripforge.metrics import delta_error, apply_delta
from tripforge.synth import WEEKEND, WORKING

from conftest import make_leg, make_stop
from oracles import oracle_enumerate_routes, oracle_min_error
from test_metrics import default_spec, make_candidate_sets
from test_planner import random_network


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_angle_ratio_units():
    t0 = time.perf_counter()
    a, b = make_stop("a", 0.0), make_stop("b", 3000.0)
    out = make_leg(a, b, 0, 600, line="L1")
    back = make_leg(b, a, 1200, 1800, line="L2")
    round_trip = angle_ratio(Route(legs=(out, back)))
    direct = angle_ratio(Route(legs=(make_leg(a, b, 0, 600, dist=great_circle_m(a, b)),)))
    crow = great_circle_m(a, b)
    known = angle_ratio(Route(legs=(make_leg(a, b, 0, 600, dist=crow * 5000.0 / 3000.0),)))
    elapsed = time.perf_counter() - t0
    ok = (
        round_trip == 0.0
        and direct == 1.0
        and abs(known - 0.6257) <= 1e-4
        and elapsed < 1.0
    )
    report(1, ok, f"directness units: round={round_trip}, direct={direct}, "
                  f"ratio(3000/5000)={known:.5f}, {elapsed:.2f}s")


def test_criterion_02_l1_metric_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    edges = np.arange(0.0, 21.0)
    worst = 0.0
    for _ in range(1000):
        a = rng.dirichlet(np.ones(20))
        b = rng.dirichlet(np.ones(20))
        c = rng.dirichlet(np.ones(20))
        ha = Histogram(edges=edges, masses=a, count=1)
        hb = Histogram(edges=edges, masses=b, count=1)
        hc = Histogram(edges=edges, masses=c, count=1)
        dab, dba = l1_mismatch(ha, hb), l1_mismatch(hb, ha)
        worst = max(worst, abs(dab - dba))
        worst = max(worst, l1_mismatch(ha, ha))
        worst = max(worst, dab - (l1_mismatch(ha, hc) + l1_mismatch(hc, hb)))
        assert 0.0 <= dab <= 2.0 + 1e-9
    e0 = Histogram(edges=edges[:3], masses=np.array([1.0, 0.0]), count=1)
    e1 = Histogram(edges=edges[:3], masses=np.array([0.0, 1.0]), count=1)
    disjoint = l1_mismatch(e0, e1)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and disjoint == 2.0 and elapsed < 5.0
    report(2, ok, f"L1 metric on 1000 random pairs: worst deviation {worst:.2e}, "
                  f"disjoint={disjoint}, {elapsed:.2f}s")


def test_criterion_03_incremental_objective_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    sets = make_candidate_sets(rng, n_triples=1000, max_cands=4)
    spec = default_spec(rng)
    from tripforge import initialize

    state = initialize(sets, spec, seed=303)
    movable = [j for j, cs in enumerate(sets) if len(cs) >= 2]
    worst = 0.0
    for step in range(10_000):
        j = int(movable[rng.integers(0, len(movable))])
        cand = int(rng.integers(0, len(sets[j])))
        new_err = delta_error(state, j, cand)
        if rng.random() < 0.5:
            apply_delta(state, j, cand)
            worst = max(worst, abs(state.cached_error - state.scratch_error()))
        else:
            worst = max(worst, abs(state.cached_error - state.scratch_error()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(3, ok, f"10^4 delta cycles on 10^3 demands: max |delta - scratch| = {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_04_oracle_optimality_on_tiny_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    hits = 0
    for trial in range(100):
        while True:
            sets = make_candidate_sets(rng, n_triples=4, max_cands=3)
            if any(len(cs) >= 2 for cs in sets):
                break
        spec = default_spec(rng)
        ref, _ = oracle_min_error(sets, spec)
        cfg = SamplerConfig(
            iterations=50_000,
            seed=trial,
            checkpoint_every=25_000,
            l0=1.0,
            decay=0.999,
            l_min=1e-3,
        )
        trace = run(sets, spec, cfg)
        if trace.best_error <= ref + 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 120.0
    report(4, ok, f"global minimum reached in {hits}/100 seeded runs, {elapsed:.0f}s")


def test_criterion_05_acceptance_rule_suite():
    improving = acceptance_probability(0.5, 0.2, 1.0, 1.0)
    a1 = acceptance_probability(0.10, 0.12, 1.0, 1.0)
    a2 = acceptance_probability(0.10, 0.12, 1.0, 0.1)
    worse = acceptance_probability(1.0, 1e6, 1.0, 1e-3)
    better = acceptance_probability(1e6, 1.0, 1.0, 1e-3)
    ok = (
        improving == 1.0
        and abs(a1 - 0.8333) <= 1e-3
        and abs(a2 - 0.1615) <= 1e-3
        and 0.0 <= worse <= 1e-12
        and better == 1.0
        and all(map(math.isfinite, (improving, a1, a2, worse, better)))
    )
    report(5, ok, f"acceptance rule: improving=1, a(L=1)={a1:.4f}, a(L=0.1)={a2:.4f}, "
                  f"extreme ratios finite")


def test_criterion_06_mismatch_direction(collection_17wd):
    t0 = time.perf_counter()
    day = collection_17wd.days[0]
    simulated = planner_baseline(day.triples, collection_17wd.network)
    rep = mismatch_report(list(day.routes), simulated)
    full = rep.comparison("full_time")
    transfer = rep.comparison("transfer_time")
    f3 = np.array([angle_ratio(r) for r in day.routes])
    low = float((f3 <= 0.1).mean())
    high = float((f3 >= 0.9).mean())
    elapsed = time.perf_counter() - t0
    ok = (
        full.simulated_mean < full.observed_mean
        and transfer.simulated_mean < transfer.observed_mean
        and low >= 0.15
        and high >= 0.15
        and elapsed < 60.0
    )
    report(6, ok, f"over-optimism: full {full.simulated_mean/60:.1f} < {full.observed_mean/60:.1f} min, "
                  f"transfer {transfer.simulated_mean/60:.1f} < {transfer.observed_mean/60:.1f} min; "
                  f"directness mass low={low:.2f} high={high:.2f}; {elapsed:.0f}s")


def test_criterion_07_convergence_regime(collection_17wd):
    t0 = time.perf_counter()
    cfg = EvalConfig(iterations=100_000, checkpoint_every=25_000, seed=7)
    res = one_day_eval(collection_17wd, 16, cfg)
    iters = [cp.iteration for cp in res.trace.checkpoints]
    bests = [cp.best_error for cp in res.trace.checkpoints]
    non_increasing = all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
    ratio = res.final_error / res.initial_error
    elapsed = time.perf_counter() - t0
    ok = (
        iters == [0, 25_000, 50_000, 75_000, 100_000]
        and ratio <= 0.35
        and non_increasing
    )
    report(7, ok, f"day-17 convergence: error {res.initial_error:.3f} -> {res.final_error:.3f} "
                  f"(ratio {ratio:.3f} <= 0.35), checkpoints non-increasing, {elapsed:.0f}s "
                  f"(target < 600s)")


def test_criterion_08_history_scaling_trend(collection_17wd_sparse):
    t0 = time.perf_counter()
    cfg = EvalConfig(iterations=100_000, checkpoint_every=25_000, seed=7)
    result = online_eval(collection_17wd_sparse, (WORKING,), cfg)
    final_by_prior = {row.prior_days: row.final_error for row in result.rows}
    early = float(np.mean([final_by_prior[p] for p in (1, 2, 3, 4)]))
    late = float(np.mean([final_by_prior[p] for p in (13, 14, 15, 16)]))
    elapsed = time.perf_counter() - t0
    ok = late <= 0.5 * early
    report(8, ok, f"history scaling: mean error days 2-5 = {early:.3f}, "
                  f"days 14-17 = {late:.3f} (factor {early / late:.1f} >= 2), {elapsed:.0f}s")


def test_criterion_09_daytype_mixing(collection_25d):
    t0 = time.perf_counter()
    cfg = EvalConfig(iterations=30_000, checkpoint_every=10_000, seed=7)
    result = daytype_mix_eval(collection_25d, cfg)
    matched, pooled = result.mean_errors(WEEKEND)
    elapsed = time.perf_counter() - t0
    ok = pooled > matched
    report(9, ok, f"weekend targets: matched {matched:.3f} < pooled {pooled:.3f}, {elapsed:.0f}s")


def test_criterion_10_beta_moment_recovery():
    rng = np.random.default_rng(1010)
    samples = rng.beta(0.26, 0.24, size=50_000)
    alpha, beta = fit_beta_moments(samples)
    ok = abs(alpha - 0.26) / 0.26 <= 0.10 and abs(beta - 0.24) / 0.24 <= 0.10
    report(10, ok, f"beta fit recovered ({alpha:.3f}, {beta:.3f}) from (0.26, 0.24)")


def test_criterion_11_planner_matches_enumeration():
    rng = np.random.default_rng(1111)
    mismatches = 0
    for trial in range(50):
        net = random_network(rng)
        o, d = rng.choice(len(net.stops), size=2, replace=False)
        triple = ODTriple(
            origin=net.stops[o],
            destination=net.stops[d],
            depart_time=int(rng.integers(7 * 3600, 20 * 3600)),
            demand_id=f"a{trial}",
        )
        expected = oracle_enumerate_routes(net, triple, max_legs=3)[:5]
        got = k_top_routes(net, triple, k=5)
        if [r.identity for r in got] != [r.identity for r in expected]:
            mismatches += 1
        elif any(full_trip_time(a) != full_trip_time(b) for a, b in zip(got, expected)):
            mismatches += 1
    ok = mismatches == 0
    report(11, ok, f"planner equals exhaustive top-5 on 50 random networks "
                   f"({mismatches} mismatches)")


def test_criterion_12_cmd_generate_determinism(tmp_path):
    net = build_grid_network(rows=2, cols=3, seed=6)
    from tripforge import SynthConfig, generate_collection
    from tripforge.metrics import CHARACTERISTICS, MismatchEntry, build_empirical_target

    coll = generate_collection(
        SynthConfig(network=net, days=2, day_types=(WORKING, WORKING),
                    trips_per_day=120, od_pool_size=20, seed=12)
    )
    root = tmp_path / "hist"
    tfio.write_collection(coll, root)
    spec = MismatchSpec(
        entries=tuple(
            MismatchEntry(tag=tag, target=build_empirical_target(list(coll.days[0].routes), tag))
            for tag in CHARACTERISTICS
        )
    )
    targets = tmp_path / "targets.txt"
    tfio.write_targets(spec, targets)
    args = [
        "generate",
        "--network", str(root / "network.txt"),
        "--demand", str(root / "day_001_working.demand"),
        "--targets", str(targets),
        "--history-dir", str(root),
        "--iterations", "5000",
        "--seed", "99",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out-dir", str(out1)]) == 0
    assert cli_main(args + ["--out-dir", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("trace.csv", "assigned.trips")
    )
    report(12, same, "cmd_generate with a fixed seed is byte-identical across runs")
