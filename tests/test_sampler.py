import hashlib
import itertools
import math

import numpy as np
import pytest

from tripforge import (
    CHARACTERISTICS,
    CandidateSet,
    ChainState,
    EvalConfig,
    FrozenChainError,
    MismatchEntry,
    MismatchSpec,
    ODTriple,
    Route,
    SamplerConfig,
    acceptance_probability,
    apply_delta,
    build_empirical_target,
    delta_error,
    initialize,
    propose,
    run,
)
from tripforge.sampler import _BLOCK, _ProposalStream

from conftest import make_leg, make_stop, random_route
from oracles import oracle_min_error, reference_run
from test_metrics import default_spec, make_candidate_sets


class TestAcceptanceProbability:
    def test_improving_move_always_accepted(self):
        assert acceptance_probability(0.5, 0.3, 1.0, 1.0) == 1.0
        assert acceptance_probability(0.5, 0.3, 1.0, 1e-3) == 1.0

    def test_equal_errors_ratio_one(self):
        assert acceptance_probability(0.2, 0.2, 1.0, 0.7) == 1.0

    def test_worsening_at_unit_temperature(self):
        alpha = acceptance_probability(0.10, 0.12, 1.0, 1.0)
        assert alpha == pytest.approx(0.8333, abs=1e-3)

    def test_worsening_at_tenth_temperature(self):
        alpha = acceptance_probability(0.10, 0.12, 1.0, 0.1)
        assert alpha == pytest.approx(0.1615, abs=1e-3)

    def test_no_overflow_at_floor_temperature(self):
        # error ratio 1e6 in both directions at the floor temperature
        up = acceptance_probability(1e-3, 1e3, 1.0, 1e-3)
        down = acceptance_probability(1e3, 1e-3, 1.0, 1e-3)
        assert up == 0.0
        assert down == 1.0

    def test_weight_ratio_shifts_threshold(self):
        assert acceptance_probability(0.1, 0.1, 2.0, 1.0) == 1.0
        assert acceptance_probability(0.1, 0.1, 0.5, 1.0) == pytest.approx(0.5)

    def test_saturates_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = acceptance_probability(
                float(rng.uniform(0, 2)),
                float(rng.uniform(0, 2)),
                float(rng.uniform(0.1, 10)),
                float(rng.uniform(1e-3, 2)),
            )
            assert 0.0 <= a <= 1.0


class TestSchedules:
    def test_decay_bounds(self):
        with pytest.raises(ValueError):
            SamplerConfig(decay=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(decay=1.5)
        SamplerConfig(decay=1.0)  # error-neutral runs may disable cooling

    def test_floor_positive(self):
        with pytest.raises(ValueError):
            SamplerConfig(l_min=0.0)


def single_leg_route(o, d, line, depart=28_800, ride=900):
    return Route(legs=(make_leg(o, d, depart, depart + ride, line=line),))


class TestInitialize:
    def test_singletons_are_deterministic(self):
        rng = np.random.default_rng(3)
        sets = make_candidate_sets(rng, n_triples=10, max_cands=1)
        state = initialize(sets, default_spec(rng), seed=9)
        assert list(state.assignment) == [0] * 10

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(4)
        sets = make_candidate_sets(rng, n_triples=50)
        spec = default_spec(rng)
        a = initialize(sets, spec, seed=123).assignment
        b = initialize(sets, spec, seed=123).assignment
        assert np.array_equal(a, b)

    def test_marginals_follow_weights(self):
        # two candidates at 0.9/0.1 over many demands: binomial 3-sigma bound
        o, d = make_stop("o", 0.0), make_stop("d", 4000.0)
        r1 = single_leg_route(o, d, "A")
        r2 = single_leg_route(o, d, "B")
        sets = []
        for j in range(100_000):
            triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id=f"t{j}")
            sets.append(CandidateSet(triple=triple, candidates=((r1, 0.9), (r2, 0.1))))
        state = initialize(sets, default_spec(), seed=77)
        first = int(np.sum(state.assignment == 0))
        assert abs(first - 90_000) <= 300


class TestPropose:
    def test_equal_weights_unit_ratio(self):
        rng = np.random.default_rng(8)
        o, d = make_stop("o", 0.0), make_stop("d", 4000.0)
        routes = [single_leg_route(o, d, f"L{i}") for i in range(4)]
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        cs = CandidateSet(triple=triple, candidates=tuple((r, 0.25) for r in routes))
        state = ChainState([cs], default_spec(), np.array([0]))
        for _ in range(20):
            j, cand, ratio = propose(state, rng)
            assert j == 0 and cand != 0
            assert ratio == pytest.approx(1.0)

    def test_ratio_definition(self):
        rng = np.random.default_rng(9)
        o, d = make_stop("o", 0.0), make_stop("d", 4000.0)
        cs = CandidateSet(
            triple=ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t"),
            candidates=(
                (single_leg_route(o, d, "A"), 0.25),
                (single_leg_route(o, d, "B"), 0.5),
                (single_leg_route(o, d, "C"), 0.25),
            ),
        )
        state = ChainState([cs], default_spec(), np.array([0]))
        seen = set()
        for _ in range(50):
            _, cand, ratio = propose(state, rng)
            seen.add(cand)
            # w_cur (1 - w_cur) / (w_new (1 - w_new)) from the 0.25-weight current
            if cand == 1:
                assert ratio == pytest.approx(0.75)
            else:
                assert ratio == pytest.approx(1.0)
        assert seen == {1, 2}

    def test_frozen_chain(self):
        rng = np.random.default_rng(10)
        sets = make_candidate_sets(rng, n_triples=5, max_cands=1)
        state = ChainState(sets, default_spec(rng), np.zeros(5, dtype=int))
        with pytest.raises(FrozenChainError):
            propose(state, rng)

    def test_empirical_frequencies_match_restricted_weights(self):
        rng = np.random.default_rng(11)
        o, d = make_stop("o", 0.0), make_stop("d", 4000.0)
        weights = (0.5, 0.3, 0.2)
        routes = [single_leg_route(o, d, f"L{i}") for i in range(3)]
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id="t")
        cs = CandidateSet(triple=triple, candidates=tuple(zip(routes, weights)))
        state = ChainState([cs], default_spec(), np.array([0]))
        counts = {1: 0, 2: 0}
        n = 1_000_000
        for _ in range(n):
            _, cand, _ = propose(state, rng)
            counts[cand] += 1
        assert counts[1] / n == pytest.approx(0.6, abs=0.01)
        assert counts[2] / n == pytest.approx(0.4, abs=0.01)


def spec_matching_initial_state(sets, seed):
    """Targets equal to the histograms of the seeded initial assignment."""
    state = initialize(sets, default_spec(), seed)
    routes = state.assigned_routes()
    entries = tuple(
        MismatchEntry(tag=tag, target=build_empirical_target(routes, tag))
        for tag in CHARACTERISTICS
    )
    return MismatchSpec(entries=entries)


def error_neutral_sets():
    """20 demands, each with 3 equally weighted time-shifted copies of one
    route: every move leaves the objective unchanged."""
    o, d = make_stop("o", 0.0), make_stop("d", 4000.0)
    sets = []
    for j in range(20):
        routes = [single_leg_route(o, d, f"L{i}", depart=28_800 + 60 * i) for i in range(3)]
        triple = ODTriple(origin=o, destination=d, depart_time=28_800, demand_id=f"t{j}")
        sets.append(CandidateSet(triple=triple, candidates=tuple((r, 1 / 3) for r in routes)))
    return sets


class TestProposalStream:
    @pytest.mark.parametrize("m", [1, 2, 3, 1990, 2**31 + 1, 2**32])
    def test_block_matches_generator(self, m):
        # A block of one round of integers(0, 2) after each block takes or
        # leaves a 32-bit half, so blocks start both with and without a saved
        # high half; the blocks of 3 000 and 4 097 rounds span several refills
        # of 1 024 words.  At m = 2**31 + 1 about half the 32-bit draws are
        # rejected; at m = 1 none is made, so the doubles would shift if a
        # word were read.
        seed = np.random.SeedSequence(2019, spawn_key=(1,))
        stream, generator = _ProposalStream(seed), np.random.default_rng(seed)

        def same_rounds(m, count):
            picks, firsts, seconds = stream.block(m, count)
            assert list(zip(picks.tolist(), firsts.tolist(), seconds.tolist())) == [
                (generator.integers(0, m), generator.random(), generator.random())
                for _ in range(count)
            ]

        starts_saved = set()
        for count in (1, 2, 5, 3_000, 4_097) * 2:
            starts_saved.add(stream._high is not None)
            same_rounds(m, count)
            same_rounds(2, 1)
        assert starts_saved == {False, True}
        for bad in (0, 2**32 + 1):
            with pytest.raises(ValueError):
                stream.block(bad, 1)


class TestRun:
    def test_frozen_chain_raises(self):
        rng = np.random.default_rng(10)
        sets = make_candidate_sets(rng, n_triples=5, max_cands=1)
        with pytest.raises(FrozenChainError):
            run(sets, default_spec(rng), SamplerConfig(iterations=1, seed=0))

    def test_already_optimal_stays_at_zero(self):
        rng = np.random.default_rng(21)
        sets = make_candidate_sets(rng, n_triples=12)
        spec = spec_matching_initial_state(sets, seed=33)
        cfg = SamplerConfig(iterations=2_000, seed=33, checkpoint_every=500)
        trace = run(sets, spec, cfg)
        assert trace.initial_error == pytest.approx(0.0, abs=1e-12)
        assert trace.best_error == pytest.approx(0.0, abs=1e-12)

    def test_error_neutral_moves_all_accepted(self):
        # candidates inside each set are time-shifted copies (identical
        # characteristics) with equal weights: every proposal is error-neutral
        # and weight-corrected, so the acceptance rate is exactly 1
        sets = error_neutral_sets()
        spec = spec_matching_initial_state(sets, seed=5)
        cfg = SamplerConfig(
            iterations=5_000, seed=5, checkpoint_every=1_000,
            decay=1.0,
        )
        trace = run(sets, spec, cfg)
        for cp in trace.checkpoints[1:]:
            assert cp.acceptance_rate == 1.0

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(23)
        sets = make_candidate_sets(rng, n_triples=30)
        spec = default_spec(rng)
        cfg = SamplerConfig(iterations=5_000, seed=99, checkpoint_every=1_000)
        t1 = run(sets, spec, cfg)
        t2 = run(sets, spec, cfg)
        assert t1.checkpoints == t2.checkpoints
        assert np.array_equal(t1.final_state.assignment, t2.final_state.assignment)
        assert np.array_equal(t1.best_state.assignment, t2.best_state.assignment)

    def test_best_error_non_increasing_and_floor_respected(self):
        rng = np.random.default_rng(29)
        sets = make_candidate_sets(rng, n_triples=25)
        spec = default_spec(rng)
        cfg = SamplerConfig(
            iterations=20_000, seed=1, checkpoint_every=2_000,
            l0=1.0, decay=0.9, l_min=1e-3,
        )
        trace = run(sets, spec, cfg)
        bests = [cp.best_error for cp in trace.checkpoints]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
        assert all(cp.temperature >= 1e-3 for cp in trace.checkpoints)
        assert trace.best_error <= trace.initial_error

    def test_pinned_results_on_a_fixed_instance(self):
        # A hot chain (acceptance ~0.85) on a fixed instance: the best and
        # final assignments and the error floats, the final one carried
        # incrementally through about 2 600 accepted moves, pin the RNG stream and
        # the objective arithmetic bit for bit.
        rng = np.random.default_rng(2024)
        sets = make_candidate_sets(rng, n_triples=30)
        spec = default_spec(rng)
        cfg = SamplerConfig(
            iterations=3_000, seed=8, checkpoint_every=1_000,
            l0=1.0, decay=0.99, l_min=1e-3,
        )
        trace = run(sets, spec, cfg)
        assert trace.best_state.assignment.tolist() == [
            0, 0, 2, 0, 1, 3, 0, 0, 0, 0, 0, 2, 0, 0, 0,
            0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 0, 2, 0, 1, 0,
        ]
        assert repr(trace.best_error) == "4.259170943949845"
        # the checkpoints since the best move report the best state's own error
        assert [repr(cp.best_error) for cp in trace.checkpoints[1:]] == ["4.259170943949845"] * 3
        assert trace.checkpoints[-1].best_error == trace.best_error
        assert trace.final_state.assignment.tolist() == [
            0, 0, 3, 0, 1, 3, 0, 0, 0, 0, 1, 2, 2, 1, 0,
            0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 1,
        ]
        assert repr(trace.final_state.cached_error) == "4.571569808912311"
        assert [cp.acceptance_rate for cp in trace.checkpoints] == [0.0, 0.845, 0.866, 0.894]

    def test_pinned_results_on_a_prepared_day(self, prepared_grid_day):
        # 20 sweeps over a prepared working day (193 demands, 857 candidates,
        # 54/34/32 bins in use): a realistic bin spread for the cached counts.
        sets, spec = prepared_grid_day.candidate_sets, prepared_grid_day.spec
        cfg = SamplerConfig(
            iterations=20 * len(sets), seed=5, checkpoint_every=1_000,
            l0=1.0, decay=0.05, l_min=1e-6,
        )
        trace = run(sets, spec, cfg)
        best = trace.best_state.assignment.astype("<i8").tobytes()
        assert hashlib.sha256(best).hexdigest() == (
            "94f3479e5c007db1286a7e8fe644effd824bbe1349ced5bca1298df4e58226e5"
        )
        assert repr(trace.best_error) == "0.675259067357513"
        assert repr(trace.final_state.cached_error) == "0.675259067357513"
        assert [cp.acceptance_rate for cp in trace.checkpoints] == [
            0.0, 0.588, 0.124, 0.075, 0.08372093023255814,
        ]

    def test_eval_config_runs_the_sampler_config_chain(self):
        # EvalConfig extends SamplerConfig: the chain settings, their defaults
        # and the chain they run are SamplerConfig's own.
        fields = ("iterations", "checkpoint_every", "seed", "l0", "decay", "l_min", "epsilon")
        assert [getattr(EvalConfig(), f) for f in fields] == [
            getattr(SamplerConfig(), f) for f in fields
        ]
        rng = np.random.default_rng(43)
        sets = make_candidate_sets(rng, n_triples=30)
        spec = default_spec(rng)
        plain = run(sets, spec, SamplerConfig(iterations=60_000, seed=12))
        evaluated = run(sets, spec, EvalConfig(iterations=60_000, seed=12))
        assert len(plain.checkpoints) == 4
        assert plain.checkpoints == evaluated.checkpoints
        assert np.array_equal(plain.best_state.assignment, evaluated.best_state.assignment)

    def test_cache_coherent_after_run(self):
        rng = np.random.default_rng(31)
        sets = make_candidate_sets(rng, n_triples=40)
        spec = default_spec(rng)
        trace = run(sets, spec, SamplerConfig(iterations=10_000, seed=3))
        final = trace.final_state
        assert final.cached_error == pytest.approx(final.scratch_error(), abs=1e-9)
        best = trace.best_state
        assert best.cached_error == pytest.approx(best.scratch_error(), abs=1e-9)

    def test_zero_iterations_returns_initialization(self):
        rng = np.random.default_rng(37)
        sets = make_candidate_sets(rng, n_triples=10)
        spec = default_spec(rng)
        trace = run(sets, spec, SamplerConfig(iterations=0, seed=55))
        init = initialize(sets, spec, 55)
        assert np.array_equal(trace.final_state.assignment, init.assignment)
        assert len(trace.checkpoints) == 1

    def test_cooling_does_not_end_a_block(self, monkeypatch):
        # 4 demands cool every 4 proposals; blocks end only at _BLOCK
        # proposals, at a checkpoint and at the last iteration
        counts = []
        block = _ProposalStream.block
        monkeypatch.setattr(_ProposalStream, "block",
                            lambda stream, m, count: counts.append(count) or block(stream, m, count))
        sets, spec = _random_instance(3)
        sets = [cs for cs in sets if len(cs) > 1][:4]
        cfg = SamplerConfig(iterations=50_000, seed=3)
        run(sets, spec, cfg)
        assert sum(counts) == cfg.iterations
        assert len(counts) <= math.ceil(cfg.iterations / _BLOCK) + cfg.iterations // cfg.checkpoint_every

    def test_visits_follow_the_stationary_law(self):
        # At a fixed temperature L the chain's invariant law is
        # pi(a) ~ (err(a) + eps)^(-1/L): the proposal correction cancels the
        # candidate weights.  3 demands of 3 candidates give 27 assignments;
        # at L = 0.02 pi lies 0.45 from uniform in total variation, and a
        # chain without the correction lands about 0.22 from pi.
        rng = np.random.default_rng(1)
        sets = []
        for j in range(3):
            routes = [random_route(rng) for _ in range(3)]
            triple = ODTriple(origin=routes[0].origin, destination=routes[0].destination,
                              depart_time=28_800, demand_id=f"t{j}")
            sets.append(CandidateSet(triple=triple, candidates=tuple(zip(routes, (0.6, 0.3, 0.1)))))
        spec = default_spec(rng)
        temperature, eps, n = 0.02, 1e-9, 100_000
        assignments = list(itertools.product(range(3), repeat=3))
        errors = np.array([ChainState(sets, spec, np.array(a)).cached_error for a in assignments])
        pi = (errors + eps) ** (-1.0 / temperature)
        pi /= pi.sum()
        state = ChainState(sets, spec, np.zeros(3, dtype=np.int64))
        visits = np.zeros(len(assignments))
        for _ in range(n):
            j, cand, q_ratio = propose(state, rng)
            err_cand = delta_error(state, j, cand)
            if rng.random() < acceptance_probability(state.cached_error, err_cand, q_ratio,
                                                     temperature, eps):
                apply_delta(state, j, cand)
            visits[assignments.index(tuple(state.assignment.tolist()))] += 1
        assert 0.5 * np.abs(visits / n - pi).sum() <= 0.03

    def test_finds_global_minimum_on_tiny_instances(self):
        # the full 100-instance gate lives in the acceptance suite
        rng = np.random.default_rng(41)
        hits = 0
        for trial in range(10):
            sets = make_candidate_sets(rng, n_triples=4, max_cands=3)
            if all(len(cs) == 1 for cs in sets):
                sets[0] = make_candidate_sets(rng, n_triples=1, max_cands=3)[0]
            spec = default_spec(rng)
            best_ref, _ = oracle_min_error(sets, spec)
            cfg = SamplerConfig(
                iterations=50_000, seed=trial, checkpoint_every=10_000,
                l0=1.0, decay=0.999, l_min=1e-3,
            )
            trace = run(sets, spec, cfg)
            if trace.best_error <= best_ref + 1e-9:
                hits += 1
        assert hits >= 9


def _random_instance(seed):
    # one to four candidates per demand, so singletons sit among larger sets
    rng = np.random.default_rng(seed)
    sets = make_candidate_sets(rng, n_triples=40, max_cands=4)
    assert 0 < len([cs for cs in sets if len(cs) == 1]) < len(sets)
    return sets, default_spec(rng)


class TestRunMatchesReference:
    """`run`'s fused loop against `reference_run`, which composes the public
    step functions: every checkpoint, assignment, cached count and float must
    agree to the bit."""

    def assert_same(self, sets, spec, cfg):
        trace, ref = run(sets, spec, cfg), reference_run(sets, spec, cfg)
        assert repr(trace.checkpoints) == repr(ref.checkpoints)
        assert trace.initial_assignment.tolist() == ref.initial_assignment.tolist()
        assert trace.best_state.assignment.tolist() == ref.best_state.assignment.tolist()
        assert repr(trace.best_error) == repr(ref.best_error)
        final, ref_final = trace.final_state, ref.final_state
        assert final.assignment.tolist() == ref_final.assignment.tolist()
        assert final.counts == ref_final.counts
        assert repr(final._dev_sums) == repr(ref_final._dev_sums)
        assert repr(final.cached_error) == repr(ref_final.cached_error)
        return trace

    @pytest.mark.parametrize("seed, l0, decay", [(3, 1.0, 0.05), (4, 1e-2, 0.5), (5, 1.0, 0.9)])
    def test_random_sets_with_singletons(self, seed, l0, decay):
        sets, spec = _random_instance(seed)
        cfg = SamplerConfig(iterations=4_000, seed=seed, checkpoint_every=700, l0=l0, decay=decay)
        self.assert_same(sets, spec, cfg)

    def test_one_eligible_demand(self):
        # integers(0, 1) reads no word, so the stream is all acceptance draws
        sets, spec = _random_instance(3)
        sets = [cs for cs in sets if len(cs) == 1] + [next(cs for cs in sets if len(cs) > 1)]
        self.assert_same(sets, spec, SamplerConfig(iterations=1_000, seed=2, checkpoint_every=300))

    def test_hot_chain_crosses_resyncs(self):
        sets, spec = _random_instance(7)
        cfg = SamplerConfig(iterations=3_000, seed=8, checkpoint_every=500, decay=0.99, l_min=1e-3)
        trace = self.assert_same(sets, spec, cfg)
        windows = zip(trace.checkpoints[1:], trace.checkpoints)
        accepted = sum(round(c.acceptance_rate * (c.iteration - p.iteration)) for c, p in windows)
        assert accepted > 2 * 128  # more than two resyncs of the cached sums

    def test_error_neutral_moves_at_decay_one(self):
        sets = error_neutral_sets()
        spec = spec_matching_initial_state(sets, seed=5)
        cfg = SamplerConfig(iterations=2_000, seed=5, checkpoint_every=500, decay=1.0)
        self.assert_same(sets, spec, cfg)

    def test_prepared_day(self, prepared_grid_day):
        sets, spec = prepared_grid_day.candidate_sets, prepared_grid_day.spec
        cfg = SamplerConfig(iterations=10 * len(sets), seed=5, checkpoint_every=600)
        self.assert_same(sets, spec, cfg)

    # `run` draws its proposals in segments that end at a checkpoint, the
    # last iteration or after _BLOCK proposals.

    def test_iterations_off_every_boundary(self):
        # 39 demands: a sweep of odd length hands a saved high half to the
        # next block
        sets, spec = _random_instance(3)
        sets = sets[:39]
        self.assert_same(sets, spec, SamplerConfig(iterations=2_345, seed=6, checkpoint_every=600))

    def test_sweep_longer_than_a_block(self):
        sets, spec = _random_instance(4)
        sets = sets * 110
        assert len(sets) > _BLOCK
        cfg = SamplerConfig(iterations=10_000, seed=7, checkpoint_every=9_000, decay=0.5)
        self.assert_same(sets, spec, cfg)

    def test_cooling_to_the_floor_within_a_block(self):
        # a sweep of 3 proposals: one block spans hundreds of cooling steps,
        # and the temperature reaches l_min after 66 of them
        sets, spec = _random_instance(5)
        sets = [cs for cs in sets if len(cs) > 1][:3]
        cfg = SamplerConfig(iterations=3_000, seed=4, checkpoint_every=2_500, decay=0.9, l_min=1e-3)
        trace = self.assert_same(sets, spec, cfg)
        assert trace.checkpoints[-1].temperature == cfg.l_min

    def test_checkpoint_period_beyond_the_chain(self):
        sets, spec = _random_instance(5)
        trace = self.assert_same(sets, spec, SamplerConfig(iterations=1_000, seed=8,
                                                           checkpoint_every=5_000))
        assert [cp.iteration for cp in trace.checkpoints] == [0, 1_000]

    def test_single_iteration(self):
        sets, spec = _random_instance(6)
        trace = self.assert_same(sets, spec, SamplerConfig(iterations=1, seed=9))
        assert [cp.iteration for cp in trace.checkpoints] == [0, 1]
