import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from tripforge import (
    ANGLE_RATIO,
    CHARACTERISTICS,
    DEFAULT_EDGES,
    FULL_TIME,
    TRANSFER_TIME,
    CandidateSet,
    ChainState,
    Histogram,
    MismatchEntry,
    MismatchSpec,
    ODTriple,
    Route,
    TargetDistribution,
    angle_ratio,
    apply_delta,
    beta_target,
    build_empirical_target,
    delta_error,
    fit_beta_moments,
    fit_poisson,
    full_trip_time,
    gaussian_mixture_target,
    l1_mismatch,
    poisson_target,
    transfer_time,
)
from tripforge import metrics
from tripforge.metrics import _bin_indices, characteristic_values

from conftest import make_leg, make_stop, random_route, straight_route
from oracles import cached_histograms, characteristic_value, total_error


def hist(masses, edges=None):
    masses = np.asarray(masses, dtype=float)
    if edges is None:
        edges = np.arange(len(masses) + 1, dtype=float)
    return Histogram(edges=np.asarray(edges, dtype=float), masses=masses, count=100)


def target(masses, edges=None):
    h = hist(masses, edges)
    return TargetDistribution(kind="empirical", edges=h.edges, masses=h.masses)


class TestCharacteristics:
    def test_full_time_single_leg(self):
        a, b = make_stop("a", 0.0), make_stop("b", 4000.0)
        r = Route(legs=(make_leg(a, b, 28_800, 30_000),))
        assert full_trip_time(r) == 1200.0

    def test_full_time_two_legs(self):
        a, b = make_stop("a", 0.0), make_stop("b", 2000.0)
        c, d = make_stop("c", 2100.0), make_stop("d", 5000.0)
        r = Route(legs=(make_leg(a, b, 28_800, 29_400), make_leg(c, d, 29_880, 30_900)))
        assert full_trip_time(r) == 2100.0

    def test_transfer_time_single_leg_is_zero(self):
        assert transfer_time(straight_route()) == 0.0

    def test_transfer_time_eight_minute_gap(self):
        a, b = make_stop("a", 0.0), make_stop("b", 2000.0)
        c = make_stop("c", 4000.0)
        r = Route(legs=(make_leg(a, b, 0, 600), make_leg(b, c, 1080, 1600, line="L2")))
        assert transfer_time(r) == 480.0

    def test_angle_ratio_round_trip_is_zero(self):
        a, b = make_stop("a", 0.0), make_stop("b", 3000.0)
        out = make_leg(a, b, 0, 600, line="L1")
        back = make_leg(b, a, 1200, 1800, line="L2")
        assert angle_ratio(Route(legs=(out, back))) == 0.0

    def test_angle_ratio_direct_leg_is_one(self):
        a, b = make_stop("a", 0.0), make_stop("b", 3000.0)
        d = 3000.0 * math.pi / 180.0 / math.pi * 180  # exact crow-flight, see below
        # leg_distance exactly the crow-flight distance -> denominator clamps
        from tripforge import great_circle_m

        r = Route(legs=(make_leg(a, b, 0, 600, dist=great_circle_m(a, b)),))
        assert angle_ratio(r) == 1.0

    def test_angle_ratio_known_value(self):
        # D = 3000 m, total ride 5000 m -> (2/pi) atan(1.5)
        a = make_stop("a", 0.0)
        b = make_stop("b", 3000.0)
        from tripforge import great_circle_m

        direct = great_circle_m(a, b)
        r = Route(legs=(make_leg(a, b, 0, 600, dist=direct * 5000.0 / 3000.0),))
        expected = (2.0 / math.pi) * math.atan(1.5)
        assert angle_ratio(r) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.6257, abs=1e-4)

    def test_angle_ratio_rejects_zero_distance(self):
        a = make_stop("a", 0.0)
        r = Route(legs=(make_leg(a, a, 0, 60, dist=0.0),))
        with pytest.raises(ValueError):
            angle_ratio(r)

    def test_angle_ratio_bounds_and_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = random_route(rng)
            v = angle_ratio(r)
            assert 0.0 <= v <= 1.0
            assert (v == 0.0) == (r.straight_line_m() == 0.0)
        # increasing D at fixed total ride distance raises the ratio
        total = 10_000.0
        a = make_stop("a", 0.0)
        prev = -1.0
        for direct_m in (1000.0, 3000.0, 5000.0, 7000.0, 9000.0):
            b = make_stop("b", direct_m)
            from tripforge import great_circle_m

            dist = total * great_circle_m(a, b) / direct_m
            r = Route(legs=(make_leg(a, b, 0, 600, dist=dist),))
            v = angle_ratio(r)
            assert v > prev
            prev = v


class TestL1Mismatch:
    def test_identity(self):
        h = hist([0.25, 0.75])
        assert l1_mismatch(h, target([0.25, 0.75])) == 0.0

    def test_disjoint_supports(self):
        assert l1_mismatch(hist([1.0, 0.0]), target([0.0, 1.0])) == 2.0

    def test_hand_value(self):
        assert l1_mismatch(hist([0.5, 0.5]), target([0.25, 0.75])) == pytest.approx(0.5, abs=1e-12)

    def test_binning_mismatch_rejected(self):
        h = hist([0.5, 0.5], edges=[0.0, 1.0, 2.0])
        z = target([0.5, 0.5], edges=[0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            l1_mismatch(h, z)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(11)
        edges = np.arange(13, dtype=float)
        for _ in range(1000):
            a = rng.dirichlet(np.ones(12))
            b = rng.dirichlet(np.ones(12))
            c = rng.dirichlet(np.ones(12))
            ha, hb, hc = hist(a, edges), hist(b, edges), hist(c, edges)
            dab = l1_mismatch(ha, hb)
            assert dab == pytest.approx(l1_mismatch(hb, ha), abs=1e-9)
            assert l1_mismatch(ha, ha) <= 1e-9
            assert dab <= l1_mismatch(ha, hc) + l1_mismatch(hc, hb) + 1e-9
            assert 0.0 <= dab <= 2.0 + 1e-9


class TestHistogram:
    @pytest.mark.parametrize("masses, edges", [
        ([0.5, 0.5], [0.0, np.nan, 2.0]),
        ([0.5, 0.5], [np.nan, 1.0, 2.0]),
        ([np.nan, 1.0], None),
        ([np.nan, np.nan], None),
    ], ids=["nan-inner-edge", "nan-first-edge", "nan-mass", "all-nan-masses"])
    def test_nan_edges_and_masses_rejected(self, masses, edges):
        with pytest.raises(ValueError):
            hist(masses, edges)


class TestTargets:
    def test_empirical_roundtrip(self):
        routes = [straight_route(ride_s=600), straight_route(ride_s=600)]
        z = build_empirical_target(routes, FULL_TIME)
        h = Histogram.from_values([full_trip_time(r) for r in routes], z.edges)
        assert l1_mismatch(h, z) == 0.0

    def test_single_route_single_bin(self):
        z = build_empirical_target([straight_route(ride_s=90)], FULL_TIME)
        assert np.count_nonzero(z.masses) == 1
        assert z.masses[1] == 1.0  # 90 s falls in the [60, 120) bin

    def test_two_bins_even_split(self):
        routes = [straight_route(ride_s=90), straight_route(ride_s=150)]
        z = build_empirical_target(routes, FULL_TIME)
        assert z.masses[1] == 0.5 and z.masses[2] == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_empirical_target([], FULL_TIME)

    def test_beta_target_unit_mass(self):
        z = beta_target(0.26, 0.24)
        assert z.masses.sum() == pytest.approx(1.0, abs=1e-6)
        # two-mode shape: heavy end bins
        assert z.masses[0] > 0.1 and z.masses[-1] > 0.1

    def test_poisson_target_folds_tail(self):
        edges = np.arange(0.0, 11.0)
        z = poisson_target(7.0, edges)
        assert z.masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert z.masses[-1] == pytest.approx(
            stats.poisson.pmf(9, 7.0) + 1.0 - stats.poisson.cdf(9, 7.0), abs=1e-12
        )

    def test_gaussian_mixture_unit_mass(self):
        z = gaussian_mixture_target(
            [(0.6, 1200.0, 300.0), (0.4, 3600.0, 600.0)], DEFAULT_EDGES[FULL_TIME]
        )
        assert z.masses.sum() == pytest.approx(1.0, abs=1e-6)

    def test_beta_requires_positive_shapes(self):
        with pytest.raises(ValueError):
            beta_target(0.0, 1.0)

    def test_parametric_targets_equal_a_direct_scipy_computation(self):
        def folded(cdf):
            masses = np.diff(cdf)
            masses[0] += cdf[0]
            masses[-1] += 1.0 - cdf[-1]
            return masses

        edges = DEFAULT_EDGES[ANGLE_RATIO]
        assert np.array_equal(beta_target(0.26, 0.24).masses,
                              folded(stats.beta.cdf(edges, 0.26, 0.24)))
        edges = DEFAULT_EDGES[TRANSFER_TIME]
        poisson = stats.poisson.pmf(np.arange(len(edges) - 1), 3.5)
        poisson[-1] += 1.0 - stats.poisson.cdf(len(edges) - 2, 3.5)
        assert np.array_equal(poisson_target(3.5, edges).masses, poisson)
        edges = DEFAULT_EDGES[FULL_TIME]
        components = [(0.6, 1200.0, 300.0), (0.4, 3600.0, 600.0)]
        cdf = np.zeros(len(edges))
        for weight, mean, std in components:
            cdf += weight * stats.norm.cdf(edges, loc=mean, scale=std)
        assert np.array_equal(gaussian_mixture_target(components, edges).masses, folded(cdf))

    @pytest.mark.parametrize("build", [
        lambda: beta_target(math.nan, 1.0),
        lambda: beta_target(1.0, math.inf),
        lambda: poisson_target(math.nan, DEFAULT_EDGES[TRANSFER_TIME]),
        lambda: poisson_target(math.inf, DEFAULT_EDGES[TRANSFER_TIME]),
        lambda: gaussian_mixture_target([(1.0, 0.0, math.nan)], DEFAULT_EDGES[FULL_TIME]),
        lambda: gaussian_mixture_target([(1.0, math.inf, 1.0)], DEFAULT_EDGES[FULL_TIME]),
        lambda: gaussian_mixture_target([(math.nan, 0.0, 1.0)], DEFAULT_EDGES[FULL_TIME]),
        lambda: TargetDistribution("empirical", np.arange(4.0), np.array([0.5, math.nan, 0.5])),
        lambda: TargetDistribution("empirical", np.arange(3.0), np.array([1.5, -0.5])),
        lambda: TargetDistribution("empirical", np.array([0.0, math.inf, 2.0]), np.full(2, 0.5)),
        lambda: TargetDistribution("empirical", np.array([0.0, math.nan, 2.0]), np.full(2, 0.5)),
        lambda: TargetDistribution("empirical", np.array([0.0, 2.0, 1.0]), np.full(2, 0.5)),
        lambda: MismatchEntry(FULL_TIME, target([1.0]), weight=-1.0),
        lambda: MismatchEntry(FULL_TIME, target([1.0]), weight=math.nan),
    ])
    def test_non_finite_or_negative_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestFits:
    def test_poisson_degenerate(self):
        assert fit_poisson([0, 0, 0]) == 0.0

    def test_poisson_mean(self):
        assert fit_poisson([1, 2, 3]) == pytest.approx(2.0)

    def test_poisson_recovery(self):
        rng = np.random.default_rng(5)
        samples = rng.poisson(7.0, size=10_000)
        assert fit_poisson(samples) == pytest.approx(7.0, abs=0.1)

    def test_beta_symmetric_samples(self):
        alpha, beta = fit_beta_moments([0.25, 0.75] * 100)
        assert alpha == pytest.approx(beta, rel=1e-9)

    def test_beta_recovery_bimodal_shape(self):
        rng = np.random.default_rng(17)
        samples = rng.beta(0.26, 0.24, size=50_000)
        alpha, beta = fit_beta_moments(samples)
        assert alpha == pytest.approx(0.26, rel=0.1)
        assert beta == pytest.approx(0.24, rel=0.1)

    def test_beta_recovery_smooth_shape(self):
        rng = np.random.default_rng(19)
        samples = rng.beta(2.0, 5.0, size=50_000)
        alpha, beta = fit_beta_moments(samples)
        assert alpha == pytest.approx(2.0, rel=0.1)
        assert beta == pytest.approx(5.0, rel=0.1)

    def test_beta_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            fit_beta_moments([0.5] * 10)


# ---------------------------------------------------------------------------
# Chain state: caches and incremental updates.
# ---------------------------------------------------------------------------


def make_candidate_sets(rng, n_triples=25, max_cands=4):
    sets = []
    for j in range(n_triples):
        n_cands = int(rng.integers(1, max_cands + 1))
        routes = []
        idents = set()
        while len(routes) < n_cands:
            r = random_route(rng)
            if r.identity in idents:
                continue
            idents.add(r.identity)
            routes.append(r)
        w = rng.dirichlet(np.ones(len(routes)))
        w = w / w.sum()
        triple = ODTriple(
            origin=routes[0].origin,
            destination=routes[0].destination,
            depart_time=int(rng.integers(0, 86_400)),
            demand_id=f"t{j}",
            round_trip_allowed=True,
        )
        sets.append(
            CandidateSet(
                triple=triple,
                candidates=tuple((r, float(x)) for r, x in zip(routes, w)),
            )
        )
    return sets


def default_spec(rng=None):
    rng = rng or np.random.default_rng(0)
    entries = []
    for tag in CHARACTERISTICS:
        edges = DEFAULT_EDGES[tag]
        masses = rng.dirichlet(np.ones(len(edges) - 1))
        entries.append(
            MismatchEntry(tag=tag, target=TargetDistribution("empirical", edges, masses))
        )
    return MismatchSpec(entries=tuple(entries))


class TestChainState:
    def test_cache_matches_scratch(self):
        rng = np.random.default_rng(23)
        sets = make_candidate_sets(rng)
        spec = default_spec(rng)
        assignment = [int(rng.integers(0, len(cs))) for cs in sets]
        state = ChainState(sets, spec, np.array(assignment))
        assert state.cached_error == pytest.approx(state.scratch_error(), abs=1e-12)
        assert state.cached_error == pytest.approx(total_error(state), abs=1e-9)

    def test_histogram_masses_sum_to_one(self):
        rng = np.random.default_rng(29)
        sets = make_candidate_sets(rng)
        state = ChainState(sets, default_spec(rng), np.zeros(len(sets), dtype=int))
        for h in cached_histograms(state):
            assert h.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_delta_noop_swap(self):
        rng = np.random.default_rng(31)
        sets = make_candidate_sets(rng)
        state = ChainState(sets, default_spec(rng), np.zeros(len(sets), dtype=int))
        err = delta_error(state, 0, 0)
        assert err == state.cached_error
        counts = [c.copy() for c in state.counts]
        apply_delta(state, 0, 0)
        assert state.cached_error == err
        for before, after in zip(counts, state.counts):
            np.testing.assert_array_equal(before, after)

    def test_delta_out_of_range(self):
        rng = np.random.default_rng(37)
        sets = make_candidate_sets(rng)
        state = ChainState(sets, default_spec(rng), np.zeros(len(sets), dtype=int))
        for fn in (delta_error, apply_delta):
            with pytest.raises(IndexError):
                fn(state, 0, 99)
            with pytest.raises(IndexError):
                fn(state, len(sets), 0)

    def test_delta_equals_scratch_over_many_random_moves(self):
        rng = np.random.default_rng(41)
        sets = make_candidate_sets(rng, n_triples=40)
        spec = default_spec(rng)
        state = ChainState(sets, spec, np.zeros(len(sets), dtype=int))
        movable = [j for j, cs in enumerate(sets) if len(cs) >= 2]
        for _ in range(2_000):
            j = int(rng.choice(movable))
            cand = int(rng.integers(0, len(sets[j])))
            new_err = delta_error(state, j, cand)
            # the delta prediction must match a from-scratch recomputation
            probe = state.assignment.copy()
            probe[j] = cand
            fresh = ChainState(sets, spec, probe).cached_error
            assert new_err == pytest.approx(fresh, abs=1e-9)
            if rng.random() < 0.5:
                apply_delta(state, j, cand)
                assert state.cached_error == pytest.approx(fresh, abs=1e-9)
        assert state.cached_error == pytest.approx(state.scratch_error(), abs=1e-9)
        for h, counts in zip(cached_histograms(state), state._scratch_counts()):
            np.testing.assert_allclose(h.masses, counts / state.n, atol=1e-9)

    def test_round_trip_swap_moves_unit_mass(self):
        # swapping a round trip for a straight ride moves 1/n of angle-ratio
        # mass from the lowest bin to the highest
        a, b = make_stop("a", 0.0), make_stop("b", 3000.0)
        out = make_leg(a, b, 0, 600, line="L1")
        back = make_leg(b, a, 1200, 1800, line="L2")
        round_trip = Route(legs=(out, back))
        from tripforge import great_circle_m

        direct = Route(legs=(make_leg(a, b, 0, 600, dist=great_circle_m(a, b)),))
        triple = ODTriple(origin=a, destination=a, depart_time=0, demand_id="x",
                          round_trip_allowed=True)
        cs = CandidateSet(triple=triple, candidates=((round_trip, 0.5), (direct, 0.5)))
        fill = [straight_route(ride_s=200 + 60 * i) for i in range(9)]
        sets = [cs] + [
            CandidateSet(
                triple=ODTriple(origin=r.origin, destination=r.destination,
                                depart_time=0, demand_id=f"f{i}"),
                candidates=((r, 1.0),),
            )
            for i, r in enumerate(fill)
        ]
        spec = default_spec()
        state = ChainState(sets, spec, np.zeros(len(sets), dtype=int))
        before = cached_histograms(state)[2].masses.copy()
        apply_delta(state, 0, 1)
        after = cached_histograms(state)[2].masses
        n = float(len(sets))
        assert before[0] - after[0] == pytest.approx(1.0 / n, abs=1e-12)
        assert after[-1] - before[-1] == pytest.approx(1.0 / n, abs=1e-12)

    def test_total_error_additivity_single_offset(self):
        # targets equal the cached histograms except one characteristic whose
        # target moves 0.25 mass off the occupied bin: total error is its L1
        route = straight_route(ride_s=300)
        triple = ODTriple(origin=route.origin, destination=route.destination,
                          depart_time=0, demand_id="solo")
        sets = [CandidateSet(triple=triple, candidates=((route, 1.0),))]
        entries = []
        for k, tag in enumerate(CHARACTERISTICS):
            edges = DEFAULT_EDGES[tag]
            masses = np.zeros(len(edges) - 1)
            b = _bin_indices(edges, characteristic_values(tag, [route]))[0]
            masses[b] = 1.0
            if tag == CHARACTERISTICS[0]:
                masses[b] = 0.75
                masses[(b + 1) % len(masses)] = 0.25
            entries.append(
                MismatchEntry(tag=tag, target=TargetDistribution("empirical", edges, masses))
            )
        spec = MismatchSpec(entries=tuple(entries))
        state = ChainState(sets, spec, np.zeros(1, dtype=int))
        assert total_error(state) == pytest.approx(0.5, abs=1e-12)

    def test_total_error_permutation_invariant(self):
        rng = np.random.default_rng(43)
        sets = make_candidate_sets(rng, n_triples=30)
        spec = default_spec(rng)
        assignment = np.array([int(rng.integers(0, len(cs))) for cs in sets])
        err = ChainState(sets, spec, assignment).cached_error
        perm = rng.permutation(len(sets))
        err_perm = ChainState(
            [sets[i] for i in perm], spec, assignment[perm]
        ).cached_error
        assert err == pytest.approx(err_perm, abs=1e-9)


# ---------------------------------------------------------------------------
# Chain state: properties under random inputs.
# ---------------------------------------------------------------------------


@st.composite
def hyp_route(draw, uid: str) -> Route:
    """A 1-2 leg route along the equator whose times often pass the top
    bin edge of full time (3 h) and transfer time (1 h)."""
    legs = []
    x = 0.0
    t = draw(st.integers(0, 20 * 3600))
    prev = make_stop(f"{uid}-0", x)
    for i in range(draw(st.integers(1, 2))):
        step = draw(st.floats(200.0, 8000.0))
        x += step
        stop = make_stop(f"{uid}-{i + 1}", x)
        ride = draw(st.one_of(st.integers(60, 3000), st.integers(10_000, 20_000)))
        detour = draw(st.floats(1.0, 3.0))
        legs.append(make_leg(prev, stop, t, t + ride, line=f"L{i}", dist=step * detour))
        t += ride + draw(st.one_of(st.integers(0, 900), st.integers(3000, 6000)))
        prev = stop
    return Route(legs=tuple(legs))


@st.composite
def chain_cases(draw):
    """(candidate sets, spec, start assignment, moves) for a small chain; a
    move is (demand draw, candidate draw, accept)."""
    sets = []
    for j in range(draw(st.integers(1, 6))):
        routes = [draw(hyp_route(f"{j}.{c}")) for c in range(draw(st.integers(1, 4)))]
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(routes), max_size=len(routes)))
        weights = np.asarray(raw) / sum(raw)
        triple = ODTriple(origin=routes[0].origin, destination=routes[0].destination,
                          depart_time=0, demand_id=f"t{j}", round_trip_allowed=True)
        sets.append(CandidateSet(triple=triple,
                                 candidates=tuple(zip(routes, map(float, weights)))))
    entries = []
    for tag in CHARACTERISTICS:
        edges = DEFAULT_EDGES[tag]
        raw = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=len(edges) - 1,
                                       max_size=len(edges) - 1))) + 1e-3
        entries.append(MismatchEntry(
            tag=tag, target=TargetDistribution("empirical", edges, raw / raw.sum()),
            weight=draw(st.floats(0.1, 2.0)),
        ))
    assignment = np.array([draw(st.integers(0, len(cs) - 1)) for cs in sets])
    moves = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()),
                          max_size=300))
    return sets, MismatchSpec(entries=tuple(entries)), assignment, moves


class TestCarriedCharacteristics:
    def test_carried_values_equal_the_scalar_functions(self, prepared_grid_day):
        sets = prepared_grid_day.candidate_sets
        provenance = [p for cs in sets for p in cs.provenance]
        assert any(hits and not freq for hits, freq in provenance)
        assert any(freq and not hits for hits, freq in provenance)  # re-anchored history
        for cs in sets:
            assert cs.characteristics.shape == (len(cs), len(CHARACTERISTICS))
            for col, tag in enumerate(CHARACTERISTICS):
                assert np.array_equal(cs.characteristics[:, col], characteristic_values(tag, cs.routes))

    def test_second_build_calls_no_characteristic_function(self, prepared_grid_day, monkeypatch):
        calls = []
        for tag, fn in list(metrics._CHARACTERISTIC_FN.items()):
            monkeypatch.setitem(
                metrics._CHARACTERISTIC_FN, tag, lambda route, fn=fn: calls.append(1) or fn(route)
            )
        sets = [dataclasses.replace(cs) for cs in prepared_grid_day.candidate_sets]
        spec = prepared_grid_day.spec
        zeros = np.zeros(len(sets), dtype=np.int64)
        first = ChainState(sets, spec, zeros)
        assert len(calls) == len(CHARACTERISTICS) * sum(map(len, sets))
        calls.clear()
        second = ChainState(sets, spec, zeros)
        assert not calls
        assert second._flat_bins == first._flat_bins
        assert second.cached_error == first.cached_error


class TestChainStateProperties:
    @settings(max_examples=60, deadline=None)
    @given(chain_cases())
    def test_incremental_error_equals_scratch_and_rebuild(self, case):
        sets, spec, assignment, moves = case
        state = ChainState(sets, spec, assignment)
        for a, b, accept in moves:
            j = a % state.n
            cand = b % len(sets[j])
            new_err = delta_error(state, j, cand)
            if accept:
                apply_delta(state, j, cand)
                assert state.cached_error == pytest.approx(new_err, abs=1e-9)
            assert state.cached_error == pytest.approx(state.scratch_error(), abs=1e-9)
        fresh = ChainState(sets, spec, state.assignment)
        assert state.cached_error == pytest.approx(fresh.cached_error, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(chain_cases())
    def test_cached_histograms_bin_the_assigned_routes(self, case):
        sets, spec, assignment, moves = case
        state = ChainState(sets, spec, assignment)
        for a, b, accept in moves:
            j = a % state.n
            cand = b % len(sets[j])
            delta_error(state, j, cand)
            if accept:
                apply_delta(state, j, cand)
        routes = state.assigned_routes()
        for h, e in zip(cached_histograms(state), spec.entries):
            ref = Histogram.from_values(
                [characteristic_value(e.tag, r) for r in routes], e.target.edges
            )
            assert h.count == ref.count == len(sets)
            np.testing.assert_array_equal(h.masses, ref.masses)

    @settings(max_examples=60, deadline=None)
    @given(chain_cases(), st.data())
    def test_out_of_range_assignment_raises(self, case, data):
        sets, spec, assignment, _ = case
        bad = sorted(data.draw(st.sets(st.integers(0, len(sets) - 1), min_size=1)))
        for j in bad:
            assignment[j] = data.draw(st.sampled_from([-1, len(sets[j])]))
        with pytest.raises(IndexError, match=rf"assignment\[{bad[0]}\]"):
            ChainState(sets, spec, assignment)
