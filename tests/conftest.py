import numpy as np
import pytest

from tripforge import (
    EvalConfig,
    Leg,
    ODTriple,
    Route,
    Stop,
    SynthConfig,
    build_grid_network,
    generate_collection,
    great_circle_m,
    prepare_day,
)

# Degrees of longitude per meter at the equator (where most toy geometry lives).
DEG_PER_M = 1.0 / 111_195.0


def make_stop(sid: str, x_m: float = 0.0, y_m: float = 0.0) -> Stop:
    """A stop placed x_m east / y_m north of the (0, 0) reference point."""
    return Stop(stop_id=sid, lat=y_m * DEG_PER_M, lon=x_m * DEG_PER_M)


def make_leg(board, alight, t0, t1, line="L1", dist=None) -> Leg:
    if dist is None:
        dist = great_circle_m(board, alight) * 1.02 + 1.0
    return Leg(
        board_stop=board,
        alight_stop=alight,
        board_time=t0,
        alight_time=t1,
        line_id=line,
        leg_distance=dist,
    )


def straight_route(
    length_m: float = 3000.0,
    depart: int = 28_800,
    ride_s: int = 900,
    detour: float = 1.0,
) -> Route:
    """Single-leg route along the equator; detour scales the ride distance
    relative to the crow-flight length."""
    a = make_stop("ra", 0.0)
    b = make_stop("rb", length_m)
    return Route(legs=(make_leg(a, b, depart, depart + ride_s, dist=length_m * max(detour, 1.0)),))


def two_leg_route(gap_s: int = 480, depart: int = 28_800) -> Route:
    a = make_stop("ta", 0.0)
    b = make_stop("tb", 2000.0)
    c = make_stop("tc", 4000.0)
    l1 = make_leg(a, b, depart, depart + 600, line="LA")
    l2 = make_leg(b, c, depart + 600 + gap_s, depart + 1200 + gap_s, line="LB")
    return Route(legs=(l1, l2))


def random_route(rng: np.random.Generator) -> Route:
    """A valid route with randomized geometry and timing (1-3 legs).

    Stop ids carry a random tag so identities almost never collide across
    calls."""
    n_legs = int(rng.integers(1, 4))
    uid = int(rng.integers(0, 10**9))
    x = 0.0
    t = int(rng.integers(6 * 3600, 20 * 3600))
    legs = []
    prev_end = None
    for i in range(n_legs):
        step = float(rng.uniform(500.0, 6000.0))
        a = prev_end if prev_end is not None else make_stop(f"q{uid}-{i}a", x)
        x += step
        b = make_stop(f"q{uid}-{i}b", x)
        ride = int(rng.integers(120, 1800))
        legs.append(make_leg(a, b, t, t + ride, line=f"L{i}", dist=step * float(rng.uniform(1.0, 1.6))))
        t += ride + int(rng.integers(0, 900))
        prev_end = b
    return Route(legs=tuple(legs))


# ---------------------------------------------------------------------------
# Session-scoped synthetic collections shared by the heavier tests.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def city_network():
    return build_grid_network(rows=5, cols=6, seed=0)


@pytest.fixture(scope="session")
def prepared_grid_day(city_network):
    """Day 2 of three 200-trip working days, prepared from the two before it:
    193 demands with planner and re-anchored history candidates."""
    cfg = SynthConfig(
        network=city_network,
        days=3,
        day_types=("working",) * 3,
        trips_per_day=200,
        seed=21,
    )
    return prepare_day(generate_collection(cfg), 2, EvalConfig(seed=4))


@pytest.fixture(scope="session")
def collection_17wd(city_network):
    """17 working days at full size; drives the convergence and history-
    scaling acceptance checks."""
    cfg = SynthConfig(
        network=city_network,
        days=17,
        day_types=("working",) * 17,
        trips_per_day=20_000,
        seed=11,
    )
    return generate_collection(cfg)


@pytest.fixture(scope="session")
def collection_17wd_sparse(city_network):
    """17 working days with demand spread thin over many demand patterns, so
    per-day history coverage grows slowly; drives the history-scaling check."""
    cfg = SynthConfig(
        network=city_network,
        days=17,
        day_types=("working",) * 17,
        trips_per_day=5_000,
        od_pool_size=1_200,
        seed=19,
    )
    return generate_collection(cfg)


@pytest.fixture(scope="session")
def collection_25d(city_network):
    """25 days starting on a Saturday (17 working + 8 weekend), smaller
    demand; drives the day-type mixing checks."""
    cfg = SynthConfig(
        network=city_network,
        days=25,
        trips_per_day=4_000,
        seed=13,
    )
    return generate_collection(cfg)
