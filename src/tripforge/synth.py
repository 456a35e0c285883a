"""Synthetic multi-day trip collections.

Generates demand and "observed" routes for a configurable city: most trips
follow the best planner route, a fraction detour onto slower alternatives
with extra dwell at transfers, and a fraction are one-ticket round trips
(out on the best route, back on its reverse after a stay; only where every
line of the best route has a reverse line).  Weekends get scaled demand, a
flattened departure profile and stronger deviations, so the two day types
genuinely differ in their trip characteristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DAY_TYPES, WEEKEND, WORKING, Leg, ODTriple, Route, Stop, great_circle_m
from .planner import Line, TransitNetwork, _ranked, _route


class SynthError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Network construction.
# ---------------------------------------------------------------------------

_METERS_PER_DEG_LAT = 111_195.0

# What every grid city shares: its south-west corner, the spacing of its
# stops, bus speed, how much longer a ride is than the straight segment, the
# headways a line pair draws from, and the service window of every line.
_BASE_LAT = 45.0
_BASE_LON = 5.0
_SPACING_M = 600.0
_BUS_SPEED_MPS = 7.0
_SEGMENT_DETOUR = 1.03
_HEADWAY_CHOICES = (420, 600, 900)
_FIRST_DEP_S = 5 * 3600
_LAST_DEP_S = 23 * 3600


def build_grid_network(rows: int = 5, cols: int = 6, seed: int = 0) -> TransitNetwork:
    """A rectangular city: one east-west line per row, one north-south line
    per column, each served in both directions with a shared headway."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dlat = _SPACING_M / _METERS_PER_DEG_LAT
    dlon = _SPACING_M / (_METERS_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT)))

    stops = [
        Stop(f"s{r:02d}{c:02d}", _BASE_LAT + r * dlat, _BASE_LON + c * dlon, f"Stop {r}/{c}")
        for r in range(rows)
        for c in range(cols)
    ]
    # Each line pair draws one headway and serves its stops both ways.
    pairs = [(f"ew{r}", stops[r * cols:(r + 1) * cols], "east", "west") for r in range(rows)]
    pairs += [(f"ns{c}", stops[c::cols], "north", "south") for c in range(cols)]
    lines: list[Line] = []
    for name, path, fwd, bwd in pairs:
        headway = int(rng.choice(_HEADWAY_CHOICES))
        for direction, way in ((fwd, path), (bwd, path[::-1])):
            dists = tuple(great_circle_m(a, b) * _SEGMENT_DETOUR for a, b in zip(way, way[1:]))
            lines.append(
                Line(
                    line_id=f"{name}-{direction}",
                    stop_ids=tuple(s.stop_id for s in way),
                    seg_ride_s=tuple(int(math.ceil(d / _BUS_SPEED_MPS)) + 20 for d in dists),
                    seg_dist_m=dists,
                    headway_s=headway,
                    first_dep_s=_FIRST_DEP_S,
                    last_dep_s=_LAST_DEP_S,
                )
            )
    return TransitNetwork(stops=tuple(stops), lines=tuple(lines))


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


# The departure peaks as (mean, sigma) seconds, and the window departures
# are drawn in.
_MORNING_PEAK = (8 * 3600, 4500)
_EVENING_PEAK = (17 * 3600 + 1800, 5400)
_WINDOW_START_S = 6 * 3600
_WINDOW_END_S = 22 * 3600


def _departure(rng: np.random.Generator, uniform_share: float) -> int:
    """A departure time in 06:00-22:00: uniform with probability
    uniform_share, otherwise from one of two Gaussian peaks, 08:00 (sigma 75
    min) and 17:30 (sigma 90 min), chosen evenly."""
    if rng.random() < uniform_share:
        return int(rng.integers(_WINDOW_START_S, _WINDOW_END_S))
    mu, sigma = _MORNING_PEAK if rng.random() < 0.5 else _EVENING_PEAK
    for _ in range(32):
        t = int(rng.normal(mu, sigma))
        if _WINDOW_START_S <= t < _WINDOW_END_S:
            return t
    return int(rng.integers(_WINDOW_START_S, _WINDOW_END_S))


_START_WEEKDAY = 5  # day 0's weekday (0 = Monday) when no day_types are given
# Per day type: the share of `trips_per_day`, the share of departures drawn
# uniformly (else from the peaks), and the factors on `p_round` and dwells.
_DAY_BEHAVIOUR = {WORKING: (1.0, 0.25, 1.0, 1.0), WEEKEND: (0.5, 1.0, 2.0, 2.0)}
_DETOUR_RANKS = 5  # the routes a detour asks the planner for
_DETOUR_DECAY = 0.6  # a detour takes rank 1 + r with weight _DETOUR_DECAY**r
_DWELL_MEAN_S = 420.0  # a detour's mean extra wait at each transfer
_ROUND_DWELL_MEAN_S = 1500.0  # a round trip's mean stay beyond 120 s


@dataclass(frozen=True)
class SynthConfig:
    """A synthetic city's settings.  Day 0 is a Saturday and the days follow
    the week, unless `day_types` labels each day; `_DAY_BEHAVIOUR` sets how
    the two day types differ.  A weekend's `p_round` is capped at 1 - p_detour."""

    network: TransitNetwork
    days: int = 25
    day_types: tuple[str, ...] | None = None
    trips_per_day: int = 20_000
    p_round: float = 0.18
    p_detour: float = 0.27
    od_pool_size: int = 600
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_round", "p_detour"):
            v = getattr(self, name)
            # Written so that NaN fails the test.
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.p_round + self.p_detour > 1.0:
            raise ValueError("p_round + p_detour must not exceed 1")
        if self.trips_per_day < 1:
            raise ValueError("trips_per_day must be >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.od_pool_size < 1:
            raise ValueError(f"od_pool_size must be at least 1, got {self.od_pool_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.day_types is not None:
            if len(self.day_types) != self.days:
                raise ValueError("day_types must list one label per day")
            unknown = sorted(set(self.day_types) - set(DAY_TYPES))
            if unknown:
                raise ValueError(f"day_types: unknown labels {unknown}, expected {DAY_TYPES}")

    def day_type(self, day: int) -> str:
        if self.day_types is not None:
            return self.day_types[day]
        return WEEKEND if (_START_WEEKDAY + day) % 7 >= 5 else WORKING

    @cached_property
    def _od_pool(self) -> list[tuple[Stop, Stop]]:
        """Origin-destination pairs the planner can serve at noon, in a
        seed-fixed order; drawn once per config."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0xD0D,)))
        stops = self.network.stops
        pairs = [(a, b) for a in stops for b in stops if a.stop_id != b.stop_id]
        order = rng.permutation(len(pairs))
        pool: list[tuple[Stop, Stop]] = []
        probe_t = 12 * 3600
        for idx in order:
            o, d = pairs[idx]
            probe = ODTriple(origin=o, destination=d, depart_time=probe_t, demand_id="probe")
            if _ranked(self.network, probe, 1):
                pool.append((o, d))
                if len(pool) >= self.od_pool_size:
                    break
        if not pool:
            raise SynthError("no reachable origin-destination pair in the network")
        return pool


@dataclass(frozen=True)
class DayData:
    day: int
    day_type: str
    triples: tuple[ODTriple, ...]
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class SynthCollection:
    """Days of trips on one network, synthesized or read from a directory."""

    network: TransitNetwork
    days: tuple[DayData, ...]

    def __post_init__(self) -> None:
        numbers = [d.day for d in self.days]
        if len(set(numbers)) != len(numbers):
            raise ValueError(f"a day number repeats: {numbers}")

    def day(self, index: int) -> DayData:
        for d in self.days:
            if d.day == index:
                return d
        raise KeyError(index)


# ---------------------------------------------------------------------------
# Generation.
# ---------------------------------------------------------------------------

def _reverse_line_map(net: TransitNetwork) -> dict[str, str]:
    by_seq = {line.stop_ids: line.line_id for line in net.lines}
    out = {}
    for line in net.lines:
        rev = by_seq.get(tuple(reversed(line.stop_ids)))
        if rev is not None:
            out[line.line_id] = rev
    return out


def _inject_dwell(route: Route, rng: np.random.Generator, mean_s: float) -> Route:
    """Stretch each transfer gap by exponential extra dwell; single-leg routes
    are returned unchanged."""
    if len(route.legs) == 1:
        return route
    legs = [route.legs[0]]
    shift = 0
    for leg in route.legs[1:]:
        shift += int(rng.exponential(mean_s))
        legs.append(leg.shifted(shift))
    return Route(legs=tuple(legs))


def _round_trip_route(
    outbound: Route, dwell_s: int, reverse_of: dict[str, str]
) -> Route:
    """Outbound legs followed by the mirrored return after a stay, reusing the
    outbound ride times and transfer gaps; every outbound line needs a reverse
    in `reverse_of`."""
    out = outbound.legs
    gaps = [out[i + 1].board_time - out[i].alight_time for i in range(len(out) - 1)]
    legs = list(out)
    t = out[-1].alight_time + dwell_s
    for i, leg in enumerate(reversed(out)):
        ride = leg.alight_time - leg.board_time
        legs.append(
            Leg(
                board_stop=leg.alight_stop,
                alight_stop=leg.board_stop,
                board_time=t,
                alight_time=t + ride,
                line_id=reverse_of[leg.line_id],
                leg_distance=leg.leg_distance,
            )
        )
        t += ride
        if i < len(gaps):
            t += gaps[len(gaps) - 1 - i]
    return Route(legs=tuple(legs))


def _detour_cdf(decay: float, ranks: int) -> np.ndarray:
    """The cdf `rng.choice(ranks, p=w / w.sum())` searches, for w_r = decay**r."""
    w = np.array([decay**r for r in range(ranks)])
    cdf = (w / w.sum()).cumsum()
    return cdf / cdf[-1]


def generate_day(cfg: SynthConfig, day: int) -> DayData:
    """Demand triples and their observed routes for one day.

    Deterministic per (config seed, day).  Raises SynthError when a sampled
    origin-destination pair stays unreachable after 100 resamples.
    """
    if not 0 <= day < cfg.days:
        raise ValueError(f"day {day} outside the configured range")
    day_type = cfg.day_type(day)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(day,)))
    pool = cfg._od_pool
    reverse_of = _reverse_line_map(cfg.network)

    share, uniform_share, round_factor, dwell_factor = _DAY_BEHAVIOUR[day_type]
    n_trips = max(1, round(cfg.trips_per_day * share))
    p_round = min(cfg.p_round * round_factor, 1.0 - cfg.p_detour)
    detour_cdfs = [_detour_cdf(_DETOUR_DECAY, ranks) for ranks in range(1, _DETOUR_RANKS)]

    triples: list[ODTriple] = []
    routes: list[Route] = []
    for i in range(n_trips):
        top = None  # ranked, not built: a trip builds only the route it keeps
        for attempt in range(100):
            o, d = pool[int(rng.integers(0, len(pool)))]
            t = _departure(rng, uniform_share)
            probe = ODTriple(origin=o, destination=d, depart_time=t, demand_id="probe")
            top = _ranked(cfg.network, probe, 1)
            if top:
                break
        if not top:
            raise SynthError(f"day {day}: no reachable OD pair after 100 resamples")

        demand_id = f"d{day:03d}t{i:05d}"
        u = rng.random()
        if u < p_round:
            # A round trip rides back on the reverse of each outbound line; a
            # top route on a line without one stays a one-way trip.
            route = _route(cfg.network, *top[0])
            round_trip = all(leg.line_id in reverse_of for leg in route.legs)
            if round_trip:
                dwell = 120 + int(rng.exponential(_ROUND_DWELL_MEAN_S * dwell_factor))
                route = _round_trip_route(route, dwell, reverse_of)
            triples.append(ODTriple(origin=o, destination=o if round_trip else d, depart_time=t,
                                    demand_id=demand_id, round_trip_allowed=round_trip))
            routes.append(route)
            continue

        triples.append(ODTriple(origin=o, destination=d, depart_time=t, demand_id=demand_id))
        if u < p_round + cfg.p_detour:
            # Only a detour looks past the top route.  The ranking is exact
            # for every k, so the first route stays the one drawn above.
            ranked = _ranked(cfg.network, probe, _DETOUR_RANKS)
            if len(ranked) >= 2:
                cdf = detour_cdfs[len(ranked) - 2]
                pick = 1 + int(cdf.searchsorted(rng.random(), side="right"))
                route = _route(cfg.network, *ranked[pick])
                routes.append(_inject_dwell(route, rng, _DWELL_MEAN_S * dwell_factor))
                continue
        routes.append(_route(cfg.network, *top[0]))
    return DayData(day=day, day_type=day_type, triples=tuple(triples), routes=tuple(routes))


def generate_collection(cfg: SynthConfig) -> SynthCollection:
    return SynthCollection(network=cfg.network,
                           days=tuple(generate_day(cfg, day) for day in range(cfg.days)))
