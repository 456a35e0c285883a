"""Synthetic multi-day trip collections.

Generates demand and "observed" routes for a configurable city: most trips
follow the best planner route, a fraction detour onto slower alternatives
with extra dwell at transfers, and a fraction are one-ticket round trips
(out on the best route, back on its reverse after a stay).  Weekends get
scaled demand, a flattened departure profile and stronger deviations, so the
two day types genuinely differ in their trip characteristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import Leg, ODTriple, Route, Stop, great_circle_m
from .planner import Line, TransitNetwork, k_top_routes

WORKING = "working"
WEEKEND = "weekend"


class SynthError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Network construction.
# ---------------------------------------------------------------------------

_METERS_PER_DEG_LAT = 111_195.0


def build_grid_network(
    rows: int = 5,
    cols: int = 6,
    spacing_m: float = 600.0,
    seed: int = 0,
    base_lat: float = 45.0,
    base_lon: float = 5.0,
    bus_speed_mps: float = 7.0,
    segment_detour: float = 1.03,
    headway_choices: tuple[int, ...] = (420, 600, 900),
    first_dep_s: int = 5 * 3600,
    last_dep_s: int = 23 * 3600,
    transfer_penalty_s: int = 300,
) -> TransitNetwork:
    """A rectangular city: one east-west line per row, one north-south line
    per column, each served in both directions with a shared headway."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    rng = np.random.default_rng(seed)
    dlat = spacing_m / _METERS_PER_DEG_LAT
    dlon = spacing_m / (_METERS_PER_DEG_LAT * math.cos(math.radians(base_lat)))

    stops = []
    for r in range(rows):
        for c in range(cols):
            stops.append(
                Stop(
                    stop_id=f"s{r:02d}{c:02d}",
                    lat=base_lat + r * dlat,
                    lon=base_lon + c * dlon,
                    name=f"Stop {r}/{c}",
                )
            )
    grid = {(r, c): stops[r * cols + c] for r in range(rows) for c in range(cols)}

    def _segments(path: list[Stop]) -> tuple[tuple[int, ...], tuple[float, ...]]:
        rides = []
        dists = []
        for a, b in zip(path, path[1:]):
            d = great_circle_m(a, b) * segment_detour
            dists.append(d)
            rides.append(int(math.ceil(d / bus_speed_mps)) + 20)
        return tuple(rides), tuple(dists)

    lines: list[Line] = []

    def _add_pair(name: str, path: list[Stop], fwd: str, bwd: str) -> None:
        headway = int(rng.choice(headway_choices))
        rides, dists = _segments(path)
        lines.append(
            Line(
                line_id=f"{name}-{fwd}",
                stop_ids=tuple(s.stop_id for s in path),
                seg_ride_s=rides,
                seg_dist_m=dists,
                headway_s=headway,
                first_dep_s=first_dep_s,
                last_dep_s=last_dep_s,
            )
        )
        rev = list(reversed(path))
        rides_r, dists_r = _segments(rev)
        lines.append(
            Line(
                line_id=f"{name}-{bwd}",
                stop_ids=tuple(s.stop_id for s in rev),
                seg_ride_s=rides_r,
                seg_dist_m=dists_r,
                headway_s=headway,
                first_dep_s=first_dep_s,
                last_dep_s=last_dep_s,
            )
        )

    for r in range(rows):
        _add_pair(f"ew{r}", [grid[(r, c)] for c in range(cols)], "east", "west")
    for c in range(cols):
        _add_pair(f"ns{c}", [grid[(r, c)] for r in range(rows)], "north", "south")

    return TransitNetwork(
        stops=tuple(stops),
        lines=tuple(lines),
        transfer_penalty_s=transfer_penalty_s,
    )


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeProfile:
    """Departure-time density: two Gaussian peaks over a uniform floor."""

    morning_peak_s: int = 8 * 3600
    morning_sigma_s: int = 4500
    evening_peak_s: int = 17 * 3600 + 1800
    evening_sigma_s: int = 5400
    floor_weight: float = 0.25
    window_start_s: int = 6 * 3600
    window_end_s: int = 22 * 3600

    def draw(self, rng: np.random.Generator) -> int:
        if rng.random() < self.floor_weight:
            return int(rng.integers(self.window_start_s, self.window_end_s))
        if rng.random() < 0.5:
            mu, sigma = self.morning_peak_s, self.morning_sigma_s
        else:
            mu, sigma = self.evening_peak_s, self.evening_sigma_s
        for _ in range(32):
            t = int(rng.normal(mu, sigma))
            if self.window_start_s <= t < self.window_end_s:
                return t
        return int(rng.integers(self.window_start_s, self.window_end_s))

    def flattened(self) -> "TimeProfile":
        return replace(self, floor_weight=1.0)


@dataclass(frozen=True)
class SynthConfig:
    network: TransitNetwork
    days: int = 25
    start_weekday: int = 5  # 0 = Monday; 5 starts the collection on a Saturday
    day_types: tuple[str, ...] | None = None
    trips_per_day: int = 20_000
    weekend_scale: float = 0.5
    profile: TimeProfile = field(default_factory=TimeProfile)
    p_round: float = 0.18
    p_detour: float = 0.27
    detour_rank_decay: float = 0.6
    dwell_mean_s: float = 420.0
    round_dwell_mean_s: float = 1500.0
    weekend_round_factor: float = 2.0
    weekend_dwell_factor: float = 2.0
    planner_k: int = 5
    od_pool_size: int | None = 600
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_round", "p_detour", "weekend_scale"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.p_round + self.p_detour > 1.0:
            raise ValueError("p_round + p_detour must not exceed 1")
        if self.trips_per_day < 1:
            raise ValueError("trips_per_day must be >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.day_types is not None and len(self.day_types) != self.days:
            raise ValueError("day_types must list one label per day")

    def day_type(self, day: int) -> str:
        if self.day_types is not None:
            return self.day_types[day]
        return WEEKEND if (self.start_weekday + day) % 7 >= 5 else WORKING

    @cached_property
    def _od_pool(self) -> list[tuple[Stop, Stop]]:
        """Origin-destination pairs the planner can serve at noon, in a
        seed-fixed order; drawn once per config."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0xD0D,)))
        stops = self.network.stops
        pairs = [(a, b) for a in stops for b in stops if a.stop_id != b.stop_id]
        order = rng.permutation(len(pairs))
        want = self.od_pool_size if self.od_pool_size is not None else len(pairs)
        pool: list[tuple[Stop, Stop]] = []
        probe_t = 12 * 3600
        for idx in order:
            o, d = pairs[idx]
            probe = ODTriple(origin=o, destination=d, depart_time=probe_t, demand_id="probe")
            if k_top_routes(self.network, probe, k=1):
                pool.append((o, d))
                if len(pool) >= want:
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
    config: SynthConfig
    days: tuple[DayData, ...]

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


def _retag(route: Route, tag: str) -> Route:
    return Route(legs=route.legs, source_tag=tag)


def _shift_leg(leg: Leg, shift: int) -> Leg:
    return Leg(
        board_stop=leg.board_stop,
        alight_stop=leg.alight_stop,
        board_time=leg.board_time + shift,
        alight_time=leg.alight_time + shift,
        line_id=leg.line_id,
        leg_distance=leg.leg_distance,
    )


def _inject_dwell(route: Route, rng: np.random.Generator, mean_s: float) -> Route:
    """Stretch each transfer gap by exponential extra dwell; single-leg routes
    are returned unchanged."""
    if len(route.legs) == 1:
        return _retag(route, "synthetic")
    legs = [route.legs[0]]
    shift = 0
    for leg in route.legs[1:]:
        shift += int(rng.exponential(mean_s))
        legs.append(_shift_leg(leg, shift))
    return Route(legs=tuple(legs), source_tag="synthetic")


def _round_trip_route(
    outbound: Route, dwell_s: int, reverse_of: dict[str, str]
) -> Route:
    """Outbound legs followed by the mirrored return after a stay, reusing the
    outbound ride times and transfer gaps."""
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
                line_id=reverse_of.get(leg.line_id, leg.line_id),
                leg_distance=leg.leg_distance,
            )
        )
        t += ride
        if i < len(gaps):
            t += gaps[len(gaps) - 1 - i]
    return Route(legs=tuple(legs), source_tag="synthetic")


def generate_day(cfg: SynthConfig, day: int) -> tuple[list[ODTriple], list[Route], str]:
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

    weekend = day_type == WEEKEND
    n_trips = cfg.trips_per_day if not weekend else max(1, round(cfg.trips_per_day * cfg.weekend_scale))
    profile = cfg.profile.flattened() if weekend else cfg.profile
    p_round = min(cfg.p_round * (cfg.weekend_round_factor if weekend else 1.0), 1.0 - cfg.p_detour)
    dwell_factor = cfg.weekend_dwell_factor if weekend else 1.0

    triples: list[ODTriple] = []
    routes: list[Route] = []
    for i in range(n_trips):
        planner_routes = None
        for attempt in range(100):
            o, d = pool[int(rng.integers(0, len(pool)))]
            t = profile.draw(rng)
            probe = ODTriple(origin=o, destination=d, depart_time=t, demand_id="probe")
            planner_routes = k_top_routes(cfg.network, probe, k=cfg.planner_k)
            if planner_routes:
                break
        if not planner_routes:
            raise SynthError(f"day {day}: no reachable OD pair after 100 resamples")

        demand_id = f"d{day:03d}t{i:05d}"
        u = rng.random()
        if u < p_round:
            dwell = 120 + int(rng.exponential(cfg.round_dwell_mean_s * dwell_factor))
            triples.append(
                ODTriple(
                    origin=o,
                    destination=o,
                    depart_time=t,
                    demand_id=demand_id,
                    round_trip_allowed=True,
                )
            )
            routes.append(_round_trip_route(planner_routes[0], dwell, reverse_of))
            continue

        triples.append(ODTriple(origin=o, destination=d, depart_time=t, demand_id=demand_id))
        if u < p_round + cfg.p_detour and len(planner_routes) >= 2:
            ranks = len(planner_routes) - 1
            w = np.array([cfg.detour_rank_decay**r for r in range(ranks)])
            pick = 1 + int(rng.choice(ranks, p=w / w.sum()))
            routes.append(_inject_dwell(planner_routes[pick], rng, cfg.dwell_mean_s * dwell_factor))
        else:
            routes.append(_retag(planner_routes[0], "synthetic"))
    return triples, routes, day_type


def generate_collection(cfg: SynthConfig) -> SynthCollection:
    days = []
    for day in range(cfg.days):
        triples, routes, day_type = generate_day(cfg, day)
        days.append(
            DayData(day=day, day_type=day_type, triples=tuple(triples), routes=tuple(routes))
        )
    return SynthCollection(config=cfg, days=tuple(days))
