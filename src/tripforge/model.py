"""Domain types shared by every module: stops, legs, routes, demand triples,
candidate sets. Pure value data plus validation; no algorithms beyond
derived accessors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
SECONDS_PER_DAY = 86_400

WORKING = "working"
WEEKEND = "weekend"
DAY_TYPES = (WORKING, WEEKEND)


@dataclass(frozen=True, slots=True)
class Stop:
    """A transit stop with WGS84 coordinates."""

    stop_id: str
    lat: float
    lon: float
    name: str | None = None

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"stop {self.stop_id!r}: lat {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"stop {self.stop_id!r}: lon {self.lon} outside [-180, 180]")


def great_circle_m(a: Stop, b: Stop) -> float:
    """Haversine distance in meters on a sphere of radius 6 371 000 m."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True, slots=True)
class Leg:
    """One vehicle ride between a boarding and an alighting stop.

    Times are integer seconds since service-day midnight; a leg crossing
    midnight may carry an alight_time beyond 86399.
    """

    board_stop: Stop
    alight_stop: Stop
    board_time: int
    alight_time: int
    line_id: str
    leg_distance: float

    def shifted(self, dt: int) -> Leg:
        """The same ride dt seconds later (earlier when dt is negative)."""
        return Leg(self.board_stop, self.alight_stop, self.board_time + dt,
                   self.alight_time + dt, self.line_id, self.leg_distance)


@dataclass(frozen=True, slots=True)
class Route:
    """An ordered sequence of legs realizing one trip."""

    legs: tuple[Leg, ...]

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("route must have at least one leg")

    @property
    def origin(self) -> Stop:
        return self.legs[0].board_stop

    @property
    def destination(self) -> Stop:
        return self.legs[-1].alight_stop

    @property
    def identity(self) -> tuple[tuple[str, str, str], ...]:
        """Route identity for deduplication: per-leg (line, board, alight),
        ignoring clock times. Planner and history describe the same physical
        route with slightly different times."""
        return tuple(
            (leg.line_id, leg.board_stop.stop_id, leg.alight_stop.stop_id) for leg in self.legs
        )

    def straight_line_m(self) -> float:
        """Crow-flight distance from first boarding to last alighting."""
        return great_circle_m(self.origin, self.destination)

    def ride_distance_m(self) -> float:
        """Total in-vehicle distance over all legs."""
        return sum(leg.leg_distance for leg in self.legs)


@dataclass(frozen=True, slots=True)
class ODTriple:
    """A unit of travel demand: go from origin to destination at depart_time.

    origin == destination is permitted only for round-trip demand (flagged),
    where the traveler returns to the starting stop on one ticket.
    """

    origin: Stop
    destination: Stop
    depart_time: int
    demand_id: str
    round_trip_allowed: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.depart_time < SECONDS_PER_DAY:
            raise ValueError(f"demand {self.demand_id!r}: depart_time outside [0, 86400)")
        if self.origin.stop_id == self.destination.stop_id and not self.round_trip_allowed:
            raise ValueError(
                f"demand {self.demand_id!r}: origin equals destination but round trips not allowed"
            )


# How far a leg's distance may fall short of its great-circle distance.
DISTANCE_SLACK_M = 1.0


def validate_route(route: Route) -> list[str]:
    """The rules every route satisfies, observed or planned; returns
    human-readable violations (empty if valid).  The planner's walk limit is
    not among them: an observed traveller may walk further between rides."""
    problems: list[str] = []
    for i, leg in enumerate(route.legs):
        if leg.alight_time < leg.board_time:
            problems.append(f"leg {i}: alight_time {leg.alight_time} before board_time {leg.board_time}")
        # Written so that a NaN distance fails the test.
        if not (math.isfinite(leg.leg_distance) and leg.leg_distance >= 0.0):
            problems.append(f"leg {i}: leg_distance {leg.leg_distance} is not a finite number >= 0")
        else:
            crow = great_circle_m(leg.board_stop, leg.alight_stop)
            if leg.leg_distance < crow - DISTANCE_SLACK_M:
                problems.append(
                    f"leg {i}: leg_distance {leg.leg_distance:.1f} m shorter than "
                    f"great-circle {crow:.1f} m"
                )
    for i in range(len(route.legs) - 1):
        prev, nxt = route.legs[i], route.legs[i + 1]
        if nxt.board_time < prev.alight_time:
            problems.append(
                f"legs {i}->{i + 1}: boards at {nxt.board_time} before previous alighting {prev.alight_time}"
            )
    total = route.ride_distance_m()
    if not total > 0.0:
        problems.append(f"total ride distance {total} is not positive")
    return problems


@dataclass(frozen=True)
class CandidateSet:
    """Weighted route alternatives for one demand triple.

    candidates are (route, weight) pairs; weights are strictly positive, below
    one in a set of two or more, and sum to one. provenance carries
    per-candidate (planner_hits, history_freq).
    """

    triple: ODTriple
    candidates: tuple[tuple[Route, float], ...]
    provenance: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"demand {self.triple.demand_id!r}: empty candidate set")
        total = 0.0
        seen: set[tuple, ] = set()
        for route, weight in self.candidates:
            if not weight > 0.0:  # a NaN weight fails this test too
                raise ValueError(f"demand {self.triple.demand_id!r}: weight {weight} is not positive")
            if weight >= 1.0 and len(self.candidates) > 1:
                raise ValueError(f"demand {self.triple.demand_id!r}: weight {weight} in a set of "
                                 f"{len(self.candidates)} leaves the others no mass")
            ident = route.identity
            if ident in seen:
                raise ValueError(f"demand {self.triple.demand_id!r}: duplicate candidate {ident}")
            seen.add(ident)
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"demand {self.triple.demand_id!r}: weights sum to {total}, expected 1")
        if self.provenance and len(self.provenance) != len(self.candidates):
            raise ValueError(f"demand {self.triple.demand_id!r}: provenance length mismatch")

    @property
    def routes(self) -> tuple[Route, ...]:
        return tuple(route for route, _ in self.candidates)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(weight for _, weight in self.candidates)

    @cached_property
    def characteristics(self) -> np.ndarray:
        """(len, 3) float array of each candidate's characteristic values in
        `metrics.CHARACTERISTICS` order, computed on first use and carried
        with the set."""
        from .metrics import CHARACTERISTICS, characteristic_values  # metrics imports model

        routes = self.routes
        return np.column_stack([characteristic_values(tag, routes) for tag in CHARACTERISTICS])

    def __len__(self) -> int:
        return len(self.candidates)
