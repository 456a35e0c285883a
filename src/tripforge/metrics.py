"""Trip characteristics, histograms, target distributions and the mismatch
objective.

The chain state caches integer bin counts per characteristic so that swapping
one trip's route updates the objective in O(characteristics): only the two
affected bins of each histogram are touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Route

FULL_TIME = "full_time"
TRANSFER_TIME = "transfer_time"
ANGLE_RATIO = "angle_ratio"
CHARACTERISTICS = (FULL_TIME, TRANSFER_TIME, ANGLE_RATIO)

# 1-minute bins over [0, 180] min for full trip time, [0, 60] min for
# transfer time, 50 uniform bins over [0, 1] for the angle ratio.  Values
# beyond the top edge fold into the last bin.
DEFAULT_EDGES: dict[str, np.ndarray] = {
    FULL_TIME: np.arange(0.0, 10801.0, 60.0),
    TRANSFER_TIME: np.arange(0.0, 3601.0, 60.0),
    ANGLE_RATIO: np.linspace(0.0, 1.0, 51),
}

# Resync the cached absolute-deviation sums from the integer bin counts at
# this cadence; keeps incremental/scratch agreement well under 1e-9 even over
# very long runs.
_RESYNC_EVERY = 128


def full_trip_time(route: Route) -> float:
    """Seconds from the first boarding to the last alighting."""
    return float(route.legs[-1].alight_time - route.legs[0].board_time)


def transfer_time(route: Route) -> float:
    """Total seconds spent between legs (waiting/walking); 0 for single-leg trips."""
    legs = route.legs
    return float(sum(legs[i + 1].board_time - legs[i].alight_time for i in range(len(legs) - 1)))


def angle_ratio(route: Route) -> float:
    """Directness of a trip in [0, 1].

    With D the crow-flight origin-destination distance and S the summed leg
    distances, returns (2/pi) * arctan(D / (S - D)).  A round trip (D = 0)
    scores 0; a route no longer than the crow-flight distance (S <= D) is
    maximally direct and scores 1.
    """
    total = route.ride_distance_m()
    if total <= 0.0:
        raise ValueError("angle_ratio undefined for zero total ride distance")
    direct = route.straight_line_m()
    if direct == 0.0:
        return 0.0
    denom = total - direct
    if denom <= 0.0:
        return 1.0
    return (2.0 / math.pi) * math.atan(direct / denom)


_CHARACTERISTIC_FN = {
    FULL_TIME: full_trip_time,
    TRANSFER_TIME: transfer_time,
    ANGLE_RATIO: angle_ratio,
}


def characteristic_values(tag: str, routes) -> np.ndarray:
    """The tagged characteristic of each route, in route order."""
    try:
        fn = _CHARACTERISTIC_FN[tag]
    except KeyError:
        raise ValueError(f"unknown characteristic {tag!r}") from None
    return np.fromiter(map(fn, routes), dtype=float)


def _bin_indices(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bin of each value under `edges`; out-of-range values fold into the end bins."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: probability mass per bin plus the sample count."""

    edges: np.ndarray
    masses: np.ndarray
    count: int

    def __post_init__(self) -> None:
        if len(self.masses) != len(self.edges) - 1:
            raise ValueError("histogram needs len(edges) - 1 masses")
        # Written so that a NaN edge or mass fails each test.
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("histogram edges must be strictly increasing")
        if not np.all(self.masses >= 0):
            raise ValueError("histogram masses must be non-negative")
        if self.count > 0 and not abs(float(self.masses.sum()) - 1.0) <= 1e-9:
            raise ValueError(f"histogram masses sum to {self.masses.sum()}, expected 1")

    @classmethod
    def from_values(cls, values, edges: np.ndarray) -> "Histogram":
        idx = _bin_indices(edges, np.asarray(values, dtype=float))
        return cls.from_counts(np.bincount(idx, minlength=len(edges) - 1), edges)

    @classmethod
    def from_counts(cls, counts: np.ndarray, edges: np.ndarray) -> "Histogram":
        counts = np.asarray(counts)
        total = int(counts.sum())
        masses = counts / total if total > 0 else np.zeros(len(counts), dtype=float)
        return cls(edges=np.asarray(edges, dtype=float), masses=masses, count=total)


@dataclass(frozen=True)
class TargetDistribution:
    """A desired distribution over one characteristic, discretized to a binning.

    kind is one of: empirical, beta, poisson, gaussian_mixture.  Parametric
    kinds are discretized with tail mass folded into the end bins.
    """

    kind: str
    edges: np.ndarray
    masses: np.ndarray
    params: tuple = ()

    def __post_init__(self) -> None:
        if len(self.masses) != len(self.edges) - 1:
            raise ValueError("target needs len(edges) - 1 masses")
        if not (np.all(np.isfinite(self.edges)) and np.all(np.diff(self.edges) > 0)):
            raise ValueError("target edges must be finite and strictly increasing")
        # Masses hold only to the 1e-6 of the sum test: a discretized mixture
        # whose weights sum to 1 + 1 ulp leaves -2.2e-16 in its last bin.
        if not np.all(self.masses >= -1e-6):
            raise ValueError("target masses must be non-negative numbers")
        if not abs(float(self.masses.sum()) - 1.0) <= 1e-6:
            raise ValueError(f"target masses sum to {self.masses.sum()}, expected 1 +- 1e-6")


def empirical_target(hist: Histogram) -> TargetDistribution:
    if hist.count == 0:
        raise ValueError("cannot build an empirical target from an empty histogram")
    return TargetDistribution(kind="empirical", edges=hist.edges, masses=hist.masses.copy())


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def beta_target(alpha: float, beta: float, edges: np.ndarray | None = None) -> TargetDistribution:
    if not (_finite_positive(alpha) and _finite_positive(beta)):
        raise ValueError("beta target requires finite alpha > 0 and beta > 0")
    from scipy import stats  # only parametric targets need scipy; it is slow to import

    if edges is None:
        edges = DEFAULT_EDGES[ANGLE_RATIO]
    edges = np.asarray(edges, dtype=float)
    cdf = stats.beta.cdf(edges, alpha, beta)
    masses = np.diff(cdf)
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return TargetDistribution(kind="beta", edges=edges, masses=masses, params=(alpha, beta))


def poisson_target(lam: float, edges: np.ndarray) -> TargetDistribution:
    """Poisson over the bin index: bin i receives pmf(i), the open tail folds
    into the last bin."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("poisson target requires a finite lambda >= 0")
    from scipy import stats

    edges = np.asarray(edges, dtype=float)
    nbins = len(edges) - 1
    masses = stats.poisson.pmf(np.arange(nbins), lam)
    masses[-1] += 1.0 - stats.poisson.cdf(nbins - 1, lam)
    return TargetDistribution(kind="poisson", edges=edges, masses=masses, params=(lam,))


def gaussian_mixture_target(
    components: list[tuple[float, float, float]], edges: np.ndarray
) -> TargetDistribution:
    """components: (weight, mean, stddev) in characteristic units."""
    if not components:
        raise ValueError("gaussian mixture needs at least one component")
    for weight, mean, std in components:
        if not (math.isfinite(weight) and weight >= 0 and math.isfinite(mean)):
            raise ValueError("mixture component weight and mean must be finite, weight >= 0")
        if not _finite_positive(std):
            raise ValueError("mixture component stddev must be finite and positive")
    wsum = sum(w for w, _, _ in components)
    if abs(wsum - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {wsum}, expected 1")
    from scipy import stats

    edges = np.asarray(edges, dtype=float)
    cdf = np.zeros(len(edges))
    for weight, mean, std in components:
        cdf += weight * stats.norm.cdf(edges, loc=mean, scale=std)
    masses = np.diff(cdf)
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return TargetDistribution(
        kind="gaussian_mixture", edges=edges, masses=masses, params=tuple(components)
    )


@dataclass(frozen=True)
class MismatchEntry:
    tag: str
    target: TargetDistribution
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class MismatchSpec:
    """Ordered characteristic functions, their targets and weights."""

    entries: tuple[MismatchEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("mismatch spec needs at least one characteristic")
        tags = [e.tag for e in self.entries]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate characteristic tags: {tags}")
        for e in self.entries:
            if e.tag not in _CHARACTERISTIC_FN:
                raise ValueError(f"unknown characteristic {e.tag!r}")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(e.tag for e in self.entries)


def build_empirical_target(routes, tag: str) -> TargetDistribution:
    """Empirical target from the tagged characteristic of a route collection,
    on the characteristic's `DEFAULT_EDGES`."""
    values = characteristic_values(tag, routes)
    if not values.size:
        raise ValueError("cannot build a target from an empty route list")
    return empirical_target(Histogram.from_values(values, DEFAULT_EDGES[tag]))


def l1_mismatch(h, z) -> float:
    """Sum of absolute per-bin mass differences; a metric on same-binned histograms."""
    if not np.array_equal(h.edges, z.edges):
        raise ValueError("histogram and target binnings differ")
    return float(np.abs(np.asarray(h.masses) - np.asarray(z.masses)).sum())


# ---------------------------------------------------------------------------
# Chain state with cached histograms and incremental objective updates.
# ---------------------------------------------------------------------------


class ChainState:
    """One route choice per demand plus cached histograms and error.

    Owned and mutated by exactly one sampler execution at a time.  The caches
    are integer bin counts (exact under any accept/reject sequence) plus
    per-characteristic absolute-deviation sums, periodically resynced.  The
    tables the move path reads per proposal are plain Python lists: `counts`
    holds one list[int] of bin counts per characteristic, and the bins,
    offsets, set sizes, eligible demands and scaled targets are lists too.
    `assignment` is an int64 array.
    """

    __slots__ = (
        "candidate_sets",
        "spec",
        "assignment",
        "n",
        "counts",
        "cached_error",
        "weights",
        "eligible",
        "_sizes",
        "_dev_sums",
        "_scales",
        "_scaled_targets",
        "_flat_bins",
        "_offsets",
        "_applies",
    )

    def __init__(self, candidate_sets, spec: MismatchSpec, assignment: np.ndarray):
        candidate_sets = list(candidate_sets)
        if not candidate_sets:
            raise ValueError("need at least one candidate set")
        n = len(candidate_sets)
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if assignment.shape != (n,):
            raise ValueError("assignment length must match the number of demands")
        weights = [cs.weights for cs in candidate_sets]
        sizes = np.fromiter(map(len, weights), dtype=np.int64, count=n)
        bad = np.flatnonzero((assignment < 0) | (assignment >= sizes))
        if bad.size:
            raise IndexError(f"assignment[{bad[0]}] out of range for its candidate set")

        self.candidate_sets = candidate_sets
        self.spec = spec
        self.assignment = assignment
        self.n = n
        self.weights = weights
        self._sizes = sizes.tolist()
        self.eligible = np.flatnonzero(sizes >= 2).tolist()

        # Candidate c of demand j is row _offsets[j] + c of each
        # characteristic's bin list.
        self._offsets = [0, *np.cumsum(sizes).tolist()]
        values = np.concatenate([cs.characteristics for cs in candidate_sets])
        self._flat_bins = [
            _bin_indices(e.target.edges, values[:, CHARACTERISTICS.index(e.tag)]).tolist()
            for e in spec.entries
        ]

        self._scales = tuple(e.weight / n for e in spec.entries)
        self._scaled_targets = [(n * e.target.masses).tolist() for e in spec.entries]
        self.counts = [c.tolist() for c in self._scratch_counts()]
        self._resync()

    # -- cache maintenance ---------------------------------------------------

    def _scratch_counts(self) -> list[np.ndarray]:
        chosen = np.asarray(self._offsets[:-1]) + self.assignment
        return [
            np.bincount(np.asarray(fb)[chosen], minlength=len(st))
            for fb, st in zip(self._flat_bins, self._scaled_targets)
        ]

    def _resync(self) -> None:
        self._dev_sums = [
            float(np.abs(np.subtract(counts, nz)).sum())
            for counts, nz in zip(self.counts, self._scaled_targets)
        ]
        self.cached_error = float(
            sum(s * d for s, d in zip(self._scales, self._dev_sums))
        )
        self._applies = 0

    def scratch_error(self) -> float:
        """Objective recomputed from scratch, independent of the caches."""
        total = 0.0
        for scale, fresh, nz in zip(self._scales, self._scratch_counts(), self._scaled_targets):
            total += scale * float(np.abs(np.subtract(fresh, nz)).sum())
        return total

    def assigned_routes(self) -> list[Route]:
        return [cs.candidates[self.assignment[j]][0] for j, cs in enumerate(self.candidate_sets)]


def _current_candidate(state: ChainState, j: int, cand: int) -> int:
    """Demand j's current candidate, once j and `cand` are checked in range."""
    if not 0 <= j < state.n:
        raise IndexError(f"demand index {j} out of range")
    if not 0 <= cand < state._sizes[j]:
        raise IndexError(f"candidate index {cand} out of range for demand {j}")
    return state.assignment.item(j)


def _dev_change(counts: list[int], nz: list[float], b_old: int, b_new: int) -> float:
    """Change in sum |counts - nz| when one trip moves from bin b_old to
    another bin b_new."""
    c_old, t_old = counts[b_old], nz[b_old]
    c_new, t_new = counts[b_new], nz[b_new]
    return (
        abs(c_old - 1 - t_old)
        - abs(c_old - t_old)
        + abs(c_new + 1 - t_new)
        - abs(c_new - t_new)
    )


def delta_error(state: ChainState, j: int, cand: int) -> float:
    """Total error if demand j switched to candidate `cand`; the state is left
    unchanged.  Touches only the affected bins."""
    cur = _current_candidate(state, j, cand)
    if cand == cur:
        return state.cached_error
    base = state._offsets[j]
    new_error = 0.0
    for ki, (scale, rows) in enumerate(zip(state._scales, state._flat_bins)):
        b_old = rows[base + cur]
        b_new = rows[base + cand]
        dev = state._dev_sums[ki]
        if b_old != b_new:
            dev += _dev_change(state.counts[ki], state._scaled_targets[ki], b_old, b_new)
        new_error += scale * dev
    return float(new_error)


def apply_delta(state: ChainState, j: int, cand: int) -> None:
    """Switch demand j to candidate `cand`, updating the cached histograms
    and error.  Touches only the affected bins."""
    cur = _current_candidate(state, j, cand)
    if cand == cur:
        return
    base = state._offsets[j]
    for ki, rows in enumerate(state._flat_bins):
        b_old = rows[base + cur]
        b_new = rows[base + cand]
        if b_old != b_new:
            counts = state.counts[ki]
            state._dev_sums[ki] += _dev_change(counts, state._scaled_targets[ki], b_old, b_new)
            counts[b_old] -= 1
            counts[b_new] += 1
    state.assignment[j] = cand
    state.cached_error = float(
        sum(s * d for s, d in zip(state._scales, state._dev_sums))
    )
    state._applies += 1
    if state._applies >= _RESYNC_EVERY:
        state._resync()


# ---------------------------------------------------------------------------
# Parametric fits.
# ---------------------------------------------------------------------------


def fit_beta_moments(samples) -> tuple[float, float]:
    """Method-of-moments Beta fit on samples in [0, 1].

    With m the sample mean and v the (population) variance, the common factor
    is c = m(1 - m)/v - 1, giving alpha = m*c and beta = (1 - m)*c.
    """
    x = np.clip(np.asarray(samples, dtype=float), 1e-6, 1.0 - 1e-6)
    if x.size < 2:
        raise ValueError("beta fit needs at least two samples")
    m = float(x.mean())
    v = float(x.var())
    if v <= 0.0:
        raise ValueError("beta fit undefined for zero sample variance")
    c = m * (1.0 - m) / v - 1.0
    if c <= 0.0:
        raise ValueError(f"beta fit undefined: moment factor {c} <= 0")
    return m * c, (1.0 - m) * c


def fit_poisson(samples) -> float:
    """Maximum-likelihood Poisson rate: the sample mean."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("poisson fit needs at least one sample")
    if np.any(x < 0):
        raise ValueError("poisson fit requires non-negative samples")
    return float(x.mean())
