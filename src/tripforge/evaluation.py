"""Evaluation protocols: mismatch diagnostics, single-day generation against
targets from prior days, online evaluation over a growing history, and the
working-day/weekend pooling comparison.

Targets and candidate histories for a test day are built strictly from
earlier days; the test day's observed routes enter only the final report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import TripHistory, HistoryRecord, build_candidate_set, history_lookup
from .metrics import (
    CHARACTERISTICS,
    DEFAULT_EDGES,
    Histogram,
    MismatchEntry,
    MismatchSpec,
    build_empirical_target,
    characteristic_value,
    l1_mismatch,
    FULL_TIME,
    TRANSFER_TIME,
)
from .model import CandidateSet, ODTriple, Route
from .planner import TransitNetwork, k_top_routes
from .sampler import AnnealingSchedule, RunTrace, SamplerConfig, draw_assignment, run
from .synth import SynthCollection, WORKING


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    """Settings for the evaluation pipelines.

    The annealing defaults cool hard within a few sweeps: per-move error
    changes scale like 1/n, so on large demands the schedule must reach very
    low temperatures quickly for the chain to settle.
    """

    iterations: int = 100_000
    checkpoint_every: int = 25_000
    seed: int = 7
    l0: float = 1.0
    decay: float = 0.05
    l_min: float = 1e-6
    epsilon: float = 1e-9
    planner_k: int = 5
    lambda_mix: float = 0.5
    slot_width_s: int = 1200
    joint_threshold_s: int = 1800

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError(f"lambda_mix must lie in [0, 1], got {self.lambda_mix}")
        if self.slot_width_s <= 0:
            raise ValueError(f"slot_width_s must be positive, got {self.slot_width_s}")
        self.sampler_config()  # validates the sampler and schedule fields

    def sampler_config(self, seed_offset: int = 0) -> SamplerConfig:
        return SamplerConfig(
            iterations=self.iterations,
            schedule=AnnealingSchedule(l0=self.l0, decay=self.decay, l_min=self.l_min),
            seed=self.seed + seed_offset,
            checkpoint_every=self.checkpoint_every,
            epsilon=self.epsilon,
        )


# ---------------------------------------------------------------------------
# Mismatch diagnostics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicComparison:
    tag: str
    observed: Histogram
    simulated: Histogram
    l1: float
    observed_mean: float
    simulated_mean: float

    @property
    def mean_gap(self) -> float:
        return self.observed_mean - self.simulated_mean


@dataclass(frozen=True)
class JointTimeGrid:
    """2D joint distribution of (full trip time, transfer time) for both trip
    sets, with a marker threshold for reading off short-activity cutoffs."""

    full_edges: np.ndarray
    transfer_edges: np.ndarray
    observed_density: np.ndarray
    simulated_density: np.ndarray
    threshold_s: int


@dataclass(frozen=True)
class MismatchReport:
    comparisons: tuple[CharacteristicComparison, ...]
    joint: JointTimeGrid

    def total_l1(self) -> float:
        return sum(c.l1 for c in self.comparisons)

    def comparison(self, tag: str) -> CharacteristicComparison:
        for c in self.comparisons:
            if c.tag == tag:
                return c
        raise KeyError(tag)


def _joint_grid(routes, full_edges, transfer_edges) -> np.ndarray:
    f = [characteristic_value(FULL_TIME, r) for r in routes]
    t = [characteristic_value(TRANSFER_TIME, r) for r in routes]
    grid, _, _ = np.histogram2d(f, t, bins=[full_edges, transfer_edges])
    return grid / grid.sum() if grid.sum() > 0 else grid


def mismatch_report(
    observed,
    simulated,
    edges: dict[str, np.ndarray] | None = None,
    threshold_s: int = 1800,
) -> MismatchReport:
    """Three-characteristic comparison of two trip sets plus the joint
    (full time, transfer time) grid."""
    observed = list(observed)
    simulated = list(simulated)
    if not observed or not simulated:
        raise EvalError("mismatch report needs non-empty observed and simulated trips")
    if edges is None:
        edges = DEFAULT_EDGES
    comparisons = []
    for tag in CHARACTERISTICS:
        obs_vals = [characteristic_value(tag, r) for r in observed]
        sim_vals = [characteristic_value(tag, r) for r in simulated]
        h_obs = Histogram.from_values(obs_vals, edges[tag])
        h_sim = Histogram.from_values(sim_vals, edges[tag])
        comparisons.append(
            CharacteristicComparison(
                tag=tag,
                observed=h_obs,
                simulated=h_sim,
                l1=l1_mismatch(h_sim, h_obs),
                observed_mean=float(np.mean(obs_vals)),
                simulated_mean=float(np.mean(sim_vals)),
            )
        )
    joint = JointTimeGrid(
        full_edges=edges[FULL_TIME],
        transfer_edges=edges[TRANSFER_TIME],
        observed_density=_joint_grid(observed, edges[FULL_TIME], edges[TRANSFER_TIME]),
        simulated_density=_joint_grid(simulated, edges[FULL_TIME], edges[TRANSFER_TIME]),
        threshold_s=threshold_s,
    )
    return MismatchReport(comparisons=tuple(comparisons), joint=joint)


def planner_baseline(
    triples, network: TransitNetwork, k: int = 1
) -> list[Route]:
    """Best planner route per demand; round-trip demands (which a planner
    never serves) are skipped."""
    out = []
    for triple in triples:
        routes = k_top_routes(network, triple, k=k)
        if routes:
            out.append(routes[0])
    return out


# ---------------------------------------------------------------------------
# Single-day evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedDay:
    """Everything a generation run needs, built without the test day's
    observed routes: targets from prior days and candidate sets per demand."""

    test_day: int
    day_type: str
    spec: MismatchSpec
    candidate_sets: tuple[CandidateSet, ...]
    kept_triples: tuple[ODTriple, ...]
    dropped_demands: tuple[str, ...]
    prior_days: tuple[int, ...]


@dataclass(frozen=True)
class OneDayResult:
    prepared: PreparedDay
    trace: RunTrace
    report_before: MismatchReport
    report_after: MismatchReport

    @property
    def initial_error(self) -> float:
        return self.trace.initial_error

    @property
    def final_error(self) -> float:
        return self.trace.best_error


def _target_spec(days) -> MismatchSpec:
    """Empirical targets pooled over the observed routes of `days`."""
    routes = [r for d in days for r in d.routes]
    return MismatchSpec(
        entries=tuple(
            MismatchEntry(tag=tag, target=build_empirical_target(routes, tag), weight=1.0)
            for tag in CHARACTERISTICS
        )
    )


def build_candidates(
    network: TransitNetwork,
    history_days,
    triples,
    cfg: EvalConfig,
) -> tuple[tuple[CandidateSet, ...], tuple[ODTriple, ...], tuple[str, ...]]:
    """Candidate sets for each demand from the planner's top `cfg.planner_k`
    routes and the observed routes of `history_days` within
    `cfg.slot_width_s` of its departure.  A demand with neither gets history
    routes from the whole service day; a demand still without any is dropped.

    Returns (candidate sets, kept triples, dropped demand ids).
    """
    history = TripHistory(
        HistoryRecord(route=r, day=d.day, day_type=d.day_type)
        for d in history_days
        for r in d.routes
    )
    candidate_sets = []
    kept = []
    dropped = []
    for triple in triples:
        planner_routes = k_top_routes(network, triple, k=cfg.planner_k)
        hist_routes = history_lookup(history, triple, cfg.slot_width_s)
        if not planner_routes and not hist_routes:
            hist_routes = history_lookup(history, triple, 86_400)
        if not planner_routes and not hist_routes:
            dropped.append(triple.demand_id)
            continue
        candidate_sets.append(
            build_candidate_set(triple, planner_routes, hist_routes, cfg.lambda_mix)
        )
        kept.append(triple)
    if not candidate_sets:
        raise EvalError("no demand could be given any candidate route")
    return tuple(candidate_sets), tuple(kept), tuple(dropped)


def prepare_day(
    collection: SynthCollection,
    test_day: int,
    cfg: EvalConfig,
    test_triples=None,
) -> PreparedDay:
    """Build targets and candidate sets for a test day from strictly earlier
    days.  `test_triples` overrides the demand (the default reads the test
    day's triples — never its routes).

    Targets pool the prior days of the test day's type.  Candidate history
    draws on all prior days: the day-type split concerns the desired
    distributions, not which routes exist.
    """
    test = collection.day(test_day)
    prior_all = [d for d in collection.days if d.day < test_day]
    prior_target = [d for d in prior_all if d.day_type == test.day_type]
    if not prior_target:
        raise EvalError(f"day {test_day}: no prior {test.day_type} day to learn from")
    triples = tuple(test_triples) if test_triples is not None else test.triples
    candidate_sets, kept, dropped = build_candidates(
        collection.config.network, prior_all, triples, cfg
    )
    return PreparedDay(
        test_day=test_day,
        day_type=test.day_type,
        spec=_target_spec(prior_target),
        candidate_sets=candidate_sets,
        kept_triples=kept,
        dropped_demands=dropped,
        prior_days=tuple(d.day for d in prior_target),
    )


def one_day_eval(
    collection: SynthCollection,
    test_day: int,
    cfg: EvalConfig | None = None,
) -> OneDayResult:
    """Generate the test day's trips against targets from prior same-type
    days and report the error trace plus before/after mismatch."""
    cfg = cfg or EvalConfig()
    prepared = prepare_day(collection, test_day, cfg)
    sampler_cfg = cfg.sampler_config(seed_offset=test_day)
    initial_assignment = draw_assignment(prepared.candidate_sets, sampler_cfg.seed)
    initial_routes = [
        cs.candidates[a][0] for cs, a in zip(prepared.candidate_sets, initial_assignment)
    ]
    trace = run(prepared.candidate_sets, prepared.spec, sampler_cfg)

    observed = list(collection.day(test_day).routes)
    before = mismatch_report(
        observed, initial_routes, threshold_s=cfg.joint_threshold_s
    )
    after = mismatch_report(
        observed, trace.best_state.assigned_routes(), threshold_s=cfg.joint_threshold_s
    )
    return OneDayResult(prepared=prepared, trace=trace, report_before=before, report_after=after)


# ---------------------------------------------------------------------------
# Online evaluation and day-type mixing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineRow:
    test_day: int
    day_type: str
    prior_days: int
    checkpoint_errors: tuple[tuple[int, float], ...]  # (iteration, best error so far)
    final_error: float
    initial_error: float
    dropped: int

    def as_record(self) -> dict:
        rec = {
            "test_day": self.test_day,
            "day_type": self.day_type,
            "prior_days": self.prior_days,
            "initial_error": self.initial_error,
            "final_error": self.final_error,
            "dropped": self.dropped,
        }
        for iteration, err in self.checkpoint_errors:
            rec[f"err_at_{iteration}"] = err
        return rec


@dataclass(frozen=True)
class OnlineResult:
    rows: tuple[OnlineRow, ...]

    def final_errors(self) -> dict[int, float]:
        return {r.test_day: r.final_error for r in self.rows}


def online_eval(
    collection: SynthCollection,
    day_types: tuple[str, ...] = (WORKING,),
    cfg: EvalConfig | None = None,
) -> OnlineResult:
    """Chronological evaluation: each day is tested against a model built from
    all previously observed days of the admitted types."""
    cfg = cfg or EvalConfig()
    wanted = set(day_types)
    days = [d for d in collection.days if d.day_type in wanted]
    if len(days) < 2:
        raise EvalError("online evaluation needs at least two days of the requested types")
    rows = []
    for d in days:
        prior_count = sum(1 for p in days if p.day < d.day)
        if prior_count == 0:
            continue
        result = one_day_eval(collection, d.day, cfg)
        trace = result.trace
        rows.append(
            OnlineRow(
                test_day=d.day,
                day_type=d.day_type,
                prior_days=len(result.prepared.prior_days),
                checkpoint_errors=tuple((c.iteration, c.best_error) for c in trace.checkpoints),
                final_error=result.final_error,
                initial_error=result.initial_error,
                dropped=len(result.prepared.dropped_demands),
            )
        )
    return OnlineResult(rows=tuple(rows))


@dataclass(frozen=True)
class DayTypeMixRow:
    test_day: int
    day_type: str
    matched_error: float
    pooled_error: float


@dataclass(frozen=True)
class DayTypeMixResult:
    rows: tuple[DayTypeMixRow, ...]

    def mean_errors(self, day_type: str) -> tuple[float, float]:
        sel = [r for r in self.rows if r.day_type == day_type]
        if not sel:
            raise EvalError(f"no evaluated days of type {day_type!r}")
        return (
            float(np.mean([r.matched_error for r in sel])),
            float(np.mean([r.pooled_error for r in sel])),
        )


def daytype_mix_eval(
    collection: SynthCollection,
    cfg: EvalConfig | None = None,
) -> DayTypeMixResult:
    """Compare same-type targets against targets pooled over all prior days,
    per test day.

    Both chains run on the same candidate sets with the same sampler seed, so
    only the targets differ.  When every prior day has the test day's type the
    two targets are the same and the chain runs once.
    """
    cfg = cfg or EvalConfig()
    rows = []
    for d in collection.days:
        has_same_prior = any(p.day < d.day and p.day_type == d.day_type for p in collection.days)
        if not has_same_prior:
            continue
        prepared = prepare_day(collection, d.day, cfg)
        sampler_cfg = cfg.sampler_config(seed_offset=d.day)
        matched_error = run(prepared.candidate_sets, prepared.spec, sampler_cfg).best_error
        prior_all = [p for p in collection.days if p.day < d.day]
        if len(prior_all) == len(prepared.prior_days):
            pooled_error = matched_error
        else:
            pooled_error = run(prepared.candidate_sets, _target_spec(prior_all), sampler_cfg).best_error
        rows.append(
            DayTypeMixRow(
                test_day=d.day,
                day_type=d.day_type,
                matched_error=matched_error,
                pooled_error=pooled_error,
            )
        )
    if not rows:
        raise EvalError("no day has a prior day of its own type")
    return DayTypeMixResult(rows=tuple(rows))
