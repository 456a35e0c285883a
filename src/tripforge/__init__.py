"""tripforge: generate transit trips whose aggregate characteristics match
target distributions.

Given an origin-destination demand, candidate routes per demand are merged
from a schedule-based trip planner and an observed trip history; an annealed
Metropolis-Hastings chain over the per-demand choices then minimizes the L1
mismatch between the generated collection's characteristic histograms (full
trip time, transfer time, trip directness) and the targets, with O(1)
objective updates per proposal.
"""

from .candidates import (
    CandidateError,
    TripHistory,
    build_candidate_set,
    history_lookup,
)
from .evaluation import (
    EvalConfig,
    EvalError,
    MismatchReport,
    OneDayResult,
    daytype_mix_eval,
    mismatch_report,
    one_day_eval,
    online_eval,
    planner_baseline,
    prepare_day,
)
from .metrics import (
    ANGLE_RATIO,
    CHARACTERISTICS,
    DEFAULT_EDGES,
    FULL_TIME,
    TRANSFER_TIME,
    ChainState,
    Histogram,
    MismatchEntry,
    MismatchSpec,
    TargetDistribution,
    angle_ratio,
    apply_delta,
    beta_target,
    build_empirical_target,
    characteristic_values,
    delta_error,
    fit_beta_moments,
    fit_poisson,
    full_trip_time,
    gaussian_mixture_target,
    l1_mismatch,
    poisson_target,
    transfer_time,
)
from .model import (
    CandidateSet,
    Leg,
    ODTriple,
    Route,
    Stop,
    great_circle_m,
    validate_route,
)
from .planner import (
    Line,
    PlannerError,
    TransitNetwork,
    k_top_routes,
)
from .sampler import (
    Checkpoint,
    FrozenChainError,
    RunTrace,
    SamplerConfig,
    acceptance_probability,
    draw_assignment,
    initialize,
    propose,
    run,
)
from .synth import (
    DayData,
    SynthCollection,
    SynthConfig,
    SynthError,
    TimeProfile,
    build_grid_network,
    generate_collection,
    generate_day,
)

__version__ = "0.1.0"
