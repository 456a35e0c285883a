"""Parametric target distributions.

Targets need not be empirical: transfer time can follow a Poisson over bin
index, directness a two-mode Beta, full time a Gaussian mixture.  This fits
Beta/Poisson parameters from data, anchors a mixture on an observed day, and
runs a generation against the purely parametric spec.
"""

import numpy as np

from tripforge import (
    DEFAULT_EDGES,
    EvalConfig,
    Histogram,
    MismatchEntry,
    MismatchSpec,
    SamplerConfig,
    SynthConfig,
    angle_ratio,
    beta_target,
    build_grid_network,
    characteristic_values,
    fit_beta_moments,
    fit_poisson,
    full_trip_time,
    gaussian_mixture_target,
    generate_day,
    l1_mismatch,
    poisson_target,
    run,
    transfer_time,
)
from tripforge.evaluation import prepare_day
from tripforge.synth import SynthCollection

rng = np.random.default_rng(0)

# parameter recovery from raw samples
beta_samples = rng.beta(0.26, 0.24, size=50_000)
print("beta fit from samples of Beta(0.26, 0.24): alpha=%.3f, beta=%.3f" % fit_beta_moments(beta_samples))
lam = fit_poisson(rng.poisson(6.0, size=20_000))
print(f"poisson fit from samples of Poisson(6): lambda={lam:.3f}")

# two synthetic days: day 0 supplies history and anchors the parametric fits
net = build_grid_network(rows=4, cols=5, seed=0)
cfg = SynthConfig(network=net, days=2, day_types=("working", "working"),
                  trips_per_day=2000, od_pool_size=200, seed=4)
collection = SynthCollection(network=net, days=(generate_day(cfg, 0), generate_day(cfg, 1)))

observed = collection.days[0].routes
f1 = np.array([full_trip_time(r) for r in observed])
f2_bins = np.array([transfer_time(r) for r in observed]) / 60.0
f3 = np.clip([angle_ratio(r) for r in observed], 1e-6, 1 - 1e-6)

# transfer times among trips that do transfer follow a thin count-like tail;
# the zero-transfer spike is what a Poisson cannot express
lam_positive = fit_poisson(f2_bins[f2_bins > 0])

spec = MismatchSpec(
    entries=(
        MismatchEntry(
            tag="full_time",
            target=gaussian_mixture_target(
                # short direct rides plus a long round-trip mode
                [(0.7, float(np.percentile(f1, 35)), 300.0),
                 (0.3, float(np.percentile(f1, 85)), 900.0)],
                DEFAULT_EDGES["full_time"],
            ),
        ),
        MismatchEntry(
            tag="transfer_time",
            target=poisson_target(lam_positive, DEFAULT_EDGES["transfer_time"]),
        ),
        MismatchEntry(tag="angle_ratio", target=beta_target(*fit_beta_moments(f3))),
    )
)
print("\nfitted targets: mixture means %.0f/%.0f s, poisson lambda %.2f, beta (%.2f, %.2f)" % (
    spec.entries[0].target.params[0][1], spec.entries[0].target.params[1][1],
    spec.entries[1].target.params[0], *spec.entries[2].target.params,
))

prepared = prepare_day(collection, 1, EvalConfig())
# per-move error deltas scale like 1/n, so a 2000-demand chain needs the
# aggressive cooling the evaluation pipelines default to
sampler_cfg = EvalConfig(iterations=40_000, checkpoint_every=10_000, seed=3).sampler_config()
trace = run(prepared.candidate_sets, spec, sampler_cfg)
print(f"\ntotal error against parametric targets: {trace.initial_error:.4f} -> {trace.best_error:.4f}")


def per_characteristic_l1(state):
    out = {}
    routes = state.assigned_routes()
    for entry in spec.entries:
        vals = characteristic_values(entry.tag, routes)
        out[entry.tag] = l1_mismatch(Histogram.from_values(vals, entry.target.edges), entry.target)
    return out


from tripforge import initialize

start = per_characteristic_l1(initialize(prepared.candidate_sets, spec, 3))
end = per_characteristic_l1(trace.best_state)
for tag in start:
    print(f"  {tag:<15} L1 {start[tag]:.3f} -> {end[tag]:.3f}")
print("\nsmooth parametric families are only approachable as far as the candidate")
print("routes allow: a small schedule-quantized city offers spiky characteristic")
print("values, so a visible structural residual remains (the zero-transfer spike")
print("of single-leg trips is especially far from any poisson shape)")
