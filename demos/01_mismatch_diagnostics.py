"""Why plan-optimal assignment misses reality.

Builds a small synthetic city, generates one day of observed trips (some
detour onto slower routes with extra dwell, some ride out and back on one
ticket), then assigns every demand its best planner route and compares the
two trip sets.  The planner assignment is systematically too fast, and the
observed directness distribution is bimodal: near 1 for straight rides, near
0 for the round trips.
"""

import numpy as np

from tripforge import (
    SynthConfig,
    angle_ratio,
    build_grid_network,
    generate_day,
    mismatch_report,
    planner_baseline,
)

net = build_grid_network(rows=4, cols=5, seed=0)
cfg = SynthConfig(network=net, days=1, day_types=("working",),
                  trips_per_day=4000, od_pool_size=200, seed=42)
day = generate_day(cfg, 0)
triples, observed = day.triples, day.routes

simulated = planner_baseline(triples, net)
report = mismatch_report(observed, simulated)

print(f"{'characteristic':<15} {'observed mean':>14} {'planner mean':>13} {'L1':>6}")
for comp in report.comparisons:
    unit = 1 / 60.0 if comp.tag != "angle_ratio" else 1.0
    suffix = "min" if comp.tag != "angle_ratio" else "   "
    print(f"{comp.tag:<15} {comp.observed_mean * unit:>10.1f} {suffix} "
          f"{comp.simulated_mean * unit:>9.1f} {suffix} {comp.l1:>6.3f}")

f3 = np.array([angle_ratio(r) for r in observed])
print(f"\ndirectness of observed trips: {np.mean(f3 <= 0.1):.0%} near 0 (round trips), "
      f"{np.mean(f3 >= 0.9):.0%} near 1 (straight rides)")
print(f"joint (full, transfer) grids carry {report.joint.observed_density.sum():.0f} "
      f"mass each; threshold marker at {report.joint.threshold_s} s")
