"""Working days and weekends should not share targets.

Weekends in the synthetic collection travel differently (more round trips,
longer stays, flatter departure profile, less demand).  Evaluating every day
twice — once with targets from prior days of its own type, once with targets
pooled over both types — shows pooling costs accuracy, most visibly on
weekends.
"""

from tripforge import EvalConfig, SynthConfig, build_grid_network, daytype_mix_eval, generate_collection

net = build_grid_network(rows=4, cols=5, seed=0)
cfg = SynthConfig(network=net, days=14, trips_per_day=2000, od_pool_size=200, seed=9)
collection = generate_collection(cfg)
print("day types:", " ".join(d.day_type[:4] for d in collection.days))

result = daytype_mix_eval(collection, EvalConfig(iterations=30_000, checkpoint_every=10_000, seed=2))

print(f"\n{'day':>4} {'type':<8} {'matched':>8} {'pooled':>8}")
for row in result.rows:
    marker = "  <-" if row.pooled_error > row.matched_error else ""
    print(f"{row.test_day:>4} {row.day_type:<8} {row.matched_error:>8.4f} {row.pooled_error:>8.4f}{marker}")

for day_type in ("weekend", "working"):
    matched, pooled = result.mean_errors(day_type)
    print(f"\n{day_type}: mean matched {matched:.4f} vs pooled {pooled:.4f} "
          f"({'pooling hurts' if pooled > matched else 'no penalty'})")
