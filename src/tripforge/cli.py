"""Command-line surface: synth -> generate -> eval pipelines.

Exit codes: 0 success, 2 configuration or file-format problems, 3 runtime
failures (unreachable demand, frozen chain, missing data).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import evaluation, io
from .candidates import CandidateError
from .evaluation import EvalConfig
from .model import DAY_TYPES, WORKING
from .planner import PlannerError
from .sampler import FrozenChainError, run
from .synth import SynthCollection, SynthConfig, SynthError, build_grid_network, generate_collection


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Synth config file: line-oriented "key value" pairs.
# ---------------------------------------------------------------------------

_SYNTH_INT_KEYS = {
    "seed", "days", "start_weekday", "trips_per_day", "planner_k", "od_pool_size",
    "grid_rows", "grid_cols", "network_seed",
}
_SYNTH_FLOAT_KEYS = {
    "weekend_scale", "p_round", "p_detour", "detour_rank_decay", "dwell_mean_s",
    "round_dwell_mean_s", "weekend_round_factor", "weekend_dwell_factor",
    "grid_spacing_m",
}
# Config keys of the grid network and the `build_grid_network` argument each sets.
_GRID_KEYS = {"grid_rows": "rows", "grid_cols": "cols", "grid_spacing_m": "spacing_m",
              "network_seed": "seed"}


def parse_synth_config(path) -> SynthConfig:
    raw: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise io.FormatError(path, lineno, f"expected 'key value', got {line!r}")
        key, value = parts
        if key in raw:
            raise io.FormatError(path, lineno, f"duplicate key {key!r}")
        raw[key] = value

    values: dict[str, object] = {}
    for key, value in raw.items():
        if key in _SYNTH_INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"field {key!r}: expected integer, got {value!r}") from None
        elif key in _SYNTH_FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"field {key!r}: expected number, got {value!r}") from None
        elif key in ("network", "day_types"):
            values[key] = value
        else:
            raise ConfigError(f"unknown field {key!r}")

    grid = {arg: values.pop(key) for key, arg in _GRID_KEYS.items() if key in values}
    if "network" in values:
        network = io.read_network(values.pop("network"))
    else:
        try:
            network = build_grid_network(**grid)
        except ValueError as exc:
            raise ConfigError(f"grid network: {exc}") from None

    day_types = values.pop("day_types", None)
    if day_types is not None:
        day_types = tuple(day_types.split(","))

    try:
        return SynthConfig(network=network, day_types=day_types, **values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = parse_synth_config(args.config)
    collection = generate_collection(cfg)
    io.write_collection(collection, args.out_dir)
    counts = {}
    for d in collection.days:
        counts[d.day_type] = counts.get(d.day_type, 0) + 1
    label = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"wrote {len(collection.days)} days ({label}) to {args.out_dir}")
    return 0


def cmd_generate(args) -> int:
    cfg = _eval_config(args)
    network = io.read_network(args.network)
    stops_by_id = {s.stop_id: s for s in network.stops}
    triples = io.read_demand(args.demand, stops_by_id)
    if not triples:
        raise ConfigError(f"demand file {args.demand} is empty")
    # A demand file named like a collection day file gives the assigned trips
    # its day and day type; any other name means day 0, a working day.
    day, day_type = io.parse_day_file_name(args.demand) or (0, WORKING)
    spec = io.read_targets(args.targets)
    history_days = io.read_collection(args.history_dir, network)[1] if args.history_dir else []
    candidate_sets, dropped = evaluation.build_candidates(network, history_days, triples, cfg)

    trace = run(candidate_sets, spec, cfg.sampler_config())

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_trace(trace, out / "trace.csv")
    routes = trace.best_state.assigned_routes()
    io.write_trips(
        [(day, day_type, cs.triple.demand_id, r) for cs, r in zip(candidate_sets, routes)],
        out / "assigned.trips",
    )
    if dropped:
        (out / "dropped.txt").write_text("\n".join(dropped) + "\n", encoding="utf-8")
    print(
        f"assigned {len(candidate_sets)} demands (dropped {len(dropped)}); "
        f"error {trace.initial_error:.4f} -> {trace.best_error:.4f}"
    )
    return 0


def _eval_config(args) -> EvalConfig:
    try:
        return EvalConfig(
            iterations=args.iterations,
            checkpoint_every=args.checkpoint_every,
            seed=args.seed,
            l0=args.l0,
            decay=args.decay,
            l_min=args.l_min,
            epsilon=args.epsilon,
            planner_k=args.planner_k,
            lambda_mix=args.lambda_mix,
            slot_width_s=args.slot_width,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_eval(args) -> int:
    cfg = _eval_config(args)
    day_types = tuple(args.day_types.split(","))
    unknown = sorted(set(day_types) - set(DAY_TYPES))
    if args.mode == "online" and unknown:
        raise ConfigError(f"--day-types: unknown labels {unknown}, expected {DAY_TYPES}")
    network, days = io.read_collection(args.history_dir)
    if not days:
        raise ConfigError(f"no day files found in {args.history_dir}")
    collection = SynthCollection(network=network, days=tuple(days))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "oneday":
        if args.test_day is None:
            raise ConfigError("--test-day is required for mode 'oneday'")
        if all(d.day != args.test_day for d in days):
            raise ConfigError(f"--test-day {args.test_day}: no such day in {args.history_dir}")
        result = evaluation.one_day_eval(collection, args.test_day, cfg)
        io.write_trace(result.trace, out / "trace.csv")
        records = []
        for comp_before, comp_after in zip(
            result.report_before.comparisons, result.report_after.comparisons
        ):
            records.append(
                {
                    "characteristic": comp_before.tag,
                    "l1_before": comp_before.l1,
                    "l1_after": comp_after.l1,
                    "observed_mean": comp_before.observed_mean,
                    "simulated_mean_before": comp_before.simulated_mean,
                    "simulated_mean_after": comp_after.simulated_mean,
                }
            )
        io.write_table(records, out / "oneday.csv")
        _write_histogram_series(result, out / "distributions.csv")
        print(f"day {args.test_day}: error {result.initial_error:.4f} -> {result.final_error:.4f}")
    elif args.mode == "online":
        result = evaluation.online_eval(collection, day_types, cfg)
        io.write_table([r.as_record() for r in result.rows], out / "online.csv")
        print(f"evaluated {len(result.rows)} days -> {out / 'online.csv'}")
    elif args.mode == "daytype":
        result = evaluation.daytype_mix_eval(collection, cfg)
        io.write_table([dataclasses.asdict(r) for r in result.rows], out / "daytype.csv")
        print(f"evaluated {len(result.rows)} days -> {out / 'daytype.csv'}")
    else:
        raise ConfigError(f"unknown eval mode {args.mode!r}")
    return 0


def _write_histogram_series(result, path) -> None:
    """Plot-ready long-format series: per characteristic and bin, the target,
    observed, initial and final masses."""
    records = []
    spec_by_tag = {e.tag: e for e in result.prepared.spec.entries}
    for comp_b, comp_a in zip(result.report_before.comparisons, result.report_after.comparisons):
        target = spec_by_tag[comp_b.tag].target
        edges = comp_b.observed.edges
        for b in range(len(edges) - 1):
            records.append(
                {
                    "characteristic": comp_b.tag,
                    "bin_left": float(edges[b]),
                    "bin_right": float(edges[b + 1]),
                    "target_mass": float(target.masses[b]),
                    "observed_mass": float(comp_b.observed.masses[b]),
                    "initial_mass": float(comp_b.simulated.masses[b]),
                    "final_mass": float(comp_a.simulated.masses[b]),
                }
            )
    io.write_table(records, path)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    d = EvalConfig()
    p.add_argument("--seed", type=int, default=d.seed, help="random seed (all runs are reproducible)")
    p.add_argument("--iterations", type=int, default=d.iterations, help="proposal count")
    p.add_argument("--decay", type=float, default=d.decay, help="temperature decay per sweep")
    p.add_argument("--l0", type=float, default=d.l0, help="initial temperature")
    p.add_argument("--l-min", dest="l_min", type=float, default=d.l_min, help="temperature floor")
    p.add_argument("--checkpoint-every", type=int, default=d.checkpoint_every, help="trace sampling period")
    p.add_argument("--epsilon", type=float, default=d.epsilon, help="objective stabilizer near zero")
    p.add_argument("--planner-k", type=int, default=d.planner_k, help="planner recommendations per demand")
    p.add_argument("--lambda-mix", type=float, default=d.lambda_mix, help="planner share of candidate mass")
    p.add_argument("--slot-width", type=int, default=d.slot_width_s, help="history match window, seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripforge",
        description="Generate transit trips whose characteristics match target distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic multi-day trip collection")
    p_synth.add_argument("--config", required=True, help="synth config file")
    p_synth.add_argument("--out-dir", required=True, help="output directory")
    p_synth.set_defaults(fn=cmd_synth)

    p_gen = sub.add_parser("generate", help="assign routes to a demand file via annealed sampling")
    p_gen.add_argument("--network", required=True, help="network file")
    p_gen.add_argument("--demand", required=True, help="demand file")
    p_gen.add_argument("--targets", required=True, help="targets spec file")
    p_gen.add_argument("--history-dir", default=None, help="optional trip history directory")
    p_gen.add_argument("--out-dir", required=True, help="output directory")
    _add_sampler_flags(p_gen)
    p_gen.set_defaults(fn=cmd_generate)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol on a collection")
    p_eval.add_argument("--mode", required=True, choices=["oneday", "online", "daytype"])
    p_eval.add_argument("--history-dir", required=True, help="collection directory")
    p_eval.add_argument("--out-dir", required=True, help="output directory")
    p_eval.add_argument("--test-day", type=int, default=None, help="test day for mode 'oneday'")
    p_eval.add_argument("--day-types", default="working", help="comma list for mode 'online'")
    _add_sampler_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, io.FormatError, PlannerError, CandidateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SynthError, FrozenChainError, evaluation.EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
