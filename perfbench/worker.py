"""One repetition of a benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload chain-long --seed 1 [--trace 1]

`run.py` starts this script once per repetition, so that every repetition
begins with empty process-global caches (the planner keeps its network
index in a module-level dict keyed by `id(network)`).  The last line of
standard output is a JSON record of the repetition.  The script imports
tripforge from `src/` of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (after the path set-up above)

WORKLOADS = ("chain-long", "daytype-cli")

# Sizes are chosen so that, on a 2-core x86 VM, a chain-long `run` call
# takes about 1.5 s after 8 s of set-up, and a daytype-cli repetition about
# 11 s.  "toy" is for the self-test.
SIZES = {
    "full": {
        "chain-long": {"rows": 5, "cols": 6, "days": 3, "trips_per_day": 2000,
                       "sweeps": 20, "chains": 3},
        "daytype-cli": {"rows": 5, "cols": 6, "days": 9, "trips_per_day": 200,
                        "iterations": 4_000, "checkpoint_every": 2_000},
    },
    "toy": {
        "chain-long": {"rows": 3, "cols": 4, "days": 3, "trips_per_day": 60,
                       "sweeps": 20, "chains": 2},
        "daytype-cli": {"rows": 3, "cols": 4, "days": 9, "trips_per_day": 40,
                        "iterations": 1_000, "checkpoint_every": 500},
    },
}

# Tolerance between the incremental objective and the one from scratch.
EXACT = 1e-9


class Rep:
    """Timings, operation outcomes and results of one repetition."""

    def __init__(self, trace: tracer.Tracer | None):
        self.trace = trace
        self.times: dict[str, list[float]] = {}
        self.timed_s = 0.0
        self.ready = 0.0
        self.ops = 0
        self.problems: list[str] = []
        self.proposals = 0
        self.final_error = float("nan")
        self.fingerprint = ""

    @contextlib.contextmanager
    def phase(self, span: str, metric: str | None = None):
        """Time a step; `span` names its phase in the trace."""
        with self.trace.phase(span) if self.trace else contextlib.nullcontext():
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        if metric:
            self.times.setdefault(metric, []).append(elapsed)
        if span in tracer.TIMED_PHASES:
            self.timed_s += elapsed

    @contextlib.contextmanager
    def timer(self, metric: str):
        start = time.perf_counter()
        yield
        self.times.setdefault(metric, []).append(time.perf_counter() - start)

    def op(self, name: str, problems: list[str]) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.ops += 1
        self.problems.extend(f"{name}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# Output checks and fingerprints.
# ---------------------------------------------------------------------------


def check_trace(trace, iterations: int) -> list[str]:
    problems = []
    for label, state in (("best_state", trace.best_state), ("final_state", trace.final_state)):
        gap = abs(state.cached_error - state.scratch_error())
        if not gap <= EXACT:
            problems.append(f"{label} incremental error is {gap!r} off the scratch error")
    bests = [cp.best_error for cp in trace.checkpoints]
    if any(later > earlier for earlier, later in zip(bests, bests[1:])):
        problems.append(f"best-error checkpoints increase: {bests}")
    if not abs(bests[-1] - trace.best_error) <= EXACT:
        problems.append(f"last checkpoint best {bests[-1]!r} != best state {trace.best_error!r}")
    if trace.checkpoints[-1].iteration != iterations:
        problems.append(f"ran {trace.checkpoints[-1].iteration} of {iterations} proposals")
    return problems


def check_collection(collection, size: dict) -> list[str]:
    problems = []
    if len(collection.days) != size["days"]:
        problems.append(f"{len(collection.days)} days, expected {size['days']}")
    for d in collection.days:
        if len(d.triples) != len(d.routes) or not d.routes:
            problems.append(f"day {d.day}: {len(d.triples)} demands, {len(d.routes)} routes")
        if d.day_type == "working" and len(d.routes) != size["trips_per_day"]:
            problems.append(f"day {d.day}: {len(d.routes)} trips, expected {size['trips_per_day']}")
    return problems


def routes_digest(days) -> str:
    """sha256 over every synthesized demand and its route, times included."""
    h = hashlib.sha256()
    for d in days:
        h.update(f"day {d.day} {d.day_type}\n".encode())
        for t, r in zip(d.triples, d.routes):
            legs = ";".join(
                f"{g.line_id},{g.board_stop.stop_id},{g.board_time},"
                f"{g.alight_stop.stop_id},{g.alight_time},{g.leg_distance!r}"
                for g in r.legs
            )
            h.update(
                f"{t.demand_id},{t.origin.stop_id},{t.destination.stop_id},{t.depart_time},"
                f"{int(t.round_trip_allowed)}|{legs}\n".encode()
            )
    return h.hexdigest()


def trace_fingerprint(days, trace) -> str:
    h = hashlib.sha256()
    h.update(routes_digest(days).encode())
    h.update(trace.best_state.assignment.astype("<i8").tobytes())
    h.update(repr(trace.best_error).encode())
    return h.hexdigest()


def files_fingerprint(*dirs: Path) -> str:
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(f"{path.relative_to(base.parent)}\n".encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs from the seed, times its steps and
# checks what the program returned.
# ---------------------------------------------------------------------------


def _working_collection_config(tf, size: dict, seed: int):
    net = tf.build_grid_network(rows=size["rows"], cols=size["cols"], seed=0)
    return tf.SynthConfig(
        network=net,
        days=size["days"],
        day_types=("working",) * size["days"],
        trips_per_day=size["trips_per_day"],
        seed=seed,
    )


def chain_long(rep: Rep, size: dict, seed: int, workdir: Path, deadline: float | None) -> None:
    import tripforge as tf

    test_day = size["days"] - 1
    with rep.phase(tracer.SETUP):
        cfg = _working_collection_config(tf, size, seed)
        with rep.timer("synth_s"):
            collection = tf.generate_collection(cfg)
        rep.op("generate_collection", check_collection(collection, size))
        eval_cfg = tf.EvalConfig(seed=seed)
        prepared = tf.prepare_day(collection, test_day, eval_cfg)
        kept = len(prepared.candidate_sets)
        problems = []
        if kept + len(prepared.dropped_demands) != size["trips_per_day"]:
            problems.append(f"{kept} kept + {len(prepared.dropped_demands)} dropped demands")
        rep.op("prepare_day", problems)
        # A fixed set of chains, each from its own sampler seed; the calls
        # cycle through them until the deadline.
        chain_cfg = tf.EvalConfig(seed=seed, iterations=size["sweeps"] * kept)
        sampler_cfgs = [chain_cfg.sampler_config(seed_offset=test_day + i)
                        for i in range(size["chains"])]
    rep.ready = time.monotonic()

    traces = []
    fingerprints = []
    longest = 0.0
    call = 0
    # Every chain runs at least once; no call starts that would end after
    # the deadline, judged by the longest call so far.
    while call < len(sampler_cfgs) or (
            deadline is not None and time.monotonic() + longest < deadline):
        sampler_cfg = sampler_cfgs[call % len(sampler_cfgs)]
        start = time.monotonic()
        with rep.phase(tracer.EVAL, "eval_s"):
            trace = tf.run(prepared.candidate_sets, prepared.spec, sampler_cfg)
        longest = max(longest, time.monotonic() - start)
        problems = check_trace(trace, sampler_cfg.iterations)
        fingerprint = trace_fingerprint(collection.days, trace)
        if call < len(sampler_cfgs):
            traces.append(trace)
            fingerprints.append(fingerprint)
        elif fingerprint != fingerprints[call % len(sampler_cfgs)]:
            problems.append(f"chain {call % len(sampler_cfgs)} gave another result when rerun")
        rep.op("run", problems)
        call += 1

    observed = list(collection.day(test_day).routes)
    heldout = [
        tf.mismatch_report(observed, t.best_state.assigned_routes(),
                           threshold_s=eval_cfg.joint_threshold_s).total_l1()
        for t in traces
    ]
    rep.proposals = chain_cfg.iterations
    rep.final_error = sum(heldout) / len(heldout)
    rep.fingerprint = hashlib.sha256("".join(fingerprints).encode()).hexdigest()


DAYTYPE_HEADER = ["test_day", "day_type", "matched_error", "pooled_error"]


def _expected_daytype_rows(city: Path) -> list[tuple[int, str]]:
    """Days with an earlier day of their own type, from the synth file names."""
    days = []
    for path in sorted(city.glob("day_*.trips")):
        _, day, day_type = path.stem.split("_")
        days.append((int(day), day_type))
    return [(d, t) for d, t in days if any(p < d and pt == t for p, pt in days)]


def check_daytype_csv(path: Path, expected: list[tuple[int, str]]) -> tuple[list[str], list]:
    if not path.is_file():
        return [f"{path.name} was not written"], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != DAYTYPE_HEADER:
        return [f"{path.name} header {header}"], []
    problems = []
    parsed = []
    for row in rows:
        try:
            day, day_type, matched, pooled = int(row[0]), row[1], float(row[2]), float(row[3])
        except (ValueError, IndexError):
            problems.append(f"{path.name}: unparsable row {row}")
            continue
        if not (math.isfinite(matched) and math.isfinite(pooled) and matched >= 0 and pooled >= 0):
            problems.append(f"{path.name}: day {day} errors {matched!r}, {pooled!r}")
        parsed.append((day, day_type, matched, pooled))
    if [(d, t) for d, t, _, _ in parsed] != expected:
        problems.append(f"{path.name} rows {[(d, t) for d, t, _, _ in parsed]}, expected {expected}")
    return problems, parsed


def daytype_cli(rep: Rep, size: dict, seed: int, workdir: Path, deadline: float | None) -> None:
    from tripforge import cli

    city = workdir / "city"
    evaluated = workdir / "eval"
    with rep.phase(tracer.SETUP):
        config = workdir / "synth.cfg"
        config.write_text(
            f"seed {seed}\ndays {size['days']}\ntrips_per_day {size['trips_per_day']}\n"
            f"grid_rows {size['rows']}\ngrid_cols {size['cols']}\n",
            encoding="utf-8",
        )
        eval_argv = [
            "eval", "--mode", "daytype", "--history-dir", str(city), "--out-dir", str(evaluated),
            "--iterations", str(size["iterations"]),
            "--checkpoint-every", str(size["checkpoint_every"]),
            "--decay", "0.05", "--l-min", "1e-6", "--seed", str(seed),
        ]
    rep.ready = time.monotonic()

    with rep.phase(tracer.SYNTH, "synth_s"):
        code = cli.main(["synth", "--config", str(config), "--out-dir", str(city)])
    problems = [] if code == 0 else [f"exit code {code}"]
    written = len(list(city.glob("day_*.trips"))) + len(list(city.glob("day_*.demand")))
    if written != 2 * size["days"] or not (city / "network.txt").is_file():
        problems.append(f"{written} day files, expected {2 * size['days']} and network.txt")
    rep.op("tripforge synth", problems)

    with rep.phase(tracer.EVAL, "eval_s"):
        code = cli.main(eval_argv)
    problems, rows = check_daytype_csv(evaluated / "daytype.csv", _expected_daytype_rows(city))
    if code != 0:
        problems.insert(0, f"exit code {code}")
    rep.op("tripforge eval", problems)

    # Matched and pooled targets each run one chain per evaluated day.
    rep.proposals = 2 * len(rows) * size["iterations"]
    # No row is already a failed check; 0.0 keeps the result line valid JSON.
    rep.final_error = sum(r[2] for r in rows) / len(rows) if rows else 0.0
    rep.fingerprint = files_fingerprint(city, evaluated)


RUNNERS = {"chain-long": chain_long, "daytype-cli": daytype_cli}


def run_rep(workload: str, seed: int, scale: str, traced: bool, run_id: str,
            deadline: float | None = None) -> dict:
    """Run one repetition in this process and return its record.

    `deadline` (a `time.monotonic()` value) lets chain-long repeat its
    chains until then; daytype-cli runs its two CLI calls once.
    """
    workdir = OUT / "work" / f"{run_id}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace = tracer.Tracer(run_id) if traced else None
    rep = Rep(trace)
    try:
        with trace if trace else contextlib.nullcontext():
            RUNNERS[workload](rep, SIZES[scale][workload], seed, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "sizes": SIZES[scale][workload],
        "ready": rep.ready,
        "times": rep.times,
        "timed_s": rep.timed_s,
        "proposals": rep.proposals,
        "final_error": rep.final_error,
        "fingerprint": rep.fingerprint,
        "attempted": rep.ops,
        "problems": rep.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        trace.write_spans(spans_dir / f"{run_id}.csv")
        record["layers"], record["notes"] = tracer.layer_metrics(trace.spans)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(SIZES))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--run-id", default="rep")
    p.add_argument("--deadline", type=float, default=None,
                   help="time.monotonic() value until which chain-long repeats its chains")
    args = p.parse_args(argv)
    record = run_rep(args.workload, args.seed, args.scale, bool(args.trace), args.run_id,
                     args.deadline)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
