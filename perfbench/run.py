"""tripforge benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 60 --trace 0

Each repetition runs `worker.py` in a fresh process, one at a time.
chain-long runs 3 repetitions, each given a third of `--seconds`: it sets
up, then repeats its chains until its share is used (a traced one runs each
chain once, so that its per-layer counts are fixed).  daytype-cli repeats
until `--seconds` is used; no repetition starts that would end after it,
judged by the longest so far.  Metrics are the medians over every sample of
every repetition.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced repetitions (at least one of each) and prints the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus
untraced time of the timed steps, per chain-long `run` call or per
daytype-cli repetition).

The lines before the last one give the run's metadata, its output
fingerprint and notes; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain-long", "daytype-cli")
# Each run must end within 180 s; no repetition starts after this.
LAST_START_S = 120.0
# chain-long's repetitions: its set-up is measured this many times a run.
CHAIN_REPS = 3


def spawn(workload: str, seed: int, scale: str, traced: bool, run_id: str, timeout: float,
          deadline: float | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--trace", "1" if traced else "0", "--run-id", run_id,
    ]
    if deadline is not None:
        cmd += ["--deadline", repr(deadline)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{run_id}: no result within {timeout:.0f} s", "wall_s": timeout}
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{run_id}: exit code {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - start
    record["wall_s"] = wall
    return record


def run_metadata(args, sizes: dict, reps: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": sizes,
        "repetitions": reps,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "toy"),
                   help="input sizes; 'toy' is for the self-test")
    args = p.parse_args(argv)

    # SIGTERM raises SystemExit, and subprocess.run then kills and reaps the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tripforge" / "__init__.py").is_file():
        print(f"error: no tripforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # Scratch directories a killed worker could not remove.
    shutil.rmtree(ROOT / ".perfbench_out" / "work", ignore_errors=True)
    start = time.monotonic()
    reps: list[dict] = []
    min_reps = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        run_id = f"{args.workload}-seed{args.seed}-rep{len(reps)}{'-traced' if traced else ''}"
        deadline = None
        if args.workload == "chain-long" and not traced:
            deadline = start + args.seconds * (len(reps) + 1) / CHAIN_REPS
        reps.append(spawn(args.workload, args.seed, args.scale, traced, run_id,
                          timeout=170.0 - (time.monotonic() - start), deadline=deadline))
        elapsed = time.monotonic() - start
        longest = max(r["wall_s"] for r in reps)
        if "error" in reps[-1] or elapsed + longest > LAST_START_S:
            break
        if args.workload == "chain-long":
            if len(reps) == CHAIN_REPS:
                break
        elif len(reps) >= min_reps and elapsed + longest > args.seconds:
            break

    good = [r for r in reps if "error" not in r]
    for r in reps:
        if "error" in r:
            print(f"error: {r['error']}", file=sys.stderr)
    if not good or (args.trace and len({"layers" in r for r in good}) < 2):
        print("error: no repetition finished", file=sys.stderr)
        return 1

    problems = [p for r in good for p in r["problems"]]
    fingerprints = sorted({r["fingerprint"] for r in good})
    if len(fingerprints) > 1:
        problems.append(f"repetitions of one seed disagree: fingerprints {fingerprints}")
    errors = sorted({repr(r["final_error"]) for r in good})
    if len(errors) > 1:
        problems.append(f"repetitions of one seed disagree: final errors {errors}")
    attempted = sum(r["attempted"] for r in good) + (len(reps) - len(good))
    failed = len(problems) + (len(reps) - len(good))

    median = statistics.median

    def pooled(records, metric):
        return [t for r in records for t in r["times"].get(metric, ())]

    if args.trace:
        traced = [r for r in good if "layers" in r]
        plain = [r for r in good if "layers" not in r]
        names = list(traced[0]["layers"])
        metrics = {name: median([r["layers"][name] for r in traced]) for name in names}
        metrics["trace.synth_s"] = median(pooled(traced, "synth_s"))
        metrics["trace.eval_s"] = median(pooled(traced, "eval_s"))
        # Per chain-long `run` call; daytype-cli makes one eval call.
        traced_s = median([r["timed_s"] / len(r["times"]["eval_s"]) for r in traced])
        plain_s = median([r["timed_s"] / len(r["times"]["eval_s"]) for r in plain])
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        notes = traced[0]["notes"]
    else:
        metrics = {
            "setup_s": median([r["setup_s"] for r in good]),
            "synth_s": median(pooled(good, "synth_s")),
            "eval_s": median(pooled(good, "eval_s")),
            "proposals_per_s": median(
                [r["proposals"] / t for r in good for t in r["times"]["eval_s"]]),
            "final_error": good[0]["final_error"],
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        }
        notes = []

    print(json.dumps({"meta": run_metadata(args, good[0]["sizes"], len(reps))}))
    print(f"fingerprint {fingerprints[0]}")
    for r in good:
        print(f"repetition wall_s={r['wall_s']:.3f} setup_s={r['setup_s']:.3f} "
              + " ".join(f"{k}={','.join(f'{t:.3f}' for t in v)}" for k, v in r["times"].items())
              + (" traced" if "layers" in r else ""))
    for note in notes:
        print(f"note {note}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems and len(good) == len(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
