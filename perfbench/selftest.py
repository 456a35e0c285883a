"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload through the timed and the traced path, first in this
process and then through `run.py`, and checks that:
- traced and untraced runs give the same output fingerprint;
- every module attribute the tracer patched is restored;
- the traced run reports every per-layer metric of BENCHMARK.json and the
  counts of the current code (2 ChainState builds per `run`, 2 prepares per
  daytype test day, no planner call in chain-long's timed part);
- the result line has the keys and metrics BENCHMARK.json names;
- run.py fails without a result when the tripforge sources are missing.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SEED = 3

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def in_process(workload: str) -> None:
    before = tracer.attribute_snapshot()
    # A deadline makes chain-long rerun its chains, which checks that a rerun
    # reproduces each chain's result.
    plain = worker.run_rep(workload, SEED, "toy", False, f"selftest-{workload}",
                           deadline=time.monotonic() + 5.0)
    traced = worker.run_rep(workload, SEED, "toy", True, f"selftest-{workload}-traced")
    expect(tracer.attribute_snapshot() == before, f"{workload}: patched attributes restored")
    expect(not plain["problems"] and not traced["problems"],
           f"{workload}: checks pass {plain['problems'] + traced['problems']}")
    expect(plain["fingerprint"] == traced["fingerprint"],
           f"{workload}: traced and untraced fingerprints agree")

    layers = traced["layers"]
    missing = [n for n in PER_LAYER if n not in layers and not n.startswith("trace.")]
    expect(not missing, f"{workload}: traced run reports every layer metric {missing}")
    runs = layers["sampler.run_calls"]
    expect(runs > 0 and layers["metrics.chainstate_builds"] == 2 * runs,
           f"{workload}: 2 ChainState builds per run() ({layers['metrics.chainstate_builds']}"
           f" builds, {runs} runs)")
    if workload == "chain-long":
        expect(layers["planner.calls"] == 0, "chain-long: no planner call in the timed part")
        chains = worker.SIZES["toy"][workload]["chains"]
        expect(len(plain["times"]["eval_s"]) > chains,
               f"chain-long: chains rerun until the deadline ({len(plain['times']['eval_s'])} calls)")
    if workload == "daytype-cli":
        expect(layers["evaluation.prepare_calls"] == 14,
               f"daytype-cli: 14 prepare_day calls ({layers['evaluation.prepare_calls']})")


def through_run_py(workload: str) -> None:
    fingerprints = []
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = run_py("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                      "--trace", trace, "--scale", "toy")
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode == 0 and bool(lines),
               f"{workload} --trace {trace}: exit 0 ({proc.stderr.strip()[-300:]})")
        if proc.returncode != 0 or not lines:
            continue
        result = json.loads(lines[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{workload} --trace {trace}: result keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload} --trace {trace}: correct, no failure")
        expect(sorted(result["metrics"]) == sorted(names),
               f"{workload} --trace {trace}: metrics are those of BENCHMARK.json")
        fingerprints += [ln.split()[1] for ln in lines if ln.startswith("fingerprint ")]
    expect(len(fingerprints) == 2 and len(set(fingerprints)) == 1,
           f"{workload}: run.py fingerprints agree between --trace 0 and 1")


def without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_py("--workload", "chain-long", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without sources: nonzero exit and no result")


def main() -> int:
    for workload in worker.WORKLOADS:
        in_process(workload)
    for workload in worker.WORKLOADS:
        through_run_py(workload)
    without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
