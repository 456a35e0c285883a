"""Span tracing of tripforge's layers, done from outside the package.

`Tracer` replaces the public functions of each layer at every module
attribute their callers look them up through (for example
`tripforge.evaluation.k_top_routes` and `tripforge.synth.k_top_routes`), so
that each call records a span: name, start, end and parent.  Spans stay in
memory; `write_spans` saves them when a run ends.  Leaving the `with` block
puts every original attribute back.

Per-proposal functions (`propose`, `delta_error`, `apply_delta`) are not
wrapped: a span per proposal would cost more than the proposal.  `model`
only holds value types; its cost shows up as self time of its callers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import math
import os
import time

PACKAGE = "tripforge"
MODULES = ("model", "metrics", "planner", "candidates", "sampler", "synth", "evaluation", "io", "cli")

# Benchmark phase spans.  Per-layer metrics only count spans under a timed
# phase, so work done during set-up does not show.
SETUP, SYNTH, EVAL = "bench.setup", "bench.synth", "bench.eval"
TIMED_PHASES = frozenset((SYNTH, EVAL))


def _trips(result, args, kwargs):
    return {"trips": sum(len(d.routes) for d in result.days)}


def _planner(result, args, kwargs):
    return {"empty": 0 if result else 1}


def _candidate_set(result, args, kwargs):
    return {"size": len(result), "eligible": 1 if len(result) >= 2 else 0}


def _prepared(result, args, kwargs):
    return {"dropped": len(result.dropped_demands)}


def _run(result, args, kwargs):
    # Each checkpoint carries the acceptance rate of the window since the
    # previous one; the window lengths recover the accepted count.
    accepted = 0
    prev = 0
    for cp in result.checkpoints[1:]:
        accepted += round(cp.acceptance_rate * (cp.iteration - prev))
        prev = cp.iteration
    return {"proposals": prev, "accepted": accepted, "best_error": result.best_error}


def _dir_bytes(result, args, kwargs):
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out) if e.is_file())}


def _file_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (span name, layer module, attribute, observer of the call's result)
TARGETS = (
    ("planner.k_top_routes", "planner", "k_top_routes", _planner),
    ("synth.generate_collection", "synth", "generate_collection", _trips),
    ("candidates.TripHistory", "candidates", "TripHistory", None),
    ("candidates.history_lookup", "candidates", "history_lookup", None),
    ("candidates.build_candidate_set", "candidates", "build_candidate_set", _candidate_set),
    ("metrics.ChainState", "metrics", "ChainState", None),
    ("metrics.build_empirical_target", "metrics", "build_empirical_target", None),
    ("sampler.run", "sampler", "run", _run),
    ("sampler.draw_assignment", "sampler", "draw_assignment", None),
    ("evaluation.one_day_eval", "evaluation", "one_day_eval", None),
    ("evaluation.daytype_mix_eval", "evaluation", "daytype_mix_eval", None),
    ("evaluation.prepare_day", "evaluation", "prepare_day", _prepared),
    ("evaluation.mismatch_report", "evaluation", "mismatch_report", None),
    ("io.read_collection", "io", "read_collection", None),
    ("io.write_collection", "io", "write_collection", _dir_bytes),
    ("io.write_table", "io", "write_table", _file_bytes),
    ("io.write_trace", "io", "write_trace", _file_bytes),
    ("cli.main", "cli", "main", None),
)


def package_modules() -> list:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]


def attribute_snapshot() -> dict:
    """Identity of every module attribute of the package, to show that a
    traced run put everything back."""
    return {
        (mod.__name__, name): id(value)
        for mod in package_modules()
        for name, value in vars(mod).items()
    }


class Tracer:
    """Records one span per call into a wrapped layer function.

    A span is [name, start, end, parent index, extra]; parents always come
    before their children in `spans`.  `run_id` is shared by every span of
    one benchmark repetition.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        root = modules[0]
        try:
            for name, layer, attr, observe in TARGETS:
                home = importlib.import_module(f"{PACKAGE}.{layer}")
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, observe)
                for mod in modules:
                    # A class stays itself in its own module and in the package
                    # namespace; only the modules that call it see the wrapper.
                    if inspect.isclass(original) and mod in (home, root):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            mod, key, original = self._saved.pop()
            setattr(mod, key, original)

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[4] = observe(result, args, kwargs)
            return result

        functools.update_wrapper(traced, fn, updated=())
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark-owned span around one step of a workload."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("run_id", "span", "name", "start_s", "end_s", "parent", "extra"))
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                w.writerow((self.run_id, i, name, repr(start), repr(end), parent,
                            "" if extra is None else extra))


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6


def layer_metrics(spans: list[list]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans under a timed phase.

    Returns (metrics, notes); a note says why a metric reads 0 because its
    layer did no work in the timed part.
    """
    n = len(spans)
    timed = [False] * n
    child_s = [0.0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        timed[i] = name in TIMED_PHASES or (parent >= 0 and timed[parent])
        if parent >= 0:
            child_s[parent] += end - start

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    extra: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, parent, ex) in enumerate(spans):
        if not timed[i]:
            continue
        d = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child_s[i]
        durations.setdefault(name, []).append(d)
        for key, value in (ex or {}).items():
            extra[f"{name}:{key}"] = extra.get(f"{name}:{key}", 0) + value

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    planner_calls = c("planner.k_top_routes")
    builds = c("candidates.build_candidate_set")
    proposals = extra.get("sampler.run:proposals", 0)
    loop_s = self_s.get("sampler.run", 0.0)
    m = {
        "planner.calls": planner_calls,
        "planner.busy_s": b("planner.k_top_routes"),
        "planner.call_p50_us": _percentile_us(durations.get("planner.k_top_routes", []), 0.50),
        "planner.call_p99_us": _percentile_us(durations.get("planner.k_top_routes", []), 0.99),
        "planner.empty_ratio": ratio(extra.get("planner.k_top_routes:empty", 0), planner_calls),
        "synth.self_s": self_s.get("synth.generate_collection", 0.0),
        "synth.trips": extra.get("synth.generate_collection:trips", 0),
        "candidates.history_s": b("candidates.TripHistory"),
        "candidates.lookup_calls": c("candidates.history_lookup"),
        "candidates.lookup_s": b("candidates.history_lookup"),
        "candidates.build_s": b("candidates.build_candidate_set"),
        "candidates.mean_size": ratio(extra.get("candidates.build_candidate_set:size", 0), builds),
        "candidates.eligible_ratio": ratio(
            extra.get("candidates.build_candidate_set:eligible", 0), builds),
        "candidates.dropped": extra.get("evaluation.prepare_day:dropped", 0),
        "metrics.chainstate_builds": c("metrics.ChainState"),
        "metrics.chainstate_s": b("metrics.ChainState"),
        "metrics.target_s": b("metrics.build_empirical_target"),
        "sampler.run_calls": c("sampler.run"),
        "sampler.proposals": proposals,
        "sampler.loop_s": loop_s,
        "sampler.us_per_proposal": ratio(loop_s * 1e6, proposals),
        "sampler.accept_ratio": ratio(extra.get("sampler.run:accepted", 0), proposals),
        "sampler.best_error": ratio(extra.get("sampler.run:best_error", 0.0), c("sampler.run")),
        "sampler.draw_s": b("sampler.draw_assignment"),
        "evaluation.prepare_calls": c("evaluation.prepare_day"),
        "evaluation.prepare_s": b("evaluation.prepare_day"),
        "evaluation.report_calls": c("evaluation.mismatch_report"),
        "evaluation.report_s": b("evaluation.mismatch_report"),
        "evaluation.self_s": self_s.get("evaluation.one_day_eval", 0.0)
        + self_s.get("evaluation.daytype_mix_eval", 0.0),
        "io.read_s": b("io.read_collection"),
        "io.write_s": b("io.write_collection") + b("io.write_table") + b("io.write_trace"),
        "io.bytes_written": sum(extra.get(f"io.{f}:bytes", 0)
                                for f in ("write_collection", "write_table", "write_trace")),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    notes = []
    if not planner_calls:
        notes.append("planner.*: no planner call in the timed part")
    if not builds:
        notes.append("candidates.*: no candidate set built in the timed part")
    if not c("synth.generate_collection"):
        notes.append("synth.*: no collection synthesized in the timed part")
    if not (c("io.read_collection") or c("io.write_collection")):
        notes.append("io.*: the timed part reads and writes no file")
    if not c("cli.main"):
        notes.append("cli.self_s: the timed part does not go through the CLI")
    if not c("evaluation.prepare_day"):
        notes.append("evaluation.*: the timed part calls no evaluation protocol")
    return m, notes
