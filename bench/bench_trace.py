"""Span tracing of the medialq layers, installed from outside the package.

Run as a script, this is a drop-in for `python -m medialq.cli`:

    python3 bench/bench_trace.py RUN_ID TRACE_OUT -- <medialq CLI arguments>

Before the CLI starts, every public function of every medialq module is
replaced by a wrapper that records a span (name, start, end, parent) and is
installed in each module namespace that binds the function, so calls made
through `from .x import f` are seen too.  Methods of classes are not wrapped.
When the CLI returns, the spans and a few counters are written to TRACE_OUT
as JSON, tagged with RUN_ID, and the process exits with the CLI's code.

`summarize` turns the traces of one workload run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fp", "groups", "gl2", "quasigroup", "enumeration", "oracle", "cli")

# Per-layer metrics, in report order.  The suffix says how a metric is made:
# `.s` is inclusive span time, `.self_s` span time minus child spans, and
# `.calls` the number of spans; the rest are counters named below.
PER_LAYER = (
    ("gl2.conjugacy_partition.s", "s"),
    ("gl2.centralizer.calls", "count"),
    ("gl2.centralizer.s", "s"),
    ("gl2.centralizer.hit_ratio", "ratio"),
    ("gl2.gl2_elements.s", "s"),
    ("gl2.conj_class_reps.s", "s"),
    ("gl2.commutes.calls", "count"),
    ("gl2.commutes.s", "s"),
    ("gl2.units.s", "s"),
    ("groups.quotient_cosets.calls", "count"),
    ("groups.quotient_cosets.s", "s"),
    ("groups.quotient_cosets.distinct_ratio", "ratio"),
    ("enumeration.enumerate_forms.s", "s"),
    ("enumeration.enumerate_forms.self_s", "s"),
    ("enumeration.reps_y.self_s", "s"),
    ("enumeration.stabilizer.calls", "count"),
    ("enumeration.stabilizer.self_s", "s"),
    ("enumeration.orbit_reps_c.calls", "count"),
    ("enumeration.orbit_reps_c.self_s", "s"),
    ("enumeration.jsonl_record.s", "s"),
    ("enumeration.triples", "count"),
    ("quasigroup.build_table.calls", "count"),
    ("quasigroup.build_table.s", "s"),
    ("quasigroup.to_text.s", "s"),
    ("quasigroup.tables_from_text.s", "s"),
    ("quasigroup.is_latin.s", "s"),
    ("quasigroup.is_medial.calls", "count"),
    ("quasigroup.is_medial.s", "s"),
    ("quasigroup.is_medial.peak_mb", "MB"),
    ("oracle.all_affine_forms.s", "s"),
    ("oracle.fingerprint.calls", "count"),
    ("oracle.fingerprint.s", "s"),
    ("oracle.classify.self_s", "s"),
    ("oracle.classify.buckets", "count"),
    ("oracle.classify.classes", "count"),
    ("oracle.assign_to_classes.self_s", "s"),
    ("oracle.are_isomorphic.calls", "count"),
    ("fp.is_irreducible_quadratic.calls", "count"),
    ("fp.is_irreducible_quadratic.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)

class Tracer:
    """Records one span per wrapped call; spans stay in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []
        self._quotient_args = set()
        self._buckets = defaultdict(set)  # classify span -> fingerprints seen
        self._probes = {
            "groups.quotient_cosets": self._probe_quotient_cosets,
            "quasigroup.is_medial": self._probe_is_medial,
            "oracle.fingerprint": self._probe_fingerprint,
            "oracle.classify": self._probe_classify,
            "enumeration.enumerate_forms": self._probe_enumerate_forms,
        }

    def wrap(self, name: str, fn):
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(fn, args, kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def _probe_quotient_cosets(self, fn, args, kwargs):
        group, endo = args
        self._quotient_args.add((group, endo))
        self.counters["groups.quotient_cosets.distinct"] = len(self._quotient_args)
        return fn(*args, **kwargs)

    def _probe_is_medial(self, fn, args, kwargs):
        # tracemalloc runs only inside this span, so no other layer pays for it.
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            key = "quasigroup.is_medial.peak_mb"
            self.counters[key] = max(self.counters[key], peak)

    def _probe_fingerprint(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        parent = self.spans[self._stack[-1]][3]
        if parent >= 0 and self.spans[parent][0] == "oracle.classify":
            self._buckets[parent].add(result)
        return result

    def _probe_classify(self, fn, args, kwargs):
        index = self._stack[-1]
        result = fn(*args, **kwargs)
        self.counters["oracle.classify.classes"] += len(result)
        self.counters["oracle.classify.buckets"] += len(self._buckets.pop(index, ()))
        return result

    def _probe_enumerate_forms(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counters["enumeration.triples"] += result.total
        return result

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counters": dict(self.counters)}


def public_functions(module) -> dict:
    """Public functions defined in `module`, lru_cache wrappers included."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> dict:
    """Wrap every public medialq function in every namespace that binds it.

    Returns the original functions by qualified layer name.
    """
    package = importlib.import_module("medialq")
    modules = [importlib.import_module(f"medialq.{layer}") for layer in LAYERS]
    originals = {}
    for layer, module in zip(LAYERS, modules):
        for name, fn in public_functions(module).items():
            qualified = f"{layer}.{name}"
            originals[qualified] = fn
            wrapper = tracer.wrap(qualified, fn)
            for namespace in [package, *modules]:
                if vars(namespace).get(name) is fn:
                    setattr(namespace, name, wrapper)
    return originals


def span_stats(spans) -> dict:
    """Per name: number of spans, inclusive seconds and self seconds.

    Spans are [name, start, end, parent index].  Self time is a span's
    duration minus its children's; children of one span never overlap.
    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself again is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return dict(stats)


def merged_stats(traces) -> dict:
    """`span_stats` summed over several traces (several CLI processes)."""
    merged = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for trace in traces:
        for name, entry in span_stats(trace["spans"]).items():
            for key, value in entry.items():
                merged[name][key] += value
    return dict(merged)


def summarize(traces, runner: dict) -> dict:
    """Per-layer metrics of one workload repetition from its traces.

    `traces` are the dumps of the repetition's traced CLI invocations;
    `runner` holds the metrics the benchmark process measured itself
    (cli.stdout_bytes, cli.cpu_s, trace.overhead_s).  A function that never ran
    reads 0.
    """
    stats = merged_stats(traces)
    counters = Counter()
    for trace in traces:
        for key, value in trace["counters"].items():
            if key.endswith("peak_mb"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    centralizer_lookups = counters["gl2.centralizer.hits"] + counters["gl2.centralizer.misses"]
    quotient_calls = stats.get("groups.quotient_cosets", {}).get("calls", 0)
    derived = {
        "gl2.centralizer.hit_ratio":
            counters["gl2.centralizer.hits"] / centralizer_lookups if centralizer_lookups else 0.0,
        "groups.quotient_cosets.distinct_ratio":
            counters["groups.quotient_cosets.distinct"] / quotient_calls if quotient_calls else 0.0,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        function, _, kind = name.rpartition(".")
        if name in runner:
            metrics[name] = runner[name]
        elif name in derived:
            metrics[name] = derived[name]
        elif kind in ("s", "self_s", "calls") and function.count(".") == 1:
            metrics[name] = stats.get(function, {}).get(kind, 0)
        else:
            metrics[name] = counters[name]
    return metrics


def main(argv) -> int:
    run_id, out_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: bench_trace.py RUN_ID TRACE_OUT -- CLI-ARGS...")
    tracer = Tracer(run_id)
    originals = install(tracer)
    cli = importlib.import_module("medialq.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        info = originals["gl2.centralizer"].cache_info()
        tracer.counters["gl2.centralizer.hits"] = info.hits
        tracer.counters["gl2.centralizer.misses"] = info.misses
        with open(out_path, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
