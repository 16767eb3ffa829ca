"""Tests of the benchmark's own arithmetic, inputs and tracing."""

import importlib
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import bench_inputs
import bench_trace

ROOT = Path(__file__).resolve().parent.parent


def test_span_stats_self_time_on_synthetic_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3]; main -> a [5, 9] -> a [6, 8]
    spans = [
        ["main", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["a", 6.0, 8.0, 3],
    ]
    stats = bench_trace.span_stats(spans)
    assert stats["main"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    # the nested a [6, 8] is inside the outer a [5, 9], so inclusive time is 3 + 4
    assert stats["a"] == {"calls": 3, "s": 7.0, "self_s": (3.0 - 1.0) + (4.0 - 2.0) + 2.0}
    assert stats["b"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    total_self = sum(e["self_s"] for e in stats.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root span


def test_summarize_reads_spans_counters_and_runner_values():
    trace = {
        "run_id": "t",
        "spans": [
            ["cli.main", 0.0, 4.0, -1],
            ["groups.quotient_cosets", 1.0, 2.0, 0],
            ["groups.quotient_cosets", 2.0, 3.5, 0],
        ],
        "counters": {"groups.quotient_cosets.distinct": 1, "gl2.centralizer.hits": 3,
                     "gl2.centralizer.misses": 1, "quasigroup.is_medial.peak_mb": 2.5},
    }
    runner = {"cli.stdout_bytes": 7, "cli.cpu_s": 1.0, "trace.overhead_s": 0.5}
    m = bench_trace.summarize([trace, trace], runner)
    assert set(m) == {name for name, _ in bench_trace.PER_LAYER}
    assert m["groups.quotient_cosets.calls"] == 4
    assert m["groups.quotient_cosets.s"] == pytest.approx(5.0)
    assert m["groups.quotient_cosets.distinct_ratio"] == pytest.approx(2 / 4)
    assert m["cli.main.self_s"] == pytest.approx(2 * 1.5)
    assert m["gl2.centralizer.hit_ratio"] == pytest.approx(0.75)
    assert m["quasigroup.is_medial.peak_mb"] == 2.5  # a peak, not a sum
    assert m["oracle.fingerprint.calls"] == 0
    assert m["cli.stdout_bytes"] == 7


def _affine_sources(n=9):
    units = [u for u in range(1, n) if u % 3]
    return [bench_inputs.cyclic_affine(n, a, b, c) for a in units for b in units for c in (0, 4)]


def test_inputs_are_deterministic_per_seed():
    sources = _affine_sources()
    kw = dict(relabelled=6, affine=2, affine_order=9, edited=3)
    first = bench_inputs.make_cases(sources, 11, **kw)
    assert first == bench_inputs.make_cases(sources, 11, **kw)
    assert first != bench_inputs.make_cases(sources, 12, **kw)
    assert [c.kind for c in first].count("edited") == 3


@pytest.mark.parametrize("seed", range(6))
def test_verdicts_by_construction_match_plain_checks_at_order_9(seed):
    cases = bench_inputs.make_cases(_affine_sources(), seed, relabelled=6, affine=2,
                                    affine_order=9, edited=4)
    for case in cases:
        assert bench_inputs.is_latin_plain(case.rows) == case.latin
        assert bench_inputs.is_medial_plain(case.rows) == case.medial
    lines = bench_inputs.expected_lines(cases)
    assert lines[0].startswith("table 0: order 9 latin=")


def test_verify_lines_match_the_cli(tmp_path, capsys):
    from medialq.cli import main

    cases = bench_inputs.make_cases(_affine_sources(), 3, relabelled=4, affine=1,
                                    affine_order=9, edited=2)
    path = tmp_path / "tables.txt"
    path.write_text("".join(bench_inputs.table_text(c.rows) for c in cases))
    assert main(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == bench_inputs.expected_lines(cases)


@contextmanager
def installed():
    """A tracer installed into medialq, removed again on exit."""
    package = importlib.import_module("medialq")
    modules = [package] + [importlib.import_module(f"medialq.{m}") for m in bench_trace.LAYERS]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = bench_trace.Tracer("test")
    originals = bench_trace.install(tracer)
    try:
        yield tracer, originals
    finally:
        for module, namespace in saved:
            for name, value in namespace.items():
                setattr(module, name, value)


@pytest.fixture
def traced():
    with installed() as tracer_and_originals:
        yield tracer_and_originals


def test_wrappers_return_exactly_what_the_wrapped_function_returns(traced):
    tracer, originals = traced
    from medialq import enumeration, gl2, groups, oracle, quasigroup

    G = groups.Cyclic(3, 2)
    assert enumeration.enumerate_forms is not originals["enumeration.enumerate_forms"]
    assert enumeration.enumerate_forms(G).triples == originals["enumeration.enumerate_forms"](G).triples
    assert gl2.conj_class_reps(5) is originals["gl2.conj_class_reps"](5)
    form = quasigroup.AffineForm(G, gl2.Unit(2, 9), gl2.Unit(4, 9), 1)
    table = quasigroup.build_table(form)
    assert table == originals["quasigroup.build_table"](form)
    assert quasigroup.is_medial(table) is originals["quasigroup.is_medial"](table) is True
    assert oracle.fingerprint(table) == originals["oracle.fingerprint"](table)
    names = {span[0] for span in tracer.spans}
    assert {"enumeration.enumerate_forms", "groups.quotient_cosets", "quasigroup.is_medial"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)
    quotient = next(s for s in tracer.spans if s[0] == "groups.quotient_cosets")
    assert tracer.spans[quotient[3]][0] == "enumeration.orbit_reps_c"


def test_traced_cli_prints_what_the_untraced_cli_prints(capsys):
    from medialq import cli

    argv = ["crosscheck", "--group", "cyclic", "--p", "3", "--k", "2"]
    assert cli.main(argv) == 0
    untraced_out = capsys.readouterr().out
    with installed() as (tracer, originals):
        assert cli.main is not originals["cli.main"]
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == untraced_out
    assert cli.main is originals["cli.main"]  # uninstalled again
    assert [s[0] for s in tracer.spans if s[3] == -1] == ["cli.main"]
    assert tracer.counters["oracle.classify.classes"] == 48
    assert tracer.counters["oracle.classify.buckets"] >= 1


def test_benchmark_json_names_the_metrics_the_runner_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_trace.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads(0))
    steps = [s for w in run.workloads(0).values() for s in w.steps if s.pinned]
    assert {" ".join(s.argv) for s in steps} <= set(run.PINNED["stdout"])


def test_reference_prints_the_checksum_the_runner_expects():
    import run

    out = subprocess.run([sys.executable, str(run.HERE / "reference.py")],
                         capture_output=True, check=True).stdout
    assert out == run.REFERENCE_OUTPUT
