#!/usr/bin/env python3
"""End-to-end benchmark of the medialq command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; medialq is imported from `src/`.  Each CLI
invocation is a fresh `python3 -m medialq.cli ... --jobs 1` process started
by this one, one at a time, the way users run the package.  The workload's
invocations are repeated until about S seconds have passed; every metric is a
median over those repetitions.  Every stdout is checked (pinned sha256 and a
semantic check); an invocation that exits non-zero, times out or fails a check
counts as failed.

With --trace 0 the end-to-end metrics are reported: `norm_cpu_s`,
`items_per_norm_s`, `peak_rss_mb` and `setup_s`.  Their times are
reference-normalized CPU seconds: the user+sys CPU time of the CLI processes,
read per child with os.wait4, divided by the CPU time of reference.py run
just before them and multiplied by REFERENCE_S.  On a shared virtual machine
both wall and CPU time drift with the host's load by more than any bound we
could set; the quotient drifts a third to a half as much.  Wall time, raw CPU
time and the reference's CPU time are printed in the report too.

With --trace 1 every repetition runs the workload twice, untraced and then
under bench_trace.py, and the per-layer metrics of bench_trace.PER_LAYER are
reported.  Either way, before timing,
`enumerate --group zp2 --p 7 --jobs 2` must print the bytes pinned for
--jobs 1.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are a readable report and the run's context.
`--workload all` measures every workload in turn, each report ending in its
own result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import bench_inputs
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # relative paths below keep stdout identical run to run
EXPORT_DIR = Path(".bench_work/export")
VERIFY_FILE = Path(".bench_work/verify.txt")
PINNED = json.loads((HERE / "expected.json").read_text())

RUN_LIMIT_S = 170  # a run must end within 180 s
INVOCATION_TIMEOUT_S = 90
SETUP_STARTS = 5
REFERENCE_S = 1.0  # normalized times are seconds on a machine where reference.py takes 1 CPU s
REFERENCE_OUTPUT = b"286023 1 14700\n"
JOBS_CHECK = ("enumerate", "--group", "zp2", "--p", "7")
END_TO_END = (("norm_cpu_s", "s"), ("items_per_norm_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def closed_form_zp2(p: int) -> int:
    return p**4 - p**2 - p - 1


def closed_form_cyclic(p: int, k: int) -> int:
    return p ** (2 * k) + p ** (2 * k - 2) - p ** (k - 1) - sum(p**i for i in range(k - 1, 2 * k))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutOfTime(Exception):
    pass


@dataclass
class Outcome:
    """One finished CLI process."""

    argv: tuple
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: bytes
    errors: list = field(default_factory=list)


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload and how its output is checked."""

    argv: tuple
    check: Callable[[bytes], Optional[str]]
    pinned: bool = True  # stdout sha256 is in expected.json


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: int  # units of work per repetition, for items_per_norm_s
    steps: tuple


class Runner:
    """Starts CLI processes one at a time and keeps the failure count."""

    def __init__(self):
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    def spawn(self, argv, trace: Optional[tuple] = None, reference: bool = False) -> Outcome:
        """Run the CLI once; `trace` is (run id, trace file) for a traced run.

        With `reference`, run reference.py instead; `argv` only names it.
        """
        timeout = min(INVOCATION_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.start))
        if timeout <= 0:
            raise OutOfTime(f"no time left for {' '.join(argv)}")
        if reference:
            cmd = [sys.executable, str(HERE / "reference.py")]
        elif trace is None:
            cmd = [sys.executable, "-m", "medialq.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "bench_trace.py"), *map(str, trace), "--", *argv]
        out_path = WORK / "stdout"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)

            def kill():
                timed_out.set()
                os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
                # a running maximum over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        # Reaped by wait4 above; tell Popen so it does not wait again.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        outcome = Outcome(tuple(argv), wall, usage.ru_maxrss / 1024,
                          usage.ru_utime + usage.ru_stime, out_path.read_bytes())
        if timed_out.is_set():
            outcome.errors.append(f"timed out after {timeout:.0f} s")
        elif code != 0:
            tail = (WORK / "stderr").read_text(errors="replace")[-500:]
            outcome.errors.append(f"exit code {code}: {tail.strip()}")
        return outcome

    def record(self, outcome: Outcome, extra_errors=()) -> Outcome:
        outcome.errors.extend(e for e in extra_errors if e)
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            self.errors.append(f"{' '.join(outcome.argv)}: {'; '.join(outcome.errors)}")
        return outcome

    def run_step(self, step: Step, trace: Optional[tuple] = None,
                 untraced: Optional[bytes] = None) -> Outcome:
        """Run and check one step; a traced run must also print `untraced`."""
        outcome = self.spawn(step.argv, trace)
        errors = []
        if not outcome.errors:
            key = " ".join(step.argv)
            if step.pinned and sha256(outcome.stdout) != PINNED["stdout"][key]:
                errors.append("stdout differs from the pinned sha256")
            if untraced is not None and outcome.stdout != untraced:
                errors.append("traced stdout differs from untraced")
            errors.append(step.check(outcome.stdout))
        return self.record(outcome, errors)


def no_check(stdout: bytes) -> Optional[str]:
    return None


NOOP_STEP = Step(("count", "--group", "n", "--n", "1"), no_check)


def reference_scale(runner: Runner) -> float:
    """Run reference.py once; REFERENCE_S over its CPU seconds."""
    outcome = runner.spawn(("reference.py",), reference=True)
    runner.record(outcome, [None if outcome.errors or outcome.stdout == REFERENCE_OUTPUT
                            else f"reference.py printed {outcome.stdout[:80]!r}"])
    return REFERENCE_S / outcome.cpu_s


def line_count(expected: int) -> Callable[[bytes], Optional[str]]:
    def check(stdout: bytes) -> Optional[str]:
        lines = stdout.count(b"\n")
        return None if lines == expected else f"{lines} lines, closed form says {expected}"
    return check


def crosscheck_ok(forms: int) -> Callable[[bytes], Optional[str]]:
    def check(stdout: bytes) -> Optional[str]:
        lines = stdout.decode().splitlines()
        if not lines or not lines[-1].endswith(" OK"):
            return "crosscheck did not print OK"
        if not lines[0].endswith(f": {forms}"):
            return f"expected {forms} affine forms, got {lines[0]!r}"
        return None
    return check


class TablesIO:
    """Checks for the tables-io workload, which also owns its verify input.

    The first export that passes its checks supplies the tables that the
    seeded verify input is built from; the exported files are deleted after
    every check so the next export starts from an empty directory.
    """

    def __init__(self, seed: int, p: int, k: int):
        self.seed = seed
        self.tables = closed_form_cyclic(p, k)
        self.expected = None

    def check_export(self, stdout: bytes) -> Optional[str]:
        export = ROOT / EXPORT_DIR
        try:
            files = sorted(export.iterdir())
            if len(files) != self.tables:
                return f"{len(files)} files exported, closed form says {self.tables}"
            tree = hashlib.sha256()
            for f in files:
                tree.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
            if tree.hexdigest() != PINNED["export_tree"]:
                return "exported tables differ from the pinned sha256"
            if self.expected is None:
                self.expected = bench_inputs.write_verify_input(
                    export, self.seed, ROOT / VERIFY_FILE)
            return None
        finally:
            shutil.rmtree(export, ignore_errors=True)

    def check_verify(self, stdout: bytes) -> Optional[str]:
        got = stdout.decode().splitlines()
        if got == self.expected:
            return None
        wrong = [i for i, (a, b) in enumerate(zip(got, self.expected or [])) if a != b]
        return f"verify printed {len(got)} lines, first wrong: {wrong[:3]}"


def workloads(seed: int) -> dict:
    """The named workloads; only tables-io depends on the seed."""
    tables = TablesIO(seed, 7, 2)
    defs = [
        Workload(
            "enum-rank2",
            "GL(2,p) machinery (conjugacy partition, centralizers) plus quotients;"
            " the rank-2 enumeration target, at p=7",
            closed_form_zp2(7),
            (Step(("enumerate", "--group", "zp2", "--p", "7", "--jobs", "1"),
                  line_count(closed_form_zp2(7))),),
        ),
        Workload(
            "enum-cyclic",
            "bypasses GL(2,p); time goes to repeated quotient_cosets calls, orbits"
            " and writing many output lines",
            closed_form_cyclic(11, 2),
            (Step(("enumerate", "--group", "cyclic", "--p", "11", "--k", "2", "--jobs", "1"),
                  line_count(closed_form_cyclic(11, 2))),),
        ),
        Workload(
            "oracle-crosscheck",
            "the brute-force isomorphism oracle on both order-9 groups; enumeration"
            " is negligible here",
            3456 + 324,
            (Step(("crosscheck", "--group", "zp2", "--p", "3", "--jobs", "1"), crosscheck_ok(3456)),
             Step(("crosscheck", "--group", "cyclic", "--p", "3", "--k", "2", "--jobs", "1"),
                  crosscheck_ok(324))),
        ),
        Workload(
            "tables-io",
            "Cayley tables written by export and read back by verify (seeded);"
            " the only workload running is_medial",
            tables.tables + bench_inputs.RELABELLED + bench_inputs.AFFINE + bench_inputs.EDITED,
            (Step(("export", "--group", "cyclic", "--p", "7", "--k", "2",
                   "--out", str(EXPORT_DIR), "--jobs", "1"), tables.check_export),
             Step(("verify", "--in", str(VERIFY_FILE)), tables.check_verify, pinned=False)),
        ),
    ]
    return {w.name: w for w in defs}


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup(runner: Runner) -> list:
    """Normalized CPU seconds of fresh no-op CLI processes, after one warm-up
    start.

    The warm-up also leaves the bytecode cache written, as an install would.
    """
    runner.run_step(NOOP_STEP)
    scale = reference_scale(runner)
    return [runner.run_step(NOOP_STEP).cpu_s * scale for _ in range(SETUP_STARTS)]


def check_jobs_invariance(runner: Runner):
    """enumerate must print at --jobs 2 the bytes pinned for --jobs 1.

    The --jobs 1 stdout is held to the same sha256 wherever it is timed.
    """
    pinned = PINNED["stdout"][" ".join((*JOBS_CHECK, "--jobs", "1"))]
    two = runner.spawn((*JOBS_CHECK, "--jobs", "2"))
    runner.record(two, [None if two.errors or sha256(two.stdout) == pinned
                        else "stdout at --jobs 2 differs from --jobs 1"])


def repeat(seconds: float, body) -> list:
    """Call body() until the next call would end after `seconds`; at least once."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        begin = time.perf_counter()
        results.append(body())
        took = time.perf_counter() - begin
        if time.perf_counter() + took > deadline:
            return results


def measure_untraced(runner: Runner, workload: Workload, seconds: float) -> dict:
    """Samples of each end-to-end metric, one per repetition.

    Every repetition first runs reference.py, which gives the scale for its
    times, then one more no-op start, so that `setup_s` samples the whole run
    and not only its first seconds, then the workload.  The raw `cpu_s`,
    `wall_s` and `reference_cpu_s` are returned for the report.
    """
    def body():
        scale = reference_scale(runner)
        setup = runner.run_step(NOOP_STEP).cpu_s
        return scale, setup, [runner.run_step(step) for step in workload.steps]

    reps = repeat(seconds, body)
    cpus = [sum(o.cpu_s for o in outcomes) for _, _, outcomes in reps]
    norm = [cpu * scale for cpu, (scale, _, _) in zip(cpus, reps)]
    return {
        "norm_cpu_s": norm,
        "items_per_norm_s": [workload.items / n for n in norm],
        "peak_rss_mb": [max(o.rss_mb for o in outcomes) for _, _, outcomes in reps],
        "setup_s": [setup * scale for scale, setup, _ in reps],
        "cpu_s": cpus,
        "wall_s": [sum(o.wall_s for o in outcomes) for _, _, outcomes in reps],
        "reference_cpu_s": [REFERENCE_S / scale for scale, _, _ in reps],
    }


def measure_traced(runner: Runner, workload: Workload, seconds: float) -> tuple:
    """Samples of each per-layer metric, one per repetition, and the traces
    of the last repetition.

    Each repetition runs the workload untraced, then traced; the traced run
    gets the same checks, and its stdout must equal the untraced one.
    """
    rep_index = 0
    last_traces = []

    def body():
        nonlocal rep_index, last_traces
        plain = [runner.run_step(step) for step in workload.steps]
        traces = []
        traced_wall = 0.0
        for i, (step, untraced) in enumerate(zip(workload.steps, plain)):
            run_id = f"{workload.name}-{rep_index}-{i}"
            path = WORK / f"trace-{run_id}.json"
            outcome = runner.run_step(step, (run_id, path), untraced.stdout)
            traced_wall += outcome.wall_s
            if path.exists():
                traces.append(json.loads(path.read_text()))
                path.unlink()
        rep_index += 1
        last_traces = traces
        return bench_trace.summarize(traces, {
            "cli.stdout_bytes": sum(len(o.stdout) for o in plain),
            "cli.cpu_s": sum(o.cpu_s for o in plain),
            "trace.overhead_s": traced_wall - sum(o.wall_s for o in plain),
        })

    reps = repeat(seconds, body)
    return {name: [rep[name] for rep in reps] for name, _ in bench_trace.PER_LAYER}, last_traces


def predictions(workload: str, traces) -> list:
    """The split each workload was chosen for, checked against its trace.

    A prediction that fails is reported as measured; it is not a failure of
    the run.
    """
    stats = bench_trace.merged_stats(traces)
    claims = [
        ("oracle.* runs only on oracle-crosscheck",
         any(n.startswith("oracle.") for n in stats) == (workload == "oracle-crosscheck")),
        ("quasigroup.is_medial runs only on tables-io",
         ("quasigroup.is_medial" in stats) == (workload == "tables-io")),
    ]
    if workload == "enum-cyclic":
        claims.append(("gl2.conjugacy_partition and gl2.centralizer do not run on enum-cyclic",
                       not {"gl2.conjugacy_partition", "gl2.centralizer"} & stats.keys()))
        below = [n for n in stats if n != "cli.main"]
        top = max(below, key=lambda n: stats[n]["self_s"])
        claims.append((f"groups.quotient_cosets has the largest self time below cli.main"
                       f" on enum-cyclic (measured: {top})", top == "groups.quotient_cosets"))
    lines = [f"  prediction {'holds' if ok else 'FAILS'}: {text}" for text, ok in claims]
    lines.append("  spans by self time (last repetition): name calls s self_s")
    for name in sorted(stats, key=lambda n: -stats[n]["self_s"])[:10]:
        e = stats[name]
        lines.append(f"    {name:36s} {e['calls']:8d} {e['s']:10.4f} {e['self_s']:10.4f}")
    return lines


def commit_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def context(seed: int) -> dict:
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "unknown"
    return {
        "commit": commit_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }


def metric_line(name: str, values, unit: str, what: str) -> str:
    q1, q3 = quartiles(values)
    return (f"  {name:38s} {statistics.median(values):12.6g} {unit:5s} "
            f"(median of {len(values)} {what}; quartiles {q1:.6g} .. {q3:.6g})")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its report; the last line is the result."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner()
    try:
        setup = measure_setup(runner)
        check_jobs_invariance(runner)
        if trace:
            samples, traces = measure_traced(runner, workload, seconds)
        else:
            samples = measure_untraced(runner, workload, seconds)
            samples["setup_s"] += setup
    except OutOfTime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for error in runner.errors:
        print(f"failed: {error}", file=sys.stderr)
    if runner.failed == runner.attempted:
        print("error: every CLI invocation failed", file=sys.stderr)
        return 1

    table = bench_trace.PER_LAYER if trace else END_TO_END
    print(f"workload {workload.name}, seed {seed}, trace {'on' if trace else 'off'}: {workload.why}")
    metrics = {}
    for name, unit in table:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        what = "no-op starts" if name == "setup_s" else "repetitions"
        print(metric_line(name, values, unit, what))
    if trace:
        print("\n".join(predictions(workload.name, traces)))
    else:
        print("  not metrics, for reading the ones above:")
        for name in ("cpu_s", "wall_s", "reference_cpu_s"):
            print(metric_line(name, samples[name], "s", "repetitions"))
    print(f"  {'fail_frac':38s} {runner.failed / runner.attempted:12.6g} "
          f"({runner.failed} of {runner.attempted} invocations failed; "
          f"{len(samples[table[0][0]])} repetitions)")
    print(json.dumps({"context": context(seed)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    named = workloads(0)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*named, "all"],
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "medialq" / "cli.py").is_file():
        print(f"error: no medialq sources under {SRC}", file=sys.stderr)
        return 2
    chosen = named if args.workload == "all" else [args.workload]
    for name in chosen:
        code = run_workload(workloads(args.seed)[name], args.seed, args.seconds, bool(args.trace))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
