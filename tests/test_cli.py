import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medialq
from medialq.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from medialq.enumeration import (
    CASE_TAG_CYCLIC,
    CASE_TAGS_RANK2,
    block_triples,
    closed_form_cyclic,
    enumerate_forms,
)
from medialq.gl2 import centralizer, gl2_elements, units
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.quasigroup import AffineForm, CayleyTable, build_table, tables_from_text, to_text
from reference import jsonl_record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_order_p2(capsys):
    code, out, _ = run(capsys, "count", "--group", "order-p2", "--p", "3")
    assert code == EXIT_OK
    assert "mq(3^2) = 116" in out
    assert "48 + 68 = 116" in out
    assert "[match]" in out


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["interpolate", "--series", "order-p2", "--primes", "5"],
            "points: (2, 13) (3, 116) (5, 1084) (7, 4388) (11, 27796)\n"
            "f(x) = 2 x^4 - x^3 - x^2 - 3 x - 1\n"
            "coefficients: integer\n",
        ),
        (
            ["count", "--group", "order-p2", "--p", "3"],
            "mq(3^2) = 116\n"
            "  mq(Z_3^2) = 48  enumerated 48  [match]\n"
            "  mq((Z_3)^2) = 68  enumerated 68  [match]\n"
            "sum check: 48 + 68 = 116  [match]\n",
        ),
        (
            ["count", "--group", "order-p2", "--p", "13"],
            "mq(13^2) = 54716\n  [closed form; enumeration skipped]\n",
        ),
    ],
)
def test_the_order_p2_count_path_prints_the_pinned_bytes(capsys, argv, stdout):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == stdout


def test_count_zp2(capsys):
    code, out, _ = run(capsys, "count", "--group", "zp2", "--p", "3")
    assert code == EXIT_OK
    assert "= 68" in out and "enumerated 68" in out


def test_count_cyclic_k5():
    # the closed form at (p, k) = (2, 5) evaluates to 256, computed by hand:
    # 2^10 + 2^8 - 2^4 - (2^4 + ... + 2^9) = 1024 + 256 - 16 - 1008
    assert 1024 + 256 - 16 - sum(2 ** i for i in range(4, 10)) == 256


def test_count_cyclic_k5_cli(capsys):
    code, out, _ = run(capsys, "count", "--group", "cyclic", "--p", "2", "--k", "5")
    assert code == EXIT_OK
    assert "= 256" in out and "enumerated 256" in out and "[match]" in out


def test_count_composite_n(capsys):
    code, out, _ = run(capsys, "count", "--group", "n", "--n", "6")
    assert code == EXIT_OK
    assert "mq(6) = 5" in out


def test_count_unknown_prime_power(capsys):
    code, _, err = run(capsys, "count", "--group", "n", "--n", "8")
    assert code == EXIT_USAGE
    assert code not in (EXIT_OK, EXIT_MISMATCH)
    assert "unknown prime-power count" in err


def test_count_requires_prime(capsys):
    code, _, err = run(capsys, "count", "--group", "zp2", "--p", "6")
    assert code == EXIT_USAGE
    assert "not a prime" in err


def test_bad_flags_exit_one(capsys):
    code, _, _ = run(capsys, "count", "--group", "bogus", "--p", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_enumerate_jsonl(capsys):
    code, out, err = run(
        capsys, "enumerate", "--group", "zp2", "--p", "2", "--format", "jsonl"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9
    records = [json.loads(line) for line in lines]
    assert all(r["group"] == "zp2:p=2" for r in records)
    assert "total: 9" in err


def test_enumerate_with_tables(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--group", "cyclic", "--p", "3", "--tables"
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5
    assert all(len(r["table"]) == 3 for r in records)


def test_enumerate_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate", "--group", "zp2", "--p", "3")
    _, out2, _ = run(capsys, "enumerate", "--group", "zp2", "--p", "3")
    assert out1 == out2
    _, out3, _ = run(capsys, "enumerate", "--group", "zp2", "--p", "3", "--jobs", "2")
    assert out1 == out3


def test_export_then_verify(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, _ = run(
        capsys, "export", "--group", "zp2", "--p", "2", "--out", str(out_dir)
    )
    assert code == EXIT_OK
    files = sorted(out_dir.iterdir())
    assert len(files) == 9
    assert files[0].name.startswith("0000_case1.")
    combined = tmp_path / "all.txt"
    combined.write_text("".join(f.read_text() for f in files))
    assert len(tables_from_text(combined.read_text())) == 9

    code, out, _ = run(capsys, "verify", "--in", str(combined))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all("latin=yes" in line and "medial=yes" in line for line in lines)


def test_verify_flags_non_latin(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n0 0\n")
    code, out, _ = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_OK
    assert "latin=no" in out


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_USAGE
    assert "truncated" in err


@pytest.mark.parametrize("text", ["0\n", "-3\n" + "x " * 9])
def test_verify_rejects_an_order_below_one_before_any_cell(tmp_path, capsys, text):
    # the cells are words: reading any of them would fail with another message
    path = tmp_path / "tables.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_USAGE
    order = text.split()[0]
    assert f"tables of order {order} are below the bound n >= 1" in err
    assert "truncated" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("enumerate", "--group", "zp2", "--p", "11"),
            "02190f9762cde0a2ee361a9556776fc30f8dd8b349a8437712712bb6118f05a9",
        ),
        (
            ("enumerate", "--group", "cyclic", "--p", "17", "--k", "2"),
            "f3f707f8c0b6d03b8880ea198dd7d76a89eb41e549876287a556ab50c06f2369",
        ),
        (
            ("enumerate", "--group", "zp2", "--p", "5", "--format", "text"),
            "464cb21367a4007d1676212d8fe589da8d14367d36db78965a92482120775d89",
        ),
        (
            ("enumerate", "--group", "cyclic", "--p", "7", "--k", "2", "--tables"),
            "634401c4e1949cddb4792f24fec3d458e225e74a20510dbca42f3ef4a69ae60e",
        ),
    ],
    ids=["zp2-11", "cyclic-17-2", "zp2-5-text", "cyclic-7-2-tables"],
)
def test_full_size_enumerations_print_the_pinned_bytes(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_crosscheck_z2p2(capsys):
    code, out, _ = run(capsys, "crosscheck", "--group", "zp2", "--p", "2")
    assert code == EXIT_OK
    assert "9 = 9 OK" in out
    assert "bijective" in out
    summary = json.loads(next(l for l in out.splitlines() if l.startswith("{")))
    assert summary["classes"] == 9
    assert sum(summary["class_sizes"]) == 72


def test_crosscheck_z4(capsys):
    code, out, _ = run(capsys, "crosscheck", "--group", "cyclic", "--p", "2", "--k", "2")
    assert code == EXIT_OK
    assert "4 = 4 OK" in out


@pytest.mark.parametrize("p, k, classes", [(11, 1, 109), (13, 1, 155), (2, 4, 64)])
def test_crosscheck_reaches_the_isomorphism_cap(capsys, p, k, classes):
    code, out, _ = run(capsys, "crosscheck", "--group", "cyclic", "--p", str(p), "--k", str(k))
    assert code == EXIT_OK
    assert classes == closed_form_cyclic(p, k)
    assert out.endswith(f"representative-to-class match: bijective\n{classes} = {classes} OK\n")


def test_crosscheck_oversize(capsys):
    for argv in (["--group", "zp2", "--p", "5"], ["--group", "cyclic", "--p", "17"]):
        code, out, err = run(capsys, "crosscheck", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "exceeds the oracle cap 16" in err


def test_interpolate_cyclic(capsys):
    code, out, _ = run(
        capsys, "interpolate", "--series", "cyclic", "--k", "1", "--primes", "3"
    )
    assert code == EXIT_OK
    assert "(2, 1) (3, 5) (5, 19)" in out
    assert "f(x) = x^2 - x - 1" in out
    assert "coefficients: integer" in out


def test_interpolate_zp2_small(capsys):
    code, out, _ = run(capsys, "interpolate", "--series", "zp2", "--primes", "2")
    assert code == EXIT_OK
    assert "(2, 9) (3, 68)" in out


def test_interpolate_too_many_primes(capsys):
    code, _, _ = run(capsys, "interpolate", "--series", "zp2", "--primes", "9")
    assert code == EXIT_USAGE


def test_jobs_below_one_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "never"
    for command in (
        ["enumerate", "--group", "zp2", "--p", "2"],
        ["export", "--group", "zp2", "--p", "2", "--out", str(out_dir)],
        ["crosscheck", "--group", "zp2", "--p", "2"],
    ):
        for jobs in ("0", "-4", "x", "1.5"):
            code, out, err = run(capsys, *command, "--jobs", jobs)
            assert code == EXIT_USAGE
            assert f"argument --jobs: must be an integer >= 1, got {jobs!r}" in err
            assert "_jobs" not in err
            assert out == ""
    assert not out_dir.exists()


def test_count_huge_composite_fails_fast(capsys):
    import time

    start = time.perf_counter()
    code, _, err = run(capsys, "count", "--group", "n", "--n", "1000000000000000003")
    assert time.perf_counter() - start < 2
    assert code == EXIT_USAGE
    assert "exceeds the supported cap 1000000000000" in err


@pytest.mark.parametrize(
    "argv", [["--group", "n", "--n", "32771"], ["--group", "cyclic", "--p", "32771"]], ids=["n", "cyclic"]
)
def test_count_stops_at_the_prime_cap(capsys, argv):
    # 32771 is prime, and both orders are within MAX_COMPOSITE_ORDER; the prime cap binds first
    code, out, err = run(capsys, "count", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: prime 32771 exceeds the supported cap 32768\n"


def test_interpolate_cyclic_names_the_enumeration_bound(capsys):
    import time

    start = time.perf_counter()
    code, _, err = run(capsys, "interpolate", "--series", "cyclic", "--primes", "30000")
    assert time.perf_counter() - start < 2
    assert code == EXIT_USAGE
    assert "p^k <= 300 (62 primes)" in err
    assert "32768" not in err
    code, _, err = run(capsys, "interpolate", "--series", "cyclic", "--k", "2", "--primes", "8")
    assert code == EXIT_USAGE
    assert "k = 2" in err and "(7 primes)" in err  # 2, 3, 5, 7, 11, 13, 17: 17^2 = 289


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group", "zp2", "--p", "2", "--k", "5"],
        ["export", "--group", "zp2", "--p", "2", "--k", "2", "--out", "{tmp}/never"],
        ["crosscheck", "--group", "zp2", "--p", "2", "--k", "3"],
        ["count", "--group", "zp2", "--p", "3", "--k", "2"],
        ["count", "--group", "order-p2", "--p", "3", "--k", "3"],
        ["count", "--group", "n", "--n", "12", "--k", "9"],
        ["interpolate", "--series", "zp2", "--k", "7", "--primes", "2"],
        ["interpolate", "--series", "order-p2", "--k", "2", "--primes", "2"],
    ],
)
def test_exponent_without_a_cyclic_group_is_rejected(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_USAGE
    assert "--k applies only to cyclic groups" in err
    assert out == ""
    assert not (tmp_path / "never").exists()


def test_prime_with_group_n_is_rejected(capsys):
    code, out, err = run(capsys, "count", "--group", "n", "--n", "12", "--p", "5")
    assert code == EXIT_USAGE
    assert "--p does not apply to --group n" in err
    assert out == ""


def test_order_without_group_n_is_rejected(capsys):
    code, out, err = run(capsys, "count", "--group", "cyclic", "--p", "3", "--n", "7")
    assert code == EXIT_USAGE
    assert "--n applies only to --group n" in err
    assert out == ""


def test_tables_with_text_format_is_rejected(capsys):
    code, out, err = run(
        capsys, "enumerate", "--group", "zp2", "--p", "2", "--tables", "--format", "text"
    )
    assert code == EXIT_USAGE
    assert "--tables needs --format jsonl" in err
    assert out == ""


def test_cyclic_k_alias_is_gone(capsys):
    code, out, _ = run(capsys, "interpolate", "--series", "cyclic-k", "--primes", "2")
    assert code == EXIT_USAGE
    assert out == ""


def test_rank2_series_names_its_bound(capsys):
    code, _, err = run(capsys, "interpolate", "--series", "order-p2", "--primes", "6")
    assert code == EXIT_USAGE
    assert "p <= 11 (5 primes)" in err


def refuse_work(monkeypatch):
    """Make every expensive step of the CLI fail the test if it is reached, where the CLI reads it."""
    from medialq import cli, quasigroup

    def refuse(*args, **kwargs):
        raise AssertionError("work started on an input over a bound")

    for name in ("enumerate_blocks", "_block_tables"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("is_latin", "is_medial"):  # `verify` imports them when it runs
        monkeypatch.setattr(quasigroup, name, refuse)


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["enumerate", "--group", "zp2", "--p", "101"], "p <= 13"),
        (["enumerate", "--group", "zp2", "--p", "17", "--jobs", "2"], "p <= 13"),
        (["export", "--group", "zp2", "--p", "17", "--out", "{tmp}/never"], "p <= 13"),
        (["enumerate", "--group", "cyclic", "--p", "2", "--k", "15"], "p^k <= 1024"),
        (["enumerate", "--group", "cyclic", "--p", "2", "--k", "11"], "p^k <= 1024"),
        (["enumerate", "--group", "cyclic", "--p", "1031"], "p^k <= 1024"),
        (["enumerate", "--group", "cyclic", "--p", "3", "--k", "1000000000"], "p^k <= 1024"),
        (["export", "--group", "cyclic", "--p", "2", "--k", "15", "--out", "{tmp}/never"],
         "p^k <= 1024"),
        (["enumerate", "--group", "cyclic", "--p", "2", "--k", "7", "--tables"], "n <= 81"),
        (["export", "--group", "zp2", "--p", "11", "--out", "{tmp}/never"], "n <= 81"),
        (["export", "--group", "cyclic", "--p", "83", "--out", "{tmp}/never"], "n <= 81"),
    ],
)
def test_over_bound_input_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv, bound):
    refuse_work(monkeypatch)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_USAGE
    assert f"bound {bound}" in err
    assert out == ""
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "argv, order",
    [
        (["enumerate", "--group", "zp2", "--p", "13"], 169),
        (["enumerate", "--group", "cyclic", "--p", "2", "--k", "10"], 1024),
        (["enumerate", "--group", "cyclic", "--p", "3", "--k", "6"], 729),
        (["enumerate", "--group", "cyclic", "--p", "31", "--k", "2"], 961),
        (["enumerate", "--group", "cyclic", "--p", "1021"], 1021),
        (["enumerate", "--group", "cyclic", "--p", "3", "--k", "4", "--tables"], 81),
        (["export", "--group", "cyclic", "--p", "3", "--k", "4", "--out", "{tmp}/out"], 81),
    ],
)
def test_inputs_at_a_bound_are_admitted(tmp_path, capsys, monkeypatch, argv, order):
    # the enumeration is replaced by an empty block stream, so nothing at the bound runs
    from medialq import cli

    groups = []

    def no_blocks(G):
        groups.append(G)
        return (block for block in ())

    refuse_work(monkeypatch)
    monkeypatch.setattr(cli, "enumerate_blocks", no_blocks)
    code, _, _ = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_OK
    assert [G.order for G in groups] == [order]


NUMBERS = ["-4", "0", "1", "2", "3", "7", "13", "17", "83", "1021", "1031", "32771",
           "1000000000000", str(10 ** 30), "x"]
GROUPS = ["zp2", "cyclic", "order-p2", "n", "q"]
PATHS = ["{tmp}/absent", "{tmp}/table.txt", "{tmp}/words.txt", "{tmp}"]
FLAGS = {  # subcommand -> flag -> values, or None for a switch
    "count": {"--group": GROUPS, "--p": NUMBERS, "--k": NUMBERS, "--n": NUMBERS},
    "enumerate": {"--group": GROUPS, "--p": NUMBERS, "--k": NUMBERS, "--jobs": NUMBERS,
                  "--format": ["jsonl", "text", "csv"], "--tables": None},
    "export": {"--group": GROUPS, "--p": NUMBERS, "--k": NUMBERS, "--jobs": NUMBERS,
               "--out": PATHS},
    "verify": {"--in": PATHS},
    "crosscheck": {"--group": GROUPS, "--p": NUMBERS, "--k": NUMBERS, "--jobs": NUMBERS},
    "interpolate": {"--series": GROUPS, "--k": NUMBERS, "--primes": NUMBERS},
}


@st.composite
def command_lines(draw):
    """A subcommand with any subset of its flags, each with a small, zero, negative, huge or bad value."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), unique=True)):
        values = FLAGS[command][flag]
        argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_every_command_line_ends_in_an_exit_code_and_at_most_one_error_line(
    tmp_path, capsys, monkeypatch, argv
):
    refuse_work(monkeypatch)
    (tmp_path / "table.txt").write_text("2\n0 1\n1 0\n")
    (tmp_path / "words.txt").write_text("2\nx y\n")
    try:
        code = main([a.format(tmp=tmp_path) for a in argv])
    except AssertionError as exc:
        # refuse_work: the input passed every check, and no error was reported first
        assert str(exc) == "work started on an input over a bound"
        code = None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = sum(line.startswith("error:") for line in err.splitlines())
    assert errors == (1 if code == EXIT_USAGE else 0)
    assert code in (None, EXIT_OK, EXIT_USAGE, EXIT_MISMATCH)


def test_verify_checks_every_order_before_printing(tmp_path, capsys, monkeypatch):
    refuse_work(monkeypatch)
    n = 82
    big = "\n".join([str(n)] + [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)])
    path = tmp_path / "tables.txt"
    path.write_text("2\n0 1\n1 0\n" + big + "\n")
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_USAGE
    assert "tables of order 82 exceed the bound n <= 81" in err
    assert out == ""


def test_verify_rejects_an_oversized_table_as_its_order_is_read(tmp_path, capsys, monkeypatch):
    from medialq import quasigroup

    refuse_work(monkeypatch)
    built = []
    real = quasigroup.CayleyTable
    monkeypatch.setattr(
        quasigroup, "CayleyTable", lambda n, cells: built.append(n) or real(n, cells)
    )
    # the cells of the order-1000 table are words: parsing any of them would
    # fail with another message
    path = tmp_path / "tables.txt"
    path.write_text("2\n0 1\n1 0\n1000\n" + "x " * 10 ** 6)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_USAGE
    assert "tables of order 1000 exceed the bound n <= 81" in err
    assert out == ""
    assert built == [2]


def test_verify_holds_one_table_at_a_time(tmp_path, monkeypatch):
    # Held until the first line, every parsed order-1 table adds about 250
    # bytes of peak; read one at a time, only the text grows, 4 bytes a
    # table.  The table checks are stubbed, to keep the test short.
    from medialq import quasigroup

    class Lines:
        def __init__(self):
            self.count = 0

        def write(self, s):
            self.count += s.count("\n")
            return len(s)

        def flush(self):
            pass

    monkeypatch.setattr(quasigroup, "is_latin", lambda t: True)
    monkeypatch.setattr(quasigroup, "is_medial", lambda t: True)
    peaks = []
    for tables in (5000, 15000):
        path = tmp_path / f"{tables}.txt"
        path.write_text("1\n0\n" * tables)
        lines = Lines()
        monkeypatch.setattr(sys, "stdout", lines)
        tracemalloc.start()
        try:
            assert main(["verify", "--in", str(path)]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert lines.count == tables
    assert peaks[1] - peaks[0] < 1 << 20  # 10000 more tables; held, they took about 2.4 MB


def verify_in_a_process(path):
    # a child with a timeout and 1 GiB of address space: a read that blocks or
    # never ends fails the test, and cannot hang it or exhaust memory
    src = str(Path(medialq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "medialq.cli", "verify", "--in", str(path)],
        capture_output=True, text=True, timeout=30, env=env, preexec_fn=limit_memory,
    )


def test_verify_refuses_a_fifo_before_opening_it(tmp_path):
    fifo = tmp_path / "tables.fifo"
    os.mkfifo(fifo)  # no writer: opening it for reading would block
    run = verify_in_a_process(fifo)
    assert (run.returncode, run.stdout) == (EXIT_USAGE, "")
    assert run.stderr == f"error: {fifo} is not a regular file\n"
    # a path that cannot be stat'ed still reports the OSError
    run = verify_in_a_process(tmp_path / "missing.txt")
    assert (run.returncode, run.stdout) == (EXIT_USAGE, "")
    assert run.stderr.startswith("error: [Errno 2] No such file or directory:")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_verify_refuses_an_endless_device():
    run = verify_in_a_process("/dev/zero")
    assert (run.returncode, run.stdout) == (EXIT_USAGE, "")
    assert run.stderr == "error: /dev/zero is not a regular file\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "cyclic", "--p", "2", "--k", "40"],
        ["count", "--group", "cyclic", "--p", "10007", "--k", "3"],
        ["count", "--group", "cyclic", "--p", "2", "--k", "20000"],
        ["count", "--group", "cyclic", "--p", "3", "--k", "10000000000"],
    ],
)
def test_count_cyclic_over_its_bound_is_rejected_before_any_work(capsys, monkeypatch, argv):
    from medialq import cli

    refuse_work(monkeypatch)
    monkeypatch.setattr(cli, "closed_form_cyclic", cli.enumerate_blocks)  # now a refusing stub
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "bound p^k <= 1000000000000" in err
    assert out == ""


@pytest.mark.parametrize(
    "p, k", [(2, 39), (9973, 3)]  # 2^39 and 9973^3 are at most 10^12, 2^40 and 10007^3 above
)
def test_count_cyclic_at_its_bound_is_admitted(capsys, monkeypatch, p, k):
    from medialq.enumeration import closed_form_cyclic

    refuse_work(monkeypatch)  # orders above 300 are not enumerated
    code, out, _ = run(capsys, "count", "--group", "cyclic", "--p", str(p), "--k", str(k))
    assert code == EXIT_OK
    assert out == f"mq(Z_{p}^{k}) = {closed_form_cyclic(p, k)}  [closed form; enumeration skipped]\n"


class GuardedPrime(int):
    """A prime whose power fails the test for an exponent above 64, before any big number exists."""

    def __pow__(self, k, mod=None):
        if k > 64:
            raise AssertionError(f"{int(self)}^{k} was computed")
        return pow(int(self), k, mod)


def guard_primes(monkeypatch):
    from medialq import cli

    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    monkeypatch.setattr(cli, "_primes", lambda: (GuardedPrime(q) for q in small))


@pytest.mark.parametrize(
    "k, primes, supported", [("9", "1", 0), ("10000000000", "1", 0), ("5", "3", 2)]
)
def test_interpolate_cyclic_bounds_a_huge_exponent_before_any_power(
    capsys, monkeypatch, k, primes, supported
):
    refuse_work(monkeypatch)
    guard_primes(monkeypatch)
    code, out, err = run(capsys, "interpolate", "--series", "cyclic", "--k", k, "--primes", primes)
    assert code == EXIT_USAGE
    assert f"p^k <= 300 ({supported} primes)" in err
    assert out == ""


def test_interpolate_cyclic_at_its_bound_is_admitted(capsys, monkeypatch):
    from medialq import cli

    orders = []

    def no_blocks(G):
        orders.append(G.order)
        return iter(())

    guard_primes(monkeypatch)
    monkeypatch.setattr(cli, "enumerate_blocks", no_blocks)
    code, _, _ = run(capsys, "interpolate", "--series", "cyclic", "--k", "8", "--primes", "1")
    assert code == EXIT_OK
    assert orders == [256]


def test_export_to_an_unusable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # --out names an existing file: rejected before the enumeration starts
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    with monkeypatch.context() as m:
        refuse_work(m)
        code, out, err = run(capsys, "export", "--group", "zp2", "--p", "2", "--out", str(taken))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and str(taken) in err
    assert out == "" and "Traceback" not in err
    # a table file that cannot be written: its name is taken by a directory
    first = tmp_path / "first"
    assert run(capsys, "export", "--group", "zp2", "--p", "2", "--out", str(first))[0] == EXIT_OK
    blocked = tmp_path / "blocked"
    (blocked / min(f.name for f in first.iterdir())).mkdir(parents=True)
    code, out, err = run(capsys, "export", "--group", "zp2", "--p", "2", "--out", str(blocked))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and str(blocked) in err
    assert out == ""


@st.composite
def blocks(draw):
    """A phi block of either family, in codes, with any commuting psi, tags and c values."""
    if draw(st.booleans()):
        G = Cyclic(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 2)))
        autos, tags = units(G.p, G.k).tolist(), [CASE_TAG_CYCLIC]
        phi = draw(st.sampled_from(autos))
    else:
        G = ElemAbelianRank2(draw(st.sampled_from([2, 3, 5])))
        phi = int(draw(st.sampled_from(gl2_elements(G.p))))
        autos, tags = centralizer(G.p, phi).tolist(), CASE_TAGS_RANK2
    row = st.tuples(
        st.sampled_from(autos),
        st.sampled_from(tags),
        st.lists(st.sampled_from(G.elements()), min_size=1, max_size=4).map(tuple),
    )
    rows = draw(st.lists(row, max_size=4))
    psis = np.array([psi for psi, _, _ in rows], dtype=np.int64)
    return G, (phi, psis, tuple(tag for _, tag, _ in rows), tuple(cs for _, _, cs in rows))


@settings(max_examples=300, deadline=None)
@given(blocks(), st.booleans())
def test_block_templates_print_the_reference_bytes(gb, tables):
    from medialq import cli

    G, block = gb
    jsonl = text = ""
    for t in block_triples(G, [block]):
        table = build_table(AffineForm(G, t.phi, t.psi, t.c)) if tables else None
        jsonl += json.dumps(jsonl_record(G, t, table)) + "\n"
        r = jsonl_record(G, t)
        text += f"{r['case_tag']} phi={r['phi']} psi={r['psi']} c={r['c']}\n"
    assert cli._render_block(G, block, text=False, tables=tables) == jsonl
    assert cli._render_block(G, block, text=True, tables=False) == text


def test_the_first_line_is_written_before_the_enumeration_ends(monkeypatch):
    from medialq import cli

    events = []
    real = cli.enumerate_blocks

    def watched(G):
        for block in real(G):
            events.append("block")
            yield block
        events.append("end")

    class Stdout:
        def write(self, s):
            events.append("write")
            return len(s)

        def flush(self):
            pass

    monkeypatch.setattr(cli, "enumerate_blocks", watched)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["enumerate", "--group", "cyclic", "--p", "11"]) == EXIT_OK
    assert events == ["block", "write"] * 10 + ["end"]  # one block and one write per unit phi


def pinned(argv):
    expected = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
    return expected["stdout"].get(" ".join(argv + ["--jobs", "1"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group", "cyclic", "--p", "11", "--k", "2"],
        ["enumerate", "--group", "zp2", "--p", "7"],
        ["enumerate", "--group", "zp2", "--p", "5", "--format", "text"],
        ["enumerate", "--group", "cyclic", "--p", "3", "--k", "2", "--tables"],
        ["crosscheck", "--group", "cyclic", "--p", "3", "--k", "2"],
    ],
)
def test_output_at_two_jobs_is_byte_identical(capsys, argv):
    code, one, _ = run(capsys, *argv, "--jobs", "1")
    assert code == EXIT_OK
    code, two, _ = run(capsys, *argv, "--jobs", "2")
    assert code == EXIT_OK
    assert two == one
    if pinned(argv):
        assert hashlib.sha256(one.encode()).hexdigest() == pinned(argv)


def test_help_says_what_jobs_does(capsys):
    for command in ("enumerate", "export", "crosscheck"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == EXIT_OK
        says = "at most N processes (N >= 1): this command runs in one at any N"
        assert says in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "G, group",
    [
        (ElemAbelianRank2(3), ["--group", "zp2", "--p", "3"]),
        (Cyclic(3, 2), ["--group", "cyclic", "--p", "3", "--k", "2"]),
    ],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_streamed_export_writes_the_reference_files(tmp_path, capsys, G, group, jobs):
    code, out, _ = run(capsys, "export", *group, "--out", str(tmp_path), "--jobs", jobs)
    assert code == EXIT_OK
    want = {
        f"{i:04d}_{t.case_tag}.txt": to_text(build_table(AffineForm(G, t.phi, t.psi, t.c)))
        for i, t in enumerate(enumerate_forms(G).triples)
    }
    assert {f.name: f.read_text() for f in tmp_path.iterdir()} == want
    assert out == f"wrote {len(want)} tables to {tmp_path}\n"


def test_python_dash_m_medialq_runs_the_cli():
    src = str(Path(medialq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "medialq", "count", "--group", "n", "--n", "6"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert "mq(6) = 5" in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, lines",
    [
        # the reader takes one line of a million and closes the pipe, as `| head -1` does
        (["enumerate", "--group", "cyclic", "--p", "1021", "--jobs", "1"], 1),
        (["enumerate", "--group", "cyclic", "--p", "1021", "--jobs", "2"], 1),
        # the reader is gone before any line: the output waits in the buffer until the end
        (["enumerate", "--group", "zp2", "--p", "2"], 0),
        (["count", "--group", "n", "--n", "12"], 0),
    ],
)
def test_a_closed_stdout_ends_the_run_with_one_error_line(argv, lines):
    src = str(Path(medialq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as it is by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "medialq.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait()
    assert all(line.startswith(b'{"group": "cyclic:p=1021,k=1", ') for line in read)
    assert proc.returncode == EXIT_USAGE
    assert err.decode() == "error: stdout was closed: [Errno 32] Broken pipe\n"
    with pytest.raises(ProcessLookupError):  # no worker outlived the run
        os.killpg(proc.pid, 0)
