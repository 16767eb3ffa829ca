"""What importing medialq, and running it, does to a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import medialq

SRC = str(Path(medialq.__file__).resolve().parents[1])
# The last line a probe prints: the OpenBLAS thread count, then whether a process pool module is loaded.
PROBE = (
    "import os, sys; {run}; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
    "any(m in sys.modules for m in ('concurrent.futures', 'multiprocessing')))"
)


def probe(run: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(run=run)],
        capture_output=True, text=True, timeout=60, env={**base, **env}, check=True,
    )
    return result.stdout.splitlines()[-1]


CROSSCHECK = ["crosscheck", "--group", "cyclic", "--p", "3", "--k", "2", "--jobs", "2"]


@pytest.mark.parametrize(
    "run",
    [
        pytest.param("import medialq", id="medialq"),
        pytest.param("import medialq.cli", id="medialq.cli"),
        pytest.param(f"from medialq.cli import main; assert main({CROSSCHECK!r}) == 0", id="crosscheck-jobs-2"),
    ],
)
def test_import_sets_one_openblas_thread_and_starts_no_pool_module(run):
    assert probe(run) == "1 False"


def test_a_thread_count_the_user_set_is_kept():
    assert probe("import medialq", OPENBLAS_NUM_THREADS="3") == "3 False"
