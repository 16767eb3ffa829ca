"""What importing medialq does to a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import medialq

SRC = str(Path(medialq.__file__).resolve().parents[1])
PROBE = (
    "import os, sys, {module}; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'concurrent.futures.process' in sys.modules)"
)


def probe(module: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        capture_output=True, text=True, timeout=60, env={**base, **env}, check=True,
    )
    return run.stdout.strip()


@pytest.mark.parametrize("module", ["medialq", "medialq.cli"])
def test_import_sets_one_openblas_thread_and_starts_no_pool_module(module):
    assert probe(module) == "1 False"


def test_a_thread_count_the_user_set_is_kept():
    assert probe("medialq", OPENBLAS_NUM_THREADS="3") == "3 False"
