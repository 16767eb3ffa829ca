"""What importing medialq, and running it, does to a fresh process."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medialq

SRC = str(Path(medialq.__file__).resolve().parents[1])
# A probe runs `run`, then prints `report` as its last line.
PROBE = "import os, sys; {run}; print({report})"
# The OpenBLAS thread count, then whether a process pool module is loaded.
THREADS_AND_POOL = (
    "os.environ.get('OPENBLAS_NUM_THREADS'), "
    "any(m in sys.modules for m in ('concurrent.futures', 'multiprocessing'))"
)


def probe(run: str, report: str = THREADS_AND_POOL, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(run=run, report=report)],
        capture_output=True, text=True, timeout=60, env={**base, **env}, check=True,
    )
    return result.stdout.splitlines()[-1]


def loaded(run: str, modules) -> str:
    """Which of `modules` a fresh process holds after `run`, as the list prints."""
    return probe(run, report=f"[m for m in {tuple(modules)!r} if m in sys.modules]")


CROSSCHECK = ["crosscheck", "--group", "cyclic", "--p", "3", "--k", "2", "--jobs", "2"]
ENUMERATE = ["enumerate", "--group", "cyclic", "--p", "3"]
# Code that `enumerate` and `count` never run: the oracle, the tables, and what
# builds classes or rationals at import.
UNUSED = ("medialq.oracle", "medialq.quasigroup", "dataclasses", "fractions")


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


@pytest.mark.parametrize(
    "run",
    [
        pytest.param("import medialq", id="medialq"),
        pytest.param("import medialq.cli", id="medialq.cli"),
        pytest.param(f"from medialq.cli import main; assert main({ENUMERATE!r}) == 0", id="enumerate"),
        pytest.param("from medialq.cli import main; assert main(['count', '--group', 'zp2', '--p', '3']) == 0", id="count"),
    ],
)
def test_a_command_that_builds_no_table_loads_no_table_or_oracle_code(run):
    assert loaded(run, UNUSED) == "[]"


def test_verify_loads_the_tables_and_not_the_oracle(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("2\n0 1\n1 0\n")
    run = f"from medialq.cli import main; assert main(['verify', '--in', {str(path)!r}]) == 0"
    assert loaded(run, ("medialq.oracle", "medialq.quasigroup")) == "['medialq.quasigroup']"


def test_crosscheck_loads_the_oracle():
    # the probe's other side: the modules a command uses are seen loaded
    run = f"from medialq.cli import main; assert main({CROSSCHECK!r}) == 0"
    assert loaded(run, UNUSED[:2]) == str(list(UNUSED[:2]))


# Every public name of the package, by defining module, as it was when its
# names came to be loaded on first use, less the object-taking entry points
# that nothing called (DELETED).  `os` and the modules themselves are public too.
EXPORTED = {
    "fp": ("MAX_PRIME", "Prime", "fp_inv", "is_irreducible_quadratic"),
    "groups": ("CosetList", "Cyclic", "ElemAbelianRank2", "GroupSpec", "quotient_cosets"),
    "gl2": ("Mat2", "Unit", "centralizer", "conj_class_reps", "conjugacy_partition", "units"),
    "quasigroup": (
        "AffineForm", "CayleyTable", "build_table", "count_idempotents", "is_latin", "is_medial", "to_json",
        "to_text",
    ),
    "enumeration": (
        "CASE_TAG_CYCLIC", "CASE_TAGS_RANK2", "EnumerationReport", "Polynomial", "RepresentativeTriple",
        "closed_form_cyclic", "closed_form_order_p2", "closed_form_zp2", "count_composite", "enumerate_blocks",
        "enumerate_forms", "group_label", "interpolate_count_polynomial", "orbit_reps_c", "reps_x", "reps_y",
        "stabilizer",
    ),
    "oracle": (
        "Fingerprint", "IsoClass", "all_affine_forms", "all_affine_tables", "assign_to_classes", "classify",
        "fingerprint",
    ),
}
DELETED = {
    "gl2": ("check_pair", "commutes", "gl2_elements"),
    "quasigroup": ("affine_tables", "tables_from_text"),
    "enumeration": ("block_triples",),
    "oracle": ("are_isomorphic",),
}
PUBLIC = {name for names in EXPORTED.values() for name in names} | set(EXPORTED) | {"os"}


def test_every_public_name_resolves_to_its_defining_modules_object():
    assert len(PUBLIC) == 54
    for module, names in EXPORTED.items():
        defining = importlib.import_module(f"medialq.{module}")
        for name in names:
            namespace = {}
            exec(f"from medialq import {name}", namespace)
            assert namespace[name] is getattr(defining, name), name
        assert getattr(medialq, module) is defining
    assert medialq.os is os


def test_dir_lists_the_public_names_and_an_unknown_name_raises():
    public = {name for name in dir(medialq) if not name.startswith("_")}
    assert public - PUBLIC <= {"cli"}  # a module of the package appears once imported
    assert PUBLIC <= public
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        medialq.no_such_name
    with pytest.raises(ImportError):
        exec("from medialq import no_such_name", {})
    for module, names in DELETED.items():
        defining = importlib.import_module(f"medialq.{module}")
        for name in names:
            assert not hasattr(defining, name) and not hasattr(medialq, name), name


def test_a_module_is_imported_when_one_of_its_names_is_first_read():
    run = "import medialq; before = 'medialq.oracle' in sys.modules; medialq.classify"
    assert probe(run, report="before, 'medialq.oracle' in sys.modules") == "False True"
