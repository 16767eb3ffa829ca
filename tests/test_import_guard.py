"""No module builds code at import, the CLI loads the oracle and the tables only in the commands that use them, and the oracle never loads the enumeration.

`dataclasses`, `collections.namedtuple` and `typing.NamedTuple` generate
each class's methods by compiling source when the module is imported, which
every CLI process pays at start-up; the value classes are written out on
`fp._Frozen` instead.  `cli.py` imports `.oracle` and `.quasigroup` inside
the commands that use them, never at module level.  `oracle.py` imports
`.enumeration` nowhere, not even inside a function: the oracle consults no
affine theory, so its agreement with the enumerator is a cross-check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "medialq").glob("*.py"))
# (module, name) pairs that generate code at import; a name of None is the whole module
CODE_GENERATORS = {("dataclasses", None), ("collections", "namedtuple"), ("typing", "NamedTuple")}
DEFERRED = {"oracle", "quasigroup"}  # modules of the package that cli.py imports only in a command


def code_generator_imports(sources) -> list:
    """`module: what` for each use of a code generator, an import of it or an attribute read of it, sorted."""
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                used = [alias.name for alias in node.names if (alias.name, None) in CODE_GENERATORS]
            elif isinstance(node, ast.ImportFrom):
                used = [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if (node.module, None) in CODE_GENERATORS or (node.module, alias.name) in CODE_GENERATORS
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = [f"{node.value.id}.{node.attr}"] if (node.value.id, node.attr) in CODE_GENERATORS else []
            else:
                used = []
            found += [f"{path.name}: {name}" for name in used]
    return sorted(found)


def module_level(tree):
    """Every node that runs when the module is imported: all but the bodies of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def package_imports(nodes, modules) -> list:
    """The package modules among `modules` that the import statements among `nodes` load, sorted."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("medialq")):
            found |= modules & ({*(node.module or "").split(".")} | {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            parts = {part for alias in node.names if alias.name.startswith("medialq.") for part in alias.name.split(".")}
            found |= modules & parts
    return sorted(found)


def eager_imports(path) -> list:
    """The package modules of DEFERRED that `path` imports at module level, sorted."""
    return package_imports(module_level(ast.parse(path.read_text(), str(path))), DEFERRED)


def theory_imports(path) -> list:
    """`["enumeration"]` if `path` imports the enumeration anywhere, function bodies included, else `[]`."""
    return package_imports(ast.walk(ast.parse(path.read_text(), str(path))), {"enumeration"})


def test_no_module_imports_a_code_generator():
    assert code_generator_imports(SOURCES) == []


def test_the_cli_imports_the_oracle_and_the_tables_only_inside_commands():
    assert eager_imports(ROOT / "src" / "medialq" / "cli.py") == []


def test_the_oracle_imports_nothing_from_the_enumeration():
    assert theory_imports(ROOT / "src" / "medialq" / "oracle.py") == []


def test_the_guards_see_every_module_and_flag_offending_source(tmp_path):
    assert {path.name for path in SOURCES} >= {"cli.py", "fp.py", "groups.py", "gl2.py", "oracle.py"}
    extra = tmp_path / "extra.py"
    extra.write_text(
        "import collections\nimport dataclasses as dc\nfrom typing import NamedTuple, Union\n"
        "from .oracle import classify\nimport medialq.quasigroup\n\n"
        "Pair = collections.namedtuple('Pair', 'a b')\n\n\n"
        "def command():\n    from . import oracle\n    from dataclasses import dataclass\n"
    )
    assert code_generator_imports([extra]) == [
        "extra.py: collections.namedtuple",
        "extra.py: dataclasses",
        "extra.py: dataclasses.dataclass",
        "extra.py: typing.NamedTuple",
    ]
    assert eager_imports(extra) == ["oracle", "quasigroup"]
    extra.write_text("def command():\n    from .oracle import classify\n    from .quasigroup import is_latin\n")
    assert eager_imports(extra) == []
    assert theory_imports(extra) == []
    for source in ("from .enumeration import reps_x\n", "def pairs():\n    from . import enumeration\n",
                   "import medialq.enumeration\n"):
        extra.write_text(source)
        assert theory_imports(extra) == ["enumeration"]
