"""No module builds code at import, the CLI loads the oracle and the tables only in the commands that use them, and the oracle never loads the enumeration.

`dataclasses`, `collections.namedtuple` and `typing.NamedTuple` generate
each class's methods by compiling source when the module is imported, which
every CLI process pays at start-up; the value classes are written out on
`fp._Frozen` instead.  `cli.py` imports `.oracle` and `.quasigroup` inside
the commands that use them, never at module level.  `oracle.py` imports
`.enumeration` nowhere, not even inside a function: the oracle consults no
affine theory, so its agreement with the enumerator is a cross-check.

Both group families are (Z_q)^r under r x r matrices over Z_q, and share one
arithmetic.  A test of the family, `isinstance(..., Cyclic)` or
`ElemAbelianRank2`, stays only at the sites of FAMILY_BRANCHES, each with
its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "medialq").glob("*.py"))
# (module, name) pairs that generate code at import; a name of None is the whole module
CODE_GENERATORS = {("dataclasses", None), ("collections", "namedtuple"), ("typing", "NamedTuple")}
DEFERRED = {"oracle", "quasigroup"}  # modules of the package that cli.py imports only in a command
FAMILIES = {"Cyclic", "ElemAbelianRank2"}
# module.function of each test of the group family, with its reason
FAMILY_BRANCHES = {
    "gl2._codes": "object layer: a map of G is a `Unit` of its modulus or a `Mat2` over its field",
    "gl2._automorphisms": "object layer: a code becomes the `Unit` or the `Mat2` of its family",
    "gl2._shown": "printing: a message shows an automorphism as its `Unit` or `Mat2` prints, singular ones too",
    "groups.quotient_cosets": "object layer: a `Unit` acts on G by its modulus, a `Mat2` by its field",
    "enumeration.EnumerationReport.__init__": "vocabulary: each family has its own case tags",
    "enumeration.group_label": "output format: each family has its own label",
    "cli._render_block": "output format: a residue prints as an int, a matrix as its entry list, an element as a pair",
    "enumeration.reps_x": "Aut(Z_{p^k}) is abelian: every unit is its own class, and no transversal needs a check",
    "enumeration._block": "Aut(Z_{p^k}) is abelian: every stabilizer is all of it, so c representatives depend on 1 - phi - psi alone",
}


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


def family_branches(sources) -> list:
    """`module.function` of each `isinstance` call that names a group family, one per call, sorted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and any(
                    getattr(n, "id", None) in FAMILIES or getattr(n, "attr", None) in FAMILIES
                    for n in ast.walk(child.args[1])
                )
            ):
                found.append(scope)
            visit(child, inner)

    for path in sources:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return sorted(found)


def test_no_module_imports_a_code_generator():
    assert code_generator_imports(SOURCES) == []


def test_the_cli_imports_the_oracle_and_the_tables_only_inside_commands():
    assert eager_imports(ROOT / "src" / "medialq" / "cli.py") == []


def test_the_oracle_imports_nothing_from_the_enumeration():
    assert theory_imports(ROOT / "src" / "medialq" / "oracle.py") == []


def test_every_family_branch_is_listed_with_its_reason():
    found = family_branches(SOURCES)
    assert [site for site in found if site not in FAMILY_BRANCHES] == []
    assert sorted(set(FAMILY_BRANCHES) - set(found)) == []  # no stale entry
    assert all(FAMILY_BRANCHES.values())


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
    extra.write_text(
        "from . import groups\nfrom .groups import Cyclic\n\n\nclass Report:\n"
        "    def tags(self, G):\n        return isinstance(G, (int, Cyclic))\n\n\n"
        "def label(G):\n    def inner():\n        return isinstance(G, groups.ElemAbelianRank2)\n\n"
        "    return isinstance(G, tuple) or isinstance(G, Cyclic | groups.ElemAbelianRank2) and inner()\n"
    )
    assert family_branches([extra]) == ["extra.Report.tags", "extra.label", "extra.label.inner"]
