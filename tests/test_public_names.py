"""The package holds only what it calls or documents.

Every public function, class and method defined in `src/medialq` must be
referenced somewhere else in `src/medialq` (outside its own definition, and
not merely re-exported by an import), or be named in backticks in the
README, where the library's API is documented.  A name that only the tests
call belongs in `tests/reference.py`.  A private module-level function,
class or constant (one leading underscore) must be read somewhere else in
`src/medialq`; the README does not excuse it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "medialq").glob("*.py"))


def references(tree) -> tuple:
    """Counters of the names read in a syntax tree, as bare names and as attributes; imports do not count."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def definitions(tree) -> list:
    """(qualified name, node, is a method) of every public module-level function and class, and every public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item, True)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def private_definitions(tree) -> list:
    """(name, node) of every private module-level function, class and assigned constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            names = []
        found += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def readme_names() -> set:
    """Every identifier the README shows as code: in a backtick span or in a fenced block."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.S | re.M))
    return {name for code in blocks + spans for name in re.findall(r"[A-Za-z_]\w*", code)}


def unused_public_names(sources) -> list:
    """`module: name` of each public definition that is neither read elsewhere in `sources` nor in the README.

    A method is read only as an attribute; a function or class as a name or an attribute.
    """
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sources}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = references(tree)
        names, attributes = names + tree_names, attributes + tree_attributes
    documented = readme_names()
    unused = []
    for module, tree in trees.items():
        for qualified, node, method in definitions(tree):
            name, (own_names, own_attributes) = node.name, references(node)  # reads in its own body do not count
            elsewhere = attributes[name] - own_attributes[name]
            if not method:
                elsewhere += names[name] - own_names[name]
            if elsewhere <= 0 and name not in documented:
                unused.append(f"{module}: {qualified}")
    return unused


def unused_private_names(sources) -> list:
    """`module: name` of each private module-level definition that nothing in `sources` reads outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sources}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = references(tree)
        names, attributes = names + tree_names, attributes + tree_attributes
    unused = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            own_names, own_attributes = references(node)  # an assignment's own target does not count
            if names[name] - own_names[name] + attributes[name] - own_attributes[name] <= 0:
                unused.append(f"{module}: {name}")
    return unused


def test_every_public_name_is_called_in_the_package_or_named_in_the_readme():
    assert unused_public_names(SOURCES) == []


def test_every_private_name_is_read_elsewhere_in_the_package():
    assert unused_private_names(SOURCES) == []


def test_the_scan_sees_every_module_and_flags_a_name_nothing_calls(tmp_path):
    assert {path.name for path in SOURCES} >= {"cli.py", "enumeration.py", "gl2.py", "groups.py", "oracle.py"}
    extra = tmp_path / "extra.py"
    extra.write_text(
        "class Spare:\n    def unused_method(self):\n        return self.unused_method\n\n\ndef unused_helper():\n    pass\n"
        "\n\ndef _unused_private(n):\n    return _unused_private(n - 1)\n"
    )
    expected = ["extra.py: Spare", "extra.py: Spare.unused_method", "extra.py: unused_helper"]
    assert unused_public_names(SOURCES + [extra]) == expected
    assert unused_private_names(SOURCES + [extra]) == ["extra.py: _unused_private"]
