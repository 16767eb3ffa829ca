"""The package holds only what it calls or documents.

Every public function, class and method defined in `src/medialq` must be
referenced somewhere else in `src/medialq` (outside its own definition, and
not merely re-exported by an import), or be named in backticks in the
README, where the library's API is documented.  A name that only the tests
call belongs in `tests/reference.py`.
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


def test_every_public_name_is_called_in_the_package_or_named_in_the_readme():
    assert unused_public_names(SOURCES) == []


def test_the_scan_sees_every_module_and_flags_a_name_nothing_calls(tmp_path):
    assert {path.name for path in SOURCES} >= {"cli.py", "enumeration.py", "gl2.py", "groups.py", "oracle.py"}
    extra = tmp_path / "extra.py"
    extra.write_text("class Spare:\n    def unused_method(self):\n        return self.unused_method\n\n\ndef unused_helper():\n    pass\n")
    expected = ["extra.py: Spare", "extra.py: Spare.unused_method", "extra.py: unused_helper"]
    assert unused_public_names(SOURCES + [extra]) == expected
