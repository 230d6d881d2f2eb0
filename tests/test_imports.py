"""Every import in the package modules and the tests is used, and every
private name the package binds at module level is read somewhere in the
package (the stdlib ``ast`` stands in for a linter).  The package's
``__init__.py`` is skipped for imports: its imports are the re-exports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "logiq"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source):
    """Names bound by import statements in ``source`` that no name or
    attribute chain in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    src = "import math\nimport os\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(src) == [(1, "math"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source):
    """(line, name) of each private name (one leading underscore) that a
    top-level def, class or assignment in ``source`` binds."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def read_names(source):
    """The names that ``source`` reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_finds_a_dead_private_name():
    src = ("_A = 1\n_b, c = 2, 3\n\n\ndef _f():\n    return _A\n\n\n"
           "class _K:\n    pass\n\n\nprint(c)\n")
    assert private_definitions(src) == [(1, "_A"), (2, "_b"), (5, "_f"),
                                        (9, "_K")]
    assert {"_A", "c", "print"} <= read_names(src)
    assert not {"_b", "_f", "_K"} & read_names(src)


def test_private_names_are_read():
    package = sorted(SRC.glob("*.py"))
    read = set().union(*(read_names(p.read_text()) for p in package))
    dead = [(p.name, line, name) for p in package
            for line, name in private_definitions(p.read_text())
            if name not in read]
    assert dead == []
