"""Every top-level name of the package has a reader outside the tests.

A name that only tests read is code kept alive by its own tests: move it
into `tests/helpers.py` or delete it.  A private name that nothing reads
is a helper its last caller left behind.  Readers are the package's own
modules (a load, an attribute or an import of the name) and the benchmark
harness, whose tracer names its targets in strings such as
`kpsca.attack:recover_scalar`, so any word of its source counts.
"""

import ast
import re
from pathlib import Path

import kpsca

SRC = Path(kpsca.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_names() -> list[str]:
    """module:name of every top-level name that nothing outside the tests reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {(module, name) for module, tree in trees.items() for name in defined_names(tree)}
    assert len(defined) > 120  # the walk found the package
    read = set().union(*map(read_names, trees.values()))
    bench_words = set(re.findall(r"\w+", "".join(p.read_text() for p in PERFBENCH.glob("*.py"))))
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in read and name not in bench_words)


def test_every_public_name_has_a_reader_outside_the_tests():
    assert [n for n in unread_names() if not n.split(":")[1].startswith("_")] == []


def test_every_private_name_has_a_reader_outside_the_tests():
    assert [n for n in unread_names() if n.split(":")[1].startswith("_")] == []
