"""Every top-level name of the package, and every method and property of
its classes, has a reader outside the tests.

A name that only tests read is code kept alive by its own tests: move it
into `tests/helpers.py` or delete it.  A private name that nothing reads
is a helper its last caller left behind.  Enum members and dataclass
fields are assignments in a class body, not methods, and are not
checked: an enum is read by iterating it, a field by the constructor.
Readers are the package's own modules (a load, an attribute or an import
of the name) and the benchmark harness, whose tracer names its targets
in strings such as `kpsca.attack:recover_scalar`, so any word of its
source counts.

An exception class is one failure category, which the CLI maps to one
exit code: no kpsca exception class derives from another.
"""

import ast
import importlib
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


def method_names(tree: ast.Module) -> set[str]:
    """Class.name of every method and property of the module's classes, but dunders."""
    return {f"{cls.name}.{node.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__")}


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


def package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def reader_words(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the package reads, and every word of the benchmark harness."""
    read = set().union(*map(read_names, trees.values()))
    return read | set(re.findall(r"\w+", "".join(p.read_text() for p in PERFBENCH.glob("*.py"))))


def unread_names() -> list[str]:
    """module:name of every top-level name that nothing outside the tests reads."""
    trees = package_trees()
    defined = {(module, name) for module, tree in trees.items() for name in defined_names(tree)}
    assert len(defined) > 120  # the walk found the package
    words = reader_words(trees)
    return sorted(f"{module}:{name}" for module, name in defined if name not in words)


def test_every_public_name_has_a_reader_outside_the_tests():
    assert [n for n in unread_names() if not n.split(":")[1].startswith("_")] == []


def test_every_private_name_has_a_reader_outside_the_tests():
    assert [n for n in unread_names() if n.split(":")[1].startswith("_")] == []


def test_every_method_and_property_has_a_reader_outside_the_tests():
    """A method or property is read as an attribute (`x.name`); a method
    that only a test calls fails here, whatever its class."""
    trees = package_trees()
    methods = {(module, name) for module, tree in trees.items() for name in method_names(tree)}
    assert len(methods) > 20  # the walk found the classes
    words = reader_words(trees)
    assert sorted(f"{module}:{name}" for module, name in methods
                  if name.split(".")[1] not in words) == []


def test_no_exception_class_derives_from_another():
    """A subclass of a kpsca error would be a category that only a test tells apart."""
    modules = [importlib.import_module(f"kpsca.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    errors = {value for module in modules for value in vars(module).values()
              if isinstance(value, type) and issubclass(value, BaseException)
              and value.__module__ == module.__name__}
    assert len(errors) >= 4  # the walk found the package's errors
    assert sorted(f"{e.__module__}:{e.__name__}" for e in errors
                  if errors.intersection(e.__mro__[1:])) == []
