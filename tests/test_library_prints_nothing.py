"""Library code does not print: only the CLI writes to stdout.

Diagnostics of library modules go through return values, exceptions or
`logging`, so a caller that embeds them controls its own output.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kpsca"
LIBRARY = sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py")


def print_calls(path):
    """Line numbers of every call of the builtin name `print` in a file."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_does_not_print(module):
    assert print_calls(SRC / module) == []


def test_scan_sees_the_modules_and_the_cli_prints():
    # an empty parametrisation, or a scan that finds nothing, would pass vacuously
    assert {"attack.py", "curve.py", "traces.py"} <= set(LIBRARY)
    assert print_calls(SRC / "cli.py")
