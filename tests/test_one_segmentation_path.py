"""The attacker's side of the CLI cuts every trace in one place and reads no key.

`cli` calls `segment` only inside `_segment_from_cfg`, so `attack`, `welch`,
`bruteforce` and auth-demo's attacker all take the slot count from
--num-slots or from the trace's own length.  `_auth_demo` reads no
attribute `k` (the responder's private key is `Identity.k`), and it hands
`_segment_from_cfg` the trace without its ground truth, so the attack
learns nothing of the key from the responder's side.
"""

import ast
from pathlib import Path

import kpsca

CLI = ast.parse((Path(kpsca.__file__).resolve().parent / "cli.py").read_text())
FUNCTIONS = {node.name: node for node in CLI.body if isinstance(node, ast.FunctionDef)}


def calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every call in the tree of a function named `name`, bare or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_cli_segments_only_in_segment_from_cfg():
    assert len(calls(CLI, "segment")) == 1
    assert [name for name, fn in FUNCTIONS.items() if calls(fn, "segment")] == [
        "_segment_from_cfg"]


def test_auth_demo_reads_no_private_key():
    auth_demo = FUNCTIONS["_auth_demo"]
    assert [node.lineno for node in ast.walk(auth_demo)
            if isinstance(node, ast.Attribute) and node.attr == "k"] == []
    call, = calls(auth_demo, "_segment_from_cfg")
    assert [ast.unparse(arg) for arg in call.args] == ["cfg", "trace.without_ground_truth()"]


def test_every_trace_command_segments_through_it():
    wanted = {"_attack", "_welch", "_bruteforce", "_auth_demo"}
    assert {name for name, fn in FUNCTIONS.items() if calls(fn, "_segment_from_cfg")} == wanted
