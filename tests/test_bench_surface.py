"""The library names the benchmark harness in `perfbench/` relies on still exist.

The harness is read, never edited, here: a renamed or deleted public
function would otherwise fail only the traced benchmark run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_refs(filename, pattern):
    """(module, name) pairs a perfbench file reads as `module.name`."""
    text = (PERFBENCH / filename).read_text()
    return sorted(set(re.findall(pattern, text)))


# kpsca modules referenced as `module.name`, not as `self.module.name`
WORKLOAD_REFS = _module_refs(
    "workloads.py", r"(?<![\w.])(attack|cli|curve|gf2m|leaksim|traces)\.([A-Za-z_]\w*)"
)
RUN_RECORD_REFS = _module_refs("run.py", r"(_fastladder)\.([A-Za-z_]\w*)")


@pytest.mark.parametrize("target", _load_tracing().TARGETS)
def test_traced_targets_resolve(target):
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))


@pytest.mark.parametrize("module, name", WORKLOAD_REFS + RUN_RECORD_REFS)
def test_harness_names_resolve(module, name):
    assert hasattr(importlib.import_module(f"kpsca.{module}"), name)


def test_harness_refs_found():
    # an empty parametrisation would pass vacuously
    assert len(WORKLOAD_REFS) >= 10
    assert {name for _m, name in RUN_RECORD_REFS} == {"active_backend", "HAVE_NUMBA", "BACKEND_ENV"}
