"""Backend names kept for the benchmark's run record.

kpsca has one Montgomery ladder, the pure-Python one in ``curve``.  No
kpsca module imports this file and nothing reads ``KPSCA_BACKEND``; the
three names below exist only because ``perfbench/run.py`` records them.
"""

HAVE_NUMBA = False
BACKEND_ENV = "KPSCA_BACKEND"


def active_backend() -> str:
    return "python"
