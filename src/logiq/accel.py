"""Optional numba acceleration for the hot numeric kernels.

Set the environment variable ``LOGIQ_NO_NUMBA=1`` (before import) to run the
pure numpy/Python fallback path instead of the jitted kernels.  Both paths
execute the same source; ``tests/test_kernels.py`` compares their results.
"""

import os

NUMBA_ENABLED = os.environ.get("LOGIQ_NO_NUMBA", "").strip() not in ("1", "true", "yes")

if NUMBA_ENABLED:
    try:
        import numba
    except ImportError:  # pragma: no cover
        numba = None
        NUMBA_ENABLED = False


def maybe_jit(func):
    """Return an njit-compiled version of ``func``, or ``func`` itself when
    numba is disabled. The undecorated function stays reachable as
    ``wrapped.py_func`` on both paths."""
    if not NUMBA_ENABLED:
        func.py_func = func
        return func
    return numba.njit(func, cache=True)
