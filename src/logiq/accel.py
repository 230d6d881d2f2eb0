"""Kept only for the benchmark harness, which stamps ``NUMBA_ENABLED`` into
every record.  The kernels have one pure-Python path and nothing in the
package imports this module; it goes once the harness records its stamp
without it.
"""

NUMBA_ENABLED = False
