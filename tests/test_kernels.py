"""``kernels.integrate_logistic`` called directly: on an input that takes it
through bins that reach the buffer's ceiling first and scanned bins after,
and for causality across bins.  Also the backlog the exact-bin scans carry
from one run to the next.  The other kernels are tested through fluid.py
and des.py."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import kernels


def logistic_args(rng, n=60):
    """An overloaded first third that fills the buffer, whose bins reach
    the ceiling, then an underloaded stretch in which the queue drains to 0
    and is scanned: its exponential drain underflows to 0 at this alpha."""
    x_vals = rng.uniform(0.0, 2e6, n)
    x_vals[n // 3:] = rng.uniform(0.0, 0.5e6, n - n // 3)
    return dict(t0=0.0, x_dt=1.0, x_vals=x_vals, mu=1e6, alpha=1e-4,
                cap_k=2e6, q0=0.0)


def test_stepped_then_closed_form_bins():
    args = logistic_args(np.random.default_rng(0))
    out = kernels.integrate_logistic(**args)
    q, served, lost = out[0], out[2], out[3]
    assert q.max() == args["cap_k"] and lost[-1] > 0.0
    assert out[0, -1] == 0.0
    # what came in was served, lost or kept, to rounding
    x = args["x_vals"]
    inflow = np.sum(0.5 * (np.concatenate((x[:1], x[:-1])) + x))
    assert abs(served[-1] + lost[-1] + q[-1] - inflow) <= 1e-14 * inflow
    assert np.all(np.diff(lost) >= 0.0)


@settings(max_examples=40, deadline=None)
@given(finite=st.booleans(), n=st.integers(2, 20), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_later_samples_leave_earlier_bins_unchanged(finite, n, data, seed):
    # Column j is the state at the end of bin j, which reads the samples
    # 0..j-1 only: new samples from j on leave columns 0..j as they were
    j = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    mu = 1.0
    x_vals = rng.uniform(0.0, 2.0 * mu, n)
    x_later = x_vals.copy()
    x_later[j:] = rng.uniform(0.0, 2.0 * mu, n - j)
    args = dict(t0=0.0, x_dt=1.0, mu=mu, alpha=1.0 / mu,
                cap_k=2.0 * mu if finite else math.inf, q0=0.0)
    out = kernels.integrate_logistic(x_vals=x_vals, **args)
    out_later = kernels.integrate_logistic(x_vals=x_later, **args)
    np.testing.assert_array_equal(out[:, :j + 1], out_later[:, :j + 1])


def test_scans_carry_the_backlog():
    # runs of 2 bins per scan against the default: the carried backlog
    # joins the runs, so both agree to rounding
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, 300) * rng.integers(0, 2, 300)
    args = dict(t0=0.0, x_dt=1.0, x_vals=x, mu=1.0, alpha=3.0,
                cap_k=math.inf, q0=4.0)
    out = kernels.integrate_logistic(**args)
    point = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    with mock.patch.object(kernels, "_SCAN", 2):
        short = kernels.integrate_logistic(**args)
        point_short = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    assert out[0].max() > 1.0 and point.max() > 1.0
    np.testing.assert_allclose(short, out, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(point_short, point, rtol=1e-13, atol=1e-13)
