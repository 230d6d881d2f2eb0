"""``kernels.integrate_logistic`` called directly: on an input that takes it
through stepped bins first and closed-form bins after; on a NaN gate, which
must fail the solve; and for causality across bins.  Also the backlog below
which the gate is exactly 1, and the backlog the exact-bin scans carry from
one run to the next.  The other kernels are tested through fluid.py and
des.py."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import kernels


def logistic_args(rng, n=60):
    """An overloaded first third that fills the buffer, whose bins are
    stepped, then an underloaded stretch in which the queue drains to 0
    and is solved exactly: its exponential drain underflows to 0 at this
    alpha."""
    x_vals = rng.uniform(0.0, 2e6, n)
    x_vals[n // 3:] = rng.uniform(0.0, 0.5e6, n - n // 3)
    return dict(t0=0.0, x_dt=1.0, x_vals=x_vals, mu=1e6, alpha=1e-4,
                gate_on=True, cap_k=2e6, h0=0.5, gate_n=1e-4, q0=0.0,
                rtol=1e-6, atol=1e-9)


def test_stepped_then_closed_form_bins():
    args = logistic_args(np.random.default_rng(0))
    out, stats = kernels.integrate_logistic(**args)
    status, n_steps, _, n_closed_form, _ = stats
    assert status == kernels.OK and n_steps > 0
    assert 0 < n_closed_form < len(args["x_vals"])
    assert out[0, -1] == 0.0


def test_nan_gate_fails_the_solve():
    # gate_n = 0 and cap_k = inf make the gate's exponent 0 * -inf = NaN.
    # A NaN error norm fails err <= 1 without shrinking the step, so the
    # stepper would retry the same step for ever
    args = logistic_args(np.random.default_rng(0), n=5)
    args.update(cap_k=math.inf, gate_n=0.0)
    out, stats = kernels.integrate_logistic(**args)
    assert stats[0] == kernels.STEP_FAILURE
    assert np.all(np.isnan(out[:, 1:]))


@settings(max_examples=40, deadline=None)
@given(gate_on=st.booleans(), n=st.integers(2, 20), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_later_samples_leave_earlier_bins_unchanged(gate_on, n, data, seed):
    # Column j is the state at the end of bin j, which reads the samples
    # 0..j-1 only: new samples from j on leave columns 0..j as they were
    j = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    mu = 1.0
    x_vals = rng.uniform(0.0, 2.0 * mu, n)
    x_later = x_vals.copy()
    x_later[j:] = rng.uniform(0.0, 2.0 * mu, n - j)
    args = dict(t0=0.0, x_dt=1.0, mu=mu, alpha=1.0 / mu, gate_on=gate_on,
                cap_k=2.0 * mu, h0=0.5, gate_n=500.0 / (2.0 * mu), q0=0.0,
                rtol=1e-6, atol=1e-9)
    out, stats = kernels.integrate_logistic(x_vals=x_vals, **args)
    out_later, stats_later = kernels.integrate_logistic(x_vals=x_later,
                                                        **args)
    assert stats[0] == stats_later[0] == kernels.OK
    np.testing.assert_array_equal(out[:, :j + 1], out_later[:, :j + 1])


@pytest.mark.parametrize("cap_k, h0, gate_n", [
    (2e6, 0.5, 500.0 / 2e6), (1.0, 0.9, 500.0), (3e9, 1.0, 500.0 / 3e9)])
def test_gate_limit_is_the_last_backlog_of_a_full_gate(cap_k, h0, gate_n):
    q_on = kernels._gate_limit(cap_k, h0, gate_n)
    assert 0.0 < q_on < math.inf
    assert kernels._gate(q_on, cap_k, h0, gate_n) == 1.0
    assert kernels._gate(math.nextafter(q_on, math.inf), cap_k, h0,
                         gate_n) < 1.0


def test_gate_limit_without_a_full_gate():
    # a gate below 1 at an empty queue, and a NaN gate (0 * -inf)
    assert kernels._gate_limit(1.0, 0.5, 1.0) == -1.0
    assert kernels._gate_limit(math.inf, 0.5, 0.0) == -1.0


def test_scans_carry_the_backlog():
    # runs of 2 bins per scan against the default: the carried backlog
    # joins the runs, so both agree to rounding
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, 300) * rng.integers(0, 2, 300)
    args = dict(t0=0.0, x_dt=1.0, x_vals=x, mu=1.0, alpha=3.0, gate_on=False,
                cap_k=0.0, h0=1.0, gate_n=1.0, q0=4.0, rtol=1e-6, atol=1e-9)
    out, _ = kernels.integrate_logistic(**args)
    point = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    with mock.patch.object(kernels, "_SCAN", 2):
        short, _ = kernels.integrate_logistic(**args)
        point_short = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    assert out[0].max() > 1.0 and point.max() > 1.0
    np.testing.assert_allclose(short, out, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(point_short, point, rtol=1e-13, atol=1e-13)
