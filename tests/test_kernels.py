"""``kernels.integrate_logistic`` called directly: against a scalar walk of
the bin pieces under the buffer's ceiling, on an input that fills the
buffer and drains it to empty, for causality across bins, and at a grid
start that cannot resolve the bins.  Also the backlog the scans carry from one
block to the next, and a buffer that never fills, which is the infinite
buffer bit for bit.  The other kernels are tested through fluid.py and
des.py."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import QueueSpec, RateSeries, integrate_queue, kernels


def ceiling_bin(q, da, db, w, alpha, cap_k):
    """(end backlog, lost bits) of a bin of width w in which X - mu runs
    linearly from da to db, under the ceiling cap_k, one piece at a time.
    A sign change splits the bin where X crosses mu.  A growth piece maps q
    to min(cap_k, q + A) and loses the rest, which is exact because its
    outflow is mu at any backlog; a drain piece never rises, so it keeps
    the map u -> e^(alpha A) u of u = e^(alpha q) - 1."""
    if (da < 0.0 < db) or (db < 0.0 < da):     # X crosses mu
        s = w * da / (da - db)
        areas = (0.5 * s * da, 0.5 * (w - s) * db)
    else:
        areas = (0.5 * w * (da + db),)
    lost = 0.0
    for a in areas:
        if a >= 0.0:
            lost += max(q + a - cap_k, 0.0)
            q = min(q + a, cap_k)
        elif alpha * q > 0.0:
            # alpha q = softplus(log(e^(alpha q) - 1) + alpha A)
            z = alpha * q
            q = float(np.logaddexp(
                0.0, z + math.log(-math.expm1(-z)) + alpha * a)) / alpha
    return q, lost


def walk(x_dt, x_vals, mu, alpha, cap_k, q0):
    """(q, lost bits) at the start and at the end of each bin, the bins
    taken one after another by ceiling_bin: the scalar reference."""
    d = np.concatenate((x_vals[:1], x_vals)) - mu
    q, lost = [q0], [0.0]
    for da, db in zip(d[:-1].tolist(), d[1:].tolist()):
        q_end, spill = ceiling_bin(q[-1], da, db, x_dt, alpha, cap_k)
        q.append(q_end)
        lost.append(lost[-1] + spill)
    return np.array(q), np.array(lost)


def logistic_args(rng, n=60):
    """An overloaded first third that fills the buffer, whose bins reach
    the ceiling, then an underloaded stretch in which the queue drains to
    0: its exponential drain underflows to 0 at this alpha."""
    x_vals = rng.uniform(0.0, 2e6, n)
    x_vals[n // 3:] = rng.uniform(0.0, 0.5e6, n - n // 3)
    return dict(x_dt=1.0, x_vals=x_vals, mu=1e6, alpha=1e-4,
                cap_k=2e6, q0=0.0)


def test_fill_then_drain_conserves_mass():
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


# the scan against the walk: over 20 000 draws like those below (16 000
# of them lose bits), the backlog was at most 2.0e-14 K off, and the lost
# bits 4.3e-16 of the mass, the integral of X plus q0
WALK_GAP_K = 1e-13
WALK_GAP_LOST = 3e-15


@settings(max_examples=100, deadline=None)
@given(fractions=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
                          min_size=1, max_size=300),
       dt=st.floats(0.01, 100.0), alpha_dt=st.floats(0.1, 100.0),
       k_bins=st.floats(0.1, 30.0), q0_share=st.floats(0.0, 0.99),
       scan=st.sampled_from([2, 16, 128]))
def test_matches_the_walk(fractions, dt, alpha_dt, k_bins, q0_share, scan):
    # a server of rate 1e6 with a buffer of k_bins bins at mu, fed fractions
    # of mu; blocks of 2 and 16 bins carry the backlog between many blocks
    mu = 1e6
    x_vals = np.asarray(fractions) * mu
    args = dict(x_dt=dt, x_vals=x_vals, mu=mu, alpha=alpha_dt / (mu * dt),
                cap_k=k_bins * mu * dt, q0=q0_share * k_bins * mu * dt)
    with mock.patch.object(kernels, "_SCAN", scan):
        out = kernels.integrate_logistic(**args)
    q, lost = walk(**args)
    cap_k = args["cap_k"]
    mass = np.sum(0.5 * dt * (np.concatenate((x_vals[:1], x_vals[:-1]))
                              + x_vals)) + args["q0"]
    assert np.all(out[0] <= cap_k)
    np.testing.assert_allclose(out[0], q, rtol=0.0, atol=WALK_GAP_K * cap_k)
    np.testing.assert_allclose(out[3], lost, rtol=0.0,
                               atol=WALK_GAP_LOST * mass)


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
    args = dict(x_dt=1.0, mu=mu, alpha=1.0 / mu,
                cap_k=2.0 * mu if finite else math.inf, q0=0.0)
    out = kernels.integrate_logistic(x_vals=x_vals, **args)
    out_later = kernels.integrate_logistic(x_vals=x_later, **args)
    np.testing.assert_array_equal(out[:, :j + 1], out_later[:, :j + 1])


def test_scans_carry_the_backlog():
    # blocks of 2 bins per scan against the default: the carried backlog
    # joins the blocks, so both agree to rounding, with and without a
    # buffer that fills
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, 300) * rng.integers(0, 2, 300)
    args = dict(x_dt=1.0, x_vals=x, mu=1.0, alpha=3.0,
                cap_k=math.inf, q0=4.0)
    out = kernels.integrate_logistic(**args)
    full = kernels.integrate_logistic(**dict(args, cap_k=4.5))
    point = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    with mock.patch.object(kernels, "_SCAN", 2):
        short = kernels.integrate_logistic(**args)
        full_short = kernels.integrate_logistic(**dict(args, cap_k=4.5))
        point_short = kernels.point_queue_exact(1.0, x, 1.0, 4.0)
    assert out[0].max() > 1.0 and point.max() > 1.0
    assert np.sum(full[0] == 4.5) == 3 and full[3, -1] > 1.0
    np.testing.assert_allclose(short, out, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(full_short, full, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(point_short, point, rtol=1e-13, atol=1e-13)


def test_buffer_that_never_fills_is_the_infinite_buffer():
    # no bin passes cap_k, so the ceiling's scan never runs: every row is
    # the infinite buffer's, bit for bit
    args = logistic_args(np.random.default_rng(1))
    unbounded = kernels.integrate_logistic(**dict(args, cap_k=math.inf))
    for cap_k in (1.5 * unbounded[0].max(), 1e300):
        out = kernels.integrate_logistic(**dict(args, cap_k=cap_k))
        np.testing.assert_array_equal(out, unbounded)


def test_solve_at_a_large_t0_is_the_solve_at_0():
    # at t0 = 2^40 the grid t0 + j dt rounds to steps of 2^-12 s, coarser
    # than these bins.  The FIFO raise compares exit times from the grid's
    # start, so no start coarsens them: a drained backlog is not raised
    # back to K, and the served bits never fall
    dt, mu, cap_k = 1e-4, 1.0, 1.5e-4
    spec = QueueSpec(mu=mu, alpha=1e6, capacity_k=cap_k)
    x_vals = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    at_0 = integrate_queue(RateSeries(0.0, dt, x_vals), spec)
    late = integrate_queue(RateSeries(2.0 ** 40, dt, x_vals), spec)
    for row in ("q", "y", "served", "lost"):
        np.testing.assert_array_equal(getattr(late, row), getattr(at_0, row))
    assert late.q.max() == cap_k and late.q[-1] < cap_k
    assert np.all(np.diff(late.served) >= 0.0)


def test_full_buffer_holds_k_exactly():
    # at alpha = 1e-6 the round trip of K = 1e5 through log u and the
    # softplus lands below K; a full buffer holds K itself
    x_vals = np.full(20, 1.2e6)
    out = kernels.integrate_logistic(1.0, x_vals, 1e6, 1e-6, 1e5, 0.0)
    assert out[0].max() == 1e5 and np.all(out[0, 1:] == 1e5)


def test_drain_of_an_ulp_in_log_u_stays_at_most_k():
    # a full buffer of K = 5.3e6 at alpha = 1e-7 drained by 1e-9 bits a
    # bin: log u falls by 1e-16, about two ulps, and its softplus rounds
    # back above K, where the clamp holds it
    x_vals = np.array([1e6 + 2.0 * 5.3e6] + [1e6 - 1e-9] * 3)
    out = kernels.integrate_logistic(1.0, x_vals, 1e6, 1e-7, 5.3e6,
                                     0.0)
    assert np.all(out[0] <= 5.3e6) and out[0, 1] == 5.3e6
