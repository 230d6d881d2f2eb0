"""Jitted kernels against their pure-Python sources, and the fallback flag."""

import os
import subprocess
import sys

import numpy as np
import pytest

from logiq import kernels
from logiq.accel import NUMBA_ENABLED


def logistic_args(rng, n=60, pair=False):
    """An overloaded first third that fills the buffer, whose bins are
    stepped, then an underloaded stretch in which the queue drains to 0
    and is solved in closed form: exactly for the single queue, whose
    exponential drain underflows to 0 at this alpha, and after the steps
    of the drain as free flow for the pair."""
    grid = np.arange(n + 1, dtype=float)
    x_vals = rng.uniform(0.0, 2e6, n)
    x_vals[n // 3:] = rng.uniform(0.0, 0.5e6, n - n // 3)
    p_vals = rng.uniform(0.0, 1e6, n) if pair else np.empty(0)
    if pair:
        p_vals[n // 3:] = rng.uniform(0.0, 0.4e6, n - n // 3)
    return dict(t_out=grid, x_first=1.0, x_dt=1.0, x_vals=x_vals,
                p_vals=p_vals, mu_mode=kernels.MU_CONST, mu_const=1e6,
                mu_vals=np.empty(0), mu0=0.0, m_servers=1.0, alpha=1e-4,
                gate_on=True, cap_k=2e6, h0=0.5, gate_n=1e-4, q0=0.0,
                rtol=1e-6, atol=1e-9)


@pytest.mark.skipif(not NUMBA_ENABLED, reason="numba path disabled")
class TestJitMatchesPython:
    @pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
    def test_integrate_logistic(self, pair):
        args = logistic_args(np.random.default_rng(0), pair=pair)
        jit_out, jit_stats = kernels.integrate_logistic(**args)
        ref_out, ref_stats = kernels.integrate_logistic.py_func(**args)
        np.testing.assert_allclose(jit_out, ref_out, rtol=1e-10, atol=1e-6)
        assert jit_stats[0] == ref_stats[0]

    def test_point_queue_exact(self):
        rng = np.random.default_rng(2)
        n = 80
        grid = np.arange(n + 1, dtype=float)
        x_vals = rng.uniform(0.0, 2.0, n)
        args = (grid, 1.0, 1.0, x_vals, 0.9, 0.5)
        np.testing.assert_allclose(kernels.point_queue_exact(*args),
                                   kernels.point_queue_exact.py_func(*args),
                                   rtol=1e-12, atol=1e-12)

    def test_des_fifo(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 50.0, 300))
        sizes = rng.uniform(100.0, 2000.0, 300)
        args = (times, sizes, 5000.0, 20000.0)
        jit = kernels.des_fifo(*args)
        ref = kernels.des_fifo.py_func(*args)
        np.testing.assert_allclose(jit[0], ref[0], rtol=1e-12)
        np.testing.assert_allclose(jit[1], ref[1], rtol=1e-12)
        assert jit[2] == ref[2] and jit[3] == ref[3]

    def test_interp_grid(self):
        vals = np.array([1.0, 3.0, 2.0])
        for t in (-1.0, 0.0, 0.5, 1.0, 1.7, 2.0, 9.0):
            assert kernels._interp_grid(t, 0.0, 1.0, vals) == pytest.approx(
                kernels._interp_grid.py_func(t, 0.0, 1.0, vals))


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_parity_inputs_reach_free_flow(pair):
    # the parity test above compares the closed-form bins too
    args = logistic_args(np.random.default_rng(0), pair=pair)
    out, stats = kernels.integrate_logistic.py_func(**args)
    status, n_steps, _, n_closed_form, _ = stats
    assert status == kernels.OK and n_steps > 0
    assert 0 < n_closed_form < len(args["x_vals"])
    assert np.all(out[0::4, -1] == 0.0)


def test_every_kernel_goes_through_maybe_jit():
    # an @njit kernel can only call other jitted functions, and without
    # numba the parity tests above skip, so a plain helper would go unseen
    defined = {name: obj for name, obj in vars(kernels).items()
               if callable(obj) and getattr(getattr(obj, "py_func", obj),
                                            "__module__", None)
               == kernels.__name__}
    assert "integrate_logistic" in defined and "_rhs" in defined
    assert [n for n, obj in defined.items() if not hasattr(obj, "py_func")] == []


def test_env_flag_selects_fallback():
    env = dict(os.environ, LOGIQ_NO_NUMBA="1")
    code = (
        "from logiq.accel import NUMBA_ENABLED\n"
        "import numpy as np\n"
        "from logiq.fluid import QueueSpec, integrate_queue\n"
        "from logiq.series import RateSeries\n"
        "assert not NUMBA_ENABLED\n"
        "inflow = RateSeries(0.0, 1.0, np.full(20, 1.5e6))\n"
        "traj = integrate_queue(inflow, QueueSpec(mu=1e6, alpha=1e-6))\n"
        "assert traj.q[-1] > 0\n"
        "print('fallback ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


def test_fallback_matches_jit_numerically():
    env = dict(os.environ, LOGIQ_NO_NUMBA="1")
    code = (
        "import numpy as np\n"
        "from logiq.fluid import QueueSpec, integrate_queue\n"
        "from logiq.series import RateSeries\n"
        "rng = np.random.default_rng(5)\n"
        "inflow = RateSeries(0.0, 1.0, rng.uniform(0, 2e6, 100))\n"
        "traj = integrate_queue(inflow, QueueSpec(mu=1e6, alpha=1e-6))\n"
        "print(repr(float(traj.q[-1])), repr(float(traj.served[-1])))\n"
    )
    res_fb = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    res_jit = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, LOGIQ_NO_NUMBA=""),
                             capture_output=True, text=True)
    assert res_fb.returncode == 0, res_fb.stderr
    assert res_jit.returncode == 0, res_jit.stderr
    q_fb, s_fb = map(float, res_fb.stdout.split())
    q_jit, s_jit = map(float, res_jit.stdout.split())
    assert q_fb == pytest.approx(q_jit, rel=1e-9, abs=1e-6)
    assert s_fb == pytest.approx(s_jit, rel=1e-9)
