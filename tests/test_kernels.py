"""``kernels.integrate_logistic`` called directly, on an input that takes it
through stepped bins first and closed-form bins after, for the single queue
and the priority pair.  The other kernels are tested through fluid.py and
des.py."""

import numpy as np
import pytest

from logiq import kernels


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


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_stepped_then_closed_form_bins(pair):
    # the pair's free-flow branch is reached by no other test
    args = logistic_args(np.random.default_rng(0), pair=pair)
    out, stats = kernels.integrate_logistic(**args)
    status, n_steps, _, n_closed_form, _ = stats
    assert status == kernels.OK and n_steps > 0
    assert 0 < n_closed_form < len(args["x_vals"])
    assert np.all(out[0::4, -1] == 0.0)
