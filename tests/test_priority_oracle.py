"""The priority pair against packets.  Under preemptive priority the high
class is a FIFO queue of its own, and by work conservation the total backlog
is that of one FIFO queue fed by both classes (Kleinrock, Queueing Systems
Vol. II, 1976, ch. 3; Schrage 1970).  So the pair's packet oracle is two
simulate_fifo runs, on the high trace and on the merged trace, and the low
class is their difference."""

import numpy as np
import pytest

from logiq.des import DesConfig, simulate_fifo
from logiq.fluid import QueueSpec, compute_alpha, integrate_priority_pair
from logiq.metrics import aggregation_error_bound
from logiq.series import RateSeries, merge_traces, trace_to_inflow
from logiq.traffic import VideoUserParams, generate_users

MU = 11.33e6
DT = 60.0
HORIZON = (0.0, 6 * 3600.0)

# (seed, high users, low users): the high class's share of the traffic runs
# from 0.09 to 0.87.  The low users are drawn from seed + LOW_SEED.
DRAWS = [(101, 1, 12), (103, 3, 9), (114, 6, 8), (106, 6, 6), (108, 8, 4),
         (120, 11, 3), (110, 10, 2)]
LOW_SEED = 100_000
# Worst backlog error of either class, as a delay: at most the aggregation
# floor (1 - rho) dt plus this share of the oracle's peak delay.  Measured
# (low class, s): 14.0, 22.1, 35.4, 18.9, 18.8, 14.9 and 9.1 against bounds
# of 31.3, 69.3, 153.7, 43.9, 40.8, 32.3 and 27.6; the pair law this
# replaced read 14.0, 160.7, 509.4, 140.7, 115.8, 110.4 and 30.9.
PEAK_SHARE = 0.1


def oracle_and_pair(seed, n_high, n_low):
    """(rho, high and low oracle backlogs, high and low trajectories)."""
    params = VideoUserParams()
    high = generate_users(params, HORIZON, seed, n_high)
    low = generate_users(params, HORIZON, seed + LOW_SEED, n_low)
    high_trace = merge_traces(high, HORIZON)
    both_trace = merge_traces(high + low, HORIZON)
    cfg = DesConfig(mu=MU, sample_dt=DT)
    q_high = simulate_fifo(high_trace, cfg).q_sampled
    q_both = simulate_fifo(both_trace, cfg).q_sampled

    x1 = trace_to_inflow(high_trace, DT, HORIZON)
    both = trace_to_inflow(both_trace, DT, HORIZON)
    x2 = RateSeries(both.t0, DT, both.values - x1.values)
    spec = QueueSpec(mu=MU, alpha=compute_alpha(both, MU))
    hi, lo = integrate_priority_pair(x1, x2, spec)
    rho = both.integral() / ((HORIZON[1] - HORIZON[0]) * MU)
    return rho, q_high, q_both - q_high, hi, lo


@pytest.mark.parametrize("seed, n_high, n_low", DRAWS,
                         ids=[f"{s}-{h}+{lo}" for s, h, lo in DRAWS])
def test_pair_tracks_the_packet_oracle(seed, n_high, n_low):
    rho, q_high, q_low, hi, lo = oracle_and_pair(seed, n_high, n_low)
    floor_s = aggregation_error_bound(MU, rho, DT)[1]
    for q_oracle, traj in ((q_high, hi), (q_low, lo)):
        error_s = np.abs(traj.q - q_oracle).max() / MU
        assert error_s <= floor_s + PEAK_SHARE * q_oracle.max() / MU
