"""Scenario-level runs shared by the CLI and the test suite: oracle
validation of the fluid model, the intensity sweep, and the digital-twin
latency scenario."""

import time
from dataclasses import dataclass, replace

import numpy as np

from .des import (DesConfig, DesResult, FifoCarry, departures_to_outflow,
                  simulate_fifo)
from .fluid import QueueSpec, QueueTrajectory, compute_alpha, integrate_queue
from .metrics import ErrorReport, build_report
from .network import (DtState, Topology, inject_priority_flow, latency_series,
                      max_expected_latency, propagate)
from .series import (PacketTrace, RateSeries, ParameterError, bin_range,
                     edge_counts, intensity, mean_rate, merge_traces,
                     merged_segments, n_bins, traffic_process, trace_to_inflow)
from .traffic import (VideoUserParams, generate_users, interuse_for_rate,
                      user_chunks)


@dataclass(frozen=True)
class ValidationRun:
    report: ErrorReport
    inflow: RateSeries
    trajectory: QueueTrajectory
    des_result: DesResult
    y_log: np.ndarray
    y_disc: np.ndarray
    lam: float
    rho: float
    alpha: float
    runtime_logistic_s: float
    runtime_des_s: float
    traffic_process: str    # where the packets were drawn: "child", "inline"

    @property
    def speedup(self) -> float:
        if self.runtime_logistic_s <= 0:
            return float("inf")
        return self.runtime_des_s / self.runtime_logistic_s

    @property
    def loss_rel_err(self) -> float:
        """(fluid lost bits - oracle dropped bits) / oracle dropped bits; 0
        when neither loses, inf when only the fluid does."""
        lost, dropped = self.trajectory.lost_mass, self.des_result.drop_bits
        if dropped > 0:
            return (lost - dropped) / dropped
        return 0.0 if lost == 0.0 else float("inf")


# the oracle path holds one time segment of whole bins at a time, sized to
# hold about this many packets at the expected rate
_SEGMENT_PACKETS = 1 << 18


def validate_scenario(params: VideoUserParams, users: int, horizon_s: float,
                      dt: float, seed, mu: float, alpha=None, q0=0.0,
                      capacity=None) -> ValidationRun:
    """Feed one generated inflow to both the packet oracle and the logistic
    model on the same grid and compare them.  The packets take the oracle
    path a time segment at a time (stream_oracle), drawn in a child process
    where os.fork exists (series.merged_segments)."""
    horizon = (0.0, horizon_s)
    per_bin = users * params.mean_rate_bps * dt / params.packet_size_bits
    width = max(1, int(_SEGMENT_PACKETS / per_bin)) if per_bin > 0 else None
    inflow, des_result, y_disc, runtime_des = stream_oracle(
        user_chunks(params, horizon, seed, users), params.packet_size_bits,
        horizon, DesConfig(mu=mu, capacity_k=capacity, sample_dt=dt), width)
    lam = mean_rate(inflow)
    rho = intensity(inflow, mu)
    if alpha is None:
        alpha = compute_alpha(inflow, mu)

    spec = QueueSpec(mu=mu, alpha=alpha, q0=q0, capacity_k=capacity)
    t_start = time.perf_counter()
    traj = integrate_queue(inflow, spec)
    runtime_log = time.perf_counter() - t_start

    # The oracle comparison samples the fluid outflow law at the bin edges
    # ("instant"): the solver consumes the piecewise-linear interpolant of
    # the binned inflow, so bin-averaged served mass shifts between adjacent
    # bins and would inflate the per-bin error without changing the model.
    y_log = traj.outflow_series("instant").values
    report = build_report(des_result.q_sampled, traj.q, y_disc, y_log,
                          inflow.values, mu, rho, dt)
    return ValidationRun(report, inflow, traj, des_result, y_log, y_disc,
                         lam, rho, alpha, runtime_log, runtime_des,
                         traffic_process())


def stream_oracle(runs, size, horizon, cfg: DesConfig, width=None):
    """The merged packets of ``runs`` (iterators over the nondecreasing time
    arrays of each source, as user_chunks gives them) of one ``size``,
    through the oracle on bins of width cfg.sample_dt, ``width`` bins at a
    time (None: all).  Returns (inflow, DesResult without departures, the
    departures' rates on the inflow's bins, the oracle's seconds).

    Each segment is binned, fed to simulate_fifo with the carried state,
    and its departures are counted per bin, the bins past the inflow's in
    one count.  The whole trace's outflow grid reaches its last departure,
    and its last bin takes every later departure: the last inflow bin
    takes that count when the two grids end together.  A bin's bits are
    its count times ``size``, as in the whole trace's binning: the inflow,
    q samples and outflow are the whole trace's byte for byte.
    """
    t0, size = float(horizon[0]), float(size)
    dt = cfg.sample_dt
    n = n_bins(t0, horizon[1], dt)
    carry = FifoCarry(cfg, horizon, size)
    bits_in, departed = np.zeros(n), np.zeros(n + 1, dtype=np.intp)
    runtime = 0.0
    segments = merged_segments(runs, t0, dt, n, width or n)
    try:
        for times, b0, b1 in segments:
            bits_in[b0:b1] = bin_range(times, size, t0, dt, b0, b1)
            t_start = time.perf_counter()
            part = simulate_fifo(
                PacketTrace.unchecked(times, size, horizon), cfg, carry)
            runtime += time.perf_counter() - t_start
            dep = part.departures.times
            if dep.size:
                # every departure lies in a bin from b0 to that of the last
                last = int(np.ceil((dep[-1] - t0) / dt)) - 1
                k = np.arange(b0 + 1, min(last, n) + 1)
                departed[b0:b0 + k.size + 1] += np.diff(edge_counts(
                    dep, t0, dt, k), prepend=0, append=dep.size)
    finally:
        # a child drawing the traffic is reaped however the loop ends
        segments.close()
    t_start = time.perf_counter()
    des_result = carry.result()
    runtime += time.perf_counter() - t_start
    end = max(float(carry.sample_times[-1]), horizon[1], carry.c)
    if n_bins(t0, end, dt) == n:
        departed[n - 1] += departed[n]
    return (RateSeries(t0, dt, bits_in / dt), des_result,
            departed[:n] * size / dt, runtime)


def whole_trace_oracle(traces, cfg: DesConfig):
    """The oracle path on whole traces of one size sharing one horizon:
    merge_traces, trace_to_inflow, simulate_fifo and departures_to_outflow,
    with arrays as long as the trace alive at once.  Returns (inflow,
    DesResult, the departures' rates on the inflow's bins); for a whole-bit
    size stream_oracle gives them byte for byte, and its tests compare
    against this path."""
    merged = merge_traces(traces)
    inflow = trace_to_inflow(merged, cfg.sample_dt)
    des_result = simulate_fifo(merged, cfg)
    del merged
    out = departures_to_outflow(des_result, cfg.sample_dt).values
    y = np.zeros(len(inflow))
    m = min(y.size, out.size)
    y[:m] = out[:m]
    return inflow, des_result, y


def sweep_point(params: VideoUserParams, users: int, horizon_s: float,
                dt: float, seed, mu: float, rho_target: float,
                **kwargs) -> ValidationRun:
    """One intensity-sweep point: rescale the interuse time so the expected
    aggregate occupancy hits rho_target, then validate."""
    if users < 1:
        raise ParameterError("sweep needs at least one user")
    per_user = rho_target * mu / users
    tuned = replace(params, interuse_mean_s=interuse_for_rate(params, per_user))
    return validate_scenario(tuned, users, horizon_s, dt, seed, mu, **kwargs)


@dataclass(frozen=True)
class DtRun:
    topology: Topology
    inflows: tuple
    state: DtState
    latency_times: np.ndarray
    latency_od: np.ndarray
    l_max: float
    priority_rates: tuple
    priority_l_max: tuple
    # where generate_flow_inflows draws the odd-numbered flows: "child",
    # "inline"
    traffic_process: str


def generate_flow_inflows(params: VideoUserParams, n_flows: int,
                          users_per_flow: int, horizon_s: float, dt: float,
                          seed, target_rate=None, warmup_s: float = 0.0):
    """Per-flow aggregate inflows with independent spawned seed streams.

    When target_rate is set, each flow's rate series is rescaled to that
    mean, which keeps the burstiness shape of the tractable user count while
    standing in for a much larger population.  A nonzero warmup_s runs each
    user's session process for that many seconds before the window, so the
    window does not begin with every user idle.

    Where os.fork exists (traffic_process), the odd-numbered flows are
    drawn, binned and rescaled in a forked child while this process draws
    the others (producer.shared_with_child).  Each flow has its own
    spawned stream, so the inflows are the same either way.
    """
    horizon = (0.0, horizon_s)

    def rates(child):
        inflow = trace_to_inflow(
            _user_traces(params, horizon, child, users_per_flow, warmup_s),
            dt, horizon)
        if target_rate is None:
            return inflow.values
        lam = mean_rate(inflow)
        if lam <= 0:
            raise ParameterError("cannot rescale an all-idle flow")
        return inflow.values * (target_rate / lam)

    seeds = np.random.SeedSequence(seed).spawn(n_flows)
    if traffic_process() == "child":
        # imported here: setup need not compile it
        from .producer import shared_with_child
        drawn = shared_with_child(rates, seeds)
    else:
        drawn = map(rates, seeds)
    return [RateSeries(horizon[0], dt, v) for v in drawn]


def _user_traces(params, horizon, seed, n_users, warmup_s):
    """generate_users(params, horizon, seed, n_users, warmup_s), one trace
    at a time: user i comes from a copy of ``seed`` that has spawned i
    children, so its stream is seed.spawn(n_users)[i], and the caller can
    let each trace go before the next is drawn."""
    for i in range(n_users):
        parent = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=i)
        yield generate_users(params, horizon, parent, 1, warmup_s)[0]


def dt_scenario(topology: Topology, inflows, priority_rates=()) -> DtRun:
    """Propagate the flows, compute the latency KPI, then re-solve the core
    and egress stages for each injected priority intensity."""
    dt = inflows[0].dt
    state = propagate(topology, inflows)
    times, l_od = latency_series(state, topology)
    l_max = float(l_od.max())

    prio_lmax = []
    n = len(inflows[0])
    for rate in priority_rates:
        prio = RateSeries(inflows[0].t0, dt, np.full(n, float(rate)))
        p_state = inject_priority_flow(topology, inflows, prio, base=state)
        prio_lmax.append(max_expected_latency(p_state, topology))

    return DtRun(topology, tuple(inflows), state, times, l_od, l_max,
                 tuple(float(r) for r in priority_rates), tuple(prio_lmax),
                 traffic_process())
