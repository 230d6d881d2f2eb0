"""Scenario-level runs shared by the CLI and the test suite: oracle
validation of the fluid model, the intensity sweep, and the digital-twin
latency scenario."""

import time
from dataclasses import dataclass, replace

import numpy as np

from .des import DesConfig, DesResult, departures_to_outflow, simulate_fifo
from .fluid import QueueSpec, QueueTrajectory, compute_alpha, integrate_queue
from .metrics import ErrorReport, build_report
from .network import (DtState, Topology, inject_priority_flow, latency_series,
                      max_expected_latency, propagate)
from .series import RateSeries, ParameterError, intensity, mean_rate, trace_to_inflow
from .traffic import (VideoUserParams, generate_users, interuse_for_rate,
                      merge_traces)


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

    @property
    def speedup(self) -> float:
        if self.runtime_logistic_s <= 0:
            return float("inf")
        return self.runtime_des_s / self.runtime_logistic_s


def validate_scenario(params: VideoUserParams, users: int, horizon_s: float,
                      dt: float, seed, mu: float, alpha=None, q0=0.0,
                      capacity=None) -> ValidationRun:
    """Feed one generated inflow to both the packet oracle and the logistic
    model on the same grid and compare them."""
    horizon = (0.0, horizon_s)
    traces = generate_users(params, horizon, seed, users)
    merged = merge_traces(traces, horizon=horizon)
    del traces
    inflow = trace_to_inflow(merged, dt)
    lam = mean_rate(inflow)
    rho = intensity(inflow, mu)
    if alpha is None:
        alpha = compute_alpha(inflow, mu)

    spec = QueueSpec(mu=mu, alpha=alpha, q0=q0, capacity_k=capacity)
    t_start = time.perf_counter()
    traj = integrate_queue(inflow, spec)
    runtime_log = time.perf_counter() - t_start

    cfg = DesConfig(mu=mu, capacity_k=capacity, sample_dt=dt)
    t_start = time.perf_counter()
    des_result = simulate_fifo(merged, cfg)
    runtime_des = time.perf_counter() - t_start

    # The oracle comparison samples the fluid outflow law at the bin edges
    # ("instant"): the solver consumes the piecewise-linear interpolant of
    # the binned inflow, so bin-averaged served mass shifts between adjacent
    # bins and would inflate the per-bin error without changing the model.
    n = len(inflow)
    y_log = traj.outflow_series("instant").values
    y_disc_series = departures_to_outflow(des_result, dt)
    y_disc = np.zeros(n)
    m = min(n, len(y_disc_series))
    y_disc[:m] = y_disc_series.values[:m]

    report = build_report(des_result.q_sampled, traj.q, y_disc, y_log,
                          inflow.values, mu, rho, dt)
    return ValidationRun(report, inflow, traj, des_result, y_log, y_disc,
                         lam, rho, alpha, runtime_log, runtime_des)


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
    priority_states: tuple    # DtState per priority rate


def generate_flow_inflows(params: VideoUserParams, n_flows: int,
                          users_per_flow: int, horizon_s: float, dt: float,
                          seed, target_rate=None, warmup_s: float = 0.0):
    """Per-flow aggregate inflows with independent spawned seed streams.

    When target_rate is set, each flow's rate series is rescaled to that
    mean, which keeps the burstiness shape of the tractable user count while
    standing in for a much larger population.  A nonzero warmup_s starts the
    session processes before the window so short horizons are stationary.
    """
    ss = np.random.SeedSequence(seed)
    horizon = (0.0, horizon_s)
    inflows = []
    for child in ss.spawn(n_flows):
        inflow = trace_to_inflow(
            _user_traces(params, horizon, child, users_per_flow, warmup_s),
            dt, horizon)
        if target_rate is not None:
            lam = mean_rate(inflow)
            if lam <= 0:
                raise ParameterError("cannot rescale an all-idle flow")
            inflow = RateSeries(inflow.t0, inflow.dt,
                                inflow.values * (target_rate / lam))
        inflows.append(inflow)
    return inflows


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

    prio_states, prio_lmax = [], []
    n = len(inflows[0])
    for rate in priority_rates:
        prio = RateSeries(inflows[0].t0, dt, np.full(n, float(rate)))
        p_state = inject_priority_flow(topology, inflows, prio, base=state)
        prio_states.append(p_state)
        prio_lmax.append(max_expected_latency(p_state, topology))

    return DtRun(topology, tuple(inflows), state, times, l_od, l_max,
                 tuple(float(r) for r in priority_rates), tuple(prio_lmax),
                 tuple(prio_states))
