"""Digital-twin layer: a two-tier star-core-star topology of logistic queues
with end-to-end latency KPIs.

Each origin feeds an access queue; the summed access outflows cross one
finite-buffer core link; the core outflow is split per-origin and routed by a
row-stochastic matrix to egress queues.  Latency follows a packet through the
three stages, looking the queues up at its (staggered) arrival instants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fluid import (QueueSpec, SolverOptions, QueueTrajectory, compute_alpha,
                    integrate_queue, integrate_priority_pair, split_outflow)
from .series import RateSeries, ParameterError, mean_rate


class HorizonError(ValueError):
    """Latency lookup walked past the simulated window."""


@dataclass(frozen=True)
class Topology:
    access_mu: tuple          # bits/s, one per origin
    core_mu: float            # bits/s
    core_k: float             # bits
    egress_xi: tuple          # bits/s, one per destination
    routing: np.ndarray       # n x m, rows sum to 1
    packet_size_bits: float

    def __post_init__(self):
        routing = np.asarray(self.routing, dtype=float)
        object.__setattr__(self, "routing", routing)
        object.__setattr__(self, "access_mu", tuple(float(v) for v in self.access_mu))
        object.__setattr__(self, "egress_xi", tuple(float(v) for v in self.egress_xi))
        n, m = len(self.access_mu), len(self.egress_xi)
        if routing.shape != (n, m):
            raise ParameterError(f"routing must be {n}x{m}")
        # negated checks, so that NaN fails them
        if not np.all(routing >= 0):
            raise ParameterError("routing entries must be nonnegative")
        # Published matrices are often rounded to a few decimals, so accept a
        # small row-sum slack and renormalize so the split stays conservative.
        row_sums = routing.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-3):
            raise ParameterError("routing rows must sum to 1")
        object.__setattr__(self, "routing", routing / row_sums[:, None])
        if not all(0 < v < math.inf for v in self.access_mu + self.egress_xi):
            raise ParameterError("all rates must be finite and positive")
        if not (0 < self.core_mu < math.inf and 0 < self.core_k < math.inf):
            raise ParameterError("core rate and capacity must be finite and "
                                 "positive")
        if not 0 <= self.packet_size_bits < math.inf:
            raise ParameterError("packet size must be finite and "
                                 "nonnegative")

    @property
    def n_origins(self):
        return len(self.access_mu)

    @property
    def n_destinations(self):
        return len(self.egress_xi)


@dataclass(frozen=True)
class DtState:
    access: tuple             # QueueTrajectory per origin
    core: QueueTrajectory     # non-priority core queue when priority is active
    egress: tuple             # QueueTrajectory per destination
    access_out: tuple         # Y_i as RateSeries
    core_in: RateSeries       # Y = sum Y_i
    core_out: RateSeries      # Z
    egress_in: tuple          # Z_j
    priority: QueueTrajectory = None  # priority core queue, if injected


def _link_alpha(inflow: RateSeries, mu: float) -> float:
    if mean_rate(inflow) <= 0:
        return 1.0 / mu  # idle link: any alpha keeps q at 0
    return compute_alpha(inflow, mu)


def _route_split(topology, access_out, core_out):
    """Per-destination core outflows: route the per-origin share of Z."""
    shares = split_outflow(access_out, core_out)
    p = topology.routing
    egress_in = []
    for j in range(topology.n_destinations):
        vals = np.sum([p[i, j] * shares[i].values
                       for i in range(topology.n_origins)], axis=0)
        egress_in.append(RateSeries(core_out.t0, core_out.dt, vals))
    return egress_in


def _queue_stage(inflows, rates, opts):
    """One logistic queue per link, each with its own inflow and rate."""
    return [integrate_queue(x, QueueSpec(mu=mu, alpha=_link_alpha(x, mu)),
                            opts)
            for x, mu in zip(inflows, rates)]


def _propagate(topology, inflows, opts, priority_inflow=None, base=None):
    inflows = list(inflows)
    if len(inflows) != topology.n_origins:
        raise ParameterError("one inflow per origin required")
    for x in inflows[1:]:
        if not x.same_grid(inflows[0]):
            raise ParameterError("inflows must share the grid")
    if (priority_inflow is not None
            and not priority_inflow.same_grid(inflows[0])):
        raise ParameterError("priority inflow must share the grid")

    if base is None:
        access = _queue_stage(inflows, topology.access_mu, opts)
        # stage-to-stage coupling samples the outflow law at the bin edges;
        # re-binning would smooth single-bin peaks a second time and hide
        # them from the downstream queues
        access_out = [traj.outflow_series("instant") for traj in access]
        core_in = RateSeries(inflows[0].t0, inflows[0].dt,
                             np.sum([y.values for y in access_out], axis=0))
    elif base.core_in.same_grid(inflows[0]):
        access, access_out, core_in = (base.access, base.access_out,
                                       base.core_in)
    else:
        raise ParameterError("base state must share the inflows' grid")
    # the core is one finite-buffer link for the total traffic it serves
    total = core_in if priority_inflow is None else RateSeries(
        core_in.t0, core_in.dt, core_in.values + priority_inflow.values)
    core_spec = QueueSpec(mu=topology.core_mu,
                          alpha=_link_alpha(total, topology.core_mu),
                          capacity_k=topology.core_k)
    if priority_inflow is None:
        prio, core = None, integrate_queue(core_in, core_spec, opts)
    else:
        prio, core = integrate_priority_pair(priority_inflow, core_in,
                                             core_spec, opts)
    core_out = core.outflow_series("instant")
    egress_in = _route_split(topology, access_out, core_out)
    egress = _queue_stage(egress_in, topology.egress_xi, opts)
    return DtState(tuple(access), core, tuple(egress), tuple(access_out),
                   core_in, core_out, tuple(egress_in), priority=prio)


def propagate(topology: Topology, inflows,
              opts: SolverOptions = SolverOptions()) -> DtState:
    """Run the access -> core -> egress pipeline for one inflow set."""
    return _propagate(topology, inflows, opts)


def inject_priority_flow(topology: Topology, inflows,
                         priority_inflow: RateSeries,
                         opts: SolverOptions = SolverOptions(), *,
                         base: DtState = None) -> DtState:
    """Re-solve the pipeline with the core as a priority pair (the injected
    flow is served first, and shares the core's finite buffer); downstream
    propagation uses the non-priority outflow.  ``base``, the propagate()
    result for the same inputs, supplies the access stage, which the
    injected flow never reaches, instead of solving it again."""
    return _propagate(topology, inflows, opts, priority_inflow, base)


def _upstream_legs(t, i, state: DtState, topology: Topology):
    """(access + core delay, core arrival t_o, egress arrival t_d) of a
    packet leaving origin i at t."""
    s = topology.packet_size_bits
    d_access = (state.access[i].q_at(t) + s) / topology.access_mu[i]
    t_o = t + d_access
    q_core = state.core.q_at(t_o)
    if state.priority is not None:
        # a low packet also waits for the high backlog ahead of it
        q_core = q_core + state.priority.q_at(t_o)
    d_core = (q_core + s) / topology.core_mu
    return d_access + d_core, t_o, t_o + d_core


def _egress_delay(t_d, j, state: DtState, topology: Topology):
    return ((state.egress[j].q_at(t_d) + topology.packet_size_bits)
            / topology.egress_xi[j])


def latency(t, i, j, state: DtState, topology: Topology):
    """Path latency o_i -> d_j for a packet departing at t (scalar or array).

    Queue values are interpolated linearly; raises HorizonError if the
    staggered lookups leave the simulated window.
    """
    t = np.asarray(t, dtype=float)
    t_end = state.core.grid[-1]
    if np.any(t < state.core.grid[0]) or np.any(t > t_end):
        raise HorizonError("departure time outside the simulated window")
    d_up, t_o, t_d = _upstream_legs(t, i, state, topology)
    if np.any(t_o > t_end):
        raise HorizonError("core arrival beyond the simulated window")
    if np.any(t_d > t_end):
        raise HorizonError("egress arrival beyond the simulated window")
    result = d_up + _egress_delay(t_d, j, state, topology)
    return float(result) if result.ndim == 0 else result


def expected_latency(t, state: DtState, topology: Topology):
    """Unweighted mean of the per-pair latencies at t."""
    n, m = topology.n_origins, topology.n_destinations
    total = None
    for i in range(n):
        for j in range(m):
            l_ij = np.asarray(latency(t, i, j, state, topology), dtype=float)
            total = l_ij if total is None else total + l_ij
    result = total / (n * m)
    return float(result) if result.ndim == 0 else result


def latency_series(state: DtState, topology: Topology):
    """(times, L_od) over the largest prefix of the grid where every pair's
    staggered lookups stay inside the horizon.

    Each origin's upstream legs are looked up once over the whole grid, and
    the pairs are summed in expected_latency's order, so L_od equals
    expected_latency on the prefix bit for bit."""
    grid = state.core.grid
    legs = [_upstream_legs(grid, i, state, topology)
            for i in range(topology.n_origins)]
    valid = len(grid)
    for _, t_o, t_d in legs:
        bad = np.flatnonzero((t_o > grid[-1]) | (t_d > grid[-1]))
        if bad.size:
            valid = min(valid, int(bad[0]))
    if valid == 0:
        raise HorizonError("no evaluable latency window")
    total = None
    for d_up, _, t_d in legs:
        for j in range(topology.n_destinations):
            l_ij = d_up[:valid] + _egress_delay(t_d[:valid], j, state, topology)
            total = l_ij if total is None else total + l_ij
    return grid[:valid], total / (topology.n_origins * topology.n_destinations)


def max_expected_latency(state: DtState, topology: Topology) -> float:
    _, l_od = latency_series(state, topology)
    return float(l_od.max())
