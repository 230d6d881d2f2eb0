"""Packet-level single-server FIFO simulator (the ground-truth oracle): the
Lindley recursion in closed form.  With a drop-tail buffer, the event loop
(kernels.des_fifo) walks only the busy periods whose backlog comes near the
capacity; every other packet keeps its closed-form departure.

Backlog counts every bit that has arrived but not yet departed, including the
remainder of the in-service packet.  With a finite buffer, an arriving packet
is dropped whole when backlog + size would exceed the capacity (drop-tail).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .series import (PacketTrace, RateSeries, ParameterError, bin_rates,
                     run_indices)


@dataclass(frozen=True)
class DesConfig:
    mu: float                  # bits/s
    capacity_k: float = None   # bits; None = infinite buffer
    sample_dt: float = 60.0    # seconds between backlog samples

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError("mu must be > 0")
        if self.sample_dt <= 0:
            raise ParameterError("sample_dt must be > 0")
        if self.capacity_k is not None and self.capacity_k <= 0:
            raise ParameterError("capacity_k must be > 0")


@dataclass(frozen=True)
class DesResult:
    sample_times: np.ndarray
    q_sampled: np.ndarray      # bits, includes the in-service remainder
    departures: PacketTrace
    drop_count: int
    drop_bits: float
    looped: int                # packets the drop-tail event loop walked

    def q_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t_s,q_bits\n")
            for t, q in zip(self.sample_times, self.q_sampled):
                fh.write(f"{t:.9f},{float(q)!r}\n")


def simulate_fifo(trace: PacketTrace, cfg: DesConfig) -> DesResult:
    """Run the FIFO recursion over a sorted trace and sample the backlog on
    the grid t0 + i*sample_dt covering the horizon."""
    t0, t1 = trace.horizon
    n = max(1, int(round((t1 - t0) / cfg.sample_dt)))
    sample_times = t0 + cfg.sample_dt * np.arange(n + 1)

    if cfg.capacity_k is None:
        depart = _lindley(trace.times, trace.sizes, float(cfg.mu))
        # nothing is dropped and completions are nondecreasing, so the last
        # completion among the first j+1 arrivals is depart[j]
        last_c, n_drop, bits_drop, looped = depart, 0, 0.0, 0
    else:
        depart, last_c, n_drop, bits_drop, looped = _drop_tail(
            trace.times, trace.sizes, float(cfg.mu), float(cfg.capacity_k))

    if n_drop:
        accepted = ~np.isnan(depart)
        dep_times, dep_sizes = depart[accepted], trace.sizes[accepted]
    else:
        dep_times, dep_sizes = depart, trace.sizes
    dep_end = float(dep_times[-1]) if dep_times.size else t1
    departures = PacketTrace(dep_times, dep_sizes, (t0, max(t1, dep_end)))

    # backlog(t) = mu * max(0, C(t) - t) with C(t) the completion time of
    # the last accepted arrival at or before t
    if len(trace):
        idx = np.searchsorted(trace.times, sample_times, side="right")
        c_at = np.where(idx > 0, last_c[np.maximum(idx - 1, 0)], -np.inf)
        q = cfg.mu * np.maximum(0.0, c_at - sample_times)
        q[~np.isfinite(q)] = 0.0
    else:
        q = np.zeros_like(sample_times)

    return DesResult(sample_times, q, departures, int(n_drop),
                     float(bits_drop), looped)


def _lindley(arrivals, sizes, mu):
    """Departure times of an infinite-buffer FIFO server, without a loop.

    With S the cumulative service time, the Lindley recursion
    c_j = max(c_(j-1), a_j) + s_j unrolls to
    c_j = S_j + max over k <= j of (a_k - S_(k-1)).  Besides the result, one
    scratch array holds S.
    """
    s = sizes / mu
    np.cumsum(s, out=s)
    c = np.empty_like(s)
    if c.size:
        c[0] = arrivals[0]
        np.subtract(arrivals[1:], s[:-1], out=c[1:])
        np.maximum.accumulate(c, out=c)
        c += s
    return c


def _drop_tail(arrivals, sizes, mu, cap_k):
    """kernels.des_fifo's results, with its loop run only where needed.

    The drop-tail backlog never exceeds the infinite-buffer backlog on the
    same arrivals (the recursion is monotone in its input, and so is its
    rounding).  An infinite-buffer busy period in which no arrival sees
    backlog + size near cap_k therefore starts empty under both disciplines
    and drops nothing: _lindley's departures stand.  The loop walks the
    remaining ("hot") periods back to back from c_prev = -inf, which is
    exact because each of them starts empty.

    ``tol`` bounds how far the cumulative-sum form of _lindley can sit from
    the loop's rounding (about 3 n ulps of the largest time).  A period
    starts only where the queue is empty by more than tol, and an arrival is
    hot from cap_k - mu * tol on; both only enlarge the hot set.  Returns
    (depart, last_c, n_dropped, dropped_bits, looped packets).  A dropped
    packet ahead of the first accepted one in its period may get another
    last_c than the loop's, but both are at most its arrival time, so the
    sampled backlog is the same.
    """
    c = _lindley(arrivals, sizes, mu)
    n = c.size
    if n == 0:
        return c, c, 0, 0.0, 0
    eps = np.finfo(np.float64).eps
    tol = 4.0 * n * eps * (abs(c[-1]) + abs(arrivals[0]) + 1.0)
    slack = mu * tol + 8.0 * eps * cap_k

    wait = np.empty_like(c)            # > 0: arrival j finds a backlog
    wait[0] = -np.inf
    np.subtract(c[:-1], arrivals[1:], out=wait[1:])
    starts = np.flatnonzero(wait < -tol)
    np.maximum(wait, 0.0, out=wait)
    wait *= mu
    wait += sizes
    hot = np.flatnonzero(wait > cap_k - slack)
    del wait

    # every packet of the periods that hold a hot arrival
    bounds = np.append(starts, n)
    period = np.unique(np.searchsorted(bounds, hot, side="right") - 1)
    idx = run_indices(bounds[period], bounds[period + 1])

    dep_h, last_h, n_drop, bits_drop = kernels.des_fifo(
        arrivals[idx], sizes[idx], mu, cap_k)
    last_c = c
    if n_drop:
        last_c = c.copy()
        last_c[idx] = last_h
    c[idx] = dep_h
    return c, last_c, n_drop, bits_drop, int(idx.size)


def departures_to_outflow(result: DesResult, dt: float) -> RateSeries:
    """Bin departure completions with the same half-open rule used for
    arrivals; the trace horizon start anchors the grid."""
    dep = result.departures
    t0 = dep.horizon[0]
    t1 = max(float(result.sample_times[-1]), dep.horizon[1])
    return bin_rates(dep.times, dep.sizes, t0, t1, dt)
