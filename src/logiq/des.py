"""Packet-level single-server FIFO simulator (the ground-truth oracle): the
Lindley recursion in closed form.  With a drop-tail buffer, only the busy
periods whose backlog comes near the capacity follow the event loop exactly;
every other packet keeps its closed-form departure.  When those periods hold
one packet size (all generated traffic), their long busy runs are walked in
exact numpy blocks and only short ones take the event loop's scalar step;
mixed sizes (CSV-loaded traces) run the event loop kernels.des_fifo.

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
        # negated checks, so that NaN fails them
        if not self.mu > 0:
            raise ParameterError("mu must be > 0")
        if not self.sample_dt > 0:
            raise ParameterError("sample_dt must be > 0")
        if self.capacity_k is not None and not self.capacity_k > 0:
            raise ParameterError("capacity_k must be > 0")


@dataclass(frozen=True)
class DesResult:
    sample_times: np.ndarray
    q_sampled: np.ndarray      # bits, includes the in-service remainder
    departures: PacketTrace
    drop_count: int
    drop_bits: float
    looped: int     # packets of the drop-tail periods that come near K
    stepped: int    # of those, packets taken one at a time, not in a block

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
        last_c, n_drop, bits_drop, looped, stepped = depart, 0, 0.0, 0, 0
    else:
        depart, last_c, n_drop, bits_drop, looped, stepped = _drop_tail(
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
                     float(bits_drop), looped, stepped)


# _lindley's chunk length in packets: its scratch array of cumulative
# service times holds one chunk, not the whole trace
_CHUNK = 1 << 16


def _lindley(arrivals, sizes, mu):
    """Departure times of an infinite-buffer FIFO server, without a loop.

    With S the cumulative service time (S_(-1) = 0), the Lindley recursion
    c_j = max(c_(j-1), a_j) + s_j unrolls to
    c_j = S_j + max over k <= j of (a_k - S_(k-1)).  The result is the only
    full-length array: chunks of _CHUNK packets carry S and the running
    maximum from one to the next.  add.accumulate and maximum.accumulate
    run left to right, so the sums are those of one global cumsum (and
    0.0 + s_0 == s_0 starts them).
    """
    n = arrivals.size
    c = np.empty(n)
    s = np.zeros(min(n, _CHUNK) + 1)
    peak = -np.inf
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        m = hi - lo
        np.divide(sizes[lo:hi], mu, out=s[1:m + 1])
        np.add.accumulate(s[:m + 1], out=s[:m + 1])
        cc = c[lo:hi]
        np.subtract(arrivals[lo:hi], s[:m], out=cc)
        cc[0] = np.maximum(peak, cc[0])
        np.maximum.accumulate(cc, out=cc)
        peak = cc[-1]
        cc += s[1:m + 1]
        s[0] = s[m]
    return c


def _drop_tail(arrivals, sizes, mu, cap_k):
    """kernels.des_fifo's results, with its loop run only where needed and
    in numpy blocks where the packets share one size.

    The drop-tail backlog never exceeds the infinite-buffer backlog on the
    same arrivals (the recursion is monotone in its input, and so is its
    rounding).  An infinite-buffer busy period in which no arrival sees
    backlog + size near cap_k therefore starts empty under both disciplines
    and drops nothing: _lindley's departures stand.  The loop walks the
    remaining ("hot") periods back to back from c_prev = -inf, which is
    exact because each of them starts empty.  If every hot packet has one
    size, _one_size_drop_tail gives the loop's results bit for bit, walking
    long busy runs in blocks; otherwise kernels.des_fifo runs.

    ``tol`` bounds how far the cumulative-sum form of _lindley can sit from
    the loop's rounding (about 3 n ulps of the largest time).  A period
    starts only where the queue is empty by more than tol, and an arrival is
    hot from cap_k - mu * tol on; both only enlarge the hot set.  Returns
    (depart, last_c, n_dropped, dropped_bits, looped packets, of those the
    packets taken one at a time).  A dropped
    packet ahead of the first accepted one in its period may get another
    last_c than the loop's, but both are at most its arrival time, so the
    sampled backlog is the same.
    """
    c = _lindley(arrivals, sizes, mu)
    n = c.size
    if n == 0:
        return c, c, 0, 0.0, 0, 0
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

    sizes_h = sizes[idx]
    if idx.size and sizes_h.min() == sizes_h.max():
        dep_h, last_h, n_drop, bits_drop, stepped = _one_size_drop_tail(
            arrivals[idx], float(sizes_h[0]), mu, cap_k)
    else:
        dep_h, last_h, n_drop, bits_drop = kernels.des_fifo(
            arrivals[idx], sizes_h, mu, cap_k)
        stepped = idx.size
    last_c = c
    if n_drop:
        last_c = c.copy()
        last_c[idx] = last_h
    c[idx] = dep_h
    return c, last_c, n_drop, bits_drop, int(idx.size), stepped


# _one_size_drop_tail's block policy: a busy run is walked in blocks once it
# holds _RUN_MIN packets; a block starts at _BLOCK_MIN packets and doubles up
# to _BLOCK_MAX while the server stays busy.
_RUN_MIN = 32
_BLOCK_MIN = 64
_BLOCK_MAX = 4096


def _one_size_drop_tail(arrivals, size, mu, cap_k):
    """kernels.des_fifo(arrivals, sizes, mu, cap_k) for sizes all equal to
    ``size``, bit for bit, with long busy runs walked in numpy blocks.

    While the server stays busy, the loop's completion time after k more
    accepted packets is comp[k] = c + tau + ... + tau (tau = size / mu),
    which add.accumulate sums in the loop's order.  The loop's drop test
    (comp - a) * mu + size > cap_k is monotone in comp and in a, so
    arrival i would be accepted at each of the first m_i entries of comp
    and at none after them, and m is nondecreasing.  Arrival i finds k_i
    accepted before it and is accepted iff k_i < m_i; hence
    k_(i+1) = min(k_i + 1, m_i), which unrolls to
    k_i = i + min(0, min over l < i of (m_l - l - 1)).  A block ends at the
    first arrival that finds the server idle (comp[k_i] <= a_i), where the
    loop restarts from the arrival itself; short busy runs take the loop's
    own step.  Returns (depart, last_c, n_dropped, dropped_bits, packets
    taken one at a time).
    """
    n = arrivals.size
    depart = np.empty(n)
    last_c = np.empty(n)
    tau = size / mu
    c = -np.inf
    j = run = n_drop = stepped = 0
    block = _BLOCK_MIN
    while j < n:
        a = arrivals[j]
        if run < _RUN_MIN or not c > a:
            if c > a:
                backlog, start = (c - a) * mu, c
            else:
                backlog, start, run, block = 0.0, a, 0, _BLOCK_MIN
            if backlog + size > cap_k:
                depart[j] = np.nan
                n_drop += 1
            else:
                c = start + tau
                depart[j] = c
            last_c[j] = c
            run += 1
            j += 1
            stepped += 1
            continue

        ab = arrivals[j:j + block]
        b = ab.size
        comp = np.full(b + 1, tau)
        comp[0] = c
        np.add.accumulate(comp, out=comp)
        m = np.searchsorted(comp, ab + (cap_k - size) / mu, side="right")
        # settle m on the loop's own test, which the threshold's rounding
        # can miss by an entry
        while True:
            i = np.flatnonzero(m)
            i = i[(comp[m[i] - 1] - ab[i]) * mu + size > cap_k]
            if not i.size:
                break
            m[i] -= 1
        while True:
            i = np.flatnonzero(m <= b)
            i = i[(comp[m[i]] - ab[i]) * mu + size <= cap_k]
            if not i.size:
                break
            m[i] += 1
        k = np.arange(b + 1)
        gap = m - k[1:]
        np.minimum.accumulate(gap, out=gap)
        np.minimum(gap, 0, out=gap)
        k[1:] += gap
        busy = comp[k[:-1]] > ab
        e = int(busy.argmin())          # busy[0] holds, since c > a
        if busy[e]:
            e = b
            block = min(2 * block, _BLOCK_MAX)
        kept = comp[k[1:e + 1]]
        last_c[j:j + e] = kept
        dep = depart[j:j + e]
        dep[:] = kept
        dep[k[1:e + 1] == k[:e]] = np.nan
        n_drop += e - int(k[e])
        c = kept[-1]
        j += e
    return depart, last_c, n_drop, _repeated_sum(size, n_drop), stepped


def _repeated_sum(value, count):
    """0.0 + value + ... + value (count terms), added left to right as the
    event loop adds its dropped sizes; not count * value, which can round
    otherwise."""
    total = 0.0
    while count:
        terms = np.full(min(count, 1 << 16) + 1, value)
        terms[0] = total
        total = float(np.add.accumulate(terms)[-1])
        count -= terms.size - 1
    return total


def departures_to_outflow(result: DesResult, dt: float) -> RateSeries:
    """Bin departure completions with the same half-open rule used for
    arrivals; the trace horizon start anchors the grid."""
    dep = result.departures
    t0 = dep.horizon[0]
    t1 = max(float(result.sample_times[-1]), dep.horizon[1])
    return bin_rates(dep.times, dep.sizes, t0, t1, dt)
