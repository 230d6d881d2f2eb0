"""Packet-level single-server FIFO simulator (the ground-truth oracle): the
Lindley recursion in closed form.  With a drop-tail buffer, only the busy
periods whose backlog comes near the capacity follow the event loop exactly;
every other packet keeps its closed-form departure.  When those periods hold
one packet size (all generated traffic), their long busy runs are walked in
exact numpy blocks and only short ones take the event loop's scalar step;
mixed sizes (CSV-loaded traces) run the event loop kernels.des_fifo.

Either buffer keeps one full-length array, the departure times: the
drop-tail scan works in chunks, a long hot period is walked in a view of
the departures (short ones are gathered a chunk at a time), the accepted
departures are compacted in place, and the backlog samples read the last
completion only at the sample points.  Departures of a one-size trace keep
its sizes as a stride-0 view.

Backlog counts every bit that has arrived but not yet departed, including the
remainder of the in-service packet.  With a finite buffer, an arriving packet
is dropped whole when backlog + size would exceed the capacity (drop-tail).
"""

import math
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
        # negated checks, so that NaN and infinities fail them
        if not 0 < self.mu < math.inf:
            raise ParameterError("mu must be finite and > 0")
        if not 0 < self.sample_dt < math.inf:
            raise ParameterError("sample_dt must be finite and > 0")
        if (self.capacity_k is not None
                and not 0 < self.capacity_k < math.inf):
            raise ParameterError("capacity_k must be finite and > 0; None "
                                 "is the infinite buffer")


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
    # arrivals at or before each sample time
    seen = np.searchsorted(trace.times, sample_times, side="right")

    dep_sizes, bits_drop = trace.sizes, 0.0
    if cfg.capacity_k is None:
        depart = _lindley(trace.times, trace.sizes, float(cfg.mu))
        looped = stepped = 0
    else:
        depart, looped, stepped = _drop_tail(
            trace.times, trace.sizes, float(cfg.mu), float(cfg.capacity_k))
        if looped:          # only the looped periods can drop packets
            # mixed sizes are gathered; one size stays a stride-0 view
            if dep_sizes.strides != (0,):
                dep_sizes = dep_sizes[~np.isnan(depart)]
            w, seen, bits_drop = _compact(depart, trace.sizes, seen)
            depart, dep_sizes = depart[:w], dep_sizes[:w]
    dep_end = float(depart[-1]) if depart.size else t1
    departures = PacketTrace(depart, dep_sizes, (t0, max(t1, dep_end)))

    # backlog(t) = mu * max(0, C(t) - t) with C(t) the completion time of
    # the last accepted arrival at or before t: seen now counts the
    # accepted ones, and departures keep arrival order
    if depart.size:
        c_at = np.where(seen > 0, depart[np.maximum(seen - 1, 0)], -np.inf)
        q = cfg.mu * np.maximum(0.0, c_at - sample_times)
        q[~np.isfinite(q)] = 0.0
    else:
        q = np.zeros_like(sample_times)

    return DesResult(sample_times, q, departures, len(trace) - depart.size,
                     float(bits_drop), looped, stepped)


# chunk length in packets of _lindley, the drop-tail scan and the
# compaction: their scratch arrays hold one chunk, not the whole trace
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
    """kernels.des_fifo's departures (NaN for a drop), with its loop run only
    where needed and in numpy blocks where the packets share one size.

    The drop-tail backlog never exceeds the infinite-buffer backlog on the
    same arrivals (the recursion is monotone in its input, and so is its
    rounding).  An infinite-buffer busy period in which no arrival sees
    backlog + size near cap_k therefore starts empty under both disciplines
    and drops nothing: _lindley's departures stand.  The remaining ("hot")
    periods are contiguous slices, and each starts empty, so the loop walks
    them from c_prev = -inf, writing over _lindley's departures: a long one
    in a view, short ones as _walk_groups gathers them.  If every hot
    packet has one size, _one_size_drop_tail gives the loop's results bit
    for bit, walking long busy runs in blocks; otherwise kernels.des_fifo
    runs.

    ``tol`` bounds how far the cumulative-sum form of _lindley can sit from
    the loop's rounding (about 3 n ulps of the largest time).  A period
    starts only where the queue is empty by more than tol, and an arrival is
    hot from cap_k - mu * tol on; both only enlarge the hot set.  Returns
    (depart, looped packets, of those the packets taken one at a time).
    """
    c = _lindley(arrivals, sizes, mu)
    n = c.size
    if n == 0:
        return c, 0, 0
    eps = np.finfo(np.float64).eps
    tol = 4.0 * n * eps * (abs(c[-1]) + abs(arrivals[0]) + 1.0)
    slack = mu * tol + 8.0 * eps * cap_k
    lo, hi = _hot_ranges(c, arrivals, sizes, mu, tol, cap_k - slack)
    looped = int((hi - lo).sum())
    one_size = _one_size(sizes, lo, hi)
    stepped = 0
    for sel in _walk_groups(lo, hi):
        dep = c[sel]        # a view of a slice, a copy of gathered indices
        if one_size:
            stepped += _one_size_drop_tail(arrivals[sel], float(sizes[lo[0]]),
                                           mu, cap_k, dep)
        else:
            dep[:] = kernels.des_fifo(arrivals[sel], sizes[sel], mu, cap_k)[0]
            stepped += dep.size
        c[sel] = dep
    return c, looped, stepped


def _hot_ranges(c, arrivals, sizes, mu, tol, level):
    """(lo, hi) arrays of the infinite-buffer busy periods [lo, hi) in which
    an arrival sees backlog + size > level, adjacent ones merged.  A period
    starts at an arrival that finds the server idle by more than tol.  The
    scan takes one _CHUNK at a time, carrying the open period's start and
    whether it is hot, so it holds chunk-sized scratch and the hot periods.
    """
    n = c.size
    wait = np.empty(min(n, _CHUNK))    # > 0: the arrival finds a backlog
    los, his = [], []
    start, hot = 0, False              # the open period
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        w = wait[:hi - lo]
        if lo:
            np.subtract(c[lo - 1:hi - 1], arrivals[lo:hi], out=w)
        else:
            w[0] = -np.inf
            np.subtract(c[:hi - 1], arrivals[1:hi], out=w[1:])
        # the periods that meet this chunk start at b[0], ..., b[-1] (in
        # the first chunk b[0] == b[1], and that empty period is not hot)
        b = np.append(start, lo + np.flatnonzero(w < -tol))
        np.maximum(w, 0.0, out=w)
        w *= mu
        w += sizes[lo:hi]
        hot_b = np.zeros(b.size, dtype=bool)
        hot_b[np.searchsorted(b, lo + np.flatnonzero(w > level),
                              side="right") - 1] = True
        hot_b[0] |= hot
        los.append(b[:-1][hot_b[:-1]])
        his.append(b[1:][hot_b[:-1]])
        start, hot = b[-1], hot_b[-1]
    if hot:
        los.append([start])
        his.append([n])
    lo, hi = np.concatenate(los), np.concatenate(his)
    apart = np.flatnonzero(lo[1:] != hi[:-1])    # range i + 1 not adjacent
    return (np.append(lo[:1], lo[apart + 1]),
            np.append(hi[apart], hi[-1:]))


def _walk_groups(lo, hi):
    """The hot ranges [lo, hi) in order, one walk each: a slice of the
    trace, or the gathered indices of ranges shorter than _CHUNK that start
    in one chunk of the trace.  Each range starts empty, so walking them
    back to back is exact; it spares many short ranges the per-call cost,
    and a gather holds under 2 * _CHUNK packets."""
    if not lo.size:
        return
    short = hi - lo < _CHUNK
    key = np.where(short, lo // _CHUNK, -1 - np.arange(lo.size))
    cut = np.flatnonzero(key[1:] != key[:-1]) + 1
    for a, b in zip(np.split(lo, cut), np.split(hi, cut)):
        yield slice(int(a[0]), int(b[0])) if a.size == 1 else run_indices(a, b)


def _one_size(sizes, lo, hi):
    """Whether the packets of the ranges [lo, hi) (sorted, nonempty and
    apart) all have one size."""
    if sizes.strides == (0,):
        return True
    # reduceat reduces from each edge to the next, the last one to the end
    edges = np.column_stack((lo, hi)).ravel()
    edges = edges[edges < sizes.size]
    return bool(edges.size) and (np.minimum.reduceat(sizes, edges)[::2].min()
                                 == np.maximum.reduceat(sizes, edges)[::2].max())


def _compact(depart, sizes, seen):
    """Move the accepted (non-NaN) departures to the front of ``depart`` in
    arrival order, one _CHUNK at a time; the write position never passes
    the read position.  Returns their number; for each entry i of the
    nondecreasing ``seen``, how many of them lie in depart[:i]; and the
    dropped bits, added in arrival order as the event loop adds them."""
    w, bits = 0, 0.0
    kept_before = np.zeros_like(seen)
    for lo in range(0, depart.size, _CHUNK):
        chunk = depart[lo:lo + _CHUNK]
        keep = ~np.isnan(chunk)
        first, last = np.searchsorted(seen, [lo, lo + chunk.size],
                                      side="right")
        for i in range(first, last):
            kept_before[i] = w + np.count_nonzero(keep[:seen[i] - lo])
        kept = chunk[keep]
        if kept.size < chunk.size:
            bits = _add_in_order(bits, sizes[lo:lo + chunk.size][~keep])
        depart[w:w + kept.size] = kept
        w += kept.size
    return w, kept_before, bits


# _one_size_drop_tail's block policy: a busy run is walked in blocks once it
# holds _RUN_MIN packets; a block starts at _BLOCK_MIN packets and doubles up
# to _BLOCK_MAX while the server stays busy.
_RUN_MIN = 32
_BLOCK_MIN = 64
_BLOCK_MAX = 4096


def _one_size_drop_tail(arrivals, size, mu, cap_k, depart):
    """Write kernels.des_fifo(arrivals, sizes, mu, cap_k)'s departures for
    sizes all equal to ``size`` into ``depart``, bit for bit, with long busy
    runs walked in numpy blocks.  ``depart`` may be a view of a larger
    array; only ``arrivals`` is read.

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
    own step.  The loop's last completion is the forward fill of these
    departures, so none is kept.  Returns the packets taken one at a time.
    """
    n = arrivals.size
    tau = size / mu
    c = -np.inf
    j = run = stepped = 0
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
            else:
                c = start + tau
                depart[j] = c
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
        dep = depart[j:j + e]
        dep[:] = kept
        dep[k[1:e + 1] == k[:e]] = np.nan
        c = kept[-1]
        j += e
    return stepped


def _add_in_order(total, values):
    """total + values[0] + values[1] + ..., added left to right as the
    event loop adds its dropped sizes; not values.sum(), which adds
    pairwise and can round otherwise."""
    terms = np.empty(values.size + 1)
    terms[0] = total
    terms[1:] = values
    return float(np.add.accumulate(terms, out=terms)[-1])


def departures_to_outflow(result: DesResult, dt: float) -> RateSeries:
    """Bin departure completions with the same half-open rule used for
    arrivals; the trace horizon start anchors the grid."""
    dep = result.departures
    t0 = dep.horizon[0]
    t1 = max(float(result.sample_times[-1]), dep.horizon[1])
    return bin_rates(dep.times, dep.sizes, t0, t1, dt)
