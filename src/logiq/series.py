"""Core data carriers: packet traces and uniformly sampled rate series.

A :class:`RateSeries` stores bits/second on a uniform grid of step ``dt``;
``values[i]`` is the aggregate rate over the half-open bin
``(t0 + i*dt, t0 + (i+1)*dt]`` and is anchored at the bin's right edge.
A :class:`PacketTrace` is a time-sorted sequence of arrivals of packets of
one size.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class ParameterError(ValueError):
    """Invalid model or operation parameter."""


# packets per chunk of PacketTrace's sortedness check
_SORT_CHECK = 1 << 16
# lines per write of a CSV file
_CSV_LINES = 1 << 16
# edge_counts' tolerance is a few of these relative to the times
_EPS = float(np.finfo(np.float64).eps)


def _write_csv(path, header, line, *columns):
    """Write ``header``, then ``line % row`` for each row of the float
    arrays ``columns`` side by side, formatting _CSV_LINES rows of Python
    floats at once (so %r writes a float's repr)."""
    with open(path, "w") as fh:
        fh.write(header)
        for i in range(0, len(columns[0]), _CSV_LINES):
            part = np.column_stack([c[i:i + _CSV_LINES] for c in columns])
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))


@dataclass(frozen=True)
class PacketTrace:
    """Sorted packet arrivals (seconds) over a horizon, every packet of one
    size, ``packet_bits`` bits (a positive, finite float)."""

    times: np.ndarray
    packet_bits: float
    horizon: tuple = (0.0, 0.0)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "packet_bits", float(self.packet_bits))
        if times.ndim != 1:
            raise ParameterError("times must be a 1-d array")
        # negated checks, so that NaN fails them; sortedness is checked a
        # chunk at a time, without an n-byte mask
        for lo in range(0, times.size - 1, _SORT_CHECK):
            chunk = times[lo:lo + _SORT_CHECK + 1]
            if not np.all(chunk[1:] >= chunk[:-1]):
                raise ParameterError("packet times must be sorted nondecreasing")
        if not 0 < self.packet_bits < math.inf:
            raise ParameterError("packet_bits must be finite and > 0")
        t0, t1 = self.horizon
        if not t0 <= t1:
            raise ParameterError("empty horizon")
        if times.size and not (t0 <= times[0] and times[-1] <= t1):
            raise ParameterError("packet times outside horizon")

    @classmethod
    def unchecked(cls, times, packet_bits, horizon):
        """The trace of float64 ``times`` and float ``packet_bits`` that
        their maker has made valid, sorted and inside ``horizon``, as the
        oracle's departures and a merged segment are, without
        __post_init__'s passes over the packets."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "times", times)
        object.__setattr__(trace, "packet_bits", packet_bits)
        object.__setattr__(trace, "horizon", horizon)
        return trace

    def __len__(self):
        return self.times.size

    @property
    def total_bits(self) -> float:
        return len(self) * self.packet_bits

    def to_csv(self, path):
        _write_csv(path, "t_arrival_s,size_bits\n",
                   f"%.9f,{self.packet_bits:g}\n", self.times)


@dataclass(frozen=True)
class RateSeries:
    """Nonnegative flow rate (bits/s) sampled each ``dt`` seconds from ``t0``.

    ``values[i]`` lives at grid point ``t0 + (i+1)*dt``.  Evaluation between
    grid points is piecewise linear with constant extrapolation at both ends.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        if not math.isfinite(self.t0):
            raise ParameterError("t0 must be finite")
        if not 0 < self.dt < math.inf:
            raise ParameterError("dt must be finite and > 0")
        if values.ndim != 1:
            raise ParameterError("values must be a 1-d array")
        if not np.all((values >= 0) & (values < math.inf)):   # NaN too
            raise ParameterError("rates must be finite and nonnegative")

    def __len__(self):
        return self.values.size

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * len(self)

    @property
    def sample_times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(1, len(self) + 1)

    def __call__(self, t):
        """Linear interpolation between sample points, constant at the ends."""
        return np.interp(t, self.sample_times, self.values)

    def integral(self) -> float:
        """Exact integral of the piecewise-linear interpolant over
        [t0, t_end] (first bin uses the constant left extension)."""
        v = self.values
        if v.size == 0:
            return 0.0
        inner = _trapezoid(v, dx=self.dt)
        return float(inner + v[0] * self.dt)

    def same_grid(self, other) -> bool:
        return (len(self) == len(other)
                and abs(self.t0 - other.t0) < 1e-9
                and abs(self.dt - other.dt) < 1e-12 * max(1.0, self.dt))

    def to_csv(self, path):
        _write_csv(path, "t_s,rate_bps\n", "%.9f,%r\n", self.sample_times,
                   self.values)


def merge_traces(traces, horizon=None) -> PacketTrace:
    """Stable sorted merge of packet traces of one packet size sharing one
    horizon: packets at equal times keep the order of ``traces``.

    ``horizon`` defaults to the first trace's.  Traces of different sizes,
    and an empty list, which has no size, raise ParameterError.
    """
    traces = list(traces)
    if not traces:
        raise ParameterError("no traces to merge")
    if horizon is None:
        horizon = traces[0].horizon
    bits = traces[0].packet_bits
    for tr in traces:
        if tuple(tr.horizon) != tuple(horizon):
            raise ParameterError("cannot merge traces with different horizons")
        if tr.packet_bits != bits:
            raise ParameterError("cannot merge traces of different packet sizes")
    return PacketTrace(_merge_sorted([tr.times for tr in traces], horizon),
                       bits, horizon)


# _merge_sorted's target bucket length in packets: a bucket's sort stays in
# cache, and its timsort buffer is small
_BUCKET = 1 << 15


def _merge_sorted(runs, horizon, out=None):
    """np.sort(np.concatenate(runs), kind="stable"), byte for byte, for
    nondecreasing ``runs`` inside ``horizon``, written to ``out`` (a new
    array if None) and holding no other array as long.

    Edges spaced evenly over the horizon cut every run by searchsorted, so
    equal values (-0.0 and 0.0 among them) fall into one bucket.  Each bucket
    is filled in run order and sorted on its own.  Without NaN, which
    PacketTrace rejects, only -0.0 and 0.0 compare equal and differ in their
    bytes, so the default (unstable, faster) sort gives the stable result
    unless some run holds a zero; then the buckets are stable-sorted, which
    keeps the run order of equal values.  Skewed times, or times outside the
    horizon, only make the buckets uneven.
    """
    kind = None
    for r in runs:
        i = np.searchsorted(r, 0.0)
        if i < r.size and r[i] == 0.0:
            kind = "stable"
    n = sum(r.size for r in runs)
    out = np.empty(n) if out is None else out
    edges = np.linspace(horizon[0], horizon[1], max(1, n // _BUCKET) + 1)[1:-1]
    cuts = [[0, *np.searchsorted(r, edges).tolist(), r.size] for r in runs]
    lo = 0
    for b in range(edges.size + 1):
        hi = lo
        for r, cut in zip(runs, cuts):
            part = r[cut[b]:cut[b + 1]]
            out[hi:hi + part.size] = part
            hi += part.size
        out[lo:hi].sort(kind=kind)
        lo = hi
    return out


def trace_to_inflow(trace, dt: float, horizon=None) -> RateSeries:
    """Aggregate packet arrivals into a rate series with bin width ``dt``.

    Bin i collects bits arriving in (t0 + i*dt, t0 + (i+1)*dt]; an arrival
    exactly at t0 goes to bin 0 so total mass is conserved.  An iterable of
    traces sharing ``horizon`` (defaulted to the first trace's, (0, 0)
    with none) is binned trace by trace as it is consumed, summing bits
    per bin in trace order: for whole-bit sizes that is the binned
    merge_traces(trace), bit for bit.  Each trace is let go once binned, so
    a generator of traces never has two alive here.
    """
    traces = iter([trace] if isinstance(trace, PacketTrace) else trace)
    tr = next(traces, None)
    if horizon is None:
        horizon = tr.horizon if tr is not None else (0.0, 0.0)
    t0, t1 = horizon
    bits = _bin_bits((), None, t0, t1, dt)     # the empty grid; checks dt
    while tr is not None:
        if tuple(tr.horizon) != tuple(horizon):
            raise ParameterError("cannot bin traces with different horizons")
        bits += _bin_bits(tr.times, tr.packet_bits, t0, t1, dt)
        del tr
        tr = next(traces, None)
    return RateSeries(t0, dt, bits / dt)


def bin_rates(times, packet_bits, t0, t1, dt) -> RateSeries:
    """The rate series of packets of ``packet_bits`` bits arriving at the
    nondecreasing ``times`` in [t0, t1], binned as trace_to_inflow
    describes."""
    return RateSeries(t0, dt, _bin_bits(times, packet_bits, t0, t1, dt) / dt)


def _bin_bits(times, packet_bits, t0, t1, dt) -> np.ndarray:
    """The bits per bin of bin_rates.  A packet at t goes to bin
    clip(ceil((t - t0) / dt) - 1), evaluated in floating point."""
    if not 0 < dt < math.inf:       # NaN fails too
        raise ParameterError("dt must be finite and > 0")
    return bin_range(times, packet_bits, t0, dt, 0, n_bins(t0, t1, dt))


def n_bins(t0, t1, dt) -> int:
    """The number of bins of width dt that bin_rates puts on [t0, t1]."""
    return max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))


def bin_range(times, packet_bits, t0, dt, b0, b1) -> np.ndarray:
    """The bits per bin of bins b0..b1-1 of the grid t0 + k dt, for
    nondecreasing ``times`` that _bin_bits puts in those bins, the last bin
    taking every packet past its left edge: each bin's count of packets
    (edge_counts) times ``packet_bits``, exact for a whole-bit size."""
    n = len(times)
    if n == 0:
        return np.zeros(b1 - b0)
    return np.diff(edge_counts(times, t0, dt, np.arange(b0 + 1, b1)),
                   prepend=0, append=n) * packet_bits


def edge_counts(times, t0, dt, k) -> np.ndarray:
    """For each edge index in ``k``, the number of leading ``times`` that
    lie in a bin below edge t0 + k dt, that is with (t - t0) / dt <= k in
    floating point.  The rule is nondecreasing in t, so the packets more
    than ``tol`` (a few ulps) from the edge fall on its side by
    searchsorted, and the rule itself settles the few within tol, where
    there are any."""
    edges = t0 + dt * k
    tol = 4.0 * _EPS * (abs(t0) + np.abs(edges) + dt * k)
    lo = np.searchsorted(times, edges - tol, side="right")
    hi = np.searchsorted(times, edges + tol, side="right")
    if (hi == lo).all():
        return lo
    near = run_indices(lo, hi)
    owner = np.repeat(np.arange(k.size), hi - lo)
    below = (times[near] - t0) / dt <= k[owner]
    return lo + np.bincount(owner[below], minlength=k.size)


def merged_segments(runs, t0, dt, n, width):
    """The stable merge of ``runs`` binned on n bins of the grid t0 + k dt,
    one segment of ``width`` bins at a time.

    Each run is an iterator over the nondecreasing arrays of one source,
    in time order.  Yields (times, b0, b1): the merged times that _bin_bits
    puts in bins b0..b1-1, the last segment taking every time left.  The
    bin rule is nondecreasing in t, so equal times share a segment, and the
    segments in turn are np.sort(np.concatenate(all), kind="stable") byte
    for byte.  A segment's runs are merged by _merge_sorted into one reused
    buffer, so each segment is overwritten by the next.

    Where os.fork exists (traffic_process), the runs are drawn in a child
    process (producer.drawn_in_child), which writes each run's chunks
    straight into the slot it shares with this process; the merge copies
    the segment out of the slot, which is then acknowledged, so the child
    writes the next segment while this one is binned and used.  Else they
    are drawn here, each run's chunks joined as soon as the run is cut
    (_take), so that a segment's chunks and its joined runs are not all
    alive at once.  Close the generator to end and reap the child early.
    """
    starts = range(0, n, width)
    ends = [min(b0 + width, n) for b0 in starts]
    spans = iter(zip(starts, ends))
    buf = np.empty(0)

    def merge(taken):
        nonlocal buf
        b0, b1 = next(spans)
        size = sum(r.size for r in taken)
        if buf.size < size:
            buf = np.empty(size)
        return (_merge_sorted(taken, (t0 + b0 * dt, t0 + b1 * dt),
                              buf[:size]), b0, b1)

    cuts = [b1 if b1 < n else None for b1 in ends]
    if traffic_process() == "inline":
        # map lets each segment's joined runs go as soon as they are merged
        yield from map(merge, _drawn(runs, t0, dt, cuts, np.concatenate))
        return
    # imported here: only a stream needs it, and setup need not compile it
    from .producer import drawn_in_child
    yield from drawn_in_child(_drawn(runs, t0, dt, cuts, list), merge)


def traffic_process():
    """Where merged_segments draws its runs: "child", a process forked for
    them, where os.fork exists, else "inline"."""
    return "child" if hasattr(os, "fork") else "inline"


def _drawn(runs, t0, dt, cuts, join):
    """Each run's times below each edge index of ``cuts`` in turn (None:
    all that is left), as _take gives them.  Only the chunk that straddles
    an edge is held over, with the part of it the segment does not take."""
    heads = [np.empty(0)] * len(runs)
    for k in cuts:
        yield _take(runs, heads, t0, dt, k, join)


def _take(runs, heads, t0, dt, k, join):
    """Every run's times below edge index ``k`` (None: all of them), in run
    order, each run given as join(parts): its head, the part already drawn,
    and its next chunks, the last of them cut at the edge.  The rest of
    that chunk becomes its head.  The child passes the parts on as they
    are (join=list) and writes them straight into its slot; drawn inline
    they are joined (np.concatenate) before the next run is drawn."""
    taken = []
    for i, run in enumerate(runs):
        chunk, parts = heads[i], []
        while chunk is not None and (k is None or not chunk.size
                                     or (chunk[-1] - t0) / dt <= k):
            parts.append(chunk)
            chunk = next(run, None)
        if chunk is None:
            heads[i] = np.empty(0)
        else:
            cut = int(edge_counts(chunk, t0, dt, np.array([k]))[0])
            parts.append(chunk[:cut])
            heads[i] = chunk[cut:]
        taken.append(join(parts))
    return taken


def run_indices(begin, end):
    """The indices begin[i] <= j < end[i] of each run, concatenated."""
    length = end - begin
    idx = np.repeat(begin - np.cumsum(length) + length, length)
    idx += np.arange(idx.size)
    return idx


def mean_rate(x: RateSeries) -> float:
    """Mean inflow (rectangle rule on the uniform grid)."""
    if len(x) == 0:
        raise ParameterError("empty rate series")
    return float(x.values.mean())


def intensity(x: RateSeries, mu: float) -> float:
    """Mean occupancy: mean rate divided by the service rate."""
    if not mu > 0:      # NaN fails too
        raise ParameterError("mu must be > 0")
    return mean_rate(x) / mu
