"""Packet-level single-server FIFO simulator (the ground-truth oracle): the
event loop kernels.des_fifo, reproduced bit for bit by one Lindley scan that
serves both buffers for a trace of one packet size.

The loop sets c = fl(m + tau) with m = max(c_prev, a) and tau = fl(s / mu).
Let m lie in the binade [2^e, 2^(e+1)), where floats are the multiples of
u = 2^(e-52), and let tau_e be tau rounded to a multiple of u.  If tau / u
is not a half-integer and m + tau_e < 2^(e+1), then fl(m + tau) = m + tau_e
exactly, since m is a multiple of u.  While that holds the loop is exact
arithmetic and unrolls to c_j = T_j + max(c_prev, max over k <= j of
(a_k - T_(k-1))), T_k = k tau_e: a block in one binade costs one running
maximum (_lindley).  m never decreases, so each binade is entered once.

Mode L runs such blocks and, with a finite buffer, the loop's drop test on
them, accepting every packet before the first drop.  The test drops an
arrival iff fl(c_prev - a) > lim, the largest float d with d mu + s <= K as
the loop rounds it; in a sub-block of arrivals, c_prev - a is at most a
later departure less the first arrival, so only the sub-blocks where that
bound exceeds lim are tested packet by packet (_first_drop).  From a drop,
mode D walks the busy run up to the first idle arrival in numpy blocks of
one running minimum each (_busy_walk).  The loop's scalar step takes only
the packets where the rule fails: at a binade crossing, in a binade where
the size ties, where m is below the smallest normal float (zero and
negative times), and in mode D where tau_e is under 64 ulps of the times
or of lim.  Dropped bits are drops x size, as the loop counts them.

Accepted departures, the one array as long as the trace, are written
compacted as they are made; the backlog samples read the last completion
only at the sample points.  A trace can also be fed in time segments
(FifoCarry(cfg, horizon, size)): the carry holds the loop's state from one
to the next, so only a segment's arrays are alive.

Backlog counts every bit that has arrived but not yet departed, including the
remainder of the in-service packet.  With a finite buffer, an arriving packet
is dropped whole when backlog + size would exceed the capacity (drop-tail).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .series import (PacketTrace, RateSeries, ParameterError, _write_csv,
                     bin_rates, n_bins)


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
    departures: PacketTrace    # None for a trace fed in segments
    drop_count: int
    drop_bits: float
    looped: int     # packets of the busy runs walked after a drop (mode D)
    stepped: int    # packets taken by the event loop's scalar step
    packets: int    # arrivals
    segments: int   # time segments the arrivals were fed in

    def q_to_csv(self, path):
        _write_csv(path, "t_s,q_bits\n", "%.9f,%r\n", self.sample_times,
                   self.q_sampled)


def simulate_fifo(trace: PacketTrace, cfg: DesConfig,
                  carry=None) -> DesResult:
    """Run the FIFO recursion over a sorted trace and sample the backlog on
    the grid t0 + i*sample_dt covering the horizon.

    With a ``carry`` (FifoCarry(cfg, horizon, size)), ``trace`` is the next
    time segment of a longer trace of that packet size on that horizon, no
    packet earlier than the last segment's.  The loop goes on from the
    carried state, and the result is the segment's: its departures, drops
    and dropped bits, and the samples it settled; carry.result() gives the
    whole trace's.
    The departures view a buffer that the next segment reuses.
    """
    if carry is None:
        carry = FifoCarry(cfg, trace.horizon, trace.packet_bits)
        return carry.result(carry.feed(trace).departures)
    if carry.cfg != cfg:
        raise ParameterError("cfg must be the carry's cfg")
    if trace.packet_bits != carry.size:
        raise ParameterError("packet_bits must be the carry's size")
    return carry.feed(trace)


# block lengths in packets: mode L's blocks grow from _BLOCK_MIN to _CHUNK,
# doubling while nothing cuts them short, and a busy walk's are _BLOCK_MAX;
# the scratch arrays hold one block, not the whole trace.  The drop test
# bounds the backlogs, and the walk checks its idle candidates, _SUB
# arrivals at a time
_CHUNK = 1 << 16
_BLOCK_MIN = 64
_BLOCK_MAX = 1 << 14
_SUB = 128
# the binade rule needs the ulp of m to be a float
_TINY = float(np.finfo(np.float64).tiny)


def _limit(mu, size, cap):
    """lim: the largest float d with d * mu + size <= cap as the loop rounds
    it, by bisection on the bits of d >= 0 (0 passes, as size <= cap).  The
    loop's test is nondecreasing in d = fl(c_prev - a), so it drops an
    arrival iff that is above lim."""
    lo, hi = 0, 0x7FF0000000000000          # the bits of 0.0 and of inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(np.int64(mid).view(np.float64)) * mu + size <= cap:
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64))


class FifoCarry:
    """kernels.des_fifo's loop over a trace of one packet size fed in one or
    more time segments, in the modes of the module docstring, and the
    backlog samples settled so far.

    The state is the loop's: the last completion c and the drops so far,
    with whether a segment ended inside a busy walk (walking), so the counts
    of mode D are the whole trace's, and mode L's block length.  In a
    segment, j is the next arrival and the accepted departures are out[:w];
    kept[i] counts the accepted packets among the first seen[i] arrivals.
    The departures' buffer and the walk's scratch d serve every segment.

    backlog(t) = mu * max(0, C(t) - t) with C(t) the completion time of the
    last accepted arrival at or before t.  A segment settles the samples
    before its last arrival, since every later arrival comes after them;
    for one with no accepted arrival at or before it in the segment, C is
    the carried c (-inf before the first acceptance).  result() settles the
    rest from the last c.
    """

    def __init__(self, cfg: DesConfig, horizon, size):
        self.cfg, self.size = cfg, float(size)
        self.t0, self.t1 = horizon
        n = n_bins(self.t0, self.t1, cfg.sample_dt)
        self.sample_times = self.t0 + cfg.sample_dt * np.arange(n + 1)
        self.q = np.zeros(n + 1)
        self.settled = 0    # the samples before it are settled
        self.mu, self.cap = float(cfg.mu), cfg.capacity_k
        self.tau = self.size / self.mu
        if self.cap is not None and self.size <= self.cap:
            self.lim = _limit(self.mu, self.size, self.cap)
        self.c = -math.inf
        self.walking = False
        self.block = _BLOCK_MIN
        self.looped = self.stepped = self.drops = 0
        self.packets = self.segments = 0
        self.out = np.empty(0)
        self.d = np.empty((2, 0 if self.cap is None else _BLOCK_MAX + 1))
        self.ex = self.ramp = None

    def feed(self, trace):
        """One segment through the loop; simulate_fifo describes the
        result."""
        times, s0 = trace.times, self.settled
        s1 = s0 + (int(np.searchsorted(self.sample_times[s0:], times[-1]))
                   if times.size else 0)
        samples = self.sample_times[s0:s1]
        c, drops = self.c, self.drops
        looped, stepped = self.looped, self.stepped
        # arrivals at or before each sample time
        self._start(times, np.searchsorted(times, samples, side="right"))
        depart = self._run()
        # kept counts the accepted arrivals among the first seen, and
        # departures keep arrival order
        c_at = (np.where(self.kept > 0, depart[np.maximum(self.kept - 1, 0)],
                         c) if depart.size else c)
        self.q[s0:s1] = self.mu * np.maximum(0.0, c_at - samples)
        self.settled = s1
        return DesResult(
            samples, self.q[s0:s1],
            PacketTrace.unchecked(depart, self.size, (self.t0, max(
                self.t1, float(depart[-1]) if depart.size else self.t1))),
            self.drops - drops, (self.drops - drops) * self.size,
            self.looped - looped, self.stepped - stepped, times.size, 1)

    def result(self, departures=None) -> DesResult:
        """The whole trace's result, with the given departures."""
        s0 = self.settled
        self.q[s0:] = self.mu * np.maximum(0.0,
                                           self.c - self.sample_times[s0:])
        self.settled = self.q.size
        return DesResult(self.sample_times, self.q, departures, self.drops,
                         self.drops * self.size, self.looped, self.stepped,
                         self.packets, self.segments)

    def _start(self, arrivals, seen):
        """Take in the next segment: its arrivals and seen."""
        n = arrivals.size
        self.a, self.seen = arrivals, seen
        self.kept, self.si = np.zeros_like(seen), 0
        self.j = self.w = 0
        self.packets += n
        self.segments += 1
        if self.out.size < n:
            self.out = np.empty(n)
        if self.ramp is not None and self.ramp.size <= min(n, _CHUNK):
            self.ex = self.ramp = None

    def _run(self):
        """The segment's accepted departures, a view of the buffer that the
        next segment reuses."""
        a, n = self.a, self.a.size
        if self.cap is not None and self.size > self.cap:
            # backlog + size > K for every arrival: all are dropped, so
            # the segment is done
            self.j = n
        if self.walking:
            self._walk()
        while self.j < n:
            j = self.j
            m = max(self.c, a[j])
            if not m >= _TINY:
                self._loop(j + max(1, int(np.searchsorted(a[j:], _TINY))))
                continue
            ex = math.frexp(m)[1]
            top = math.ldexp(1.0, ex)           # m lies in [top / 2, top)
            block = min(self.block, _CHUNK)
            hi = j + int(np.searchsorted(a[j:j + block], top))
            if self._ramp(ex, top) is None:
                self._loop(hi)                  # a tie for every packet
                continue
            got = self._lindley(hi, top)
            take = got if self.cap is None else self._first_drop(got)
            if take:
                self.w += take
                self.j += take
                self.c = self.out[self.w - 1]
                self._settle()
            if take < got:                      # mode D from the drop
                self._walk()
            elif got < hi - j:                  # the rule fails here
                self._loop(self.j + 1)
                self.block = _BLOCK_MIN
            else:
                self.block = min(2 * block, _CHUNK)
        self.drops += n - self.w
        return self.out[:self.w]

    def _walk(self):
        """Mode D, then mode L from the idle arrival it stops at, in blocks
        from K / size packets: the buffer cannot fill sooner."""
        self.walking = not self._busy_walk()
        self.block = max(_BLOCK_MIN, int(self.cap // self.size))

    def _ramp(self, ex, top):
        """T_k = k tau_e for the binade below ``top`` (2^ex), or
        None where tau / u is a half-integer or tau >= top."""
        if ex != self.ex:
            self.ex, self.ramp = ex, None
            r = math.ldexp(self.tau, 53 - ex) if self.tau < top else 0.5
            if r % 1.0 != 0.5:
                self.ramp = np.arange(min(self.a.size, _CHUNK) + 1.0)
                self.ramp *= math.ldexp(round(r), ex - 53)
        return self.ramp

    def _lindley(self, hi, top):
        """Mode L: write the departures of arrivals j..hi - 1 (all below
        ``top``) to out[w:], and return how many of them stay below top.
        Every operation on those is exact: T and the differences
        a_k - T_(k-1) that can win the maximum are multiples of u below top
        in magnitude, and a smaller a_k rounds to at most the running
        maximum."""
        j = self.j
        b = hi - j
        dep = self.out[self.w:self.w + b]
        np.subtract(self.a[j:hi], self.ramp[:b], out=dep)
        dep[0] = max(dep[0], self.c)
        # fmax is maximum without NaN handling (there is no NaN), and faster
        np.fmax.accumulate(dep, out=dep)
        dep += self.ramp[1:b + 1]
        return int(np.searchsorted(dep, top)) if dep[-1] >= top else b

    def _first_drop(self, got):
        """The loop's drop test on the ``got`` packets _lindley wrote: the
        first arrival with fl(c_prev - a) > lim, or got.  An arrival of a
        sub-block of _SUB sees c_prev - a at most the next sub-block's first
        departure (or the last) less the sub-block's first arrival: only
        the sub-blocks where that exceeds lim are tested one by one."""
        a, dep = self.a[self.j:self.j + got], self.out[self.w:self.w + got]
        bound = np.append(dep[_SUB::_SUB], dep[-1:]) - a[::_SUB]
        s = (np.flatnonzero(bound > self.lim) * _SUB).tolist()
        if s and not s[0] and self.c - a[0] > self.lim:
            return 0
        for lo in s:
            lo, hi = max(lo, 1), min(lo + _SUB, got)
            hit = dep[lo - 1:hi - 1] - a[lo:hi] > self.lim
            if hit.any():
                return lo + int(hit.argmax())
        return got

    def _settle(self, j0=0, w0=0, counts=None):
        """kept for the sample points up to j: w - (j - seen) if every
        packet since the last call was accepted, else w0 + counts(i), the
        accepted packets among the first i arrivals from j0 on."""
        seen, si = self.seen, self.si
        if si < seen.size and seen[si] <= self.j:
            hi = si + int(np.searchsorted(seen[si:], self.j, side="right"))
            idx = seen[si:hi]
            self.kept[si:hi] = (self.w - self.j + idx if counts is None
                                else w0 + counts(idx - j0))
            self.si = hi

    def _loop(self, hi, walk=False):
        """The loop's scalar step over arrivals j..hi - 1, counted as mode D
        if ``walk``."""
        j0, w0 = self.j, self.w
        dep, last_c, _, _ = kernels.des_fifo(
            self.a[j0:hi], self.size, self.mu, self.cap or 0.0, self.c)
        keep = ~np.isnan(dep)
        kept = dep[keep]
        self.out[w0:w0 + kept.size] = kept
        self.w += kept.size
        self.j, self.c = hi, last_c[-1]
        self.stepped += hi - j0
        self.looped += walk * (hi - j0)
        self._settle(j0, w0, np.concatenate(([0], np.cumsum(keep))).take)

    def _busy_walk(self):
        """Mode D: kernels.des_fifo's results, bit for bit, for the busy run
        from j up to the first arrival that finds the server idle, in numpy
        blocks.  Returns whether it got there before the segment's end.

        While the server stays busy, the completion after k more accepted
        packets is comp[k] = c + k tau_e, exactly, by the binade rule (where
        the rule fails, the loop takes one step).  Arrival i, finding k_i
        accepted before it, is accepted iff fl(comp[k_i] - a_i) <= lim,
        that is iff k_i < m_i, the number of entries of comp it passes at.
        So k_(i+1) = min(k_i + 1, m_i), which unrolls to k_i = i + min(0,
        min over l < i of (m_l - l - 1)), and m_l - l - 1 is floor((y_l +
        lim - c) / tau_e), y_l = a_l - l tau_e, but for rounding.  The floor
        is nondecreasing in y, so k_i = i + min(0, floor((p_i + lim - c) /
        tau_e)) with p_i the running minimum of y before i: one prefix
        minimum, read only where k is needed, and the loop's own count
        where rounding could move the floor.  The arrivals before c find
        the server busy; of the later ones, only those where y has risen
        above p by lim - tau_e, less rounding, can find it idle.  Leading
        arrivals more than lim + tau_e / 2 before c are dropped first, so
        that m_l >= 0 for the rest.
        """
        a, lim = self.a, self.lim
        while self.j < a.size:
            j0, w0, c = self.j, self.w, self.c
            ex = math.frexp(c)[1]
            top = math.ldexp(1.0, ex)
            tau = nb = 0
            if c >= _TINY and self._ramp(ex, top) is not None:
                tau = self.ramp[1]
                # the entries comp[0..nb] below top
                nb = int(np.searchsorted(self.ramp[:_BLOCK_MAX + 1],
                                         top - c)) - 1
            # eps bounds the rounding of y, of p and of the floor's argument
            eps = 4 * math.ulp(max(top, lim, -a[j0]))
            if nb < 1 or tau < 16 * eps:
                self._loop(j0 + 1, walk=True)
                continue
            ab = a[j0:j0 + nb]
            late = c - lim - tau / 2
            if ab[0] < late:
                self.j += int(np.searchsorted(ab, late))
                self.looped += self.j - j0
                self._settle(j0, w0, lambda i: 0)
                continue
            b = ab.size
            busy = int(np.searchsorted(ab, c))
            y, p = self.d[0, :b + 1], self.d[1, :b + 1]
            # the floor is 0 from y[0] on, and only just
            y[0] = c - lim + tau - 8 * eps
            np.subtract(ab, self.ramp[:b], out=y[1:])
            np.fmin.accumulate(y, out=p)

            def counts(i):
                """k_i for the offsets i."""
                z = (p[i] - (c - lim)) / tau
                q = np.floor(z)
                # where rounding could move the floor, the loop's own count
                near = abs(z - q - 0.5) > 0.5 - 2 * eps / tau
                for at in np.flatnonzero(near):
                    dep = kernels.des_fifo(ab[:i[at]], self.size, self.mu,
                                           self.cap, c)[0]
                    q[at] = np.count_nonzero(~np.isnan(dep)) - i[at]
                return i + np.minimum(q, 0)

            # the arrivals that may find the server idle, _SUB at a time up
            # to the first that does (e), else the block's end
            d = np.subtract(y[busy + 1:], p[busy + 1:], out=y[busy + 1:])
            t, e = busy + np.flatnonzero(d >= lim - tau - 4 * eps), b
            for lo in range(0, t.size, _SUB):
                ti = t[lo:lo + _SUB]
                idle = counts(ti) * tau + c <= ab[ti]
                if idle.any():
                    e = int(ti[idle.argmax()])
                    break
            got = int(counts(np.array([e]))[0])
            np.add(self.ramp[1:got + 1], c, out=self.out[w0:w0 + got])
            self.w += got
            self.j += e
            self.c = c + self.ramp[got]
            self.looped += e
            self._settle(j0, w0, counts)
            if e < b:
                return True
        return False


def departures_to_outflow(result: DesResult, dt: float) -> RateSeries:
    """Bin departure completions with the same half-open rule used for
    arrivals; the trace horizon start anchors the grid."""
    dep = result.departures
    t0 = dep.horizon[0]
    t1 = max(float(result.sample_times[-1]), dep.horizon[1])
    return bin_rates(dep.times, dep.packet_bits, t0, t1, dt)
