"""Packet-level FIFO oracle against brute-force references."""

import contextlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logiq import des, kernels, series
from logiq.config import load_config
from logiq.des import DesConfig, departures_to_outflow, simulate_fifo
from logiq.series import PacketTrace, ParameterError, merge_traces
from logiq.traffic import VideoUserParams, generate_users


def brute_force_fifo(times, size, mu, cap=None):
    """Readable O(n) reference: Lindley recursion with drop-tail."""
    depart = []
    c_prev = -np.inf
    for a in times:
        backlog = max(0.0, (c_prev - a) * mu)
        if cap is not None and backlog + size > cap:
            depart.append(None)
            continue
        start = max(a, c_prev)
        c_prev = start + size / mu
        depart.append(c_prev)
    return depart


def make_trace(times, size, horizon):
    return PacketTrace(np.asarray(times, float), size, horizon)


def loop_results(times, size, mu, cap=None, sample_dt=1.0):
    """simulate_fifo's result and kernels.des_fifo's (depart, last_c,
    n_drop, bits_drop), after checking that the accepted departures, their
    size, the drops and the dropped bits are the loop's, byte for byte."""
    horizon = (float(times[0]), float(times[-1]))
    res = simulate_fifo(PacketTrace(times, size, horizon),
                        DesConfig(mu=mu, capacity_k=cap, sample_dt=sample_dt))
    ref = kernels.des_fifo(times, size, mu, cap or 0.0)
    accepted = ~np.isnan(ref[0])
    assert res.departures.times.tobytes() == ref[0][accepted].tobytes()
    assert res.departures.packet_bits == size
    assert res.drop_count == ref[2]
    assert res.drop_bits == ref[3]
    return res, ref


def fed_in_segments(segments, size, cfg, horizon):
    """The result of one FifoCarry fed the time arrays ``segments`` of
    packets of ``size`` in turn, and the accepted departures of them all."""
    carry = des.FifoCarry(cfg, horizon, size)
    dep_times = []
    for times in segments:
        part = simulate_fifo(PacketTrace(times, size, horizon), cfg, carry)
        assert part.departures.packet_bits == size
        # the departures view a buffer that the next segment reuses
        dep_times.append(part.departures.times.copy())
    return carry.result(), np.concatenate(dep_times)


def loop_over_segments(segments, size, mu, cap):
    """kernels.des_fifo over the time arrays ``segments`` in turn, each
    from the last completion before it: (depart, last_c, n_drop,
    bits_drop), the dropped bits n_drop x size, as the loop counts them."""
    c, departs, lasts, n_drop = -np.inf, [], [], 0
    for times in segments:
        depart, last_c, drops, _ = kernels.des_fifo(times, size, mu,
                                                    cap or 0.0, c)
        c = last_c[-1] if times.size else c
        departs.append(depart)
        lasts.append(last_c)
        n_drop += drops
    return (np.concatenate(departs), np.concatenate(lasts), n_drop,
            n_drop * size)


def small_blocks(chunk):
    """The scan with blocks of at most ``chunk`` packets (None: as it is),
    so that block edges fall everywhere."""
    if chunk is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(des, _CHUNK=chunk, _BLOCK_MIN=1,
                               _BLOCK_MAX=chunk)


def busy_walk(times, size, mu, cap, c):
    """The busy walk alone, over ``times`` from the last completion c: its
    departures and drops are the loop's from c over the arrivals it took,
    and it stops only at an idle arrival."""
    carry = des.FifoCarry(DesConfig(mu=mu, capacity_k=cap),
                          (float(times[0]), float(times[-1])), size)
    carry._start(times, np.array([times.size]))
    carry.c = c
    carry._busy_walk()
    j = carry.j
    depart, last_c, n_drop, _ = kernels.des_fifo(times[:j], size, mu, cap, c)
    assert carry.out[:carry.w].tobytes() == depart[~np.isnan(depart)].tobytes()
    assert j - carry.w == n_drop
    assert j == times.size or not (last_c[-1] if j else c) > times[j]
    return carry


def loop_sampled_backlog(times, last_c, mu, sample_times):
    """The event walk's backlog on the sample grid, from the loop's
    last-completion array."""
    idx = np.searchsorted(times, sample_times, side="right")
    c_at = np.where(idx > 0, last_c[np.maximum(idx - 1, 0)], -np.inf)
    return mu * np.maximum(0.0, c_at - sample_times)


class TestAgainstBruteForce:
    def test_random_traces_match(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = rng.integers(1, 400)
            times = np.sort(rng.uniform(0.0, 100.0, n))
            size = rng.uniform(10.0, 5000.0)
            mu = rng.uniform(50.0, 5000.0)
            cap = None if trial % 2 == 0 else rng.uniform(2000.0, 50000.0)
            trace = make_trace(times, size, (0.0, 100.0))
            res = simulate_fifo(trace, DesConfig(mu=mu, capacity_k=cap,
                                                 sample_dt=1.0))
            ref = brute_force_fifo(times, size, mu, cap)
            kept = [d for d in ref if d is not None]
            np.testing.assert_allclose(res.departures.times, kept, rtol=1e-12)
            assert res.drop_count == sum(d is None for d in ref)

    def test_backlog_sampling_matches_event_walk(self):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 60.0, 500))
        mu = 6000.0
        trace = make_trace(times, 1000.0, (0.0, 60.0))
        res = simulate_fifo(trace, DesConfig(mu=mu, sample_dt=0.5))
        ref = brute_force_fifo(times, 1000.0, mu)
        for t, q in zip(res.sample_times, res.q_sampled):
            idx = np.searchsorted(times, t, side="right")
            c = ref[idx - 1] if idx > 0 else -np.inf
            assert q == pytest.approx(mu * max(0.0, c - t), abs=1e-6)


class TestLoopFreeOracle:
    """An infinite buffer runs the Lindley recursion without a loop; the
    event loop kernels.des_fifo is the reference."""

    def test_matches_loop_at_desk_scale(self):
        # desk seed 42: 12.8 M packets in 6 h into 11.33 Mb/s.  The scan
        # gives the loop's departures byte for byte, and so its backlog
        # samples
        mu = 11.33e6
        trace = merge_traces(generate_users(VideoUserParams(),
                                            (0.0, 6 * 3600.0), 42, 10))
        res = simulate_fifo(trace, DesConfig(mu=mu, sample_dt=60.0))
        depart, last_c, n_drop, _ = kernels.des_fifo(
            trace.times, trace.packet_bits, mu, 0.0)
        assert res.drop_count == n_drop == 0
        assert res.departures.times.tobytes() == depart.tobytes()
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            trace.times, last_c, mu, res.sample_times).tobytes()
        # only a binade crossing while busy takes the loop's step
        assert res.looped == 0 and res.stepped <= 10

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.lists(st.floats(0.0, 2.0), max_size=200),
           size=st.floats(1.0, 1e4), mu=st.floats(100.0, 1e5),
           sample_dt=st.floats(0.05, 5.0))
    def test_ordered_and_backlog_matches_event_walk(self, gaps, size, mu,
                                                    sample_dt):
        times = np.cumsum(gaps)
        horizon = (0.0, float(times[-1]) if len(gaps) else 1.0)
        res = simulate_fifo(make_trace(times, size, horizon),
                            DesConfig(mu=mu, sample_dt=sample_dt))
        assert np.all(np.diff(res.departures.times) >= 0.0)
        ref = brute_force_fifo(times, size, mu)
        np.testing.assert_allclose(res.departures.times, ref, rtol=1e-12)
        for t, q in zip(res.sample_times, res.q_sampled):
            idx = np.searchsorted(times, t, side="right")
            c = ref[idx - 1] if idx > 0 else -np.inf
            assert q == pytest.approx(mu * max(0.0, c - t),
                                      abs=1e-12 * mu * (1.0 + t))


def unchunked_lindley(arrivals, size, mu):
    """The Lindley recursion in closed form over the whole trace, with one
    global cumsum: the oracle's form before the scan was made loop-exact.
    Its cumulative sum carries the rounding of n additions."""
    s = np.full(arrivals.shape, size / mu)
    np.cumsum(s, out=s)
    c = np.empty_like(s)
    if c.size:
        c[0] = arrivals[0]
        np.subtract(arrivals[1:], s[:-1], out=c[1:])
        np.maximum.accumulate(c, out=c)
        c += s
    return c


def cumsum_tol(arrivals, c):
    """How far the global-cumsum form can sit from the loop: about 3 n
    ulps of the largest time."""
    if not c.size:
        return 0.0
    eps = np.finfo(np.float64).eps
    return 4.0 * c.size * eps * (abs(c[-1]) + abs(arrivals[0]) + 1.0)


class TestChunkedLindley:
    """The infinite-buffer scan carries the last completion from one block
    to the next: across block edges it gives the loop's departures byte
    for byte, and the global-cumsum closed form's to that form's
    rounding."""

    @staticmethod
    def traffic(rng, n, whole_bits):
        # load 0.95, so busy periods span block edges; a size of whole bits
        # or not
        mu = 1e6
        size = 11712.0 if whole_bits else 11712.3
        times = np.cumsum(rng.exponential(size / (0.95 * mu), n))
        return times, size, mu

    @staticmethod
    def check(times, size, mu):
        if not times.size:
            res = simulate_fifo(PacketTrace(times, size, (0.0, 1.0)),
                                DesConfig(mu=mu))
            assert len(res.departures) == 0
            return
        res, _ = loop_results(times, size, mu)
        c = res.departures.times
        gap = np.abs(c - unchunked_lindley(times, size, mu))
        assert gap.max() <= cumsum_tol(times, c)

    @pytest.mark.parametrize("whole_bits", [True, False])
    @pytest.mark.parametrize("n", [0, 1, des._CHUNK - 1, des._CHUNK,
                                   des._CHUNK + 1, 3 * des._CHUNK + 7])
    def test_matches_global_cumsum(self, n, whole_bits):
        self.check(*self.traffic(np.random.default_rng(n), n, whole_bits))

    @settings(max_examples=200, deadline=None)
    @given(chunk=st.integers(1, 5),
           gaps=st.lists(st.floats(0.0, 2.0), max_size=40),
           size=st.floats(1.0, 1e4), mu=st.floats(100.0, 1e5),
           start=st.sampled_from([0.0, -3.5, 1e6]))
    def test_small_chunks_match_global_cumsum(self, chunk, gaps, size, mu,
                                              start):
        times = start + np.cumsum(gaps)
        with small_blocks(chunk):
            self.check(times, size, mu)


class TestDropTailOracle:
    """A finite buffer adds the loop's drop test to the scan and walks the
    busy runs that drop; the whole-trace loop is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(gaps=st.lists(st.floats(-0.5, 2.0).map(lambda g: max(g, 0.0)),
                         min_size=1, max_size=120),
           size=st.floats(1.0, 1e4),
           rho=st.floats(0.2, 3.0), sample_dt=st.floats(0.05, 5.0),
           k_case=st.sampled_from(["below", "above", "at_peak",
                                   "ulp_below_peak", "ulp_above_peak",
                                   "between"]),
           pick=st.floats(0.0, 1.0))
    def test_matches_loop(self, gaps, size, rho, sample_dt, k_case, pick):
        times = np.cumsum(gaps)
        # the load sets how many busy periods there are
        mu = size * times.size / (rho * (times[-1] + 1.0))
        # backlog + size that each arrival sees with an infinite buffer, and
        # the busy period it belongs to
        seen, period, c_prev = [], [], -np.inf
        for a in times:
            seen.append(((c_prev - a) * mu if c_prev > a else 0.0) + size)
            period.append(len(period) if c_prev <= a else period[-1])
            c_prev = max(c_prev, a) + size / mu
        j = min(int(pick * len(seen)), len(seen) - 1)
        # the largest backlog + size in the picked arrival's busy period
        peak = max(x for x, p in zip(seen, period) if p == period[j])
        cap = {"below": 0.5 * size,
               "above": 2.0 * max(seen),
               "at_peak": peak,
               "ulp_below_peak": np.nextafter(peak, 0.0),
               "ulp_above_peak": np.nextafter(peak, np.inf),
               "between": size + pick * (max(seen) - size),
               }[k_case]
        horizon = (0.0, float(times[-1]) + 1.0)
        res = simulate_fifo(make_trace(times, size, horizon),
                            DesConfig(mu=mu, capacity_k=cap,
                                      sample_dt=sample_dt))
        ref = brute_force_fifo(times, size, mu, cap)
        depart, last_c, n_drop, bits_drop = kernels.des_fifo(
            times, size, mu, cap)
        dropped = np.array([d is None for d in ref])
        np.testing.assert_array_equal(dropped, np.isnan(depart))
        assert res.drop_count == n_drop == dropped.sum()
        assert res.drop_bits == bits_drop == dropped.sum() * size
        assert res.departures.times.tobytes() == depart[~dropped].tobytes()
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            times, last_c, mu, res.sample_times).tobytes()
        if k_case == "above":
            assert res.looped == 0
        if k_case == "below":
            assert res.drop_count == len(times)

    def test_one_size_matches_loop(self):
        # the busy runs that drop take the block walk
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.exponential(1.0, 20000))
        mu, cap = 1000.3 / 0.97, 25 * 1000.3
        res, (_, last_c, n_drop, _) = loop_results(times, 1000.3, mu, cap,
                                                   sample_dt=50.0)
        assert n_drop > 0 and res.looped > 0
        # the loop's own step takes only binade crossings
        assert res.stepped <= 20
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            times, last_c, mu, res.sample_times).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
           rho=st.floats(0.5, 3.0), ties=st.floats(0.0, 0.5),
           k_case=st.sampled_from(["seen", "ulp_below_seen", "ulp_above_seen",
                                   "below_size", "above_peak"]),
           pick=st.floats(0.0, 1.0))
    def test_one_size_blocks_match_loop(self, seed, n, rho, ties, k_case,
                                        pick):
        # 1000.3 bits is not an integer; the scan must give the loop's
        # every bit
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0, n)
        gaps[rng.random(n) < ties] = 0.0     # packets arriving together
        times = np.cumsum(gaps)
        size = 1000.3
        mu = size / rho
        # backlog + size that each arrival sees with an infinite buffer
        _, last_c, _, _ = kernels.des_fifo(times, size, mu, 0.0)
        before = np.append(-np.inf, last_c[:-1])
        busy = before > times
        seen = np.where(busy, (before - times) * mu, 0.0) + size
        # the longest busy period, and its peak up to the picked arrival:
        # the loop sees that value, since nothing before it in the period
        # exceeds it
        bounds = np.append(np.flatnonzero(~busy), n)
        p = int(np.argmax(np.diff(bounds)))
        lo, hi = bounds[p], bounds[p + 1]
        peak = seen[lo:lo + 1 + min(int(pick * (hi - lo)), hi - lo - 1)].max()
        cap = {"seen": peak,
               "ulp_below_seen": np.nextafter(peak, 0.0),
               "ulp_above_seen": np.nextafter(peak, np.inf),
               "below_size": 0.5 * size,
               "above_peak": 2.0 * seen.max(),
               }[k_case]
        res, ref = loop_results(times, size, mu, cap)
        if k_case == "below_size":
            assert res.drop_count == n
        if k_case == "above_peak":
            assert res.drop_count == 0 and res.looped == 0

    def test_one_size_blocks_settle_rounded_threshold(self):
        # The busy walk counts the completion times up to a + (K - s) / mu
        # by division, then settles the count on the loop's own test.  A
        # burst arrives at 0.25 s while the server is busy until 1.25 s, so
        # queueing delays are near the times themselves and the threshold's
        # rounding shows.  Take K at the backlog + size that an arrival sees
        # where the threshold rounds below its completion time (the count
        # misses an entry the loop accepts), and one ulp below such a value
        # where it rounds above (the count takes one the loop refuses).
        size, mu, c = 1000.0, 1e6, 1.25
        times = np.full(700, 0.25)
        _, last_c, _, _ = kernels.des_fifo(times, size, mu, 0.0, c)
        comp = np.append(c, last_c[:-1])    # the completion each one meets
        seen = (comp - times) * mu + size
        below = np.nextafter(seen, 0.0)
        low = np.flatnonzero(times + (seen - size) / mu < comp)
        high = np.flatnonzero(times + (below - size) / mu >= comp)
        assert low.size and high.size
        for cap, kept in ((seen[low[-1]], low[-1] + 1),
                          (below[high[-1]], high[-1])):
            walk = busy_walk(times, size, mu, cap, c)
            assert walk.j == times.size and walk.w == kept
            assert walk.stepped == 0

    def test_oversized_packet_at_empty_queue(self):
        # every packet is above K, so each finds the queue empty and is
        # dropped whole, in every segment, without a walk or a step
        segments = [np.array([0.0, 0.5]), np.array([7.0]), np.empty(0),
                    np.array([7.0, 9.0])]
        res, departures = fed_in_segments(
            segments, 1200.0,
            DesConfig(mu=100.0, capacity_k=1000.0, sample_dt=1.0),
            (0.0, 10.0))
        assert res.drop_count == res.packets == 5
        assert res.drop_bits == 5 * 1200.0
        assert departures.size == 0
        assert res.looped == res.stepped == 0
        assert not res.q_sampled.any()

    def test_drop_before_time_zero_keeps_departures(self):
        # the accepted packet leaves at -9 s; a negative time is a departure,
        # not the loop's drop marker
        trace = make_trace([-10.0, -9.9], 100.0, (-10.0, 0.0))
        res = simulate_fifo(trace, DesConfig(mu=100.0, capacity_k=120.0,
                                             sample_dt=1.0))
        assert res.drop_count == 1 and res.drop_bits == 100.0
        np.testing.assert_array_equal(res.departures.times, [-9.0])
        assert res.departures.packet_bits == 100.0

    def test_matches_loop_at_desk_scale(self):
        # perfbench/desk_droptail.json seed 42: 12.8 M packets into a 25 MB
        # buffer.  The scan gives the loop's departures, drops and dropped
        # bits byte for byte, and so its backlog samples
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "perfbench" / "desk_droptail.json")
        t, q = cfg["traffic"], cfg["queue"]
        trace = merge_traces(generate_users(t["params"], (0.0, t["horizon"]),
                                            42, t["users"]))
        res = simulate_fifo(trace, DesConfig(mu=q["mu"],
                                             capacity_k=q["capacity"],
                                             sample_dt=t["dt"]))
        depart, last_c, n_drop, bits_drop = kernels.des_fifo(
            trace.times, trace.packet_bits, q["mu"], q["capacity"])
        accepted = ~np.isnan(depart)
        assert res.drop_count == n_drop > 0
        assert res.drop_bits == bits_drop
        assert res.departures.times.tobytes() == depart[accepted].tobytes()
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            trace.times, last_c, q["mu"], res.sample_times).tobytes()
        # the busy runs from a drop to the next idle arrival hold 12 % of
        # the packets (measured); the loop's own step takes a few binade
        # crossings
        assert 0 < res.looped <= 0.25 * len(trace)
        assert res.stepped <= 10


class TestWalkAndDropTest:
    """The busy walk reads k from one running minimum and takes the loop's
    count only where rounding could move its floor; the drop test tests
    only the sub-blocks whose bound exceeds the limit.  The loop is the
    reference."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([1000.0, 1000.3, 11712.0]),
           mu=st.sampled_from([1e6, 3.3e6, 1e7]),
           c=st.sampled_from([0.7, 1.25, 3.3, 1000.25]),
           n=st.integers(20, 3000), load=st.floats(0.6, 4.0),
           burst=st.floats(0.0, 0.9), lag=st.floats(0.1, 0.9),
           side=st.sampled_from(["low", "high"]), pick=st.floats(0.0, 1.0),
           block=st.integers(1, 48))
    # a floor that rounding moves, and an idle arrival after drops
    @example(seed=10, size=1000.0, mu=1e6, c=0.7, n=20, load=1.0, burst=0.0,
             lag=0.25, side="high", pick=1.0, block=1)
    @example(seed=0, size=1000.0, mu=1e6, c=0.7, n=196, load=0.6015625,
             burst=0.0, lag=0.25, side="high", pick=0.0, block=1)
    def test_walk_at_rounded_thresholds(self, seed, size, mu, c, n, load,
                                        burst, lag, side, pick, block):
        # a long busy run from the last completion c, the first arrival a
        # fraction lag of c before it, so queueing delays are near the times
        # themselves and the threshold's rounding shows; every completion
        # stays in c's binade.  K is drawn at the thresholds of
        # test_one_size_blocks_settle_rounded_threshold: the backlog + size
        # an arrival sees where a + (K - s) / mu rounds below its
        # completion (low), or one ulp below one where it rounds above
        # (high).  Blocks of a few packets put block edges everywhere
        tau = size / mu
        top = 2.0 ** (np.floor(np.log2(c)) + 1)
        n = min(n, int((top - c) / tau) - 2)
        # the walk's numpy blocks, not the loop's step in a binade that ties
        ex = int(np.frexp(c)[1])
        assume(n >= 20 and np.ldexp(tau, 53 - ex) % 1.0 != 0.5)
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(tau / load, n)
        gaps[rng.random(n) < burst] = 0.0
        times = c * (1.0 - lag) + np.cumsum(gaps)
        _, last_c, _, _ = kernels.des_fifo(times, size, mu, 0.0, c)
        comp = np.append(c, last_c[:-1])
        seen = (comp - times) * mu + size
        below = np.nextafter(seen, 0.0)
        if side == "low":
            at = np.flatnonzero(times + (seen - size) / mu < comp)
        else:
            at = np.flatnonzero(times + (below - size) / mu >= comp)
        assume(at.size)
        x = at[min(int(pick * at.size), at.size - 1)]
        cap = seen[x] if side == "low" else below[x]
        # a size above K drops every packet, and never reaches the walk
        assume(cap >= size)
        with mock.patch.multiple(des, _BLOCK_MIN=1, _BLOCK_MAX=block,
                                 _SUB=4):
            walk = busy_walk(times, size, mu, cap, c)
        assert walk.stepped == 0

    @pytest.mark.parametrize("sub", [4, 128])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_first_drop_at_a_sub_block_end(self, sub, where):
        # from an empty queue, packets arrive at a quarter of the service
        # time, so the backlog each one sees grows; K at the backlog + size
        # of the one before the m-th sub-block's first or last packet drops
        # that one first.  The rest arrive after the queue has emptied, at
        # half the service rate, so the sub-blocks after it see it empty
        size, mu, n = 1000.0, 1e7, 8 * sub
        tau = size / mu
        for m in (0, 1, 3, 6):
            f = m * sub + (sub - 1 if where == "last" else 0)
            if f == 0:
                continue
            times = 1.0 + np.arange(n) * (0.25 * tau)
            times[f + 1:] = times[f] + np.arange(1, n - f) * (2 * tau) + (
                n * tau)
            _, last_c, _, _ = kernels.des_fifo(times, size, mu, 0.0)
            cap = (last_c[f - 2] - times[f - 1]) * mu + size if f > 1 else (
                size)
            with mock.patch.multiple(des, _BLOCK_MIN=n, _SUB=sub):
                res, (depart, _, _, _) = loop_results(times, size, mu, cap)
            assert np.flatnonzero(np.isnan(depart)).tolist() == [f]
            assert res.looped == 1 and res.stepped == 0


class TestChunkedDropTail:
    """The scan's blocks, the busy walk's blocks and the loop's stretches
    carry the state from one to the next; with blocks of a few packets,
    drops and sample points straddle block edges.  The loop over the whole
    trace, segment by segment, is the reference."""

    @staticmethod
    def check(segments, size, horizon, mu, cap, chunk):
        """One FifoCarry fed the time arrays ``segments`` of packets of
        ``size`` against the loop over them."""
        with small_blocks(chunk):
            res, departures = fed_in_segments(
                segments, size,
                DesConfig(mu=mu, capacity_k=cap, sample_dt=1.0), horizon)
        depart, last_c, n_drop, bits_drop = loop_over_segments(
            segments, size, mu, cap)
        accepted = ~np.isnan(depart)
        assert res.drop_count == n_drop
        assert res.drop_bits == bits_drop
        assert departures.tobytes() == depart[accepted].tobytes()
        times = np.concatenate(segments)
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            times, last_c, mu, res.sample_times).tobytes()
        return res, depart

    @settings(max_examples=200, deadline=None)
    @given(chunk=st.integers(1, 5),
           burst=st.lists(st.integers(0, 4), min_size=1,
                          max_size=30).filter(any),
           size=st.floats(1.0, 1e4), rho=st.floats(0.3, 3.0),
           cap=st.floats(0.5, 4.0))
    def test_small_chunks_match_loop(self, chunk, burst, size, rho, cap):
        # packets arrive in bursts on whole seconds, where the backlog is
        # sampled, so samples fall on a burst's last packet, dropped or not;
        # K below the size drops every packet at an empty queue
        times = np.repeat(np.arange(len(burst), dtype=float), burst)
        horizon = (0.0, float(len(burst)))
        mu = size * times.size / (rho * horizon[1])
        self.check([times], size, horizon, mu, cap * size, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_samples_on_drops(self, chunk):
        # 400-bit packets into K = 1000 bits at 100 b/s.  At 6 s three
        # arrive together and the third is dropped; the sample at 6 s falls
        # on that drop and sees the second's completion, 14 s.  Cut so that
        # the drop is a segment of its own, or ends the segment that walks
        # from it, and whole
        times = np.array([0.0, 6.0, 6.0, 6.0, 40.0])
        horizon = (0.0, 45.0)
        for cuts in ([1, 3, 4], [4], []):
            res, depart = self.check(np.split(times, cuts), 400.0, horizon,
                                     100.0, 1000.0, chunk)
            assert np.isnan(depart).tolist() == [False, False, False, True,
                                                 False]
            np.testing.assert_array_equal(res.q_sampled[[3, 4, 6]],
                                          [100.0, 0.0, 800.0])
        # K below the one size: every packet is a leading drop
        res, _ = self.check([times], 400.0, horizon, 100.0, 300.0, chunk)
        assert res.drop_count == times.size and res.packets == times.size
        assert not res.q_sampled.any()

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_mixed_sizes_after_a_one_packet_period(self, chunk):
        # one packet a segment, each size in a carry of its own: after two
        # one-packet busy periods without drops, three packets arrive
        # together at a busy server, and the drops fall on segment edges.
        # A size above K drops every packet at an empty queue
        times = np.array([0.0, 5.0, 10.0, 10.0, 10.0])
        segments = np.split(times, range(1, times.size))
        for size, dropped in ((300.0, []), (400.0, [4]), (700.0, [3, 4]),
                              (1200.0, [0, 1, 2, 3, 4])):
            res, depart = self.check(segments, size, (0.0, 12.0), 1000.0,
                                     1000.0, chunk)
            assert np.flatnonzero(np.isnan(depart)).tolist() == dropped
            assert res.segments == times.size


class TestSegmentedSizes:
    """FifoCarry over segments of drawn lengths, empty ones too: the state
    carried across them gives the loop's results over the segments in turn,
    byte for byte, and the dropped bits are the loop's drops x size."""

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1), rho=st.floats(0.5, 3.0),
           size=st.sampled_from([1000.3, 40.0, 1500.0]),
           cap=st.one_of(st.none(), st.floats(0.5, 6.0)),
           chunk=st.sampled_from([None, 1, 3]))
    def test_alternating_segments_match_loop(self, counts, seed, rho, size,
                                             cap, chunk):
        rng = np.random.default_rng(seed)
        mu = 1e4
        if cap is not None:
            cap *= size                         # below 1: every packet drops
        # a burst at 1 s, which a finite buffer drops from, so that its
        # segment ends inside the busy walk; an empty segment; then the
        # drawn segments, the first not empty
        segments = [np.full(20, 1.0), np.empty(0)]
        counts[0] += 1
        end = 1.0
        for count in counts:
            times = end + np.cumsum(rng.exponential(size / (rho * mu), count))
            end = float(times[-1]) if count else end
            segments.append(times)
        horizon = (0.0, end + 1.0)
        cfg = DesConfig(mu=mu, capacity_k=cap, sample_dt=0.25)
        carry = des.FifoCarry(cfg, horizon, size)
        dep_times = []
        with small_blocks(chunk):
            for i, times in enumerate(segments):
                part = simulate_fifo(PacketTrace(times, size, horizon), cfg,
                                     carry)
                assert part.departures.packet_bits == size
                # the departures view a buffer that the next segment reuses
                dep_times.append(part.departures.times.copy())
                if i == 1:
                    assert carry.walking == (cap is not None and cap >= size)
        res = carry.result()
        depart, last_c, n_drop, bits_drop = loop_over_segments(segments,
                                                               size, mu, cap)
        assert (np.concatenate(dep_times).tobytes()
                == depart[~np.isnan(depart)].tobytes())
        assert res.drop_count == n_drop
        assert res.drop_bits == bits_drop
        times = np.concatenate(segments)
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            times, last_c, mu, res.sample_times).tobytes()


# tau / ulp is a half-integer for every time in [1, 2): with mu = 1 that
# binade ties for a packet of this size
TIE = 2.0 ** -20 + 2.0 ** -53


class TestLoopExact:
    """simulate_fifo is kernels.des_fifo, byte for byte: the departures,
    their size, the drop count, the dropped bits and so the backlog
    samples, under both buffers."""

    @settings(max_examples=300, deadline=None)
    @given(place=st.sampled_from(["zero", "negative", "powers", "late",
                                  "tie"]),
           gaps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=150),
           pick=st.integers(0, 3), rho=st.floats(0.3, 6.0),
           cap=st.one_of(st.none(), st.floats(0.5, 3.0), st.floats(1.0, 1.5)),
           chunk=st.sampled_from([None, 1, 3]))
    def test_matches_loop_bit_for_bit(self, place, gaps, pick, rho, cap,
                                      chunk):
        n = len(gaps)
        if place == "tie":
            # the size ties in [1, 2) or is a power of two there
            palette, mu = [TIE, 3 * TIE, 2.0 ** -21, 2.0 ** -19], 1.0
        else:
            palette, mu = [1000.3, 11712.0, 40.0, 1500.0], 1e4
        size = palette[pick]
        # the arrivals span the time the server needs at load rho
        span = n * size / (rho * mu)
        rel = np.cumsum(gaps) - gaps[0]
        if rel[-1] > 0:
            # divided first: span / rel[-1] overflows for a subnormal rel[-1]
            rel /= rel[-1]
            rel *= span
        start = {"zero": 0.0,                   # the first packet at 0
                 "negative": -0.5 * span,       # straddling 0
                 "powers": span / 16,           # four powers of two
                 "late": 2.0 ** 20 - 0.5 * span,
                 "tie": 1.0}[place]
        times = start + rel
        if cap is not None:
            cap *= size                         # below 1: oversized drops
        with small_blocks(chunk):
            res, (_, last_c, _, _) = loop_results(times, size, mu, cap,
                                                  sample_dt=span / 7 or 1.0)
        # the departures are built without PacketTrace's sortedness check
        assert np.all(res.departures.times[1:] >= res.departures.times[:-1])
        assert res.q_sampled.tobytes() == loop_sampled_backlog(
            times, last_c, mu, res.sample_times).tobytes()
        if cap is None:
            assert res.drop_count == res.looped == 0

    def test_tie_binade_takes_the_loop(self):
        # one size that ties in [1, 2): those packets take the loop's step,
        # the ones from 2 s on the scan
        times = 1.0 + np.arange(3000) * (2 * TIE)
        times = np.append(times, 2.0 + np.arange(1000) * (2 * TIE))
        res, _ = loop_results(times, TIE, 1.0)
        assert 3000 <= res.stepped < 3010
        # at load 2 into a buffer of 20 packets, drops start below 1 s, and
        # the busy walk from them takes the loop's step in [1, 2)
        times = (1.0 - 100 * TIE) + np.arange(4000) * (TIE / 2)
        res, _ = loop_results(times, TIE, 1.0, 20 * TIE)
        assert res.drop_count > 0
        assert res.looped >= res.stepped >= np.count_nonzero(times >= 1.0)

    def test_loop_carries_its_state(self):
        # des_fifo from the last completion c_prev continues a split run
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.exponential(1.0, 500))
        whole = kernels.des_fifo(times, 1500.0, 1000.0, 5000.0)
        head = kernels.des_fifo(times[:200], 1500.0, 1000.0, 5000.0)
        tail = kernels.des_fifo(times[200:], 1500.0, 1000.0, 5000.0,
                                head[1][-1])
        assert np.array_equal(np.concatenate((head[0], tail[0])), whole[0],
                              equal_nan=True)
        assert head[2] + tail[2] == whole[2] > 0


class TestInvariants:
    def test_fifo_order_preserved(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0.0, 10.0, 300))
        trace = make_trace(times, 500.0, (0.0, 10.0))
        res = simulate_fifo(trace, DesConfig(mu=1000.0, sample_dt=1.0))
        assert np.all(np.diff(res.departures.times) >= 0)

    def test_saturated_server_outputs_at_mu(self):
        # back-to-back arrivals keep the server busy; departures pace at mu
        times = np.linspace(0.0, 9.99, 1000)
        trace = make_trace(times, 100.0, (0.0, 10.0))
        res = simulate_fifo(trace, DesConfig(mu=1000.0, sample_dt=1.0))
        gaps = np.diff(res.departures.times[5:])
        np.testing.assert_allclose(gaps, 100.0 / 1000.0, rtol=1e-9)

    def test_idle_server_departs_immediately(self):
        trace = make_trace([1.0, 5.0], 100.0, (0.0, 10.0))
        res = simulate_fifo(trace, DesConfig(mu=100.0, sample_dt=1.0))
        np.testing.assert_allclose(res.departures.times, [2.0, 6.0])

    def test_drop_tail_respects_capacity(self):
        # the third packet would push the backlog past the buffer
        trace = make_trace([0.0, 0.1, 0.2], 400.0, (0.0, 10.0))
        res = simulate_fifo(trace, DesConfig(mu=100.0, capacity_k=1000.0,
                                             sample_dt=1.0))
        assert res.drop_count == 1
        assert res.drop_bits == 400.0
        assert len(res.departures) == 2

    def test_work_conservation(self):
        # accepted bits all depart; busy time equals served bits over mu
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 50.0, 200))
        trace = make_trace(times, 523.7, (0.0, 50.0))
        res = simulate_fifo(trace, DesConfig(mu=800.0, sample_dt=1.0))
        assert res.departures.total_bits + res.drop_bits == pytest.approx(
            trace.total_bits)

    def test_empty_trace(self):
        trace = PacketTrace(np.empty(0), 100.0, (0.0, 30.0))
        res = simulate_fifo(trace, DesConfig(mu=100.0, sample_dt=10.0))
        assert np.all(res.q_sampled == 0.0)
        assert len(res.departures) == 0


class TestOutflowBinning:
    def test_q_csv_is_the_per_line_format(self, tmp_path):
        # written in chunks of 2 lines, byte for byte as one f-string per
        # sample wrote it
        res = simulate_fifo(make_trace([0.5, 0.6, 3.0], 300.0, (0.0, 4.0)),
                            DesConfig(mu=100.0, sample_dt=0.8))
        path = tmp_path / "q.csv"
        with mock.patch.object(series, "_CSV_LINES", 2):
            res.q_to_csv(path)
        assert path.read_text() == "t_s,q_bits\n" + "".join(
            f"{t:.9f},{float(q)!r}\n"
            for t, q in zip(res.sample_times, res.q_sampled))

    def test_departure_mass_binned(self):
        trace = make_trace([0.5, 1.0], 100.0, (0.0, 4.0))
        res = simulate_fifo(trace, DesConfig(mu=100.0, sample_dt=1.0))
        out = departures_to_outflow(res, 1.0)
        assert out.values.sum() * out.dt == pytest.approx(200.0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            DesConfig(mu=0.0)
        with pytest.raises(ParameterError):
            DesConfig(mu=1.0, sample_dt=0.0)
        with pytest.raises(ParameterError):
            DesConfig(mu=1.0, capacity_k=-5.0)

    @pytest.mark.parametrize("kwargs", [
        dict(mu=np.nan),
        dict(mu=1.0, capacity_k=np.nan),
        dict(mu=1.0, sample_dt=np.nan),
    ])
    def test_config_rejects_nan(self, kwargs):
        with pytest.raises(ParameterError):
            DesConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(mu=np.nan), dict(mu=np.inf), dict(mu=1.0, sample_dt=np.nan),
    dict(mu=1.0, sample_dt=np.inf), dict(mu=1.0, capacity_k=np.nan),
    dict(mu=1.0, capacity_k=np.inf),
], ids=["mu_nan", "mu_inf", "sample_dt_nan", "sample_dt_inf",
        "capacity_nan", "capacity_inf"])
def test_config_rejects_nan_and_inf(kwargs):
    # sample_dt=inf gave the sample times [nan, inf]; None is the infinite
    # buffer
    with pytest.raises(ParameterError):
        DesConfig(**kwargs)


def test_carry_rejects_another_cfg():
    # a segment goes on from the carry's state, which holds its cfg
    cfg = DesConfig(mu=1.0, sample_dt=1.0)
    carry = des.FifoCarry(cfg, (0.0, 2.0), 1.0)
    trace = PacketTrace(np.array([0.5]), 1.0, (0.0, 2.0))
    with pytest.raises(ParameterError):
        simulate_fifo(trace, DesConfig(mu=2.0, sample_dt=1.0), carry)
    assert simulate_fifo(trace, cfg, carry).packets == 1


def test_carry_rejects_another_size():
    # the carry holds one packet size: its service time, its drop limit
    # and its dropped bits
    cfg = DesConfig(mu=1.0, capacity_k=4.0, sample_dt=1.0)
    carry = des.FifoCarry(cfg, (0.0, 2.0), 1.0)
    with pytest.raises(ParameterError):
        simulate_fifo(PacketTrace(np.array([0.5]), 2.0, (0.0, 2.0)), cfg,
                      carry)
    trace = PacketTrace(np.array([0.5]), 1.0, (0.0, 2.0))
    assert simulate_fifo(trace, cfg, carry).packets == 1
    assert carry.result().packets == 1


def test_segmented_drop_bits_are_drops_times_size():
    # 1000.3 bits is not a whole number, so a sum of the 9 segments' dropped
    # bits rounds away from the loop's n_drop x size (198059.40000000002
    # against 198059.4)
    size, mu = 1000.3, 1e4
    times = 1.0 + np.arange(400) * (0.5 * size / mu)
    cap = 3 * size
    res, _ = fed_in_segments(np.array_split(times, 9), size,
                             DesConfig(mu=mu, capacity_k=cap, sample_dt=0.25),
                             (0.0, float(times[-1]) + 1.0))
    _, _, n_drop, bits_drop = kernels.des_fifo(times, size, mu, cap)
    assert res.drop_count == n_drop == 198
    assert res.drop_bits == bits_drop == n_drop * size
