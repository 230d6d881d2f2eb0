"""Packet traces, rate series, binning and CSV round-trips."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import series
from logiq.series import (PacketTrace, RateSeries, ParameterError, bin_rates,
                          intensity, mean_rate, merge_traces, trace_to_inflow)
from logiq.traffic import VideoUserParams, generate_users


def make_trace(times, size=1000.0, horizon=None):
    times = np.asarray(times, dtype=float)
    if horizon is None:
        horizon = (0.0, float(times[-1]) if times.size else 0.0)
    return PacketTrace(times, size, horizon)


class TestPacketTrace:
    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            make_trace([2.0, 1.0])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rejects_unsorted_in_any_chunk(self, k):
        # the check runs 4 packets at a time here: a descent at any
        # position, on a chunk edge too, and a NaN fail it
        times = np.arange(13.0)
        with mock.patch.object(series, "_SORT_CHECK", 4):
            make_trace(times, horizon=(0.0, 12.0))
            for bad in (times[k - 1] - 0.5, np.nan):
                broken = times.copy()
                broken[k] = bad
                with pytest.raises(ParameterError, match="sorted"):
                    make_trace(broken, horizon=(-1.0, 12.0))

    def test_rejects_nonpositive_sizes(self):
        # an empty trace states its size too
        for times in ([1.0], []):
            for size in (0.0, -1.0):
                with pytest.raises(ParameterError, match="packet_bits"):
                    PacketTrace(np.array(times), size, (0.0, 2.0))

    def test_rejects_times_outside_horizon(self):
        with pytest.raises(ParameterError):
            make_trace([1.0, 5.0], horizon=(0.0, 4.0))

    # an infinite size made the oracle's backlog samples [0, inf, inf]
    @pytest.mark.parametrize("times, size", [
        ([0.5, np.nan], 100.0),
        ([np.nan, 0.5], 100.0),
        ([np.nan], 100.0),
        ([0.5, 0.7], np.nan),
        ([0.5, np.nan], np.nan),
        ([0.5, 0.7], np.inf),
    ], ids=["time_last", "time_first", "single_time", "size", "both",
            "size_inf"])
    def test_rejects_nan(self, times, size):
        with pytest.raises(ParameterError):
            PacketTrace(np.array(times), size, (0.0, 1.0))

    def test_rejects_nan_horizon(self):
        with pytest.raises(ParameterError):
            PacketTrace(np.empty(0), 100.0, (0.0, np.nan))

    def test_total_bits(self):
        tr = make_trace([0.5, 1.0, 1.5], size=100.0)
        assert tr.total_bits == 300.0

    def test_csv_round_trip(self, tmp_path):
        tr = make_trace([0.123456789, 1.0, 2.5], size=11712.0)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_arrival_s,size_bits"
        assert [line.split(",")[1] for line in lines[1:]] == ["11712"] * 3
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(back[:, 0], tr.times, atol=1e-9)

    def test_csv_is_the_per_line_format(self, tmp_path):
        # written in chunks of 3 lines, byte for byte as one f-string per
        # packet wrote it
        times = [0.0, 1e-10, 2.5e-9, 0.123456789012, 1.0, 1234.5678901234,
                 21599.999999999996]
        tr = make_trace(times, size=11712.0)
        path = tmp_path / "trace.csv"
        with mock.patch.object(series, "_CSV_LINES", 3):
            tr.to_csv(path)
        assert path.read_text() == "t_arrival_s,size_bits\n" + "".join(
            f"{t:.9f},11712\n" for t in tr.times)

    def test_empty_csv_round_trip(self, tmp_path):
        tr = PacketTrace(np.empty(0), 11712.0, (0.0, 10.0))
        path = tmp_path / "empty.csv"
        tr.to_csv(path)
        assert path.read_text() == "t_arrival_s,size_bits\n"


class TestRateSeries:
    def test_sample_times_right_edges(self):
        rs = RateSeries(10.0, 2.0, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(rs.sample_times, [12.0, 14.0, 16.0])
        assert rs.t_end == 16.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ParameterError):
            RateSeries(0.0, 1.0, np.array([1.0, -0.1]))

    def test_rejects_nan_rates(self):
        with pytest.raises(ParameterError):
            RateSeries(0.0, 1.0, np.array([np.nan]))
        with pytest.raises(ParameterError):
            RateSeries(0.0, 1.0, np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ParameterError):
            RateSeries(0.0, np.nan, np.array([1.0]))

    def test_rejects_infinite_rates(self):
        # an infinite sample made the fluid backlog [0, 0, inf, nan]
        with pytest.raises(ParameterError):
            RateSeries(0.0, 1.0, np.array([1.0, np.inf, 1.0]))

    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_t0(self, t0):
        with pytest.raises(ParameterError):
            RateSeries(t0, 1.0, np.array([1.0]))

    def test_interpolation_constant_ends(self):
        rs = RateSeries(0.0, 1.0, np.array([2.0, 4.0]))
        assert rs(0.0) == 2.0          # before first sample: constant
        assert rs(1.5) == pytest.approx(3.0)
        assert rs(10.0) == 4.0

    def test_integral_matches_quadrature(self):
        rs = RateSeries(0.0, 0.5, np.array([2.0, 4.0, 4.0, 0.0]))
        ts = np.linspace(0.0, rs.t_end, 20001)
        num = (getattr(np, "trapezoid", None) or np.trapz)(rs(ts), ts)
        assert rs.integral() == pytest.approx(num, rel=1e-6)

    def test_csv_round_trip_exact(self, tmp_path):
        rs = RateSeries(0.0, 60.0, np.array([0.0, 1.5e7, 11712.0 / 60.0]))
        path = tmp_path / "rates.csv"
        rs.to_csv(path)
        back = RateSeries.from_csv(path)
        assert back.same_grid(rs)
        np.testing.assert_array_equal(back.values, rs.values)

    def test_csv_is_the_per_line_format(self, tmp_path):
        # written in chunks of 2 lines, byte for byte as one f-string per
        # sample wrote it
        rs = RateSeries(3.0, 0.1, np.array([0.0, 1.5e7, 11712.0 / 60.0,
                                            1e-300, 2.0 / 3.0]))
        path = tmp_path / "rates.csv"
        with mock.patch.object(series, "_CSV_LINES", 2):
            rs.to_csv(path)
        assert path.read_text() == "t_s,rate_bps\n" + "".join(
            f"{t:.9f},{float(v)!r}\n"
            for t, v in zip(rs.sample_times, rs.values))


class TestBinning:
    def test_single_packet_rate(self):
        # one 11712-bit packet in a 60 s bin -> 195.2 b/s
        tr = make_trace([30.0], size=11712.0, horizon=(0.0, 60.0))
        inflow = trace_to_inflow(tr, 60.0)
        assert len(inflow) == 1
        assert inflow.values[0] == pytest.approx(11712.0 / 60.0)

    def test_half_open_bins_right_edge_inclusive(self):
        tr = make_trace([60.0, 60.000001], size=60.0, horizon=(0.0, 120.0))
        inflow = trace_to_inflow(tr, 60.0)
        # arrival exactly at the edge belongs to the earlier bin
        assert inflow.values[0] == pytest.approx(1.0)
        assert inflow.values[1] == pytest.approx(1.0)

    def test_arrival_at_t0_goes_to_first_bin(self):
        tr = make_trace([0.0], size=60.0, horizon=(0.0, 60.0))
        inflow = trace_to_inflow(tr, 60.0)
        assert inflow.values[0] == pytest.approx(1.0)

    def test_empty_trace_zero_series(self):
        tr = PacketTrace(np.empty(0), 11712.0, (0.0, 300.0))
        inflow = trace_to_inflow(tr, 60.0)
        assert len(inflow) == 5
        assert np.all(inflow.values == 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=599.999),
                    min_size=0, max_size=200),
           st.sampled_from([1.0, 7.0, 60.0]))
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, raw_times, dt):
        times = np.sort(np.asarray(raw_times))
        tr = PacketTrace(times, 1464 * 8.0, (0.0, 600.0))
        inflow = trace_to_inflow(tr, dt)
        binned_bits = inflow.values.sum() * dt
        assert binned_bits == pytest.approx(tr.total_bits, rel=1e-12, abs=1e-9)

    @given(t0=st.sampled_from([0.0, 3.7, -100.0, 1e4]),
           dt=st.sampled_from([0.1, 1.0, 7.0, 60.0]),
           n_bins=st.integers(1, 40),
           picks=st.lists(st.tuples(st.sampled_from(
               ["edge", "ulp_below", "ulp_above", "t0", "past_t1", "inside"]),
               st.floats(0.0, 1.0)), max_size=120),
           size=st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_packet_rule(self, t0, dt, n_bins, picks, size):
        # sorted times binned by clip(ceil((t - t0) / dt) - 1) per packet;
        # an integer size makes every bin's bits exact, so a packet in the
        # wrong bin shows
        t1 = t0 + n_bins * dt
        times = []
        for kind, u in picks:
            edge = t0 + dt * int(u * n_bins)
            times.append({"edge": edge,
                          "ulp_below": np.nextafter(edge, -np.inf),
                          "ulp_above": np.nextafter(edge, np.inf),
                          "t0": t0,
                          "past_t1": t1 + u * dt,
                          "inside": t0 + u * (t1 - t0)}[kind])
        times = np.sort(np.asarray(times, dtype=float))
        out = bin_rates(times, float(size), t0, t1, dt)
        n = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
        idx = np.clip(np.ceil((times - t0) / dt).astype(np.int64) - 1, 0,
                      n - 1)
        expected = np.bincount(idx, minlength=n) * float(size) / dt
        np.testing.assert_array_equal(out.values, expected)
        assert out.t0 == t0 and out.dt == dt


class TestEdgeCounts:
    """edge_counts puts a time within a few ulps of an edge by the bin
    rule itself, and every other time by searchsorted alone."""

    @staticmethod
    def rule(times, t0, dt, k):
        return np.array([np.count_nonzero((times - t0) / dt <= e) for e in k])

    def test_times_on_and_near_an_edge(self):
        # a time on an edge, an ulp either side of one, and one far from
        # every edge: the tie pass runs for the first three
        t0, dt, k = 3.7, 0.1, np.arange(1, 9)
        on = t0 + dt * 3
        times = np.sort([t0 + 0.05, np.nextafter(t0 + dt, 0.0), on,
                         np.nextafter(on, np.inf), t0 + dt * 6.5])
        assert series.edge_counts(times, t0, dt, k).tolist() == (
            self.rule(times, t0, dt, k).tolist())

    def test_times_far_from_every_edge(self):
        # nothing within tol of an edge: the counts are searchsorted's
        t0, dt, k = -100.0, 7.0, np.arange(0, 12)
        times = t0 + dt * (np.arange(40) * 0.3 + 0.05)
        out = series.edge_counts(times, t0, dt, k)
        assert out.tolist() == self.rule(times, t0, dt, k).tolist()
        assert out.dtype == np.intp


class TestBinPerTrace:
    """Binning a list of traces sums each trace's bits per bin; the merged
    trace binned in one piece is the reference."""

    @staticmethod
    def assert_matches_merged(traces, dt, horizon=None):
        out = trace_to_inflow(traces, dt, horizon)
        ref = trace_to_inflow(merge_traces(traces, horizon), dt)
        assert out.values.tobytes() == ref.values.tobytes()
        assert (out.t0, out.dt) == (ref.t0, ref.dt)

    def test_generated_users(self):
        horizon = (0.0, 3600.0)
        traces = generate_users(VideoUserParams(), horizon, 42, 6)
        assert sum(len(tr) for tr in traces) > 100_000
        for dt in (1.0, 7.0, 60.0):
            self.assert_matches_merged(traces, dt)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), t0=st.sampled_from([0.0, 3.7, -100.0]),
           dt=st.sampled_from([0.1, 1.0, 7.0]), n_bins=st.integers(1, 20),
           n_traces=st.integers(1, 5))
    def test_integer_sizes_match_merged(self, data, t0, dt, n_bins, n_traces):
        # packets on bin edges, an ulp either side of them and at t0, with
        # an integer size shared by the traces
        t1 = t0 + n_bins * dt
        edges = [t0 + dt * k for k in range(n_bins + 1)]
        near = edges + [np.nextafter(e, np.inf) for e in edges[:-1]] + [
            np.nextafter(e, -np.inf) for e in edges[1:]]
        time_st = st.one_of(st.sampled_from(near), st.floats(t0, t1))
        size = float(data.draw(st.integers(1, 12000)))
        traces = [PacketTrace(np.array(sorted(data.draw(st.lists(
                      time_st, max_size=30))), dtype=float), size, (t0, t1))
                  for _ in range(n_traces)]
        self.assert_matches_merged(traces, dt, (t0, t1))

    def test_non_integer_sizes_close_to_merged(self):
        rng = np.random.default_rng(8)
        horizon = (0.0, 100.0)
        size = rng.uniform(1.0, 1e4)
        traces = [PacketTrace(np.sort(rng.uniform(0.0, 100.0, 5000)),
                              size, horizon)
                  for _ in range(4)]
        out = trace_to_inflow(traces, 1.0)
        ref = trace_to_inflow(merge_traces(traces), 1.0)
        np.testing.assert_allclose(out.values, ref.values, rtol=1e-12)

    def test_rejects_mixed_horizons(self):
        a = make_trace([1.0], horizon=(0.0, 5.0))
        b = make_trace([1.0], horizon=(0.0, 6.0))
        with pytest.raises(ParameterError):
            trace_to_inflow([a, b], 1.0)
        with pytest.raises(ParameterError):
            trace_to_inflow([a], 1.0, horizon=(0.0, 6.0))

    def test_no_traces_keep_horizon(self):
        inflow = trace_to_inflow([], 60.0, horizon=(0.0, 600.0))
        assert len(inflow) == 10 and np.all(inflow.values == 0.0)

    def test_generator_binned_one_trace_at_a_time(self):
        # each trace is let go once binned, before the next is made; the
        # bins are those of the list, and a bad horizon still raises
        rng = np.random.default_rng(2)
        horizon = (0.0, 50.0)
        traces = [make_trace(np.sort(rng.uniform(0.0, 50.0, 300)),
                             size=1000.0 + k, horizon=horizon)
                  for k in range(4)]
        refs = []

        def one_at_a_time():
            for tr in traces:
                assert all(r() is None for r in refs)
                copy = PacketTrace(tr.times.copy(), tr.packet_bits, horizon)
                refs.append(weakref.ref(copy))
                yield copy
                del copy

        out = trace_to_inflow(one_at_a_time(), 1.0)
        assert len(refs) == 4 and refs[-1]() is None
        assert out.values.tobytes() == trace_to_inflow(
            traces, 1.0).values.tobytes()
        late = make_trace([1.0], horizon=(0.0, 60.0))
        with pytest.raises(ParameterError):
            trace_to_inflow(iter(traces + [late]), 1.0)


class TestMerge:
    def test_merge_sorted_and_stable(self):
        a = make_trace([0.0, 1.0, 3.0], size=10.0, horizon=(-1.0, 5.0))
        b = make_trace([-0.0, 2.0, 3.0], size=10.0, horizon=(-1.0, 5.0))
        merged = merge_traces([a, b])
        np.testing.assert_array_equal(merged.times,
                                      [0.0, 0.0, 1.0, 2.0, 3.0, 3.0])
        # ties keep input order: a's 0.0 before b's -0.0
        assert np.signbit(merged.times[:2]).tolist() == [False, True]
        assert merged.packet_bits == 10.0

    def test_merge_rejects_mixed_sizes(self):
        a = make_trace([1.0], size=10.0, horizon=(0.0, 5.0))
        b = make_trace([2.0], size=20.0, horizon=(0.0, 5.0))
        with pytest.raises(ParameterError, match="packet sizes"):
            merge_traces([a, b])

    def test_merge_rejects_mixed_horizons(self):
        a = make_trace([1.0], horizon=(0.0, 5.0))
        b = make_trace([1.0], horizon=(0.0, 6.0))
        with pytest.raises(ParameterError):
            merge_traces([a, b])
        with pytest.raises(ParameterError):
            merge_traces([a], horizon=(0.0, 6.0))

    def test_merge_empty_list(self):
        # an empty list has no packet size
        for horizon in (None, (0.0, 600.0)):
            with pytest.raises(ParameterError, match="no traces"):
                merge_traces([], horizon=horizon)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_traces=st.integers(1, 5))
    def test_matches_stable_argsort_merge(self, data, n_traces):
        # a few exact values (signed zeros among them) force ties within and
        # across traces; empty traces come with min_size=0
        time_st = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 10.0]),
                            st.floats(0.0, 10.0))
        size = data.draw(st.one_of(st.sampled_from([1.0, 2.0, 11712.0]),
                                   st.floats(1.0, 1e4)))
        traces = [PacketTrace(np.array(sorted(data.draw(st.lists(
                      time_st, max_size=30))), dtype=float), size,
                              (0.0, 10.0))
                  for _ in range(n_traces)]
        merged = merge_traces(traces)

        times = np.concatenate([tr.times for tr in traces])
        order = np.argsort(times, kind="stable")
        assert merged.times.tobytes() == times[order].tobytes()
        assert merged.packet_bits == size
        assert merged.horizon == (0.0, 10.0)


class TestBucketedMerge:
    """The merge sorts in buckets cut at time edges; the stable argsort of
    the concatenation is the reference."""

    @staticmethod
    def assert_stable_merge(traces, horizon):
        merged = merge_traces(traces, horizon=horizon)
        times = np.concatenate([tr.times for tr in traces])
        order = np.argsort(times, kind="stable")
        assert merged.times.tobytes() == times[order].tobytes()
        assert merged.packet_bits == traces[0].packet_bits
        assert merged.horizon == horizon

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bucket=st.integers(1, 4),
           horizon=st.sampled_from([(0.0, 10.0), (-1.0, 1.0), (2.0, 2.5)]),
           lengths=st.lists(st.integers(0, 12), min_size=1, max_size=5))
    def test_many_buckets_match_stable_argsort(self, data, bucket, horizon,
                                               lengths):
        # times on the bucket edges and signed zeros tie within and across
        # traces and buckets
        t0, t1 = horizon
        n = sum(lengths)
        edges = np.linspace(t0, t1, max(1, n // bucket) + 1).tolist()
        zeros = [-0.0, 0.0] if t0 <= 0.0 else []
        time_st = st.one_of(st.sampled_from(edges + zeros), st.floats(t0, t1))
        traces = [make_trace(sorted(data.draw(st.lists(
                      time_st, min_size=k, max_size=k))), 11712.0, horizon)
                  for k in lengths]
        with mock.patch.object(series, "_BUCKET", bucket):
            self.assert_stable_merge(traces, horizon)

    def test_signed_zeros_at_an_edge(self):
        # two buckets over (-1, 1) meet at exactly 0.0
        horizon = (-1.0, 1.0)
        assert np.linspace(-1.0, 1.0, 3)[1] == 0.0
        traces = [make_trace([-0.5, -0.0, 0.0, 0.5], 8.0, horizon),
                  make_trace([0.0, -0.0, 1.0], 8.0, horizon),
                  make_trace([-0.0, -0.0, 0.0, 0.0], 8.0, horizon)]
        with mock.patch.object(series, "_BUCKET", 5):
            self.assert_stable_merge(traces, horizon)

    def test_generated_users(self):
        horizon = (0.0, 3 * 3600.0)
        traces = generate_users(VideoUserParams(), horizon, 42, 10)
        merged = merge_traces(traces, horizon=horizon)
        assert len(merged) > 10 * series._BUCKET
        ref = np.sort(np.concatenate([tr.times for tr in traces]),
                      kind="stable")
        assert merged.times.tobytes() == ref.tobytes()
        assert merged.packet_bits == VideoUserParams().packet_size_bits


class TestMergedSegments:
    """merged_segments against the stable sort of all times and the
    per-packet bin rule clip(ceil((t - t0) / dt) - 1)."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), n_bins=st.integers(1, 9),
           horizon=st.sampled_from([(0.0, 10.0), (-1.0, 1.0), (2.0, 2.5)]),
           lengths=st.lists(st.integers(0, 12), max_size=4))
    def test_segments_cut_the_merge_at_bin_edges(self, data, width, n_bins,
                                                 horizon, lengths):
        # times on and an ulp off the bin edges and signed zeros tie within
        # and across sources and chunks
        t0, t1 = horizon
        dt = (t1 - t0) / n_bins
        edges = [t0 + dt * k for k in range(n_bins + 1)]
        near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        near = [t for t in near if t0 <= t <= t1]
        zeros = [-0.0, 0.0] if t0 <= 0.0 else []
        time_st = st.one_of(st.sampled_from(edges + near + zeros),
                            st.floats(t0, t1))
        runs = []
        for k in lengths:
            times = np.asarray(sorted(data.draw(st.lists(
                time_st, min_size=k, max_size=k))), float)
            cuts = sorted(data.draw(st.lists(st.integers(0, k), max_size=3)))
            runs.append(np.split(times, cuts))
        # a segment is overwritten by the next: keep a copy
        got = [(times.copy(), b0, b1) for times, b0, b1 in
               series.merged_segments([iter(r) for r in runs], t0, dt,
                                      n_bins, width)]
        assert [(b0, b1) for _, b0, b1 in got] == [
            (b0, min(b0 + width, n_bins)) for b0 in range(0, n_bins, width)]
        merged = np.concatenate([times for times, *_ in got])
        ref = np.sort(np.concatenate([np.empty(0)] + [c for r in runs
                                                       for c in r]),
                      kind="stable")
        assert merged.tobytes() == ref.tobytes()
        for times, b0, b1 in got:
            idx = np.clip(np.ceil((times - t0) / dt) - 1, 0, n_bins - 1)
            assert np.all((b0 <= idx) & (idx < b1))


def test_mean_rate_and_intensity():
    rs = RateSeries(0.0, 1.0, np.array([4.0, 8.0]))
    assert mean_rate(rs) == 6.0
    assert intensity(rs, 12.0) == pytest.approx(0.5)
    for mu in (0.0, np.nan):
        with pytest.raises(ParameterError):
            intensity(rs, mu)


def test_bin_rates_rejects_nan_dt():
    with pytest.raises(ParameterError):
        bin_rates(np.array([1.0]), 8.0, 0.0, 10.0, np.nan)


@pytest.mark.parametrize("call", [
    lambda: RateSeries(0.0, np.inf, [1.0]),
    lambda: bin_rates(np.array([1.0]), 8.0, 0.0, 10.0, np.inf),
    lambda: trace_to_inflow(PacketTrace(np.array([1.0]), 8.0, (0.0, 10.0)),
                            np.inf),
], ids=["rate_series", "bin_rates", "trace_to_inflow"])
def test_rejects_infinite_dt(call):
    # one bin of width inf would hold every bit at rate 0
    with pytest.raises(ParameterError):
        call()
