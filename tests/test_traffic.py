"""Bursty video-user generation: structure, determinism and rate targeting."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from logiq import pipeline
from logiq.series import PacketTrace, ParameterError
from logiq.traffic import (VideoUserParams, generate_aggregate, generate_users,
                           generate_video_user, interuse_for_rate,
                           user_chunks)


def reference_video_user(params, horizon, seed, warmup_s=0.0):
    """The burst loop with a boolean mask per bound and a final sort, the
    reference generate_video_user must match byte for byte."""
    t0, t1 = float(horizon[0]), float(horizon[1])
    rng = np.random.default_rng(seed)
    durations = np.array([d for d, _ in params.session_lengths])
    probs = np.array([p for _, p in params.session_lengths])
    chunks = []
    t = t0 - warmup_s + rng.exponential(params.interuse_mean_s)
    while t < t1:
        session_end = min(t + rng.choice(durations, p=probs), t1)
        if session_end > t0:
            burst_start = t
            while burst_start < session_end:
                n_pkts = max(1, int(round(rng.normal(params.burst_size_mean,
                                                     params.burst_size_dispersion))))
                gaps = rng.exponential(params.interpacket_mean_s, n_pkts - 1)
                times = burst_start + np.concatenate(([0.0], np.cumsum(gaps)))
                burst_end = times[-1]
                times = times[times < session_end]
                times = times[times >= t0]
                if times.size:
                    chunks.append(times)
                burst_start = burst_end + rng.exponential(params.interburst_mean_s)
        t = session_end + rng.exponential(params.interuse_mean_s)
    if chunks:
        times = np.concatenate(chunks)
        times.sort(kind="stable")
        times = times[times <= t1]
    else:
        times = np.empty(0)
    return PacketTrace(times, params.packet_size_bits, (t0, t1))


class TestParams:
    def test_defaults_expose_measured_values(self):
        p = VideoUserParams()
        assert p.packet_size_bits == 1464 * 8
        assert p.burst_size_mean == 1714.0
        assert p.interburst_mean_s == 5.56
        assert p.interpacket_mean_s == 0.00345
        assert p.interuse_mean_s == 45 * 60.0
        assert p.mean_session_s == pytest.approx(1200.0)

    def test_in_session_rate_formula(self):
        p = VideoUserParams()
        burst_dur = (1714.0 - 1.0) * 0.00345
        expected = 1714.0 * 11712.0 / (burst_dur + 5.56)
        assert p.in_session_rate_bps == pytest.approx(expected)

    def test_mean_rate_is_duty_cycled(self):
        p = VideoUserParams()
        duty = 1200.0 / (1200.0 + 2700.0)
        assert p.mean_rate_bps == pytest.approx(p.in_session_rate_bps * duty)

    def test_validation(self):
        with pytest.raises(ParameterError):
            VideoUserParams(burst_size_mean=0.0)
        with pytest.raises(ParameterError):
            VideoUserParams(session_lengths=((60.0, 0.5), (120.0, 0.4)))

    @pytest.mark.parametrize("kwargs", [
        dict(packet_size_bits=np.nan), dict(burst_size_mean=np.nan),
        dict(burst_size_dispersion=np.nan), dict(interburst_mean_s=np.nan),
        dict(interpacket_mean_s=np.nan), dict(interuse_mean_s=np.nan),
        dict(session_lengths=((300.0, np.nan), (600.0, 1.0))),
        dict(session_lengths=((np.nan, 0.5), (600.0, 0.5))),
        dict(packet_size_bits=np.inf),
    ])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(ParameterError):
            VideoUserParams(**kwargs)


class TestInteruseForRate:
    def test_round_trip(self):
        p = VideoUserParams()
        target = 0.8e6
        tuned = dataclasses.replace(p, interuse_mean_s=interuse_for_rate(p, target))
        assert tuned.mean_rate_bps == pytest.approx(target, rel=1e-12)

    def test_rejects_unreachable_rate(self):
        p = VideoUserParams()
        with pytest.raises(ParameterError):
            interuse_for_rate(p, p.in_session_rate_bps * 1.1)
        with pytest.raises(ParameterError):
            interuse_for_rate(p, 0.0)


class TestGeneration:
    def test_deterministic_in_seed(self):
        p = VideoUserParams()
        a = generate_video_user(p, (0.0, 7200.0), 123)
        b = generate_video_user(p, (0.0, 7200.0), 123)
        np.testing.assert_array_equal(a.times, b.times)
        assert a.packet_bits == b.packet_bits

    def test_seeds_differ(self):
        p = VideoUserParams()
        a = generate_video_user(p, (0.0, 7200.0), 1)
        b = generate_video_user(p, (0.0, 7200.0), 2)
        assert len(a) != len(b) or not np.array_equal(a.times, b.times)

    def test_user_stream_independent_of_population_size(self):
        p = VideoUserParams()
        few = generate_users(p, (0.0, 7200.0), 7, 2)
        many = generate_users(p, (0.0, 7200.0), 7, 5)
        np.testing.assert_array_equal(few[0].times, many[0].times)
        np.testing.assert_array_equal(few[1].times, many[1].times)

    def test_times_inside_horizon_and_sorted(self):
        p = VideoUserParams()
        tr = generate_aggregate(p, (0.0, 4 * 3600.0), 5, 4)
        assert np.all(np.diff(tr.times) >= 0)
        if len(tr):
            assert tr.times[0] >= 0.0 and tr.times[-1] <= 4 * 3600.0
        assert tr.packet_bits == 1464 * 8

    def test_aggregate_of_no_users_keeps_horizon(self):
        tr = generate_aggregate(VideoUserParams(), (0.0, 100.0), 1, 0)
        assert len(tr) == 0
        assert tr.horizon == (0.0, 100.0)

    @pytest.mark.parametrize("n_users", [0, 1])
    @pytest.mark.parametrize("horizon", [(5.0, 5.0), (5.0, 4.0),
                                         (0.0, float("nan"))])
    def test_aggregate_rejects_empty_horizon(self, horizon, n_users):
        with pytest.raises(ParameterError):
            generate_aggregate(VideoUserParams(), horizon, 1, n_users)

    def test_idle_seed_yields_empty_trace(self):
        # a millisecond window almost surely starts inside the first gap
        p = VideoUserParams()
        tr = generate_video_user(p, (0.0, 1e-3), 0)
        assert len(tr) == 0

    def test_interpacket_gaps_exponential(self):
        # isolate one long burst so consecutive gaps are pure interpacket draws
        p = VideoUserParams(burst_size_mean=5000.0, burst_size_dispersion=0.0,
                            interburst_mean_s=1e9,
                            session_lengths=((3600.0, 1.0),),
                            interuse_mean_s=1e-6)
        tr = generate_video_user(p, (0.0, 3600.0), 11)
        gaps = np.diff(tr.times)
        gaps = gaps[gaps < 1.0]  # drop any burst/session boundary
        assert gaps.size >= 4000
        ks = stats.kstest(gaps, "expon", args=(0.0, 0.00345))
        assert ks.pvalue > 0.01

    def test_session_alternation_visible(self):
        # long gaps between sessions dominate the inter-arrival tail
        p = VideoUserParams()
        tr = generate_aggregate(p, (0.0, 48 * 3600.0), 3, 1)
        gaps = np.diff(tr.times)
        assert gaps.max() > 600.0          # at least one idle period
        assert np.median(gaps) < 0.05      # in-burst arrivals dominate


class TestMatchesReferenceLoop:
    """generate_video_user's bisection and sort-free concatenation against
    the reference loop above, on the cases that exercise each bound."""

    CASES = {
        # sessions start a day before t0 > 0, so bursts straddle t0
        "straddles_t0": (VideoUserParams(), (100.0, 1300.0), 86400.0),
        # 20-45 s sessions cut most ~6 s bursts short at session_end
        "short_sessions": (VideoUserParams(
            session_lengths=((20.0, 0.5), (45.0, 0.5)), interuse_mean_s=30.0),
            (0.0, 1800.0), 0.0),
        # one packet per burst: no interpacket gaps at all
        "single_packet_bursts": (VideoUserParams(
            burst_size_mean=1.0, burst_size_dispersion=0.0,
            interburst_mean_s=2.0, interuse_mean_s=60.0),
            (50.0, 650.0), 600.0),
        # session tables whose cdf repeats a value, and one of one entry:
        # the bisected draw must pick what rng.choice picks
        "zero_probability_first": (VideoUserParams(
            session_lengths=((60.0, 0.0), (300.0, 0.5), (900.0, 0.5)),
            interuse_mean_s=300.0), (0.0, 3600.0), 3600.0),
        "zero_probability_middle": (VideoUserParams(
            session_lengths=((60.0, 0.5), (300.0, 0.0), (900.0, 0.5)),
            interuse_mean_s=300.0), (0.0, 3600.0), 3600.0),
        "zero_probability_last": (VideoUserParams(
            session_lengths=((60.0, 0.5), (300.0, 0.5), (900.0, 0.0)),
            interuse_mean_s=300.0), (0.0, 3600.0), 3600.0),
        "one_entry_table": (VideoUserParams(
            session_lengths=((240.0, 1.0),), interuse_mean_s=300.0),
            (0.0, 3600.0), 3600.0),
        # the flows of scenarios/dt_star.json: 600 s after a 1 d warmup
        "dt_star_flow": (VideoUserParams(), (0.0, 600.0), 86400.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_byte_identical(self, case):
        params, horizon, warmup_s = self.CASES[case]
        seeds = np.random.SeedSequence(2024).spawn(30)
        traces = generate_users(params, horizon, 2024, 30, warmup_s)
        for seed, tr in zip(seeds, traces):
            ref = reference_video_user(params, horizon, seed, warmup_s)
            assert tr.times.tobytes() == ref.times.tobytes()
            assert tr.packet_bits == ref.packet_bits
            assert tr.horizon == ref.horizon
        assert sum(len(tr) for tr in traces) > 0
        if case == "straddles_t0":
            # some user is inside a burst at t0 (in-burst gaps are ~3.5 ms)
            assert any(len(tr) and tr.times[0] - horizon[0] < 0.05
                       for tr in traces)


    @pytest.mark.parametrize("case", sorted(CASES))
    def test_chunks_concatenate_to_the_trace(self, case):
        # the oracle path draws the same streams, a kept chunk at a time
        params, horizon, warmup_s = self.CASES[case]
        traces = generate_users(params, horizon, 2024, 30, warmup_s)
        streams = user_chunks(params, horizon, 2024, 30, warmup_s)
        assert len(streams) == 30
        for tr, stream in zip(traces, streams):
            chunks = list(stream)
            assert all(c.size for c in chunks)
            times = np.concatenate(chunks) if chunks else np.empty(0)
            assert times.tobytes() == tr.times.tobytes()


class TestMeanRate:
    def test_equilibrium_rate_matches_analytic(self):
        # many short warm-started windows estimate the long-run mean rate
        p = VideoUserParams()
        horizon = 600.0
        traces = generate_users(p, (0.0, horizon), 99, 2000, warmup_s=86400.0)
        est = np.mean([tr.total_bits for tr in traces]) / horizon
        assert est == pytest.approx(p.mean_rate_bps, rel=0.15)


class TestWarmup:
    def test_cold_start_leaves_most_users_idle(self):
        p = VideoUserParams()
        traces = generate_users(p, (0.0, 600.0), 17, 400)
        frac = np.mean([len(tr) > 0 for tr in traces])
        # without warmup only users whose first gap ends within 600 s show up
        assert 0.12 <= frac <= 0.28

    def test_warmup_restores_equilibrium_activity(self):
        p = VideoUserParams()
        traces = generate_users(p, (0.0, 600.0), 17, 400, warmup_s=86400.0)
        frac = np.mean([len(tr) > 0 for tr in traces])
        # duty cycle 0.31 plus sessions starting inside the window ~ 0.45
        assert 0.36 <= frac <= 0.53

    def test_warmup_keeps_packets_inside_horizon(self):
        p = VideoUserParams()
        tr = generate_video_user(p, (100.0, 700.0), 23, warmup_s=86400.0)
        if len(tr):
            assert tr.times[0] >= 100.0 and tr.times[-1] <= 700.0

    def test_warmup_deterministic(self):
        p = VideoUserParams()
        a = generate_video_user(p, (0.0, 600.0), 42, warmup_s=86400.0)
        b = generate_video_user(p, (0.0, 600.0), 42, warmup_s=86400.0)
        np.testing.assert_array_equal(a.times, b.times)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ParameterError):
            generate_video_user(VideoUserParams(), (0.0, 600.0), 0, warmup_s=-1.0)

    # A NaN warmup used to return no packets, an infinite one to start the
    # first session at -inf and never finish; an infinite horizon end would
    # draw without end
    @pytest.mark.parametrize("horizon, warmup_s", [
        ((0.0, 600.0), np.nan), ((0.0, 600.0), np.inf),
        ((0.0, np.inf), 0.0), ((-np.inf, 600.0), 0.0),
        ((np.nan, 600.0), 0.0), ((0.0, np.nan), 0.0)])
    def test_non_finite_window_rejected(self, horizon, warmup_s):
        with pytest.raises(ParameterError):
            generate_video_user(VideoUserParams(), horizon, 0, warmup_s)
        with pytest.raises(ParameterError):
            generate_users(VideoUserParams(), horizon, 0, 2, warmup_s)
        with pytest.raises(ParameterError):
            for stream in user_chunks(VideoUserParams(), horizon, 0, 2,
                                      warmup_s):
                next(stream, None)


def test_user_traces_one_at_a_time_match_generate_users():
    # logiq dt draws a flow's users one at a time, each from the stream
    # generate_users would give it
    p = VideoUserParams()
    flow = np.random.SeedSequence(484).spawn(3)[2]
    lazy = pipeline._user_traces(p, (0.0, 600.0), flow, 5, 3600.0)
    ref = generate_users(p, (0.0, 600.0),
                         np.random.SeedSequence(484).spawn(3)[2], 5, 3600.0)
    got = list(lazy)
    assert len(got) == 5 and sum(len(tr) for tr in got) > 0
    for a, b in zip(got, ref):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.packet_bits == b.packet_bits
