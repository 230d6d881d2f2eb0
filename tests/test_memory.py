"""Memory the packet path holds and peaks at, counted by
tracemalloc, which numpy reports its buffers to.  Bounds are in units of 8n
bytes, one float64 per packet of the trace; the counts are deterministic.
Each stage keeps one full-length array: the bounds leave room for
chunk-sized scratch, such as that of PacketTrace's sortedness check.
validate's oracle path keeps none: it holds one time segment at a time.
Its traffic is drawn in a child process that tracemalloc does not see, so
that path is measured both ways: with the child, and drawn inline."""

import contextlib
import os
import tracemalloc

import pytest

from logiq.des import DesConfig, simulate_fifo
from logiq.pipeline import stream_oracle, validate_scenario
from logiq.series import merge_traces, trace_to_inflow
from logiq.traffic import VideoUserParams, generate_users, user_chunks

HORIZON = (0.0, 2 * 3600.0)
USERS = 4
SEED = 3


def generate():
    return generate_users(VideoUserParams(), HORIZON, SEED, USERS)


@pytest.fixture
def traced():
    # a first run outside the trace makes numpy's one-time allocations
    generate_users(VideoUserParams(), (0.0, 600.0), SEED, USERS)
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def peak_above_current(func, *args, **kwargs):
    """func's result and the traced peak, in bytes, above what was traced
    before the call."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = func(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] - base


def test_binning_per_trace_peak(traced):
    # no merged trace: what the binning allocates scales with the 7 200
    # one-second bins, not the packets.  Measured: 0.060 per 8n; a merged
    # trace alone would be 1.0
    traces = generate()
    n = sum(len(tr) for tr in traces)
    inflow, peak = peak_above_current(trace_to_inflow, traces, 1.0)
    assert n > 500_000 and len(inflow) == 7200
    assert peak <= 0.1 * 8 * n


def test_generated_traces_hold_their_times(traced):
    base = tracemalloc.get_traced_memory()[0]
    traces = generate()
    n = sum(len(tr) for tr in traces)
    assert n > 500_000
    assert tracemalloc.get_traced_memory()[0] - base <= 1.1 * 8 * n


def test_merge_peak(traced):
    traces = generate()
    merged, peak = peak_above_current(merge_traces, traces, horizon=HORIZON)
    n = len(merged)
    assert n > 500_000
    assert peak <= 1.25 * 8 * n


def test_infinite_buffer_oracle_peak(traced):
    merged = merge_traces(generate(), horizon=HORIZON)
    n = len(merged)
    _, peak = peak_above_current(simulate_fifo, merged,
                                 DesConfig(mu=USERS * 1.2e6))
    assert n > 500_000
    assert peak <= 1.25 * 8 * n


def test_drop_tail_oracle_peak(traced):
    # 175 581 drops; the result holds the departure times in the one array
    # the scan wrote compacted.  Measured: a peak of 1.15 and 1.00 held, per
    # 8n bytes
    merged = merge_traces(generate(), horizon=HORIZON)
    n = len(merged)
    base = tracemalloc.get_traced_memory()[0]
    res, peak = peak_above_current(simulate_fifo, merged,
                                   DesConfig(mu=2.88e6, capacity_k=2e7))
    held = tracemalloc.get_traced_memory()[0] - base
    assert n > 500_000 and res.drop_count > 100_000
    assert peak <= 1.25 * 8 * n
    assert held <= 1.1 * 8 * n


@contextlib.contextmanager
def drawn_inline(inline):
    """With ``inline``, the traffic drawn in this process (no os.fork), so
    tracemalloc sees the producer's arrays as well as the merge and the
    oracle's; else in the child process, outside tracemalloc."""
    if not inline:
        yield
        return
    fork = os.fork
    del os.fork
    try:
        yield
    finally:
        os.fork = fork


def test_validate_peak_flat_in_the_horizon(traced):
    # segments of about 2^18 expected packets: 6 of them over 2 h, 11 over
    # 4 h.  The peak holds the largest segment's merged times and its
    # departures, and, drawn inline, its chunks.  Measured: 10.37 and
    # 10.46 MB inline, 1.12 and 0.53 per 8n (a merged trace alone would be
    # 1.0); 8.25 and 8.24 MB with the traffic drawn in the child
    for inline in (False, True):
        peaks = []
        with drawn_inline(inline):
            for hours in (2, 4):
                run, peak = peak_above_current(
                    validate_scenario, VideoUserParams(), USERS,
                    hours * 3600.0, 60.0, SEED, USERS * 1.2e6)
                peaks.append(peak)
        n = run.des_result.packets
        assert run.traffic_process == ("inline" if inline else "child")
        assert n > 2_000_000 and run.des_result.segments == 11
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] <= 0.6 * 8 * n


def test_drop_tail_oracle_path_peak_flat_in_the_horizon(traced):
    # validate's oracle path alone, in validate's segments of 23 bins:
    # under tracemalloc the drop-tail fluid solve's many small steps take
    # half a minute.  Measured: 10.89 and 10.99 MB inline (175 581 and
    # 289 465 drops), 1.17 and 0.56 per 8n; 9.12 and 9.12 MB with the
    # traffic drawn in the child
    cfg = DesConfig(mu=2.88e6, capacity_k=2e7, sample_dt=60.0)
    for inline in (False, True):
        peaks = []
        with drawn_inline(inline):
            for hours in (2, 4):
                horizon = (0.0, hours * 3600.0)
                (_, res, _, _), peak = peak_above_current(
                    stream_oracle, user_chunks(VideoUserParams(), horizon,
                                               SEED, USERS),
                    VideoUserParams().packet_size_bits, horizon, cfg, 23)
                peaks.append(peak)
        assert res.packets > 2_000_000 and res.drop_count > 200_000
        assert res.segments == 11
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] <= 0.6 * 8 * res.packets
