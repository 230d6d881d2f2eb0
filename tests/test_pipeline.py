"""The streamed oracle path against the whole-trace one
(pipeline.whole_trace_oracle: merge_traces, simulate_fifo, then
departures_to_outflow), byte for byte."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import pipeline
from logiq.des import DesConfig, simulate_fifo
from logiq.series import PacketTrace
from logiq.traffic import VideoUserParams, generate_users

SIZE = 11712.0


def assert_same(streamed, whole):
    inflow, res, y, _ = streamed
    w_inflow, w_res, w_y = whole
    assert inflow.t0 == w_inflow.t0 and inflow.dt == w_inflow.dt
    assert inflow.values.tobytes() == w_inflow.values.tobytes()
    assert res.sample_times.tobytes() == w_res.sample_times.tobytes()
    assert res.q_sampled.tobytes() == w_res.q_sampled.tobytes()
    assert y.tobytes() == w_y.tobytes()
    assert res.departures is None
    assert res.packets == w_res.packets == (len(w_res.departures)
                                            + res.drop_count)
    assert res.drop_count == w_res.drop_count
    assert res.drop_bits == w_res.drop_bits


def carried_states(calls):
    """A spy on pipeline.simulate_fifo that records the carried completion
    and busy walk each segment starts from, and its first arrival."""
    def spy(trace, cfg, carry):
        calls.append((carry.scan.c, carry.scan.walking,
                      trace.times[0] if len(trace) else None))
        return simulate_fifo(trace, cfg, carry)
    return mock.patch.object(pipeline, "simulate_fifo", spy)


class TestStreamedValidate:
    """validate_scenario with segments of one bin: edges fall inside busy
    runs and, with a buffer, inside drop-tail busy walks."""

    @pytest.mark.parametrize("capacity", [None, 4e6])
    def test_matches_whole_trace(self, capacity):
        params = VideoUserParams()
        horizon, dt, seed, users, mu = 7200.0, 60.0, 5, 4, 3.0e6
        calls = []
        with mock.patch.object(pipeline, "_SEGMENT_PACKETS", 1), \
                carried_states(calls):
            run = pipeline.validate_scenario(params, users, horizon, dt,
                                             seed, mu, capacity=capacity)
        res = run.des_result
        assert res.segments == len(calls) == 120
        traces = generate_users(params, (0.0, horizon), seed, users)
        cfg = DesConfig(mu=mu, capacity_k=capacity, sample_dt=dt)
        whole = pipeline.whole_trace_oracle(traces, cfg)
        assert_same((run.inflow, res, run.y_disc, None), whole)
        # a segment whose first arrival finds the server busy: the busy
        # run straddles the edge
        assert any(a is not None and c > a for c, _, a in calls)
        if capacity is None:
            assert res.drop_count == res.looped == 0
        else:
            # a segment that starts inside a busy walk from a drop, and the
            # walk's packets counted as the whole trace counts them
            assert res.drop_count > 0
            assert any(walking for _, walking, _ in calls)
            assert (res.looped, res.stepped) == (whole[1].looped,
                                                 whole[1].stepped)


def edge_runs(edges, gaps, dt):
    """Per-source chunk lists: one source puts a packet exactly on each bin
    edge picked (a sample time), the others bursts of ``gaps``."""
    on_edges = np.asarray(sorted(edges), float) * dt
    bursts = np.cumsum(np.asarray(gaps, float))
    return [np.array_split(on_edges, 3), np.array_split(bursts, 4),
            [bursts[::2].copy()]]


class TestStreamOracle:
    @settings(max_examples=150, deadline=None)
    @given(edges=st.lists(st.integers(0, 12), max_size=12),
           gaps=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=80),
           rho=st.floats(0.5, 4.0), k=st.one_of(st.none(),
                                               st.floats(0.5, 6.0)),
           width=st.sampled_from([1, 2, 5, None]))
    def test_matches_whole_trace(self, edges, gaps, rho, k, width):
        # dt = 1 s over 12 s: packets on edges, bursts across them, and a
        # server slow enough to stay busy past several edges
        dt, horizon = 1.0, (0.0, 12.0)
        chunks = edge_runs(edges, gaps, dt)
        chunks = [[c[c <= horizon[1]] for c in run] for run in chunks]
        n = sum(c.size for run in chunks for c in run)
        mu = max(n, 1) * SIZE / (rho * horizon[1])
        cfg = DesConfig(mu=mu, capacity_k=None if k is None else k * SIZE,
                        sample_dt=dt)
        streamed = pipeline.stream_oracle(
            [iter(run) for run in chunks], SIZE, horizon, cfg, width)
        traces = [PacketTrace(np.concatenate(run),
                              np.full(sum(c.size for c in run), SIZE),
                              horizon) for run in chunks]
        assert_same(streamed, pipeline.whole_trace_oracle(traces, cfg))
        assert streamed[1].segments == -(-12 // (width or 12))

    @pytest.mark.parametrize("service_s", [4e-15, 4.0])
    @pytest.mark.parametrize("width", [1, None])
    def test_departures_past_the_last_edge(self, service_s, width):
        # a last departure a few ulps past the grid's end: the whole
        # trace's outflow grid ends with the inflow's, and its last bin
        # takes it; one 4 s past it lies on a longer grid and is cut off
        dt, horizon = 1.0, (0.0, 12.0)
        times = np.array([11.5, 12.0])
        cfg = DesConfig(mu=SIZE / service_s, sample_dt=dt)
        streamed = pipeline.stream_oracle([iter([times])], SIZE, horizon,
                                          cfg, width)
        whole = pipeline.whole_trace_oracle(
            [PacketTrace(times, np.full(2, SIZE), horizon)], cfg)
        assert_same(streamed, whole)
        last = whole[1].departures.times[-1]
        assert last > 12.0 and streamed[2][-1] == (
            2 * SIZE if service_s < 1 else 0.0)
