"""The streamed oracle path against the whole-trace one
(pipeline.whole_trace_oracle: merge_traces, simulate_fifo, then
departures_to_outflow), byte for byte, with the traffic drawn in a child
process, in slot-sized pieces, or inline; and the child process reaped
however the stream ends.  Likewise dt's flow inflows, half of them drawn in
a child, against the flows drawn one after another."""

import contextlib
import itertools
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import pipeline, producer, series
from logiq.des import DesConfig, simulate_fifo
from logiq.series import PacketTrace, ParameterError, n_bins, trace_to_inflow
from logiq.traffic import VideoUserParams, generate_users, user_chunks

SIZE = 11712.0
SRC = Path(__file__).resolve().parents[1] / "src"
PRODUCERS = ("child", "pieces", "inline")


@contextlib.contextmanager
def drawing(kind):
    """The traffic drawn in a forked child ("child"), in that child through
    a slot of 16 packet times ("pieces"), or without os.fork ("inline")."""
    if kind == "pieces":
        with mock.patch.object(producer, "_SLOT", 16):
            yield
    elif kind == "inline":
        fork = os.fork
        del os.fork
        try:
            assert series.traffic_process() == "inline"
            yield
        finally:
            os.fork = fork
    else:
        yield


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        calls.append((carry.c, carry.walking,
                      trace.times[0] if len(trace) else None))
        return simulate_fifo(trace, cfg, carry)
    return mock.patch.object(pipeline, "simulate_fifo", spy)


class TestStreamedValidate:
    """validate_scenario with segments of one bin: edges fall inside busy
    runs and, with a buffer, inside drop-tail busy walks."""

    @pytest.mark.parametrize("capacity, kind", [
        pytest.param(None, "child", id="None"),
        pytest.param(4e6, "child", id="4000000.0"),
        pytest.param(None, "pieces", id="None-pieces"),
        pytest.param(4e6, "inline", id="4000000.0-inline")])
    def test_matches_whole_trace(self, capacity, kind):
        params = VideoUserParams()
        horizon, dt, seed, users, mu = 7200.0, 60.0, 5, 4, 3.0e6
        calls = []
        with mock.patch.object(pipeline, "_SEGMENT_PACKETS", 1), \
                carried_states(calls), drawing(kind):
            run = pipeline.validate_scenario(params, users, horizon, dt,
                                             seed, mu, capacity=capacity)
        assert run.traffic_process == ("inline" if kind == "inline"
                                       else "child")
        assert_no_child()
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


class TestSlotAcknowledgement:
    """The slot the child writes into is acknowledged as soon as the merge
    has copied a segment out of it, so the child writes the next segment
    while this one is binned and run through the oracle."""

    @staticmethod
    def spied(events, module, name, when):
        """``module.name`` appending ``name`` to ``events`` before or after
        the real call."""
        real = getattr(module, name)

        def spy(*args, **kwargs):
            if when == "before":
                events.append(name)
            out = real(*args, **kwargs)
            if when == "after":
                events.append(name)
            return out
        return mock.patch.object(module, name, spy)

    def test_ack_between_merge_and_oracle(self):
        events = []
        with mock.patch.object(pipeline, "_SEGMENT_PACKETS", 1), \
                self.spied(events, series, "_merge_sorted", "after"), \
                self.spied(events, producer, "_ack", "before"), \
                self.spied(events, pipeline, "simulate_fifo", "before"):
            run = pipeline.validate_scenario(VideoUserParams(), 4, 7200.0,
                                             60.0, 5, 3.0e6)
        assert run.traffic_process == "child"
        assert run.des_result.segments == 120
        assert events == ["_merge_sorted", "_ack", "simulate_fifo"] * 120
        assert_no_child()

    @pytest.mark.parametrize("kind", ["child", "pieces"])
    def test_shared_with_child_matches_inline(self, kind):
        # draws of 0 to 40 floats: through a slot of 16 ("pieces") the
        # larger ones come in several pieces
        def draw(x):
            return np.random.default_rng(x).random(x * 5)
        items = list(range(9))
        with drawing(kind):
            shared = producer.shared_with_child(draw, items)
        assert [a.tobytes() for a in shared] == [
            draw(x).tobytes() for x in items]
        # the child's arrays are copied out of the slot
        assert all(a.flags.owndata for a in shared[1::2])
        assert_no_child()


class TestStreamEnd:
    """The child sends an end after its last segment, where the stream
    returns; a child that exits before it raises."""

    @staticmethod
    def copied(runs):
        return runs[0].copy()

    @pytest.mark.parametrize("kind", ["child", "pieces"])
    def test_stream_returns_after_the_last_segment(self, kind):
        # through a slot of 16 ("pieces") the segment of 40 comes in three
        segments = [np.arange(float(n)) for n in (3, 40, 0, 17)]
        with drawing(kind):
            stream = producer.drawn_in_child(([[s]] for s in segments),
                                             self.copied)
            taken = list(stream)
        assert [a.tolist() for a in taken] == [s.tolist() for s in segments]
        with pytest.raises(StopIteration):
            next(stream)
        assert_no_child()

    def test_child_that_exits_before_the_end_raises(self):
        def drawn():
            yield [[np.arange(3.0)]]
            os._exit(0)     # in the child, which sends no end
        stream = producer.drawn_in_child(drawn(), self.copied)
        assert next(stream).tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(RuntimeError, match="ended before its last"):
            next(stream)
        assert_no_child()


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
           width=st.sampled_from([1, 2, 5, None]),
           end=st.sampled_from([12.0, 2.5]), kind=st.sampled_from(PRODUCERS))
    def test_matches_whole_trace(self, edges, gaps, rho, k, width, end,
                                 kind):
        # dt = 1 s over 12 s: packets on edges, bursts across them, and a
        # server slow enough to stay busy past several edges; or over 2.5 s,
        # whose last bin and backlog sample lie past the horizon
        dt, horizon = 1.0, (0.0, end)
        chunks = edge_runs(edges, gaps, dt)
        chunks = [[c[c <= horizon[1]] for c in run] for run in chunks]
        n = sum(c.size for run in chunks for c in run)
        mu = max(n, 1) * SIZE / (rho * horizon[1])
        cfg = DesConfig(mu=mu, capacity_k=None if k is None else k * SIZE,
                        sample_dt=dt)
        with drawing(kind):
            streamed = pipeline.stream_oracle(
                [iter(run) for run in chunks], SIZE, horizon, cfg, width)
        traces = [PacketTrace(np.concatenate(run), SIZE, horizon)
                  for run in chunks]
        assert_same(streamed, pipeline.whole_trace_oracle(traces, cfg))
        bins = n_bins(*horizon, dt)
        assert bins == (12 if end == 12.0 else 3)
        assert streamed[1].segments == -(-bins // (width or bins))
        assert streamed[1].q_sampled.size == bins + 1

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
            [PacketTrace(times, SIZE, horizon)], cfg)
        assert_same(streamed, whole)
        last = whole[1].departures.times[-1]
        assert last > 12.0 and streamed[2][-1] == (
            2 * SIZE if service_s < 1 else 0.0)


def failing_runs(*args):
    """user_chunks' runs, the first of which raises after 40 chunks."""
    runs = user_chunks(*args)

    def broken(run):
        yield from itertools.islice(run, 40)
        raise ParameterError("burst 41 is malformed")
    return [broken(runs[0]), *runs[1:]]


class TestTrafficProcess:
    """validate leaves no child process behind, however its stream ends."""

    ARGS = (VideoUserParams(), 4, 7200.0, 60.0, 5, 3.0e6)

    def test_normal_run(self):
        run = pipeline.validate_scenario(*self.ARGS)
        assert run.traffic_process == "child"
        assert run.des_result.segments > 1
        assert_no_child()

    def test_consumer_raises(self):
        def fail_third(trace, cfg, carry):
            fail_third.calls += 1
            if fail_third.calls == 3:
                raise ZeroDivisionError("oracle failed")
            return simulate_fifo(trace, cfg, carry)
        fail_third.calls = 0
        with mock.patch.object(pipeline, "simulate_fifo", fail_third), \
                pytest.raises(ZeroDivisionError, match="oracle failed"):
            pipeline.validate_scenario(*self.ARGS)
        assert_no_child()

    @pytest.mark.parametrize("kind", PRODUCERS)
    def test_producer_raises(self, kind):
        # the child's ParameterError reaches the caller with its type and
        # message, as the inline producer's does.  A slow oracle on
        # segments of one bin lets the child send the error and exit
        # before the slot it last filled is acknowledged
        def slow(trace, cfg, carry):
            time.sleep(0.01)
            return simulate_fifo(trace, cfg, carry)
        with mock.patch.object(pipeline, "user_chunks", failing_runs), \
                mock.patch.object(pipeline, "simulate_fifo", slow), \
                mock.patch.object(pipeline, "_SEGMENT_PACKETS", 1), \
                drawing(kind), \
                pytest.raises(ParameterError, match="^burst 41 is malformed$"):
            pipeline.validate_scenario(*self.ARGS)
        assert_no_child()

    def test_killed_parent(self):
        # the parent is SIGKILLed at its third segment, with the child
        # drawing or waiting for the slot; the child shares its stdout, so
        # the pipe's EOF tells that the child exited too
        script = textwrap.dedent("""
            import os, signal
            from unittest import mock
            from logiq import pipeline
            from logiq.traffic import VideoUserParams

            fork, oracle, calls = os.fork, pipeline.simulate_fifo, []

            def spy():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            def die(trace, cfg, carry):
                calls.append(len(trace))
                if len(calls) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return oracle(trace, cfg, carry)

            os.fork = spy
            # segments of one bin: the child has 117 still to send
            pipeline._SEGMENT_PACKETS = 1
            with mock.patch.object(pipeline, "simulate_fifo", die):
                pipeline.validate_scenario(VideoUserParams(), 4, 7200.0,
                                           60.0, 5, 3.0e6)
            """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child = int(proc.stdout.readline() or 0)
        try:
            assert proc.wait(timeout=60) == -signal.SIGKILL
            killed = time.monotonic()
            proc.communicate(timeout=5)
            assert time.monotonic() - killed < 5
        finally:
            proc.kill()
            if child:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        assert child > 0


class TestFlowInflows:
    """generate_flow_inflows with its odd-numbered flows drawn in a child,
    through slot-sized pieces, or inline."""

    ARGS = (VideoUserParams(), 4, 3, 600.0, 10.0, 11)
    KWARGS = {"target_rate": 1.25e10, "warmup_s": 3600.0}

    @staticmethod
    def serial(params, n_flows, users, horizon_s, dt, seed, target_rate,
               warmup_s):
        """The flows drawn one after another, as generate_users draws
        them."""
        horizon = (0.0, horizon_s)
        out = []
        for flow in np.random.SeedSequence(seed).spawn(n_flows):
            inflow = trace_to_inflow(
                generate_users(params, horizon, flow, users, warmup_s), dt,
                horizon)
            out.append(inflow.values * (target_rate / inflow.values.mean()))
        return out

    @staticmethod
    def user_traces(fail=None, alive=None):
        """pipeline._user_traces raising for flow ``fail``; the draw of
        flow 0 appends to ``alive`` whether a child process is alive then."""
        real = pipeline._user_traces

        def traces(params, horizon, seed, n_users, warmup_s):
            if seed.spawn_key[-1] == fail:
                raise ParameterError(f"flow {fail} is malformed")
            if seed.spawn_key[-1] == 0 and alive is not None:
                try:
                    alive.append(os.waitpid(-1, os.WNOHANG) == (0, 0))
                except ChildProcessError:
                    alive.append(False)
            return real(params, horizon, seed, n_users, warmup_s)
        return mock.patch.object(pipeline, "_user_traces", traces)

    @pytest.mark.parametrize("kind", PRODUCERS)
    def test_matches_serial(self, kind):
        alive = []
        with drawing(kind), self.user_traces(alive=alive):
            inflows = pipeline.generate_flow_inflows(*self.ARGS,
                                                     **self.KWARGS)
        # the child is forked before this process draws its first flow
        assert alive == [kind != "inline"]
        reference = self.serial(*self.ARGS, **self.KWARGS)
        assert len(inflows) == len(reference)
        for inflow, values in zip(inflows, reference):
            assert (inflow.t0, inflow.dt) == (0.0, 10.0)
            assert inflow.values.tobytes() == values.tobytes()
        assert_no_child()

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("kind", PRODUCERS)
    def test_flow_raises(self, kind, k):
        # flows 1 and 3 are the child's share, 0 and 2 this process's; at
        # flow 0 the child is closed before its first flow is asked for.
        # The child is reaped while the traceback still holds the frames
        with drawing(kind), self.user_traces(fail=k), pytest.raises(
                ParameterError, match=f"^flow {k} is malformed$") as info:
            pipeline.generate_flow_inflows(*self.ARGS, **self.KWARGS)
        assert_no_child()
        assert info.traceback

    def test_one_flow(self):
        # the child has no flow to draw
        one = (self.ARGS[0], 1) + self.ARGS[2:]
        inflows = pipeline.generate_flow_inflows(*one, **self.KWARGS)
        reference = self.serial(*one, **self.KWARGS)
        assert [f.values.tobytes() for f in inflows] == [
            v.tobytes() for v in reference]
        assert_no_child()
