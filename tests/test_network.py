"""Digital-twin star topology: propagation, routing and latency KPIs."""

import numpy as np
import pytest

from logiq.fluid import QueueSpec, integrate_queue
from logiq.network import (HorizonError, Topology, _link_alpha,
                           expected_latency, inject_priority_flow, latency,
                           latency_series, max_expected_latency, propagate)
from logiq.series import ParameterError, RateSeries

PKT = 1464 * 8.0


def small_topology(**overrides):
    kwargs = dict(
        access_mu=(25e9, 25e9),
        core_mu=100e9,
        core_k=25e9 * 8,
        egress_xi=(20e9, 20e9),
        routing=np.array([[0.5, 0.5], [0.25, 0.75]]),
        packet_size_bits=PKT,
    )
    kwargs.update(overrides)
    return Topology(**kwargs)


def const_flows(rates, n=120, dt=1.0):
    return [RateSeries(0.0, dt, np.full(n, float(r))) for r in rates]


class TestTopology:
    def test_row_sums_validated(self):
        with pytest.raises(ParameterError):
            small_topology(routing=np.array([[0.5, 0.2], [0.25, 0.75]]))

    def test_rounded_rows_renormalized(self):
        topo = small_topology(routing=np.array([[0.5002, 0.5], [0.25, 0.75]]))
        np.testing.assert_allclose(topo.routing.sum(axis=1), 1.0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            small_topology(routing=np.array([[1.0], [1.0]]))

    def test_negative_entries(self):
        with pytest.raises(ParameterError):
            small_topology(routing=np.array([[1.2, -0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("field, value", [
        ("access_mu", (25e9, np.nan)),
        ("core_mu", np.nan),
        ("core_k", np.nan),
        ("egress_xi", (np.nan, 20e9)),
        ("routing", np.array([[np.nan, 0.5], [0.25, 0.75]])),
        ("packet_size_bits", np.nan),
    ])
    def test_rejects_nan(self, field, value):
        with pytest.raises(ParameterError):
            small_topology(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("access_mu", (25e9, np.inf)),
        ("core_mu", np.inf),
        ("core_k", np.inf),
        ("egress_xi", (np.inf, 20e9)),
        ("packet_size_bits", np.inf),
    ])
    def test_rejects_inf(self, field, value):
        with pytest.raises(ParameterError):
            small_topology(**{field: value})


class TestPropagate:
    def test_zero_inflows_zero_queues(self):
        state = propagate(small_topology(), const_flows([0.0, 0.0]))
        for traj in state.access + (state.core,) + state.egress:
            assert np.all(traj.q == 0.0)

    def test_underload_passes_rates_through(self):
        state = propagate(small_topology(), const_flows([10e9, 14e9]))
        # no queueing anywhere, so rates just flow through the split
        assert np.all(state.core.q < 1e3)
        np.testing.assert_allclose(state.core_in.values, 24e9, rtol=1e-6)
        z0 = state.egress_in[0].values[-1]
        assert z0 == pytest.approx(0.5 * 10e9 + 0.25 * 14e9, rel=1e-3)
        # every access bin is free flow, solved without a step
        for traj in state.access:
            assert traj.stats.steps == 0
            assert traj.stats.closed_form == len(traj.grid) - 1

    def test_split_conserves_core_outflow(self):
        rng = np.random.default_rng(6)
        flows = [RateSeries(0.0, 1.0, rng.uniform(0, 30e9, 200)),
                 RateSeries(0.0, 1.0, rng.uniform(0, 30e9, 200))]
        state = propagate(small_topology(), flows)
        recon = np.sum([z.values for z in state.egress_in], axis=0)
        np.testing.assert_allclose(recon, state.core_out.values,
                                   rtol=1e-9, atol=1.0)

    def test_access_cap_limits_core_inflow(self):
        state = propagate(small_topology(), const_flows([40e9, 0.0]))
        # the 25 Gb/s access link clips the overloaded flow
        assert state.core_in.values[-1] <= 25e9 * (1 + 1e-9)
        assert state.access[0].q[-1] > 0.0

    def test_wrong_flow_count(self):
        with pytest.raises(ParameterError):
            propagate(small_topology(), const_flows([1e9]))


class TestLatency:
    def test_empty_network_floor(self):
        topo = small_topology()
        state = propagate(topo, const_flows([0.0, 0.0]))
        floor = PKT / 25e9 + PKT / 100e9 + PKT / 20e9
        val = latency(10.0, 0, 0, state, topo)
        assert val == pytest.approx(floor, rel=1e-12)
        assert expected_latency(10.0, state, topo) == pytest.approx(floor)

    def test_latency_increases_with_backlog(self):
        topo = small_topology()
        light = propagate(topo, const_flows([5e9, 5e9]))
        heavy = propagate(topo, const_flows([24e9, 24e9]))
        t = 60.0
        assert (expected_latency(t, heavy, topo)
                >= expected_latency(t, light, topo))

    def test_out_of_window_raises(self):
        topo = small_topology()
        state = propagate(topo, const_flows([1e9, 1e9]))
        with pytest.raises(HorizonError):
            latency(-5.0, 0, 0, state, topo)
        with pytest.raises(HorizonError):
            latency(10 * 120.0, 0, 0, state, topo)

    def test_latency_series_prefix_and_max(self):
        topo = small_topology()
        state = propagate(topo, const_flows([23e9, 23e9]))
        times, l_od = latency_series(state, topo)
        assert times[0] == 0.0 and len(times) == len(l_od)
        assert max_expected_latency(state, topo) == pytest.approx(l_od.max())

    def test_latency_series_prefix_is_largest_valid(self):
        # the overloaded 25 Gb/s access link delays later packets past the
        # 120 s window, so only a prefix of the grid is evaluable
        topo = small_topology()
        state = propagate(topo, const_flows([40e9, 0.0]))
        times, l_od = latency_series(state, topo)
        grid = state.core.grid
        for n in range(len(grid), 0, -1):
            try:
                brute = expected_latency(grid[:n], state, topo)
                break
            except HorizonError:
                pass
        assert 0 < len(times) == n < len(grid)
        np.testing.assert_array_equal(times, grid[:n])
        np.testing.assert_array_equal(l_od, brute)


class TestPriorityInjection:
    def test_zero_priority_matches_baseline(self):
        topo = small_topology()
        flows = const_flows([15e9, 15e9])
        base = propagate(topo, flows)
        prio = inject_priority_flow(
            topo, flows, RateSeries(0.0, 1.0, np.zeros(120)))
        l_b = max_expected_latency(base, topo)
        l_p = max_expected_latency(prio, topo)
        assert l_p == pytest.approx(l_b, rel=1e-3, abs=1e-9)

    def test_priority_flow_steals_core_capacity(self):
        topo = small_topology()
        flows = const_flows([12e9, 12e9], n=300)
        base = propagate(topo, flows)
        # 80 Gb/s of priority pushes the aggregate past the 100 Gb/s core
        prio = inject_priority_flow(
            topo, flows, RateSeries(0.0, 1.0, np.full(300, 80e9)))
        assert prio.core.q[-1] > base.core.q[-1]
        assert prio.priority is not None
        assert max_expected_latency(prio, topo) > max_expected_latency(base, topo)

    def test_core_buffer_enforced(self):
        # 30 Gb/s of priority on 90 Gb/s of access traffic overloads the
        # 100 Gb/s core by 20 Gb/s; without the buffer it would reach 120 K.
        # The pair's total is the core's single finite queue on both flows,
        # so it keeps that queue's bound: K, exactly.
        k = 20e9
        topo = small_topology(access_mu=(50e9, 50e9), core_k=k)
        flows = const_flows([45e9, 45e9])
        prio_in = RateSeries(0.0, 1.0, np.full(120, 30e9))
        state = inject_priority_flow(topo, flows, prio_in)
        hi, low = state.priority, state.core
        total_in = RateSeries(0.0, 1.0, state.core_in.values + prio_in.values)
        spec = QueueSpec(mu=topo.core_mu,
                         alpha=_link_alpha(total_in, topo.core_mu),
                         capacity_k=k)
        total = integrate_queue(total_in, spec)
        np.testing.assert_allclose(hi.q + low.q, total.q, rtol=0.0,
                                   atol=1e-15 * k)
        assert total.q.max() <= k
        assert hi.lost[-1] + low.lost[-1] > 0.0
        for traj, x in ((hi, prio_in), (low, state.core_in)):
            mass_in = x.integral() + traj.q[0]
            mass_out = traj.q[-1] + traj.served[-1] + traj.lost[-1]
            assert mass_out == pytest.approx(mass_in, rel=1e-5)

    def test_priority_alone_fills_the_core(self):
        # 120 Gb/s of priority on a 100 Gb/s core: the high class fills the
        # buffer and pushes the low class out.  The low class's instant
        # outflow is the aggregate's outflow law less the high class's, and
        # the egress stage reads it floored at 0; the aggregate's backlog and
        # inflow are the larger, so its law is too, and the floor adds
        # nothing here
        k = 20e9
        topo = small_topology(access_mu=(50e9, 50e9), core_k=k)
        flows = const_flows([10e9, 10e9], n=300)
        base = propagate(topo, flows)
        prio_in = RateSeries(0.0, 1.0, np.full(300, 120e9))
        state = inject_priority_flow(topo, flows, prio_in, base=base)
        hi, low = state.priority, state.core
        assert hi.q[-1] > 0.99 * k and low.q[-1] < 0.01 * k
        assert np.all(low.q >= 0.0) and low.lost[-1] > hi.lost[-1] > 0.0
        floored = np.maximum(-low.y[1:], 0.0).sum() * low.output_dt
        assert floored <= 1e-6 * state.core_in.integral()
        # a low packet waits for the whole backlog, the high class's too, so
        # the latency keeps rising with the priority rate once the pair
        # fills the buffer, where the core's delay settles at K / mu; the
        # pair's total holds at K
        l_max = [max_expected_latency(inject_priority_flow(
            topo, flows, RateSeries(0.0, 1.0, np.full(300, rate)),
            base=base), topo) for rate in (0.0, 90e9, 120e9, 200e9)]
        assert l_max[-1] == pytest.approx(l_max[0] + k / topo.core_mu,
                                          rel=1e-9)
        assert np.all(np.diff(l_max) >= -1e-9 * np.asarray(l_max[:-1]))

    def test_grid_mismatch(self):
        topo = small_topology()
        with pytest.raises(ParameterError):
            inject_priority_flow(topo, const_flows([1e9, 1e9]),
                                 RateSeries(0.0, 2.0, np.zeros(120)))
        with pytest.raises(ParameterError):
            inject_priority_flow(
                topo, const_flows([1e9, 1e9]), RateSeries(0.0, 1.0,
                                                          np.zeros(120)),
                base=propagate(topo, const_flows([1e9, 1e9], dt=2.0)))

    @pytest.mark.parametrize("prio_rate", [0.0, 30e9])
    def test_base_reuses_access_stage(self, prio_rate):
        # 30 Gb/s of priority on 90 Gb/s of access traffic fills the core
        topo = small_topology(access_mu=(50e9, 50e9), core_k=20e9)
        rng = np.random.default_rng(5)
        flows = [RateSeries(0.0, 1.0, rng.uniform(30e9, 60e9, 120))
                 for _ in range(2)]
        prio_in = RateSeries(0.0, 1.0, np.full(120, prio_rate))
        base = propagate(topo, flows)
        reused = inject_priority_flow(topo, flows, prio_in, base=base)
        fresh = inject_priority_flow(topo, flows, prio_in)
        assert reused.access is base.access
        for a, b in zip(
                [*reused.access, reused.core, *reused.egress, reused.priority],
                [*fresh.access, fresh.core, *fresh.egress, fresh.priority]):
            for field in ("grid", "q", "y", "served", "lost"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field))
            assert a.stats == b.stats
        for a, b in zip(
                [*reused.access_out, reused.core_in, reused.core_out,
                 *reused.egress_in],
                [*fresh.access_out, fresh.core_in, fresh.core_out,
                 *fresh.egress_in]):
            np.testing.assert_array_equal(a.values, b.values)
