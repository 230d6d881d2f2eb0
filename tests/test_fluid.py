"""Logistic queue model: outflow law, ODE integration, extensions, bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from logiq.fluid import (DomainError, QueueSpec, compute_alpha,
                         emptying_time_bound, exit_time,
                         integrate_finite_queue, integrate_point_queue,
                         integrate_priority_pair, integrate_queue,
                         outflow_rate, priority_rates, queue_decay_bound,
                         split_outflow)
from logiq.series import ParameterError, RateSeries


def const_inflow(rate, horizon, dt=1.0, t0=0.0):
    n = int(round(horizon / dt))
    return RateSeries(t0, dt, np.full(n, float(rate)))


def random_inflow(rng, n=120, dt=1.0, peak=2e6):
    return RateSeries(0.0, dt, rng.uniform(0.0, peak, n))


def rhs(t, q, inflow, spec):
    """(dq/dt, outflow, lost-rate) of the queue ``spec`` fed by ``inflow``,
    with X linear between the inflow's sample times and constant beyond
    them, as the solve reads it.  The backlog is evaluated at max(q, 0) and
    projected onto [0, K]: at K it does not rise, and the inflow it would
    rise by is lost."""
    x = float(np.interp(t, inflow.sample_times, inflow.values))
    q = max(float(q), 0.0)
    y = outflow_rate(x, q, spec.mu, spec.alpha)
    if spec.capacity_k is not None and q >= spec.capacity_k and x > y:
        return 0.0, y, x - y
    return x - y, y, 0.0


class TestOutflowLaw:
    def test_empty_queue_passes_inflow_through(self):
        assert outflow_rate(0.3, 0.0, mu=1.0, alpha=0.5) == pytest.approx(0.3)

    def test_saturated_queue_serves_at_mu(self):
        assert outflow_rate(0.0, 1e9, mu=1.0, alpha=0.5) == pytest.approx(1.0)

    def test_halfway_memory_at_ln2_over_alpha(self):
        # exp(-alpha q) = 1/2 puts the outflow midway between min(mu,X) and mu
        q = np.log(2.0) / 0.5
        assert outflow_rate(0.0, q, mu=1.0, alpha=0.5) == pytest.approx(0.5)

    def test_outflow_bracketed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0, 3.0)
            q = rng.uniform(0, 50.0)
            mu = rng.uniform(0.1, 2.0)
            y = outflow_rate(x, q, mu, alpha=rng.uniform(0.01, 5.0))
            lo, hi = min(mu, x), mu
            assert lo - 1e-12 <= y <= hi + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            outflow_rate(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            outflow_rate(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            outflow_rate(1.0, 1.0, 0.0, 1.0)


class TestAlpha:
    def test_alpha_from_intensity(self):
        inflow = const_inflow(6e6, 600.0, dt=60.0)
        alpha = compute_alpha(inflow, 11.33e6)
        assert alpha == pytest.approx(6e6 / 11.33e6 ** 2)

    def test_zero_inflow_needs_explicit_alpha(self):
        with pytest.raises(DomainError):
            compute_alpha(const_inflow(0.0, 600.0), 1e6)


class TestRhs:
    """The right-hand side that reference() solves."""

    def test_continuous_at_empty_queue(self):
        inflow = const_inflow(0.7, 10.0)
        spec = QueueSpec(mu=1.0, alpha=0.5)
        r0 = rhs(5.0, 0.0, inflow, spec)[0]
        r1 = rhs(5.0, 1e-7, inflow, spec)[0]
        assert abs(r1 - r0) < 1e-6

    def test_finite_buffer_gate_in_rhs(self):
        # overload 2 into mu = 1: at and above K the backlog holds, and the
        # inflow beyond the server's mu is lost; an underload still drains
        inflow = const_inflow(2.0, 10.0)
        spec = QueueSpec(mu=1.0, alpha=1.0, capacity_k=5.0)
        assert rhs(5.0, 0.0, inflow, spec)[0] == pytest.approx(1.0)
        assert rhs(5.0, 5.0, inflow, spec) == (0.0, 1.0, 1.0)
        assert rhs(5.0, 10.0, inflow, spec)[0] == 0.0
        assert rhs(5.0, 5.0, const_inflow(0.5, 10.0), spec)[0] < 0.0


class TestIntegration:
    def test_positivity_and_y_range_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = rng.uniform(0.5e6, 2e6)
            inflow = random_inflow(rng, peak=2.0 * mu)
            spec = QueueSpec(mu=mu, alpha=rng.uniform(0.5, 5.0) / mu,
                             q0=rng.uniform(0.0, mu))
            traj = integrate_queue(inflow, spec)
            assert np.all(traj.q >= 0.0)
            assert np.all(traj.y >= -1e-9)
            assert np.all(traj.y <= mu * (1.0 + 1e-9))
            assert np.all(np.diff(traj.served) >= -1e-6)

    def test_conservation_against_inflow_integral(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = 1e6
            inflow = random_inflow(rng, peak=1.8e6)
            spec = QueueSpec(mu=mu, alpha=1.0 / mu, q0=2e5)
            traj = integrate_queue(inflow, spec)
            mass_in = inflow.integral() + spec.q0
            mass_out = traj.q[-1] + traj.served[-1] + traj.lost[-1]
            assert mass_out == pytest.approx(mass_in, rel=1e-5)

    def test_underload_keeps_queue_near_zero(self):
        inflow = const_inflow(0.4e6, 3600.0, dt=60.0)
        traj = integrate_queue(inflow, QueueSpec(mu=1e6, alpha=1e-6))
        assert traj.q.max() < 1.0

    def test_overload_grows_linearly(self):
        inflow = const_inflow(2e6, 100.0)
        traj = integrate_queue(inflow, QueueSpec(mu=1e6, alpha=1e-5))
        # after the logistic transient, q' approaches X - mu = 1e6 b/s
        assert traj.q[-1] == pytest.approx(100.0 * 1e6, rel=0.05)

    def test_outflow_series_binned_is_mass_exact(self):
        inflow = const_inflow(1.5e6, 50.0)
        traj = integrate_queue(inflow, QueueSpec(mu=1e6, alpha=1e-5))
        y = traj.outflow_series("binned")
        assert y.values.sum() * y.dt == pytest.approx(traj.served[-1], rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(n_bins=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_is_inflow_grid_and_conserves_mass(self, n_bins, seed):
        inflow = random_inflow(np.random.default_rng(seed), n=n_bins, dt=60.0)
        spec = QueueSpec(mu=1e6, alpha=1e-6, q0=1e5)
        traj = integrate_queue(inflow, spec)
        np.testing.assert_array_equal(
            traj.grid, np.concatenate([[inflow.t0], inflow.sample_times]))
        mass_in = inflow.integral() + spec.q0
        mass_out = traj.q[-1] + traj.served[-1] + traj.lost[-1]
        assert mass_out == pytest.approx(mass_in, rel=1e-5)

    def test_exit_time(self):
        assert exit_time(10.0, 5e6, 1e6) == pytest.approx(15.0)


def inflow_trapezoid(inflow):
    """Cumulative integral of the inflow the solver sees, bin by bin: the
    first bin holds the first sample, the others interpolate linearly."""
    x = inflow.values
    left = np.concatenate([[x[0]], x[:-1]])
    return np.concatenate([[0.0], np.cumsum(0.5 * inflow.dt * (left + x))])


# a free-flow inflow: bin width, and each sample's fraction of the service
# rate, with 0 and 1 (inflow == mu) included
free_flow = dict(
    fractions=st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=40),
    dt=st.floats(0.01, 100.0))


class TestFreeFlow:
    """An empty queue whose inflow stays at or below its service rate is
    solved in closed form: q identically 0, served = inflow.  Every bin is
    solved exactly, also where a finite buffer fills."""

    MU = 1e6

    def assert_free_flow(self, traj, inflow):
        assert np.all(traj.q == 0.0) and np.all(traj.lost == 0.0)
        # the kernel reads each bin's two samples by index and sums the
        # trapezoids in order, as cumsum does
        np.testing.assert_array_equal(traj.served, inflow_trapezoid(inflow))

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["const", "finite"]), **free_flow)
    def test_underloaded_empty_queue_skips_every_bin(self, mode, fractions,
                                                     dt):
        mu = self.MU
        cap = 5.0 * mu if mode == "finite" else None
        spec = QueueSpec(mu=mu, alpha=1.0 / mu, capacity_k=cap)
        inflow = RateSeries(0.0, dt, np.asarray(fractions) * mu)
        self.assert_free_flow(integrate_queue(inflow, spec), inflow)

    @settings(max_examples=40, deadline=None)
    @given(shares=st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40),
           **free_flow)
    def test_idle_priority_pair_skips_every_bin(self, shares, fractions, dt):
        total = np.asarray(fractions) * self.MU
        share = np.asarray(shares[:len(fractions)])
        x1 = RateSeries(0.0, dt, share * total)
        x2 = RateSeries(0.0, dt, total - share * total)
        hi, low = integrate_priority_pair(
            x1, x2, QueueSpec(mu=self.MU, alpha=1.0 / self.MU,
                              capacity_k=5.0 * self.MU))
        self.assert_free_flow(hi, x1)
        # the low class is the aggregate less the high class: its backlog
        # is 0 - 0, and its served bits a difference of two trapezoid sums,
        # which stayed within 6.6e-16 of both classes' mass over 3000 draws
        assert np.all(low.q == 0.0) and np.all(low.lost == 0.0)
        mass = inflow_trapezoid(x1)[-1] + inflow_trapezoid(x2)[-1]
        np.testing.assert_allclose(low.served, inflow_trapezoid(x2),
                                   rtol=0.0, atol=2e-15 * mass)

    def test_overloaded_bin_is_stepped(self):
        # a buffer of mu dt, which the overloaded bins fill: the backlog
        # grows by mu dt / 8, then mu dt / 2 a bin, so the fourth bin
        # reaches K and loses mu dt / 8, and the fifth loses mu dt / 2
        mu, dt = self.MU, 60.0
        inflow = RateSeries(0.0, dt, np.array([0.5 * mu, 1.5 * mu, 1.5 * mu,
                                               1.5 * mu, 1.5 * mu]))
        spec = QueueSpec(mu=mu, alpha=1.0 / mu, capacity_k=mu * dt)
        traj = integrate_queue(inflow, spec)
        assert traj.q[1] == 0.0 and traj.lost[3] == 0.0
        assert traj.lost[-1] > 0.0
        assert traj.q.max() == spec.capacity_k
        np.testing.assert_array_equal(traj.q[4:], spec.capacity_k)
        assert traj.lost[-1] == pytest.approx(0.625 * mu * dt, rel=1e-15)
        mass = inflow.integral()
        residual = mass - traj.q[-1] - traj.served[-1] - traj.lost[-1]
        assert abs(residual) <= 1e-15 * mass

    def test_backlog_is_stepped_until_it_drains(self):
        # a backlog just below a full buffer drains under X = 0.5 mu, and
        # the last sample's 2 mu refills a little.  The smoothed gate turned
        # inflow away below K; the ceiling turns none away, because the
        # backlog never reaches K, so the buffer changes nothing, bit for bit
        mu, dt = self.MU, 60.0
        values = np.full(20, 0.5 * mu)
        values[-1] = 2.0 * mu
        inflow = RateSeries(0.0, dt, values)
        k = 100.0 * mu
        spec = QueueSpec(mu=mu, alpha=1e-5, q0=0.99 * k, capacity_k=k)
        traj = integrate_queue(inflow, spec)
        assert np.all(traj.lost == 0.0)
        # it drains, then refills in the last bin
        assert np.all(np.diff(traj.q[:-1]) <= 0.0) and traj.q[-2] == 0.0
        assert 0.0 < traj.q[-1] < k
        unbounded = integrate_queue(inflow, QueueSpec(mu=mu, alpha=1e-5,
                                                      q0=0.99 * k))
        np.testing.assert_array_equal(traj.q, unbounded.q)
        np.testing.assert_array_equal(traj.served, unbounded.served)
        mass = inflow.integral() + spec.q0
        residual = mass - traj.q[-1] - traj.served[-1] - traj.lost[-1]
        assert abs(residual) <= 1e-9 * mass


def reference(inflow, spec):
    """(q, served, lost) of the queue ``spec`` fed by ``inflow`` at the
    inflow's grid, as scipy's DOP853 solves rhs()'s rows at rtol
    1e-12, one piece at a time: each bin is cut where X crosses mu, so that
    its linear samples are read whole.  A terminal event stops a solve where
    q reaches K; the solve then resumes from q = K, where the law holds q
    while X >= mu, as it does to the piece's end, and loses X - mu."""
    grid = np.concatenate(([inflow.t0], inflow.sample_times))
    atol = 1e-15 * (inflow.integral() + spec.q0)

    def rows(t, s):
        return rhs(t, s[0], inflow, spec)

    def full(t, s):
        return s[0] - spec.capacity_k
    full.terminal, full.direction = True, 1.0
    events = None if spec.capacity_k is None else full

    def d(t):
        return np.interp(t, inflow.sample_times, inflow.values) - spec.mu

    states = [np.array([spec.q0, 0.0, 0.0])]
    for a, b in zip(grid[:-1], grid[1:]):
        cuts = [a, b]
        if d(a) * d(b) < 0.0:
            cuts.insert(1, a + (b - a) * d(a) / (d(a) - d(b)))
        state = states[-1]
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            sol = solve_ivp(rows, (c0, c1), state, method="DOP853",
                            rtol=1e-12, atol=atol, events=events)
            state = sol.y[:, -1]
            if sol.status == 1:
                state = np.array([spec.capacity_k, *state[1:]])
                state = solve_ivp(rows, (sol.t[-1], c1), state,
                                  method="DOP853", rtol=1e-12,
                                  atol=atol).y[:, -1]
        states.append(state)
    return np.array(states).T


# a single queue of rate 1e6 on a random piecewise-linear inflow: the mode,
# each sample's fraction of 1e6, the bin width, alpha * 1e6 * dt, the
# initial backlog in bins of 1e6 * dt, and the room above it in a "full"
# mode's buffer, in the same unit
exact_case = dict(
    mode=st.sampled_from(["const", "finite", "full"]),
    fractions=st.lists(st.floats(1e-3, 2.5), min_size=1, max_size=40),
    dt=st.floats(0.01, 100.0),
    alpha_dt=st.floats(0.1, 100.0),
    q0_bins=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    room_bins=st.floats(0.01, 5.0))


class TestExactBins:
    """A single queue is solved exactly, bin by bin, also with a finite
    buffer, whether its backlog reaches K or not."""

    MU = 1e6
    # gap to a reference solve at rel_tol 1e-12, in units of the mass
    # (integral of X + q0): against scipy's DOP853 at most 2.3e-12 over
    # 3000 cases drawn here, 1000 of each mode (772 of the "full" ones lose
    # inflow at K)
    STEPPER_GAP = 1e-10

    def case(self, mode, fractions, dt, alpha_dt, q0_bins, room_bins):
        mu = self.MU
        q0 = q0_bins * mu * dt
        cap = {"const": None,
               # far above any backlog this inflow can build
               "finite": q0 + 3.0 * mu * dt * len(fractions),
               # one that an overload of room_bins bins fills
               "full": q0 + room_bins * mu * dt}[mode]
        spec = QueueSpec(mu=mu, alpha=alpha_dt / (mu * dt), q0=q0,
                         capacity_k=cap)
        return RateSeries(0.0, dt, np.asarray(fractions) * mu), spec

    @settings(max_examples=60, deadline=None)
    @given(**exact_case)
    # a backlog so small that alpha * q underflows to 0
    @example(mode="const", fractions=[1.0], dt=1.0, alpha_dt=0.5,
             q0_bins=5e-324, room_bins=1.0)
    # a draw whose last bin, ramping from 0.60 to 2.30 mu, the smoothed
    # gate's stepped solve ended 7.3e-3 K off the converged one: 18 bins,
    # K = 3.39 mu dt, q0 = 0.567 K; its first 16 samples were not kept, and
    # an overload of 2 mu stands in for them, so the buffer fills first
    @example(mode="full", fractions=[2.0] * 16 + [0.60, 2.30], dt=0.0253,
             alpha_dt=84.2, q0_bins=0.567 * 3.39, room_bins=0.433 * 3.39)
    def test_matches_stepper(self, mode, fractions, dt, alpha_dt, q0_bins,
                             room_bins):
        inflow, spec = self.case(mode, fractions, dt, alpha_dt, q0_bins,
                                 room_bins)
        traj = integrate_queue(inflow, spec)
        ref_q, ref_served, ref_lost = reference(inflow, spec)
        atol = self.STEPPER_GAP * (inflow.integral() + spec.q0)
        np.testing.assert_allclose(traj.q, ref_q, rtol=0.0, atol=atol)
        np.testing.assert_allclose(traj.served, ref_served, rtol=0.0,
                                   atol=atol)
        np.testing.assert_allclose(traj.lost, ref_lost, rtol=0.0, atol=atol)
        if mode == "full":
            assert traj.q.max() <= spec.capacity_k
        else:
            assert np.all(traj.lost == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(zeros=st.lists(st.booleans(), min_size=40, max_size=40),
           **exact_case)
    def test_positive_conserving_fifo(self, zeros, mode, fractions, dt,
                                      alpha_dt, q0_bins, room_bins):
        # idle samples included: X = 0 drains fastest
        fractions = np.where(zeros[:len(fractions)], 0.0, fractions)
        inflow, spec = self.case(mode, fractions, dt, alpha_dt, q0_bins,
                                 room_bins)
        traj = integrate_queue(inflow, spec)
        assert np.all(traj.q >= 0.0)
        mass = inflow.integral() + spec.q0
        residual = mass - traj.q[-1] - traj.served[-1] - traj.lost[-1]
        assert abs(residual) <= 1e-12 * mass
        # the backlog drains slower than mu, so a bit arriving later leaves
        # later: t + q / mu is nondecreasing
        exit_times = exit_time(traj.grid, traj.q, self.MU)
        assert np.all(np.diff(exit_times) >= 0.0)

    def test_drain_at_mu_keeps_fifo_order(self):
        # X = 0 with alpha q of 10 000 and up: the drain is mu to within
        # rounding, where the softplus form alone puts some exit times an
        # ulp before the previous one
        mu = self.MU
        for dt in (0.1, 0.3, 0.7):
            inflow = RateSeries(0.0, dt, np.zeros(200))
            spec = QueueSpec(mu=mu, alpha=50.0 / (mu * dt), q0=400 * mu * dt)
            traj = integrate_queue(inflow, spec)
            exit_times = exit_time(traj.grid, traj.q, mu)
            assert np.all(np.diff(exit_times) >= 0.0)
            np.testing.assert_allclose(traj.q, spec.q0 - mu * traj.grid,
                                       rtol=1e-13)

    def test_huge_backlog_does_not_overflow(self):
        # alpha * q = 1e6 is far beyond exp's range; with X = 0 the backlog
        # drains at mu less e^(-alpha q) of it
        mu = self.MU
        inflow = const_inflow(0.0, 10.0)
        traj = integrate_queue(inflow, QueueSpec(mu=mu, alpha=1e-6, q0=1e12))
        np.testing.assert_allclose(traj.q, 1e12 - mu * traj.grid, rtol=1e-15)

    def test_crossing_bin_peaks_inside(self):
        # X falls from 2 mu to 0 across one bin, crossing mu half way: the
        # backlog grows by mu dt / 4, then drains
        mu, dt = self.MU, 10.0
        inflow = RateSeries(0.0, dt, np.array([2.0 * mu, 0.0]))
        spec = QueueSpec(mu=mu, alpha=1.0 / mu)
        traj = integrate_queue(inflow, spec)
        assert traj.q[1] == pytest.approx(mu * dt, rel=1e-15)
        peak = mu * dt + mu * dt / 4.0
        # drain over the second half: alpha q = softplus(log(expm1(alpha
        # peak)) - alpha mu dt / 4)
        a = spec.alpha
        expected = np.logaddexp(0.0, np.log(np.expm1(a * peak))
                                - a * mu * dt / 4.0) / a
        assert traj.q[2] == pytest.approx(expected, rel=1e-12)
        # a buffer that is never reached changes nothing, bit for bit
        roomy = integrate_queue(inflow, QueueSpec(mu=mu, alpha=1.0 / mu,
                                                  capacity_k=1.05 * peak))
        for field in ("q", "y", "served", "lost"):
            np.testing.assert_array_equal(getattr(roomy, field),
                                          getattr(traj, field))
        # one below the peak is reached inside the bin: the backlog holds
        # at K to the crossing, loses the rest of the growth, then drains
        k = 0.9 * peak
        full = integrate_queue(inflow, QueueSpec(mu=mu, alpha=1.0 / mu,
                                                 capacity_k=k))
        assert full.q[1] == traj.q[1]
        assert full.lost[-1] == pytest.approx(peak - k, rel=1e-12)
        expected = np.logaddexp(0.0, np.log(np.expm1(a * k))
                                - a * mu * dt / 4.0) / a
        assert full.q[2] == pytest.approx(expected, rel=1e-12)


class TestBounds:
    def setup_method(self):
        self.mu, self.alpha, self.q0, self.x_inf = 1.0, 0.5, 1.0, 0.5
        inflow = const_inflow(self.x_inf, 30.0, dt=0.1)
        spec = QueueSpec(mu=self.mu, alpha=self.alpha, q0=self.q0)
        self.traj = integrate_queue(inflow, spec)

    def test_trajectory_below_decay_envelope(self):
        env = queue_decay_bound(self.traj.grid, 0.0, self.q0, self.mu,
                                self.x_inf, self.alpha)
        assert np.all(self.traj.q <= env * (1.0 + 1e-7) + 1e-12)

    def test_emptying_time_bound_honoured(self):
        eps = 0.05
        t_bound = emptying_time_bound(0.0, self.q0, eps, self.mu, self.x_inf,
                                      self.alpha)
        below = self.traj.grid[self.traj.q <= eps]
        assert below.size and below[0] <= t_bound

    def test_bound_domain_checks(self):
        with pytest.raises(DomainError):
            emptying_time_bound(0.0, 1.0, 2.0, 1.0, 0.5, 0.5)  # eps > q_x
        with pytest.raises(DomainError):
            queue_decay_bound(0.0, 0.0, 1.0, 1.0, 1.5, 0.5)    # x_inf >= mu

    # alpha=0 raised ZeroDivisionError, alpha=-1 gave a time of -0.193 and
    # the NaN cases returned NaN
    @pytest.mark.parametrize("call", [
        lambda: emptying_time_bound(0.0, 1.0, 0.5, 2.0, 1.0, np.nan),
        lambda: emptying_time_bound(0.0, 1.0, 0.5, 2.0, 1.0, 0.0),
        lambda: emptying_time_bound(0.0, 1.0, 0.5, 2.0, 1.0, -1.0),
        lambda: emptying_time_bound(np.nan, 1.0, 0.5, 2.0, 1.0, 1.0),
        lambda: queue_decay_bound(1.0, 0.0, 1.0, 2.0, 1.0, np.nan),
        lambda: queue_decay_bound(1.0, 0.0, 1.0, 2.0, 1.0, 0.0),
        lambda: queue_decay_bound(1.0, 0.0, 1.0, 2.0, 1.0, -1.0),
        lambda: queue_decay_bound(1.0, 0.0, np.nan, 2.0, 1.0, 1.0),
        lambda: queue_decay_bound(1.0, np.nan, 1.0, 2.0, 1.0, 1.0),
        lambda: queue_decay_bound(1.0, 0.0, 1.0, np.inf, 1.0, 1.0),
    ], ids=["empty_alpha_nan", "empty_alpha_0", "empty_alpha_neg",
            "empty_t_x_nan", "decay_alpha_nan", "decay_alpha_0",
            "decay_alpha_neg", "decay_q_x_nan", "decay_t_x_nan",
            "decay_mu_inf"])
    def test_bounds_reject_bad_alpha_and_nan(self, call):
        with pytest.raises(DomainError):
            call()


class TestFiniteQueue:
    def test_capacity_respected_under_overload(self):
        k = 5e5
        inflow = const_inflow(2e6, 600.0)
        spec = QueueSpec(mu=1e6, alpha=1e-6, capacity_k=k)
        traj = integrate_finite_queue(inflow, spec)
        assert traj.q.max() <= k

    # a constant overload of 1.2 mu fills the buffer and holds it at K
    # without a step (the smoothed gate's stepper took 6 140 and 17 972);
    # the loss is the overload's bits less the buffer, 0.2 mu T - K
    @pytest.mark.parametrize("mu, k, bins", [(100e9, 20e9, 120),
                                             (1e6, 5e5, 600)],
                             ids=["100Gbps", "1Mbps"])
    def test_constant_overload_holds_k_exactly(self, mu, k, bins):
        inflow = const_inflow(1.2 * mu, float(bins))
        spec = QueueSpec(mu=mu, alpha=1.0 / mu, capacity_k=k)
        traj = integrate_finite_queue(inflow, spec)
        assert traj.q.max() == k and traj.q[-1] == k
        assert traj.lost[-1] == pytest.approx(0.2 * mu * bins - k, rel=1e-13)
        assert traj.served[-1] == pytest.approx(mu * bins, rel=1e-13)

    def test_lost_mass_accounts_for_overflow(self):
        k = 5e5
        inflow = const_inflow(2e6, 600.0)
        spec = QueueSpec(mu=1e6, alpha=1e-6, capacity_k=k)
        traj = integrate_finite_queue(inflow, spec)
        mass_in = inflow.integral()
        assert traj.lost_mass > 0.0
        balance = traj.q[-1] + traj.served[-1] + traj.lost[-1]
        assert balance == pytest.approx(mass_in, rel=1e-5)

    def test_underload_loses_nothing(self):
        inflow = const_inflow(0.5e6, 600.0)
        spec = QueueSpec(mu=1e6, alpha=1e-6, capacity_k=1e9)
        traj = integrate_finite_queue(inflow, spec)
        assert traj.lost_mass < 1e-3

    def test_requires_capacity(self):
        with pytest.raises(ParameterError):
            integrate_finite_queue(const_inflow(1.0, 10.0),
                                   QueueSpec(mu=1.0, alpha=1.0))


class TestSplit:
    def test_split_conserves_aggregate(self):
        rng = np.random.default_rng(3)
        comps = [RateSeries(0.0, 1.0, rng.uniform(0, 1e6, 50)) for _ in range(3)]
        total_in = RateSeries(0.0, 1.0, np.sum([c.values for c in comps], axis=0))
        traj = integrate_queue(total_in, QueueSpec(mu=1.2e6, alpha=1e-6))
        y = traj.outflow_series()
        shares = split_outflow(comps, y)
        recon = np.sum([s.values for s in shares], axis=0)
        np.testing.assert_allclose(recon, y.values, rtol=1e-9, atol=1e-6)

    def test_zero_inflow_instants_share_nothing(self):
        comps = [RateSeries(0.0, 1.0, np.array([0.0, 1.0])),
                 RateSeries(0.0, 1.0, np.array([0.0, 3.0]))]
        total = RateSeries(0.0, 1.0, np.array([5.0, 4.0]))
        shares = split_outflow(comps, total)
        assert shares[0].values[0] == 0.0 and shares[1].values[0] == 0.0
        assert shares[0].values[1] == pytest.approx(1.0)
        assert shares[1].values[1] == pytest.approx(3.0)


class TestPriority:
    # The pair is two solves, the aggregate and the high class, and the low
    # class their difference.  Each solve is exact to rounding, so the low
    # class's backlog and loss are too: over 40 000 draws like the property
    # below, they dipped at most 2.6e-17 (backlog) and 9.6e-17 (loss) of
    # the mass below 0, and each class's mass closed to 6.5e-16 of it.
    SOLVER_GAP = 1e-14
    RESIDUAL = 1e-13

    def test_rates_sum_to_mu(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mu1, mu2 = priority_rates(rng.uniform(0, 2), rng.uniform(0, 2),
                                      rng.uniform(0, 10), mu=1.5,
                                      alpha=rng.uniform(0.1, 2.0))
            assert mu1 + mu2 == pytest.approx(1.5)
            assert mu2 >= 0.0

    def test_idle_empty_high_class_leaves_mu_to_the_low_class(self):
        # mu1 is the high class's outflow law, which passes its inflow, 0,
        # at an empty backlog
        mu1, mu2 = priority_rates(0.0, 0.0, 0.0, mu=2.0, alpha=1.0)
        assert (mu1, mu2) == (0.0, 2.0)

    def test_low_class_without_inflow_drains_like_a_single_queue(self):
        # the pair law this replaced gave the low class its inflow share of
        # mu, so a backlog without inflow stayed at 5.0 for ever
        x = RateSeries(0.0, 1.0, np.zeros(20))
        spec = QueueSpec(mu=1.0, alpha=1.0, q0=5.0)
        hi, low = integrate_priority_pair(x, x, spec)
        single = integrate_queue(x, spec)
        assert np.all(hi.q == 0.0)
        np.testing.assert_array_equal(low.q, single.q)
        assert low.q[-1] < 1e-6

    def test_idle_priority_flow_reduces_to_plain_queue(self):
        rng = np.random.default_rng(9)
        x2 = RateSeries(0.0, 1.0, rng.uniform(0.5e6, 1.5e6, 200))
        x1 = RateSeries(0.0, 1.0, np.zeros(200))
        mu, alpha = 1e6, 1e-6
        _, low = integrate_priority_pair(x1, x2, QueueSpec(mu=mu, alpha=alpha))
        plain = integrate_queue(x2, QueueSpec(mu=mu, alpha=alpha))
        scale = max(plain.q.max(), 1.0)
        np.testing.assert_allclose(low.q, plain.q, atol=1e-3 * scale)

    def test_priority_starves_low_class_under_load(self):
        # sustained priority overload collapses the low class service
        n = 300
        x1 = RateSeries(0.0, 1.0, np.full(n, 1.5e6))
        x2 = RateSeries(0.0, 1.0, np.full(n, 0.5e6))
        hi, low = integrate_priority_pair(x1, x2,
                                          QueueSpec(mu=1e6, alpha=3e-6))
        assert hi.q[-1] > 0.0
        assert low.q[-1] > 0.5 * 0.5e6 * n * 0.5  # most low traffic queued
        assert np.all(low.y >= -1e-9)

    @settings(max_examples=50, deadline=None)
    # a draw whose low-class loss fell by 0.2508 bits under the smoothed
    # gate's stepped solve, which then reported a dip past its error bound
    @example(x1=[2.0, 0.0, 0.792, 1.625, 0.0, 1.0],
             x2=[0.0, 1.0, 0.0, 0.0, 0.0, 2.234], dt=2.3355, alpha_dt=0.1,
             k_bins=0.1, q0_share=0.0)
    # the high class fills the buffer and pushes a low backlog of K / 2
    # out; under the stepped gate the low loss fell by 1.35 bits
    @example(x1=[2.0, 2.0, 0.0], x2=[0.0, 0.0, 0.0], dt=1.0, alpha_dt=100.0,
             k_bins=1.0, q0_share=0.5)
    @given(x1=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
                       min_size=30, max_size=30),
           x2=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
                       min_size=1, max_size=30),
           dt=st.floats(0.01, 100.0), alpha_dt=st.floats(0.1, 100.0),
           k_bins=st.floats(0.1, 30.0),
           q0_share=st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    def test_finite_pair_conserves_each_class(self, x1, x2, dt, alpha_dt,
                                              k_bins, q0_share):
        # random inflows, in units of mu, on a finite buffer of k_bins mu dt
        mu = 1e6
        n = len(x2)
        x1 = RateSeries(0.0, dt, np.asarray(x1[:n]) * mu)
        x2 = RateSeries(0.0, dt, np.asarray(x2) * mu)
        k = k_bins * mu * dt
        spec = QueueSpec(mu=mu, alpha=alpha_dt / (mu * dt), q0=q0_share * k,
                         capacity_k=k)
        hi, low = integrate_priority_pair(x1, x2, spec)
        mass = x1.integral() + x2.integral() + spec.q0
        for traj, x, q0 in ((hi, x1, 0.0), (low, x2, spec.q0)):
            residual = (x.integral() + q0 - traj.q[-1] - traj.served[-1]
                        - traj.lost[-1])
            assert abs(residual) <= self.RESIDUAL * mass
        assert hi.q.max() <= k
        assert np.all(low.q >= -self.SOLVER_GAP * mass)
        assert np.all(np.diff(low.lost) >= -self.SOLVER_GAP * mass)

    def test_grid_mismatch_rejected(self):
        x1 = RateSeries(0.0, 1.0, np.zeros(10))
        x2 = RateSeries(0.0, 2.0, np.zeros(10))
        with pytest.raises(ParameterError):
            integrate_priority_pair(x1, x2, QueueSpec(mu=1.0, alpha=1.0))


class TestPointQueueLimit:
    def test_alpha_sharpening_converges_to_point_queue(self):
        # overload pulse: X = 2 mu for 10 s, then silence
        mu = 1.0
        dt = 0.1
        values = np.where(np.arange(1, 301) * dt <= 10.0, 2.0 * mu, 0.0)
        inflow = RateSeries(0.0, dt, values)
        grid, q_ref = integrate_point_queue(inflow, mu)
        base_alpha = 0.5
        dists = []
        for mult in (1.0, 10.0, 100.0):
            spec = QueueSpec(mu=mu, alpha=base_alpha * mult)
            traj = integrate_queue(inflow, spec)
            dists.append(np.max(np.abs(traj.q - q_ref)))
        assert dists[0] > dists[1] > dists[2]

    def test_point_queue_matches_fine_euler(self):
        rng = np.random.default_rng(21)
        inflow = RateSeries(0.0, 1.0, rng.uniform(0.0, 2.0, 60))
        # mean overload from empty, then a backlog that drains to empty
        for mu, q0 in ((0.9, 0.0), (1.2, 6.0)):
            grid, q = integrate_point_queue(inflow, mu, q0)
            # brute-force reference on a fine grid
            fine = 2000
            q_ref = np.zeros(len(grid))
            q_ref[0] = qq = q0
            for j in range(1, len(grid)):
                for s in range(fine):
                    t = grid[j - 1] + (s + 0.5) * (grid[j] - grid[j - 1]) / fine
                    qq = max(0.0, qq + (inflow(t) - mu) * (grid[j] - grid[j - 1]) / fine)
                q_ref[j] = qq
            np.testing.assert_allclose(q, q_ref,
                                       atol=2e-3 * max(q_ref.max(), 1.0))
            assert q0 == 0.0 or q.min() == 0.0

    def test_point_queue_hand_solved(self):
        # mu = 1, dt = 1; X is linear in each bin, so on tau in [0, 1]
        # q(tau) = q + (xa - 1) tau + (xb - xa) tau^2 / 2 while q > 0
        inflow = RateSeries(0.0, 1.0, np.array([0.0, 1.5, 0.2, 0.2, 3.0, 0.0]))
        grid, q = integrate_point_queue(inflow, 1.0)
        # bin 2: X = 1.5 tau passes mu at tau = 2/3 from empty
        q2 = 0.75 * (1.0 - 2.0 / 3.0) ** 2
        # bin 3: q2 + 0.5 tau - 0.65 tau^2 reaches 0 inside the bin
        tau_empty = (0.5 + np.sqrt(0.25 + 2.6 * q2)) / 1.3
        assert tau_empty < 1.0
        # bin 5: X - mu = -0.8 + 2.8 tau passes 0 at tau = 2/7 from empty
        q5 = 1.4 * (1.0 - 2.0 / 7.0) ** 2
        # bin 6: X - mu = 2 - 3 tau drains, but not to empty
        q6 = q5 + 2.0 - 1.5
        np.testing.assert_allclose(q, [0.0, 0.0, q2, 0.0, 0.0, q5, q6],
                                   rtol=1e-12, atol=0.0)

    # The bound holds for the exact solutions; the computed gap fell below 0
    # by at most 4.6e-15 of max(1, alpha max(q_point, mu dt)) over 6 000
    # random cases (mu 1e-2..1e7, dt 1e-2..1e2, alpha mu dt 0.1..100)
    ROUNDING = 1e-13

    @settings(max_examples=100, deadline=None)
    @given(fractions=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.5)),
                              min_size=1, max_size=60),
           mu=st.floats(1e-2, 1e7), dt=st.floats(1e-2, 100.0),
           alpha_dt=st.floats(0.1, 100.0),
           q0_bins=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    def test_logistic_queue_within_log_n_of_point_queue(
            self, fractions, mu, dt, alpha_dt, q0_bins):
        # 0 <= alpha (q_alpha - q_point) <= log 2 + log N, with N one plus
        # the number of bins so far in which X exceeds mu: the logsumexp of
        # the scan is at most its largest term plus log N, softplus(z) is
        # at most max(z, 0) + log 2, and log(e^(alpha A) - 1) <= alpha A
        inflow = RateSeries(0.0, dt, np.asarray(fractions) * mu)
        q0 = q0_bins * mu * dt
        alpha = alpha_dt / (mu * dt)
        traj = integrate_queue(inflow, QueueSpec(mu=mu, alpha=alpha, q0=q0))
        _, q_point = integrate_point_queue(inflow, mu, q0)
        x = np.concatenate((inflow.values[:1], inflow.values))
        n_terms = 1 + np.concatenate(
            ([0], np.cumsum(np.maximum(x[:-1], x[1:]) > mu)))
        gap = alpha * (traj.q - q_point)
        tol = self.ROUNDING * np.maximum(
            1.0, alpha * np.maximum(q_point, mu * dt))
        assert np.all(gap >= -tol)
        assert np.all(gap <= np.log(2.0) + np.log(n_terms) + tol)


class TestSpecValidation:
    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            QueueSpec(mu=1.0, alpha=0.0)
        with pytest.raises(ParameterError):
            QueueSpec(mu=-1.0, alpha=1.0)
        with pytest.raises(ParameterError):
            QueueSpec(mu=1.0, alpha=1.0, q0=-1.0)
        with pytest.raises(ParameterError):
            QueueSpec(mu=1.0, alpha=1.0, q0=10.0, capacity_k=5.0)

    def test_empty_inflow_rejected(self):
        with pytest.raises(ParameterError):
            integrate_queue(RateSeries(0.0, 1.0, np.empty(0)),
                            QueueSpec(mu=1.0, alpha=1.0))

    @pytest.mark.parametrize("kwargs", [
        dict(mu=np.nan, alpha=1.0),
        dict(mu=1.0, alpha=np.nan),
        dict(mu=1.0, alpha=1.0, q0=np.nan),
        dict(mu=1.0, alpha=1.0, capacity_k=np.nan),
    ])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(ParameterError):
            QueueSpec(**kwargs)

    # each passes a "> 0" check: capacity_k=inf ran the stepper for more
    # than 15 s on 5 bins, and mu=inf gave y = NaN; None is the infinite
    # buffer
    @pytest.mark.parametrize("kwargs", [
        dict(mu=np.inf, alpha=1.0),
        dict(mu=1.0, alpha=np.inf),
        dict(mu=1.0, alpha=1.0, q0=np.inf),
        dict(mu=1.0, alpha=1.0, capacity_k=np.inf),
    ], ids=["mu", "alpha", "q0", "capacity_k"])
    def test_rejects_inf(self, kwargs):
        with pytest.raises(ParameterError):
            QueueSpec(**kwargs)

    # the constructor alone: a negative numpy or string rate kept the exact
    # bins' FIFO raise looping for ever, and a numpy NaN gave a NaN
    # trajectory
    @pytest.mark.parametrize("mu", [
        np.float32(-1.0), np.int64(-2), "-3", "3", np.float32("nan"), None,
        lambda t: 1.0,
    ], ids=["float32_negative", "int64_negative", "str_negative", "str",
            "float32_nan", "none", "function_of_time"])
    def test_rejects_a_rate_that_is_not_a_positive_real(self, mu):
        with pytest.raises(ParameterError):
            QueueSpec(mu=mu, alpha=1.0)

    # each raised a raw TypeError from the constructor's comparisons
    @pytest.mark.parametrize("kwargs", [
        dict(alpha="1"), dict(alpha=None), dict(alpha=1.0, q0=None),
        dict(alpha=1.0, capacity_k="5"),
    ], ids=["alpha_str", "alpha_none", "q0_none", "capacity_k_str"])
    def test_rejects_a_parameter_that_is_not_a_real(self, kwargs):
        with pytest.raises(ParameterError):
            QueueSpec(mu=1.0, **kwargs)

    @pytest.mark.parametrize("mu", [np.float32(2.0), np.int64(2), 2])
    def test_numpy_and_int_rates_are_the_float_rate(self, mu):
        inflow = const_inflow(3.0, 5.0)
        traj = integrate_queue(inflow, QueueSpec(mu=mu, alpha=1.0))
        ref = integrate_queue(inflow, QueueSpec(mu=2.0, alpha=1.0))
        np.testing.assert_array_equal(traj.q, ref.q)

    @pytest.mark.parametrize("call", [
        lambda x: integrate_point_queue(x, 1.0, q0=np.nan),
        lambda x: integrate_point_queue(x, 1.0, q0=-1.0),
        lambda x: integrate_point_queue(x, 1.0, q0=np.inf),
    ], ids=["point_queue_q0_nan", "point_queue_q0_negative",
            "point_queue_q0_inf"])
    def test_rejects_bad_backlog_and_rate(self, call):
        with pytest.raises(ParameterError):
            call(const_inflow(0.5, 5.0))

    @pytest.mark.parametrize("call, error", [
        (lambda x: compute_alpha(x, np.nan), ParameterError),
        (lambda x: exit_time(1.0, 2.0, np.nan), DomainError),
        (lambda x: integrate_point_queue(x, np.nan), ParameterError),
        (lambda x: integrate_point_queue(x, np.inf), ParameterError),
        (lambda x: outflow_rate(0.5, 0.0, np.nan, 1.0), DomainError),
        (lambda x: outflow_rate(0.5, 0.0, 1.0, np.nan), DomainError),
        (lambda x: outflow_rate(0.5, np.nan, 1.0, 1.0), DomainError),
        (lambda x: priority_rates(0.5, 0.2, np.nan, 1.0, 1.0), DomainError),
    ], ids=["compute_alpha", "exit_time", "point_queue", "point_queue_mu_inf", "outflow_mu", "outflow_alpha", "outflow_q", "priority_q1"])
    def test_functions_reject_nan(self, call, error):
        with pytest.raises(error):
            call(const_inflow(0.5, 5.0))
