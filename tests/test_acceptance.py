"""Acceptance gate: seven end-to-end criteria, one printed pass/fail line
each.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The desk-scale oracle runs (criterion 2) are shared with the performance
criterion (7) through a module fixture so the wall-clock comparison uses the
exact same workload.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from logiq.config import load_config
from logiq.fluid import (QueueSpec, integrate_finite_queue,
                         integrate_point_queue, integrate_queue,
                         priority_rates, queue_decay_bound,
                         emptying_time_bound, split_outflow)
from logiq.metrics import aggregation_error_bound
from logiq.network import Topology, propagate
from logiq.pipeline import (dt_scenario, generate_flow_inflows, sweep_point,
                            validate_scenario)
from logiq.series import RateSeries
from logiq.traffic import VideoUserParams

REPO = Path(__file__).resolve().parents[1]

DESK_SEEDS = (42, 49, 52, 65, 78)
DESK_MU = 11.33e6
DESK_DT = 60.0
DESK_HORIZON = 6 * 3600.0
RHO_GRID = (0.45, 0.55, 0.65, 0.75, 0.85)


def _verdict(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}  [{detail}]", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def desk_runs():
    """The five seeded oracle-vs-model runs behind criteria 2 and 7."""
    params = VideoUserParams()
    t0 = time.perf_counter()
    runs = [validate_scenario(params, 10, DESK_HORIZON, DESK_DT, seed, DESK_MU)
            for seed in DESK_SEEDS]
    return runs, time.perf_counter() - t0


def test_criterion_1_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    n_scen = 110
    for _ in range(n_scen):
        mu = 10.0 ** rng.uniform(5.0, 7.0)
        n = int(rng.integers(40, 80))
        dt = rng.uniform(0.5, 2.0)
        inflow = RateSeries(0.0, dt, rng.uniform(0.1, 2.5, n) * mu)
        alpha = rng.uniform(0.5, 5.0) / mu
        spec = QueueSpec(mu=mu, alpha=alpha, q0=rng.uniform(0.0, mu))
        traj = integrate_queue(inflow, spec)

        # positivity and outflow range
        assert np.all(traj.q >= 0.0)
        assert np.all(traj.y >= -1e-9 * mu)
        assert np.all(traj.y <= mu * (1.0 + 1e-9))
        # conservation of mass
        mass_in = inflow.integral() + spec.q0
        mass_out = traj.q[-1] + traj.served[-1] + traj.lost[-1]
        assert mass_out == pytest.approx(mass_in, rel=1e-5)
        # FIFO monotonicity of the cumulative served mass
        assert np.all(np.diff(traj.served) >= -1e-6 * mass_in)

        # finite-buffer bound
        k = rng.uniform(0.1, 1.0) * mu
        fin = integrate_finite_queue(
            inflow, QueueSpec(mu=mu, alpha=alpha, capacity_k=k))
        assert fin.q.max() <= k * (1.0 + 1e-6)

        # flow-separation conservation: the shares re-sum to the outflow
        comps = [RateSeries(0.0, dt, rng.uniform(0.05, 1.0, n) * mu)
                 for _ in range(3)]
        total_in = RateSeries(0.0, dt,
                              np.sum([c.values for c in comps], axis=0))
        agg = integrate_queue(total_in, QueueSpec(mu=2.0 * mu, alpha=alpha))
        y = agg.outflow_series()
        shares = split_outflow(comps, y)
        np.testing.assert_allclose(
            np.sum([s.values for s in shares], axis=0), y.values,
            rtol=1e-9, atol=1e-9 * mu)

        # priority service split sums to the shared rate
        mu1, mu2 = priority_rates(rng.uniform(0.0, mu), rng.uniform(0.0, mu),
                                  rng.uniform(0.0, 10.0 / alpha), mu, alpha)
        assert mu1 + mu2 == pytest.approx(mu, rel=1e-12)
        assert 0.0 <= mu2 <= mu

    elapsed = time.perf_counter() - t0
    _verdict(1, "property suite", elapsed < 120.0,
             f"{n_scen} randomized scenarios, {elapsed:.1f} s < 120 s")


def test_criterion_2_oracle_equivalence(desk_runs):
    runs, elapsed = desk_runs
    details = []
    ok = elapsed <= 600.0
    for seed, run in zip(DESK_SEEDS, runs):
        r = run.report
        # shape metrics are only meaningful when the backlog clears the
        # irreducible aggregation-error floor; the gate stays asserted here
        floor, _ = aggregation_error_bound(DESK_MU, run.rho, DESK_DT)
        assert run.des_result.q_sampled.max() >= 3.5 * floor
        ok &= (r.err_rel_max <= 0.05 and r.max_occupancy_err <= 0.10
               and r.mean_rel_outflow_err <= 0.03 and r.global_rel_err <= 0.06
               and r.observed_delay_gap_s <= r.aggregation_bound_s)
        details.append(f"seed {seed}: eRM={r.err_rel_max:.3f} "
                       f"occ={r.max_occupancy_err:.3f} "
                       f"out={r.mean_rel_outflow_err:.4f} "
                       f"glob={r.global_rel_err:.3f}")
    _verdict(2, "oracle equivalence", ok,
             "; ".join(details) + f"; {elapsed:.0f} s <= 600 s")


def test_criterion_3_intensity_sweep():
    params = VideoUserParams()
    rows = []
    for target in RHO_GRID:
        run = sweep_point(params, 10, DESK_HORIZON, DESK_DT, 49, DESK_MU,
                          target)
        rows.append((target, run.report.global_rel_err,
                     run.report.baseline_global_rel_err))
    ok = all(glob <= 0.06 for _, glob, _ in rows)
    for _, glob, base in rows[-2:]:
        ok &= base > glob
    detail = ", ".join(f"rho*={t}: log={g:.3f} base={b:.3f}"
                       for t, g, b in rows)
    _verdict(3, "intensity sweep", ok, detail)


def test_criterion_4_asymptotic_bound():
    t0 = time.perf_counter()
    mu, x_inf, alpha, q0, eps = 1.0, 0.5, 0.5, 1.0, 0.05
    inflow = RateSeries(0.0, 0.1, np.full(300, x_inf))
    traj = integrate_queue(inflow, QueueSpec(mu=mu, alpha=alpha, q0=q0))
    bound = queue_decay_bound(traj.grid, 0.0, q0, mu, x_inf, alpha)
    below = np.all(traj.q <= bound * (1.0 + 1e-9))
    t_bound = emptying_time_bound(0.0, q0, eps, mu, x_inf, alpha)
    crossed = traj.q < eps
    first_cross = float(traj.grid[crossed][0]) if np.any(crossed) else np.inf
    elapsed = time.perf_counter() - t0
    ok = below and first_cross <= t_bound and elapsed < 1.0
    _verdict(4, "asymptotic bound", ok,
             f"below envelope everywhere={below}, eps-crossing "
             f"{first_cross:.2f} s <= bound {t_bound:.2f} s, "
             f"{elapsed:.2f} s < 1 s")


def test_criterion_5_point_queue_limit():
    t0 = time.perf_counter()
    mu = 1.0
    dt = 0.05
    n = int(round(40.0 / dt))
    t_right = dt * (1 + np.arange(n))
    inflow = RateSeries(0.0, dt, np.where(t_right <= 10.0, 2.0 * mu, 0.0))
    grid, q_point = integrate_point_queue(inflow, mu)
    alpha0 = 0.5
    dists = []
    for factor in (1.0, 10.0, 100.0):
        traj = integrate_queue(inflow, QueueSpec(mu=mu, alpha=factor * alpha0))
        dists.append(float(np.max(np.abs(traj.q - q_point))))
    elapsed = time.perf_counter() - t0
    ok = dists[0] > dists[1] > dists[2] and elapsed < 5.0
    _verdict(5, "point-queue limit", ok,
             f"sup distances {dists[0]:.3f} > {dists[1]:.3f} > "
             f"{dists[2]:.4f}, {elapsed:.2f} s < 5 s")


def _dt_star():
    """The bundled digital-twin scenario: (topology, flow inflows, priority
    rates)."""
    cfg = load_config(REPO / "scenarios" / "dt_star.json")
    net = cfg["network"]
    topology = Topology(access_mu=net["access_mu"], core_mu=net["core_mu"],
                        core_k=net["core_k"], egress_xi=net["egress_xi"],
                        routing=net["routing"],
                        packet_size_bits=net["packet_size"])
    flows = net["flows"]
    inflows = generate_flow_inflows(
        flows["params"], topology.n_origins, flows["users_per_flow"],
        flows["horizon"], flows["dt"], flows["seed"],
        target_rate=flows["target_rate"], warmup_s=flows["warmup"])
    return topology, inflows, net["priority_rates"]


def test_criterion_6_digital_twin():
    t0 = time.perf_counter()
    topology, inflows, rates = _dt_star()
    run = dt_scenario(topology, inflows, priority_rates=rates)

    band_ok = 0.05 <= run.l_max <= 0.5
    pl = np.asarray(run.priority_l_max)
    # nondecreasing up to rounding: sub-threshold injections re-solve the
    # core as the aggregate less the high class, so exact equality is not
    # owed
    mono_ok = bool(np.all(np.diff(pl) >= -1e-3 * pl[:-1]))
    # per-Gb/s slopes of the last two segments (15->18 and 18->20 Gb/s)
    slope_mid = (pl[4] - pl[3]) / 3.0
    slope_high = (pl[5] - pl[4]) / 2.0
    knee_ok = slope_high > 3.0 * max(slope_mid, 0.0) and pl[5] - pl[4] > 0.01
    elapsed = time.perf_counter() - t0
    ok = band_ok and mono_ok and knee_ok and elapsed <= 300.0
    _verdict(6, "digital twin", ok,
             f"L_max={run.l_max:.4f} s in [0.05, 0.5], monotone={mono_ok}, "
             f"knee slope {slope_high:.4f} vs {slope_mid:.4f} s per Gb/s, "
             f"{elapsed:.0f} s <= 300 s")


def test_criterion_7_performance(desk_runs):
    runs, _ = desk_runs
    total_log = sum(r.runtime_logistic_s for r in runs)
    total_des = sum(r.runtime_des_s for r in runs)
    speedup = total_des / total_log
    _verdict(7, "performance", speedup >= 100.0,
             f"logistic {total_log:.3f} s vs oracle {total_des:.1f} s, "
             f"speedup {speedup:.0f}x >= 100x")


def test_single_queues_take_no_steps(desk_runs):
    # every desk bin and every queue of dt_star's base propagation is solved
    # in closed form, with no step to take: each queue has a state at every
    # bin edge, and closes its mass to rounding, far inside criterion 1's
    # 1e-5 (at most 7.9e-16 here)
    runs, _ = desk_runs
    pairs = [(run.trajectory, run.inflow) for run in runs]
    topology, inflows, _ = _dt_star()
    state = propagate(topology, inflows)
    pairs += (list(zip(state.access, inflows)) + [(state.core, state.core_in)]
              + list(zip(state.egress, state.egress_in)))
    for traj, inflow in pairs:
        assert len(traj.grid) == len(inflow) + 1
        mass = inflow.integral() + traj.q[0]
        residual = mass - traj.q[-1] - traj.served[-1] - traj.lost[-1]
        assert abs(residual) <= 1e-14 * mass
