"""Per-operation correctness checks, with the thresholds exactly as
``tests/test_acceptance.py`` asserts them.

An operation is one seed's ``validate``, or one ``dt`` base propagation or
priority solve.  Each check returns the list of what failed; empty means the
operation passed.  Inputs are the summaries ``child.py`` takes from the
program's return values.
"""

import math

# criterion 1: conservation of mass, rel = 1e-5 of (integral of X + q0)
MASS_REL = 1e-5
# criterion 1: finite-buffer bound q <= K * (1 + 1e-6)
BUFFER_SLACK = 1e-6
# criterion 2
C2_FLOOR_FACTOR = 3.5
C2_ERR_REL_MAX = 0.05
C2_MAX_OCCUPANCY = 0.10
C2_MEAN_OUTFLOW = 0.03
C2_GLOBAL = 0.06
# criterion 6
C6_LMAX_BAND = (0.05, 0.5)
C6_MONOTONE_REL = 1e-3
C6_KNEE_SLOPE_FACTOR = 3.0
C6_KNEE_MIN_RISE_S = 0.01


def mass_residual(traj, inflow):
    """|q0 + integral X - q_end - served - lost| / (integral X + q0)."""
    mass = inflow.integral() + float(traj.q[0])
    gap = abs(mass - float(traj.q[-1]) - float(traj.served[-1])
              - float(traj.lost[-1]))
    if mass <= 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / mass


def state_residual(state, inflows, priority_inflow=None):
    """Worst mass residual over every queue a network propagation solved."""
    pairs = (list(zip(state.access, inflows)) + [(state.core, state.core_in)]
             + list(zip(state.egress, state.egress_in)))
    if state.priority is not None:
        pairs.append((state.priority, priority_inflow))
    return max(mass_residual(traj, x) for traj, x in pairs)


def _mass(residual):
    if residual <= MASS_REL:
        return []
    return [f"mass residual {residual:.3g} > {MASS_REL:g}"]


def check_desk(v, acceptance):
    """Criterion 2 wherever its aggregation-floor gate holds, and mass
    conservation on every seed.

    The acceptance test asserts the gate on its own seeds, so there a
    backlog below the floor fails.  On other seeds the gate decides whether
    criterion 2 applies: below the floor the shape metrics say nothing about
    the model (seeds 0-16 all sit there, with max_occupancy_err up to 1.0).
    """
    failures = _mass(v["mass_residual_rel"])
    floor = C2_FLOOR_FACTOR * v["aggregation_floor_bits"]
    if v["des_q_max_bits"] < floor:
        if acceptance:
            failures.append(f"oracle backlog {v['des_q_max_bits']:.4g} bits "
                            f"below {C2_FLOOR_FACTOR} x floor {floor:.4g}")
        return failures
    for key, limit in (("err_rel_max", C2_ERR_REL_MAX),
                       ("max_occupancy_err", C2_MAX_OCCUPANCY),
                       ("mean_rel_outflow_err", C2_MEAN_OUTFLOW),
                       ("global_rel_err", C2_GLOBAL),
                       ("observed_delay_gap_s", v["aggregation_bound_s"])):
        if not v[key] <= limit:
            failures.append(f"{key} {v[key]:.4g} > {limit:.4g}")
    return failures


def check_droptail(v, capacity_bits):
    """Criterion 1's finite-buffer bound for the fluid queue, the oracle's
    own buffer bound, and mass conservation.  Criterion 2's thresholds do
    not apply: a full buffer clips the backlog shape (eRM 0.074 at seed 42).
    """
    failures = _mass(v["mass_residual_rel"])
    if v["fluid_q_max_bits"] > capacity_bits * (1.0 + BUFFER_SLACK):
        failures.append(f"fluid backlog {v['fluid_q_max_bits']:.6g} bits "
                        f"exceeds K = {capacity_bits:.6g}")
    if v["des_q_max_bits"] > capacity_bits:
        failures.append(f"oracle backlog {v['des_q_max_bits']:.6g} bits "
                        f"exceeds K = {capacity_bits:.6g}")
    return failures


def check_dt(run):
    """Criterion 6 on one ``dt`` command, split into its operations: the base
    propagation, then one per priority rate.  The band and the knee describe
    the scenario's own seed: on seeds 0-7 the core never saturates and the
    curve stays flat, and seed 103 has L_max = 0.038 s.
    """
    lo, hi = C6_LMAX_BAND
    base = _mass(run["base_residual_rel"])
    if not lo <= run["l_max"] <= hi:
        base.append(f"L_max {run['l_max']:.4g} s outside [{lo}, {hi}]")
    ops = [base]
    pl, rates = run["priority_l_max"], run["priority_rates"]
    for k, residual in enumerate(run["priority_residual_rel"]):
        failures = _mass(residual)
        if k > 0 and pl[k] - pl[k - 1] < -C6_MONOTONE_REL * pl[k - 1]:
            failures.append(f"L_max falls from {pl[k - 1]:.6g} to {pl[k]:.6g} s")
        if k == len(pl) - 1:
            failures.extend(_knee(pl, rates))
        ops.append(failures)
    return ops


def _knee(pl, rates):
    """Per-Gb/s slope of the last segment against the one before it."""
    if len(pl) < 3:
        return ["knee needs three priority rates"]
    gbps = [r / 1e9 for r in rates]
    slope_mid = (pl[-2] - pl[-3]) / (gbps[-2] - gbps[-3])
    slope_high = (pl[-1] - pl[-2]) / (gbps[-1] - gbps[-2])
    if (slope_high > C6_KNEE_SLOPE_FACTOR * max(slope_mid, 0.0)
            and pl[-1] - pl[-2] > C6_KNEE_MIN_RISE_S):
        return []
    return [f"no knee: slope {slope_high:.4g} vs {slope_mid:.4g} s per Gb/s"]
