"""Numeric inner loops: one integrator for the logistic queue family and the
coupled priority pair, the exact point-queue reference (the exact logistic
bins at alpha = inf), and the packet-level drop-tail FIFO recursion.

The fluid kernels walk the inflow bins by index.  Every bin is dt wide and
is solved in its own time tau, from 0 to dt.  Bin j (j >= 1) runs from the
inflow sample j-2 to the sample j-1, and bin 1 holds sample 0: the inflow,
the priority inflow and the service rate mu(t) are linear between those two
samples.  A bin is solved in closed form where the law has one (an exact
logistic bin, or free flow) and by adaptive Dormand-Prince 5(4) steps
elsewhere; all three read the same two samples, and each reports the
outflow law at the bin end.

The kernels are plain Python and numpy.  Inputs are plain float64 arrays;
wrappers in fluid.py / des.py own validation and the public dataclasses.
"""

import math

import numpy as np

# integration status codes
OK = 0
STEP_FAILURE = 1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _service_rate(mu, q, m):
    """Rate of m parallel servers of speed mu at backlog q:
    mu * min(1 + q, m), which is mu for one server and q >= 0."""
    c = 1.0 + q
    return mu * (c if c < m else m)


def _gate(q, cap_k, h0, gate_n):
    """Smoothed Heaviside annihilating inflow near capacity."""
    z = gate_n * (q - cap_k)
    if z > 700.0:
        return 0.0
    return 1.0 / (1.0 + (1.0 / h0 - 1.0) * math.exp(z))


def priority_split(x1, x2, q1, mu, alpha):
    """Service split (mu1, mu2) between a priority class with inflow x1 and
    backlog q1 >= 0 and a low class with inflow x2: the low class gets its
    inflow share of mu, collapsing as the priority backlog grows, so
    mu1 + mu2 == mu."""
    x = x1 + x2
    if x < 1e-12:
        return mu, 0.0
    mu2 = (x2 / x) * mu * math.exp(-alpha * q1)
    return mu - mu2, mu2


def _rhs(q, qp, pair, x, xp, mu, m_servers, alpha, gate_on, cap_k, h0,
         gate_n):
    """Returns (dq/dt, outflow, lost-rate) of the queue with inflow x, then
    the same three for the priority class with inflow xp (zeros unless
    ``pair``), on m_servers servers of speed mu (see _service_rate).
    Backlogs are evaluated at max(q, 0); in a pair the gate and the service
    rate see the total backlog q + qp."""
    qc = q if q > 0.0 else 0.0
    q_all = qc
    if pair:
        qpc = qp if qp > 0.0 else 0.0
        q_all = qc + qpc
    if gate_on:
        g = _gate(q_all, cap_k, h0, gate_n)
        xh = g * x
    else:
        g = 1.0
        xh = x
    mu = _service_rate(mu, q_all, m_servers)
    if pair:
        mu_p, mu = priority_split(xp, x, qpc, mu, alpha)
        xph = g * xp
        mnp = xph if xph < mu_p else mu_p
        yp = mu_p + math.exp(-alpha * qpc) * (mnp - mu_p)
    mn = xh if xh < mu else mu
    y = mu + math.exp(-alpha * qc) * (mn - mu)
    if pair:
        return xh - y, y, x - xh, xph - yp, yp, xp - xph
    return xh - y, y, x - xh, 0.0, 0.0, 0.0


def _log_expm1(z):
    """log(e^z - 1) for z > 0, without overflow for large z."""
    if z > 1.0:
        return z + math.log(-math.expm1(-z))
    return math.log(math.expm1(z))


def _softplus(s):
    """log(1 + e^s), without overflow for large s."""
    if s > 0.0:
        return s + math.log1p(math.exp(-s))
    return math.log1p(math.exp(s))


def _exact_piece(q, d0, d1, w, alpha):
    """Backlog after w seconds of the ungated logistic law from backlog q,
    while X - mu runs linearly from d0 to d1 without changing sign.

    Where X >= mu the outflow is mu, so q grows by the integral of X - mu.
    Where X < mu, u = e^(alpha q) - 1 obeys the linear u' = alpha (X - mu) u,
    so alpha q ends at softplus(log u + alpha * integral), which stays >= 0
    and does not overflow.  Its alpha = inf limit is the projected point
    queue, which drains linearly and then stays empty."""
    area = 0.5 * w * (d0 + d1)
    if area >= 0.0:
        return q + area
    if alpha == math.inf:
        return max(q + area, 0.0)
    if alpha * q == 0.0:    # q == 0, or so small that alpha * q underflows
        return 0.0
    return _softplus(_log_expm1(alpha * q) + alpha * area) / alpha


def _exact_bin(q, da, db, w, alpha):
    """(end backlog, largest backlog) over an inflow bin of width w that
    starts at backlog q, with X - mu linear from da to db.  A sign change
    splits the bin into two exact pieces at the crossing."""
    if (da < 0.0 < db) or (db < 0.0 < da):
        s = w * da / (da - db)
        q_mid = _exact_piece(q, da, 0.0, s, alpha)
        q_end = _exact_piece(q_mid, 0.0, db, w - s, alpha)
        return q_end, max(q, q_mid, q_end)
    q_end = _exact_piece(q, da, db, w, alpha)
    return q_end, max(q, q_end)


# Dormand-Prince 5(4) coefficients
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = 9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (35.0 / 384.0 - 5179.0 / 57600.0,
                                500.0 / 1113.0 - 7571.0 / 16695.0,
                                125.0 / 192.0 - 393.0 / 640.0,
                                -2187.0 / 6784.0 + 92097.0 / 339200.0,
                                11.0 / 84.0 - 187.0 / 2100.0,
                                -1.0 / 40.0)


def integrate_logistic(t0, x_dt, x_vals, p_vals, mu_vals, m_servers, alpha,
                       gate_on, cap_k, h0, gate_n, q0, rtol, atol):
    """The state (q, served-bits, lost-bits) of the queue fed by x_vals on
    m_servers servers of speed mu_vals (sampled as x_vals is), starting at
    backlog q0, at t0 and at the end of each inflow bin.

    A nonempty p_vals adds a priority class (qp, served_p, lost_p), starting
    empty, that is served first (see priority_split); the single queue skips
    every priority-class operation.

    Each bin of a single queue with one server is solved exactly
    (_exact_bin) when the finite-buffer gate is exactly 1 at the bin's
    largest backlog, so the gate is 1 all along it.  For the pair and for
    m > 1 servers, a bin is free flow when both backlogs are 0 at its start,
    the gate is exactly 1 at q = 0 and X + X_p <= mu at both samples: the
    three are linear, so X + X_p <= mu all along the bin, each class's
    outflow is its inflow and the backlogs stay 0.  Every other bin takes
    adaptive Dormand-Prince 5(4) steps, the last of which lands on the bin
    end.  t0 places the bin ends on the output grid t0 + j x_dt, where the
    exact bins keep the FIFO order of exit times.

    Returns (out, stats): the rows of out are q, outflow, served and lost
    of the queue, then in pair mode the same four for the priority class;
    stats is (status, n_steps, n_rejected, n_closed_form,
    worst_negative_q), where n_closed_form counts the bins solved without
    steps.
    """
    n = x_vals.shape[0]
    pair = p_vals.shape[0] > 0
    exact = not pair and m_servers == 1.0
    free_gate = not gate_on or _gate(0.0, cap_k, h0, gate_n) == 1.0
    out = np.empty((8 if pair else 4, n + 1))
    min_step = 1e-13 * n * x_dt
    w = h = x_dt

    # state
    q = q0
    served = lost = qp = served_p = lost_p = worst_neg = 0.0
    n_steps = n_rej = n_closed = 0
    status = OK

    def stage(s, q, qp):
        """The _rhs row of the state (q, qp) at the fraction s of the bin."""
        c = 1.0 - s
        return _rhs(q, qp, pair, c * xa + s * xb, c * pa + s * pb,
                    c * mua + s * mub, m_servers, alpha, gate_on, cap_k, h0,
                    gate_n)

    # Python floats read faster than numpy scalars, bin by bin
    xs, mus = x_vals.tolist(), mu_vals.tolist()
    ps = p_vals.tolist() if pair else [0.0] * n
    # the samples at the end of bin 0, which is the point t0
    xb, pb, mub = xs[0], ps[0], mus[0]
    for j in range(n + 1):
        if j > 0:
            xa, pa, mua = xb, pb, mub
            xb, pb, mub = xs[j - 1], ps[j - 1], mus[j - 1]
            closed = False
            if exact:
                q_end, q_peak = _exact_bin(q, xa - mua, xb - mub, w, alpha)
                if mua == mub:
                    # FIFO: the outflow never exceeds mu, so the exit time
                    # t + q / mu never falls.  Where X = 0 and alpha q is
                    # large the softplus form can round q_end an ulp below
                    # that; raise it to the least backlog that keeps the
                    # order on the output grid
                    t_end = t0 + x_dt * j
                    e = (t0 + x_dt * (j - 1)) + q / mub
                    if t_end + q_end / mub < e:
                        q_end = (e - t_end) * mub
                        while t_end + q_end / mub < e:
                            q_end += q_end * 2.220446049250313e-16
                        q_peak = max(q_peak, q_end)
                closed = (not gate_on
                          or _gate(q_peak, cap_k, h0, gate_n) == 1.0)
                if closed:
                    # the outflow is what the inflow brought in and q kept
                    served += 0.5 * w * (xa + xb) - (q_end - q)
                    q = q_end
            elif (q == 0.0 and qp == 0.0 and free_gate and xa + pa <= mua
                  and xb + pb <= mub):
                served += 0.5 * w * (xa + xb)
                served_p += 0.5 * w * (pa + pb)
                closed = True
            if closed:
                n_closed += 1
            tau = w if closed else 0.0      # a closed bin takes no steps
            while tau < w:
                if tau + h >= w:
                    h = w - tau
                    tau_end = w
                else:
                    tau_end = tau + h
                s_end = tau_end / w

                # stage derivatives: (q, served, lost), then the priority
                # class
                k1q, k1y, k1l, k1p, k1yp, k1lp = stage(tau / w, q, qp)
                k2q, k2y, k2l, k2p, k2yp, k2lp = stage(
                    (tau + _C2 * h) / w, q + h * _A21 * k1q,
                    qp + h * _A21 * k1p)
                k3q, k3y, k3l, k3p, k3yp, k3lp = stage(
                    (tau + _C3 * h) / w, q + h * (_A31 * k1q + _A32 * k2q),
                    qp + h * (_A31 * k1p + _A32 * k2p))
                k4q, k4y, k4l, k4p, k4yp, k4lp = stage(
                    (tau + _C4 * h) / w,
                    q + h * (_A41 * k1q + _A42 * k2q + _A43 * k3q),
                    qp + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p))
                k5q, k5y, k5l, k5p, k5yp, k5lp = stage(
                    (tau + _C5 * h) / w,
                    q + h * (_A51 * k1q + _A52 * k2q + _A53 * k3q
                             + _A54 * k4q),
                    qp + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p
                              + _A54 * k4p))
                k6q, k6y, k6l, k6p, k6yp, k6lp = stage(
                    s_end,
                    q + h * (_A61 * k1q + _A62 * k2q + _A63 * k3q
                             + _A64 * k4q + _A65 * k5q),
                    qp + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p
                              + _A64 * k4p + _A65 * k5p))

                q_new = q + h * (_B1 * k1q + _B3 * k3q + _B4 * k4q
                                 + _B5 * k5q + _B6 * k6q)
                served_new = served + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y
                                           + _B5 * k5y + _B6 * k6y)
                lost_new = lost + h * (_B1 * k1l + _B3 * k3l + _B4 * k4l
                                       + _B5 * k5l + _B6 * k6l)
                if pair:
                    qp_new = qp + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p
                                       + _B5 * k5p + _B6 * k6p)
                    served_p_new = served_p + h * (_B1 * k1yp + _B3 * k3yp
                                                   + _B4 * k4yp + _B5 * k5yp
                                                   + _B6 * k6yp)
                    lost_p_new = lost_p + h * (_B1 * k1lp + _B3 * k3lp
                                               + _B4 * k4lp + _B5 * k5lp
                                               + _B6 * k6lp)
                else:
                    qp_new = served_p_new = lost_p_new = 0.0

                k7q, k7y, k7l, k7p, k7yp, k7lp = stage(s_end, q_new, qp_new)

                err_q = h * (_E1 * k1q + _E3 * k3q + _E4 * k4q + _E5 * k5q
                             + _E6 * k6q + _E7 * k7q)
                err_s = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                             + _E6 * k6y + _E7 * k7y)
                err_l = h * (_E1 * k1l + _E3 * k3l + _E4 * k4l + _E5 * k5l
                             + _E6 * k6l + _E7 * k7l)

                aq = abs(q) if abs(q) > abs(q_new) else abs(q_new)
                e1 = abs(err_q) / (atol + rtol * aq)
                e2 = abs(err_s) / (atol + rtol * abs(served_new))
                e3 = abs(err_l) / (atol + rtol * abs(lost_new))
                if pair:
                    err_q = h * (_E1 * k1p + _E3 * k3p + _E4 * k4p
                                 + _E5 * k5p + _E6 * k6p + _E7 * k7p)
                    err_s = h * (_E1 * k1yp + _E3 * k3yp + _E4 * k4yp
                                 + _E5 * k5yp + _E6 * k6yp + _E7 * k7yp)
                    err_l = h * (_E1 * k1lp + _E3 * k3lp + _E4 * k4lp
                                 + _E5 * k5lp + _E6 * k6lp + _E7 * k7lp)
                    aq = abs(qp) if abs(qp) > abs(qp_new) else abs(qp_new)
                    e4 = abs(err_q) / (atol + rtol * aq)
                    e5 = abs(err_s) / (atol + rtol * abs(served_p_new))
                    e6 = abs(err_l) / (atol + rtol * abs(lost_p_new))
                    err = math.sqrt((e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4
                                     + e5 * e5 + e6 * e6) / 6.0)
                else:
                    err = math.sqrt((e1 * e1 + e2 * e2 + e3 * e3) / 3.0)
                if not math.isfinite(err):
                    # a NaN state would fail err <= 1 without shrinking h
                    status = STEP_FAILURE
                    break

                if err <= 1.0:
                    tau = tau_end
                    q = q_new
                    served = served_new
                    lost = lost_new
                    if q < worst_neg:
                        worst_neg = q
                    if q < 0.0:
                        q = 0.0
                    if pair:
                        qp = qp_new
                        served_p = served_p_new
                        lost_p = lost_p_new
                        if qp < worst_neg:
                            worst_neg = qp
                        if qp < 0.0:
                            qp = 0.0
                    n_steps += 1
                else:
                    n_rej += 1

                if err > 1e-12:
                    factor = _SAFETY * err ** -0.2
                else:
                    factor = _MAX_FACTOR
                if factor < _MIN_FACTOR:
                    factor = _MIN_FACTOR
                elif factor > _MAX_FACTOR:
                    factor = _MAX_FACTOR
                h = h * factor
                if err > 1.0 and h < min_step:
                    status = STEP_FAILURE
                    break

            if status != OK:
                out[:, j:] = np.nan
                break

        # the outflow law at the bin's end
        r = _rhs(q, qp, pair, xb, pb, mub, m_servers, alpha, gate_on, cap_k,
                 h0, gate_n)
        out[0, j], out[1, j], out[2, j], out[3, j] = q, r[1], served, lost
        if pair:
            out[4, j], out[5, j], out[6, j], out[7, j] = (qp, r[4], served_p,
                                                          lost_p)

    return out, (status, n_steps, n_rej, n_closed, -worst_neg)


def point_queue_exact(x_dt, x_vals, mu, q0):
    """Exact trajectory of the projected point-queue dynamics at the start
    and at the end of each inflow bin: the exact logistic bins at
    alpha = inf (see _exact_piece)."""
    q_out = np.empty(x_vals.shape[0] + 1)
    q_out[0] = q = q0
    xb = float(x_vals[0])
    for j, x in enumerate(x_vals.tolist(), start=1):
        xa, xb = xb, x
        q = q_out[j] = _exact_bin(q, xa - mu, xb - mu, x_dt, math.inf)[0]
    return q_out


def des_fifo(arrivals, sizes, mu, cap_k):
    """Single-server FIFO (Lindley) recursion with optional drop-tail buffer.

    des.simulate_fifo hands it only the infinite-buffer busy periods whose
    backlog comes near cap_k, a long one as a slice of the trace and short
    ones gathered back to back (each of them starts empty), and only when
    their packets have mixed sizes; one size
    takes the block walk des._one_size_drop_tail, which reproduces this
    loop's departures bit for bit.  des keeps only ``depart``, whose drops
    are the NaN entries.

    Returns (depart, last_completion, n_dropped, dropped_bits); depart[j] is
    NaN for dropped packets (a departure can come at any time, negative
    ones too), last_completion[j] is the completion time of the latest
    accepted packet among the first j+1 arrivals (server work function).
    last_completion is returned for the tests, which compare it with the
    forward fill of depart.
    """
    n = arrivals.shape[0]
    depart = np.empty(n)
    last_c = np.empty(n)
    c_prev = -np.inf
    n_drop = 0
    bits_drop = 0.0
    for j in range(n):
        a = arrivals[j]
        backlog = (c_prev - a) * mu if c_prev > a else 0.0
        if cap_k > 0.0 and backlog + sizes[j] > cap_k:
            depart[j] = np.nan
            n_drop += 1
            bits_drop += sizes[j]
        else:
            start = c_prev if c_prev > a else a
            c_prev = start + sizes[j] / mu
            depart[j] = c_prev
        last_c[j] = c_prev
    return depart, last_c, n_drop, bits_drop
