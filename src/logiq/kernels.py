"""Numeric inner loops: one integrator for the logistic queue family, the
exact point-queue reference (the exact logistic bins at alpha = inf), and
the packet-level drop-tail FIFO recursion.

The fluid kernels walk the inflow bins by index.  Every bin is dt wide, and
bin j (j >= 1) runs from the inflow sample j-2 to the sample j-1 (bin 1
holds sample 0): the inflow is linear across it, and the server's rate mu
is one constant.  A queue's bins are solved exactly, a run of them by one
scan; bins in which the finite-buffer gate falls below 1 take adaptive
Dormand-Prince 5(4) steps in their own time tau, from 0 to dt.

The kernels are plain Python and numpy.  Inputs are plain float64 arrays;
wrappers in fluid.py / des.py own validation and the public dataclasses.
"""

import math

import numpy as np

# integration status codes
OK = 0
STEP_FAILURE = 1

# the most bins one prefix scan covers (see _exact_bins)
_SCAN = 128

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _gate(q, cap_k, h0, gate_n):
    """Smoothed Heaviside annihilating inflow near capacity."""
    z = gate_n * (q - cap_k)
    if z > 700.0:
        return 0.0
    return 1.0 / (1.0 + (1.0 / h0 - 1.0) * math.exp(z))


def _gate_limit(cap_k, h0, gate_n):
    """The largest q >= 0 at which _gate is exactly 1 (-1 if none, as for a
    NaN gate): it falls with q, so bisect on the bits of q, ordered as q."""
    lo, hi = -1, 0x7FF0000000000000         # below 0.0, and inf's bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _gate(float(np.int64(mid).view(float)), cap_k, h0, gate_n) == 1.0:
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(float)) if lo >= 0 else -1.0


def _rhs(q, x, mu, alpha, gate_on, cap_k, h0, gate_n):
    """Returns (dq/dt, outflow, lost-rate) of the queue with inflow x on a
    server of rate mu.  The backlog is evaluated at max(q, 0)."""
    qc = q if q > 0.0 else 0.0
    xh = _gate(qc, cap_k, h0, gate_n) * x if gate_on else x
    mn = xh if xh < mu else mu
    y = mu + math.exp(-alpha * qc) * (mn - mu)
    return xh - y, y, x - xh


def _exact_bins(q, d, w, alpha):
    """(mid, end) backlogs of ungated bins of width w from backlog q, where
    X - mu runs linearly from d[i] to d[i + 1] in bin i.  A sign change
    splits a bin into two pieces (else the second is empty).  Where X >= mu,
    q grows by the piece's area A, the integral of X - mu; where X < mu,
    u = e^(alpha q) - 1 obeys u' = alpha (X - mu) u.  So a piece maps u to
    a u + b, a = e^(alpha A), b = max(a - 1, 0), and q enters as a growth
    piece from empty.  In log space this is a prefix scan (Heinsen 2023,
    arXiv:2311.06281): with P = cumsum(alpha A), log u = P +
    logaddexp.accumulate(log b - P) and alpha q = softplus(log u).  At
    alpha = inf it is the point queue's Lindley recursion q = max(q + A, 0),
    unrolled: with P = cumsum(A), q = P - min(0, min P).  Each scan covers
    _SCAN bins and carries q to the next, which bounds the rounding in P.
    """
    da, db = d[:-1], d[1:]
    split = ((da < 0.0) & (db > 0.0)) | ((da > 0.0) & (db < 0.0))
    qs = np.empty(2 * da.size + 1)        # the areas, then the backlogs
    qs[0] = q
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(split, w * da / (da - db), w)
        qs[1::2] = 0.5 * s * np.where(split, da, da + db)
        qs[2::2] = np.where(split, 0.5 * (w - s) * db, 0.0)
        for i in range(0, qs.size - 1, 2 * _SCAN):
            a = qs[i:i + 2 * _SCAN + 1]     # a view; a[0] is the backlog
            if alpha == math.inf:
                p = np.cumsum(a)
                a[1:] = (p - np.minimum(np.minimum.accumulate(p), 0.0))[1:]
            else:
                p = np.cumsum(alpha * a)
                grow = alpha * np.maximum(a, 0.0)
                # log b = log(e^grow - 1), which is -inf for a draining piece
                log_u = p + np.logaddexp.accumulate(
                    grow + np.log(-np.expm1(-grow)) - p)
                a[1:] = np.logaddexp(0.0, log_u[1:]) / alpha
    return qs[1::2], qs[2::2]


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


def integrate_logistic(t0, x_dt, x_vals, mu, alpha, gate_on, cap_k, h0,
                       gate_n, q0, rtol, atol):
    """The state (q, served-bits, lost-bits) of the queue fed by x_vals on
    a server of constant rate mu, starting at backlog q0, at t0 and at the
    end of each inflow bin.

    The bins are solved exactly, a run at a time by one scan
    (_exact_bins), up to the first bin at whose largest backlog the
    finite-buffer gate is below 1; that bin takes adaptive Dormand-Prince
    5(4) steps, the last of which lands on the bin end, and the scan
    resumes after it.  t0 places the bin ends on the output grid
    t0 + j x_dt, where the exact bins keep the FIFO order of exit times
    t + q / mu.

    Returns (out, stats): the rows of out are q, outflow, served and lost;
    stats is (status, n_steps, n_rejected, n_closed_form,
    worst_negative_q), where n_closed_form counts the bins solved without
    steps.
    """
    n = x_vals.shape[0]
    q_on = _gate_limit(cap_k, h0, gate_n) if gate_on else math.inf
    out = np.empty((4, n + 1))
    min_step = 1e-13 * n * x_dt
    w = h = x_dt

    # bin j runs from sample j - 1 to sample j of this padded copy
    xe = np.concatenate((x_vals[:1], x_vals))
    d = xe - mu
    width = n + 1

    # state
    q = q0
    served = lost = worst_neg = 0.0
    n_steps = n_rej = n_closed = 0
    status = OK

    def stage(s, q):
        """The _rhs row of the backlog q at the fraction s of the bin."""
        return _rhs(q, (1.0 - s) * xa + s * xb, mu, alpha, gate_on, cap_k,
                    h0, gate_n)

    # Python floats read faster than numpy scalars, bin by bin
    xs = xe.tolist()
    # the sample at the end of bin 0, which is the point t0
    xb = xs[0]
    j = 0
    while j <= n:
        if j > 0 and q <= q_on:
            # the exact bins j..k-1, as far as the gate stays 1
            k = min(j + width, n + 1)
            q_mid, q_end = _exact_bins(q, d[j - 1:k], w, alpha)
            # FIFO: the outflow never exceeds mu, so exit times t + q / mu
            # never fall, but where X = 0 and alpha q is large the scan can
            # round one below an earlier one: raise q just enough
            while True:
                t = t0 + x_dt * np.arange(j - 1, k)
                exits = t + np.concatenate(([q], q_end)) / mu
                floor = np.maximum.accumulate(exits)[:-1]
                late = exits[1:] < floor
                if not late.any():
                    break
                q_end[late] = np.maximum(q_end[late] * (1.0 + 2.0 ** -52),
                                         (floor - t[1:])[late] * mu)
            peak = np.maximum(np.maximum(q_mid, q_end),
                              np.concatenate(([q], q_end[:-1])))
            m = int(np.argmax(peak > q_on)) if peak.max() > q_on else k - j
            if m:
                cols = slice(j, j + m)
                x_end, q_end = xe[cols], q_end[:m]
                # the outflow is what the inflow brought in and q kept
                inflow = np.cumsum(0.5 * w * (xe[j - 1:j + m - 1] + x_end))
                out[0, cols] = q_end
                out[1, cols] = mu + np.exp(-alpha * q_end) * (
                    np.minimum(x_end, mu) - mu)
                out[2, cols] = served + inflow - (q_end - q)
                out[3, cols] = lost
                # Python floats step faster than numpy scalars
                q, served = float(q_end[-1]), float(out[2, j + m - 1])
                n_closed += m
            # after a gated bin the next may be gated too: scan short runs,
            # each twice as long as the last
            width = 2 * width if j + m == k else 8
            j += m
            if j == k:
                continue
        if j > 0:
            xa, xb = xs[j - 1], xs[j]
            tau = 0.0
            while tau < w:
                if tau + h >= w:
                    h = w - tau
                    tau_end = w
                else:
                    tau_end = tau + h
                s_end = tau_end / w

                # stage derivatives of (q, served, lost)
                k1q, k1y, k1l = stage(tau / w, q)
                k2q, k2y, k2l = stage((tau + _C2 * h) / w,
                                      q + h * _A21 * k1q)
                k3q, k3y, k3l = stage((tau + _C3 * h) / w,
                                      q + h * (_A31 * k1q + _A32 * k2q))
                k4q, k4y, k4l = stage(
                    (tau + _C4 * h) / w,
                    q + h * (_A41 * k1q + _A42 * k2q + _A43 * k3q))
                k5q, k5y, k5l = stage(
                    (tau + _C5 * h) / w,
                    q + h * (_A51 * k1q + _A52 * k2q + _A53 * k3q
                             + _A54 * k4q))
                k6q, k6y, k6l = stage(
                    s_end,
                    q + h * (_A61 * k1q + _A62 * k2q + _A63 * k3q
                             + _A64 * k4q + _A65 * k5q))

                q_new = q + h * (_B1 * k1q + _B3 * k3q + _B4 * k4q
                                 + _B5 * k5q + _B6 * k6q)
                served_new = served + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y
                                           + _B5 * k5y + _B6 * k6y)
                lost_new = lost + h * (_B1 * k1l + _B3 * k3l + _B4 * k4l
                                       + _B5 * k5l + _B6 * k6l)

                k7q, k7y, k7l = stage(s_end, q_new)

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
        out[:, j] = q, _rhs(q, xb, mu, alpha, gate_on, cap_k, h0,
                            gate_n)[1], served, lost
        j += 1

    return out, (status, n_steps, n_rej, n_closed, -worst_neg)


def point_queue_exact(x_dt, x_vals, mu, q0):
    """Exact trajectory of the projected point-queue dynamics at the start
    and at the end of each inflow bin: the exact bins at alpha = inf."""
    d = np.concatenate((x_vals[:1], x_vals)) - mu
    return np.concatenate(([q0], _exact_bins(q0, d, x_dt, math.inf)[1]))


def des_fifo(arrivals, sizes, mu, cap_k, c_prev=-math.inf):
    """Single-server FIFO (Lindley) recursion with optional drop-tail buffer
    (cap_k > 0; 0 is the infinite buffer), from the last completion time
    ``c_prev`` (-inf: an empty server).

    des.simulate_fifo reproduces it bit for bit, for one packet size, with
    one Lindley scan, and steps it only where that scan's binade rule fails
    (a binade crossing, a binade where the service time ties, times below
    the smallest normal float), carrying c_prev from one stretch to the
    next.  A segment of mixed sizes runs it whole.

    Returns (depart, last_completion, n_dropped, dropped_bits); depart[j] is
    NaN for dropped packets (a departure can come at any time, negative
    ones too), last_completion[j] is the completion time of the latest
    accepted packet among the first j+1 arrivals (server work function).
    des reads depart and the last completion; the tests compare
    last_completion with the forward fill of depart.
    """
    n = arrivals.shape[0]
    depart = np.empty(n)
    last_c = np.empty(n)
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
