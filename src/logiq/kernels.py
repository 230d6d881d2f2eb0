"""Numeric inner loops: one solver for the logistic queue family, the
exact point-queue reference (the exact logistic bins at alpha = inf), and
the packet-level drop-tail FIFO recursion.

The fluid kernels walk the inflow bins by index.  Every bin is dt wide, and
bin j (j >= 1) runs from the inflow sample j-2 to the sample j-1 (bin 1
holds sample 0): the inflow is linear across it, and the server's rate mu
is one constant.  A finite buffer of K bits projects the backlog onto
[0, K], and the inflow that would lift it past K is lost.  Every bin is
solved exactly: a run of bins that stays at or below K by one scan, and a
bin that reaches K by its pieces, one at a time.

The kernels are plain Python and numpy.  Inputs are plain float64 arrays;
wrappers in fluid.py / des.py own validation and the public dataclasses.
"""

import math

import numpy as np

# the most bins one prefix scan covers (see _exact_bins)
_SCAN = 128


def _rhs(q, x, mu, alpha, cap_k):
    """Returns (dq/dt, outflow, lost-rate) of the queue with inflow x on a
    server of rate mu, its backlog projected onto [0, cap_k]: at cap_k the
    backlog does not rise, and the inflow it would rise by is lost.  The
    backlog is evaluated at max(q, 0)."""
    qc = q if q > 0.0 else 0.0
    mn = x if x < mu else mu
    y = mu + math.exp(-alpha * qc) * (mn - mu)
    if qc >= cap_k and x > y:
        return 0.0, y, x - y
    return x - y, y, 0.0


def _exact_bins(q, d, w, alpha):
    """(mid, end) backlogs of bins of width w from backlog q, where X - mu
    runs linearly from d[i] to d[i + 1] in bin i, with no ceiling.  A sign
    change splits a bin into two pieces (else the second is empty).  Where
    X >= mu, q grows by the piece's area A, the integral of X - mu; where
    X < mu, u = e^(alpha q) - 1 obeys u' = alpha (X - mu) u.  So a piece
    maps u to a u + b, a = e^(alpha A), b = max(a - 1, 0), and q enters as
    a growth piece from empty.  In log space this is a prefix scan (Heinsen
    2023, arXiv:2311.06281): with P = cumsum(alpha A), log u = P +
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


def _ceiling_bin(q, da, db, w, alpha, cap_k):
    """(end backlog, lost bits) of a bin as _exact_bins reads it, under the
    ceiling cap_k: a growth piece maps q to min(cap_k, q + A) and loses the
    rest, which is exact because its outflow is mu at any backlog; a drain
    piece never rises, so it keeps the map u -> e^(alpha A) u."""
    if (da < 0.0 < db) or (db < 0.0 < da):     # X crosses mu
        s = w * da / (da - db)
        areas = (0.5 * s * da, 0.5 * (w - s) * db)
    else:
        areas = (0.5 * w * (da + db),)
    lost = 0.0
    for a in areas:
        if a >= 0.0:
            lost += max(q + a - cap_k, 0.0)
            q = min(q + a, cap_k)
        elif alpha * q > 0.0:
            # alpha q = softplus(log(e^(alpha q) - 1) + alpha A)
            z = alpha * q
            q = float(np.logaddexp(
                0.0, z + math.log(-math.expm1(-z)) + alpha * a)) / alpha
    return q, lost


def integrate_logistic(t0, x_dt, x_vals, mu, alpha, cap_k, q0):
    """The state (q, outflow, served bits, lost bits) of the queue fed by
    x_vals on a server of constant rate mu, with a buffer of cap_k bits
    (inf: no buffer limit), starting at backlog q0 <= cap_k, at t0 and at
    the end of each inflow bin: the rows of the returned array.

    The bins are solved exactly, a run at a time by one scan
    (_exact_bins), up to the first bin whose backlog would pass cap_k;
    that bin, and each after it up to the first that loses nothing, takes
    its pieces under the ceiling (_ceiling_bin), and the scan resumes after
    them.  t0 places the bin ends on the output grid t0 + j x_dt, where the
    scanned bins keep the FIFO order of exit times t + q / mu.
    """
    n = x_vals.shape[0]
    out = np.empty((4, n + 1))
    w = x_dt

    # bin j runs from sample j - 1 to sample j of this padded copy
    xe = np.concatenate((x_vals[:1], x_vals))
    d = xe - mu
    width = n + 1

    q = q0
    served = lost = 0.0
    # the sample at the end of bin 0, which is the point t0
    out[:, 0] = q, _rhs(q, float(xe[0]), mu, alpha, cap_k)[1], served, lost
    j = 1
    while j <= n:
        # the exact bins j..k-1, as far as they stay at or below cap_k
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
        # a bin starts at or below cap_k, so q_mid or q_end is its peak
        over = np.maximum(q_mid, q_end) > cap_k
        m = int(np.argmax(over)) if over.any() else k - j
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
            j += m
        if j < k:
            # bin j passes cap_k, and so may the bins after it: take their
            # pieces, up to the first bin that loses nothing
            spill = 1.0
            while spill > 0.0 and j <= n:
                # Python floats step faster than numpy scalars
                xa, xb = float(xe[j - 1]), float(xe[j])
                q_new, spill = _ceiling_bin(q, xa - mu, xb - mu, w, alpha,
                                            cap_k)
                served += 0.5 * w * (xa + xb) - (q_new - q) - spill
                q, lost = q_new, lost + spill
                out[:, j] = q, _rhs(q, xb, mu, alpha, cap_k)[1], served, lost
                j += 1
            # then scan short runs, each twice as long as the last
            width = 8
        else:
            width *= 2
    return out


def point_queue_exact(x_dt, x_vals, mu, q0):
    """Exact trajectory of the projected point-queue dynamics at the start
    and at the end of each inflow bin: the exact bins at alpha = inf."""
    d = np.concatenate((x_vals[:1], x_vals)) - mu
    return np.concatenate(([q0], _exact_bins(q0, d, x_dt, math.inf)[1]))


def des_fifo(arrivals, size, mu, cap_k, c_prev=-math.inf):
    """Single-server FIFO (Lindley) recursion for packets of ``size`` bits
    with optional drop-tail buffer (cap_k > 0; 0 is the infinite buffer),
    from the last completion time ``c_prev`` (-inf: an empty server).

    des.simulate_fifo reproduces it bit for bit with one Lindley scan, and
    steps it only where that scan's binade rule fails (a binade crossing, a
    binade where the service time ties, times below the smallest normal
    float), carrying c_prev from one stretch to the next.

    Returns (depart, last_completion, n_dropped, dropped_bits); depart[j] is
    NaN for dropped packets (a departure can come at any time, negative
    ones too), last_completion[j] is the completion time of the latest
    accepted packet among the first j+1 arrivals (server work function),
    and dropped_bits is n_dropped * size.  des reads depart and the last
    completion; the tests compare last_completion with the forward fill of
    depart.
    """
    n = arrivals.shape[0]
    depart = np.empty(n)
    last_c = np.empty(n)
    n_drop = 0
    for j in range(n):
        a = arrivals[j]
        backlog = (c_prev - a) * mu if c_prev > a else 0.0
        if cap_k > 0.0 and backlog + size > cap_k:
            depart[j] = np.nan
            n_drop += 1
        else:
            start = c_prev if c_prev > a else a
            c_prev = start + size / mu
            depart[j] = c_prev
        last_c[j] = c_prev
    return depart, last_c, n_drop, n_drop * size
