"""Numeric inner loops: one solver for the logistic queue family, the
exact point-queue reference (the exact logistic bins at alpha = inf), and
the packet-level drop-tail FIFO recursion.

The fluid kernels walk the inflow bins by index.  Every bin is dt wide, and
bin j (j >= 1) runs from the inflow sample j-2 to the sample j-1 (bin 1
holds sample 0): the inflow is linear across it, and the server's rate mu
is one constant.  A finite buffer of K bits projects the backlog onto
[0, K], and the inflow that would lift it past K is lost.  Every bin is
solved exactly, by two prefix scans: one of affine maps up to the first
bin that would pass K, and one of min-affine maps from that bin on.

The kernels are plain Python and numpy.  Inputs are plain float64 arrays;
wrappers in fluid.py / des.py own validation and the public dataclasses.
"""

import math

import numpy as np

# each block of a prefix scan covers 2 _SCAN bin pieces (see _exact_bins)
_SCAN = 128


def _outflow(q, x, mu, alpha):
    """The outflow law mu + exp(-alpha q) (min(x, mu) - mu) of the server
    of rate mu at backlog q and inflow x, elementwise over arrays."""
    return mu + np.exp(-alpha * q) * (np.minimum(x, mu) - mu)


def _rhs(q, x, mu, alpha, cap_k):
    """Returns (dq/dt, outflow, lost-rate) of the queue with inflow x on a
    server of rate mu, its backlog projected onto [0, cap_k]: at cap_k the
    backlog does not rise, and the inflow it would rise by is lost.  The
    backlog is evaluated at max(q, 0)."""
    qc = q if q > 0.0 else 0.0
    y = float(_outflow(qc, x, mu, alpha))
    if qc >= cap_k and x > y:
        return 0.0, y, x - y
    return x - y, y, 0.0


def _pieces(d, w):
    """The areas A, the integrals of X - mu, of the two pieces of each bin
    of width w, where X - mu runs linearly from d[i] to d[i + 1] in bin i:
    a sign change splits the bin where X crosses mu, else the second piece
    is empty.  Bin i's pieces are 2 i and 2 i + 1."""
    da, db = d[:-1], d[1:]
    split = ((da < 0.0) & (db > 0.0)) | ((da > 0.0) & (db < 0.0))
    area = np.empty(2 * da.size)
    s = np.divide(w * da, da - db, out=np.full_like(da, w), where=split)
    area[0::2] = 0.5 * s * np.where(split, da, da + db)
    area[1::2] = np.where(split, 0.5 * (w - s) * db, 0.0)
    return area


def _log_u(z):
    """log(e^z - 1) for z >= 0, which is -inf at 0."""
    return z + np.log(-np.expm1(-z))


def _exact_bins(q, d, w, alpha):
    """(mid, end) backlogs of the bins of _pieces(d, w) from backlog q, with
    no ceiling.  Where X >= mu, q grows by the piece's area A; where X < mu,
    u = e^(alpha q) - 1 obeys u' = alpha (X - mu) u.  So a piece maps u to
    a u + b, a = e^(alpha A), b = max(a - 1, 0), and q enters as a growth
    piece from empty.  In log space this is a prefix scan (Heinsen 2023,
    arXiv:2311.06281): with P = cumsum(alpha A), log u = P +
    logaddexp.accumulate(log b - P) and alpha q = softplus(log u).  At
    alpha = inf it is the point queue's Lindley recursion q = max(q + A, 0),
    unrolled: with P = cumsum(A), q = P - min(0, min P).  Each scan covers
    _SCAN bins and carries q to the next, which bounds the rounding in P.
    """
    qs = np.concatenate(([q], _pieces(d, w)))   # the areas, then backlogs
    with np.errstate(divide="ignore"):
        for i in range(0, qs.size - 1, 2 * _SCAN):
            a = qs[i:i + 2 * _SCAN + 1]     # a view; a[0] is the backlog
            if alpha == math.inf:
                p = np.cumsum(a)
                a[1:] = (p - np.minimum(np.minimum.accumulate(p), 0.0))[1:]
            else:
                p = np.cumsum(alpha * a)
                log_u = p + np.logaddexp.accumulate(
                    _log_u(alpha * np.maximum(a, 0.0)) - p)
                a[1:] = np.logaddexp(0.0, log_u[1:]) / alpha
    return qs[1::2], qs[2::2]


def _ceiling_bins(q, d, w, alpha, cap_k):
    """(end backlogs, lost bits so far) of the bins of _pieces(d, w) from
    backlog q <= cap_k under the ceiling cap_k.  In u = e^(alpha q) - 1 a
    piece maps u to min(c, a u + b), c = e^(alpha cap_k) - 1: a growth
    piece lifts q by its area A up to cap_k (its outflow is mu at any
    backlog), so b = a - 1; a drain piece has b = 0 and never reaches c.
    g after f is (a_g a_f, a_g b_f + b_g, min(c_g, a_g c_f + b_g)), whose
    terms are sums and products of nonnegative numbers.  So blocks of
    2 _SCAN pieces compose by doubling (Hillis & Steele 1986), in logs, and
    each block carries q to the next, which bounds the rounding.  A piece
    loses max(q_prev + A - cap_k, 0), which is 0 for a drain piece.
    """
    area = _pieces(d, w)
    # an empty piece is the identity: scan the others, and read each bin's
    # backlog after its last of them
    ends = np.cumsum(area != 0.0)[1::2]
    area = area[area != 0.0]
    # log a, log b and log c of each piece, padded with identities (a = 1)
    la = np.zeros((-(-area.size // (2 * _SCAN)), 2 * _SCAN))
    la.flat[:area.size] = alpha * area
    log_c = float(_log_u(alpha * cap_k))
    with np.errstate(divide="ignore"):
        lb = _log_u(np.maximum(la, 0.0))
        lc = np.full_like(la, log_c)
        k = 1
        while k < la.shape[1]:
            # each piece after the composed k pieces before it
            g, f = np.s_[:, k:], np.s_[:, :-k]
            la[g], lb[g], lc[g] = (
                la[g] + la[f], np.logaddexp(la[g] + lb[f], lb[g]),
                np.minimum(lc[g], np.logaddexp(la[g] + lc[f], lb[g])))
            k *= 2
        qs = np.empty_like(la)
        carry = q
        for i in range(la.shape[0]):
            log_u = np.minimum(lc[i], np.logaddexp(
                la[i] + _log_u(alpha * carry), lb[i]))
            # at the ceiling exactly, and below it after the softplus
            qs[i] = np.where(log_u < log_c, np.minimum(
                np.logaddexp(0.0, log_u) / alpha, cap_k), cap_k)
            carry = qs[i, -1]
    qs = np.concatenate(([q], qs.ravel()[:area.size]))
    lost = np.maximum(qs[:-1] + area - cap_k, 0.0).cumsum()
    return qs[ends], np.concatenate(([0.0], lost))[ends]


def integrate_logistic(x_dt, x_vals, mu, alpha, cap_k, q0):
    """The state (q, outflow, served bits, lost bits) of the queue fed by
    x_vals on a server of constant rate mu, with a buffer of cap_k bits
    (inf: no buffer limit), starting at backlog q0 <= cap_k, at the start
    and at the end of each inflow bin: the rows of the returned array.

    One scan solves the bins without a ceiling (_exact_bins).  If a bin's
    backlog would pass cap_k, the bins from the first such on are solved
    again under the ceiling (_ceiling_bins), from the backlog the scan
    gave before it.  The backlog keeps the FIFO order of the exit times
    t + q / mu at the bin ends t = j x_dt from the start: the order does
    not change when every time is shifted by the grid's start.
    """
    # bin j runs from sample j - 1 to sample j of this padded copy
    xe = np.concatenate((x_vals[:1], x_vals))
    d = xe - mu
    q_mid, q_end = _exact_bins(q0, d, x_dt, alpha)
    q, lost = np.concatenate(([q0], q_end)), np.zeros(q_end.size + 1)
    # a bin starts at or below cap_k, so q_mid or q_end is its peak
    over = np.maximum(q_mid, q_end) > cap_k
    if over.any():
        m = int(np.argmax(over))
        q[m + 1:], lost[m + 1:] = _ceiling_bins(q[m], d[m:], x_dt, alpha,
                                                cap_k)
    # FIFO: the outflow never exceeds mu, so exit times t + q / mu never
    # fall, but where X = 0 and alpha q is large the scans can round one
    # below an earlier one: raise q just enough, up to cap_k at most.  The
    # times are relative, so no grid start coarsens them
    t = x_dt * np.arange(q.size)
    while True:
        exits = t + q / mu
        floor = np.maximum.accumulate(exits)[:-1]
        late = exits[1:] < floor
        if not late.any():
            break
        q[1:][late] = np.minimum(np.maximum(
            q[1:][late] * (1.0 + 2.0 ** -52), (floor - t[1:])[late] * mu),
            cap_k)
    # the outflow law, and served bits by mass balance
    inflow = np.cumsum(np.concatenate(([0.0],
                                       0.5 * x_dt * (xe[:-1] + xe[1:]))))
    return np.array([q, _outflow(q, xe, mu, alpha), inflow - (q - q0) - lost,
                     lost])


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
