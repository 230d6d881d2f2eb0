"""The logistic queue model: smooth outflow law, its exact solution and
the finite-buffer / flow-separation / priority extensions, plus the projected
point-queue reference model.

Backlog q' = X - Y with Y = mu + exp(-alpha*q) * (min(mu, X) - mu).  A
finite buffer of K bits projects the backlog onto [0, K]: at q = K,
q' = min(X - Y, 0), and the rest of the inflow is lost.  Each inflow bin is
solved in closed form (kernels.integrate_logistic), and the served and lost
bit totals are carried alongside q, so mass is conserved to rounding
instead of by grid quadrature.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .series import RateSeries, ParameterError


class DomainError(ValueError):
    """Argument outside the operation's mathematical domain."""


@dataclass(frozen=True)
class QueueSpec:
    """One queue/server: constant service rate mu, logistic steepness
    alpha, initial backlog, and an optional finite capacity K in bits.

    A finite queue's backlog is projected onto [0, K]: it never passes K,
    and the inflow that would lift it past K is lost.  This is the sharp
    limit of the paper's smoothed Heaviside gate, whose width K / 500 goes
    to 0.
    """

    mu: float
    alpha: float
    q0: float = 0.0
    capacity_k: float = None

    def __post_init__(self):
        # negated checks, so that NaN and infinities fail them; a value
        # that is not a real number fails before it is compared
        if not (isinstance(self.alpha, numbers.Real)
                and 0 < self.alpha < math.inf):
            raise ParameterError("alpha must be a real number that is "
                                 "finite and > 0")
        if not (isinstance(self.q0, numbers.Real)
                and 0 <= self.q0 < math.inf):
            raise ParameterError("q0 must be a real number that is finite "
                                 "and >= 0")
        if not (isinstance(self.mu, numbers.Real) and 0 < self.mu < math.inf):
            raise ParameterError("mu must be a real number that is finite "
                                 "and > 0")
        if self.capacity_k is not None:
            if not (isinstance(self.capacity_k, numbers.Real)
                    and 0 < self.capacity_k < math.inf):
                raise ParameterError("capacity_k must be a real number that "
                                     "is finite and > 0; None is the "
                                     "infinite buffer")
            if not self.q0 < self.capacity_k:
                raise ParameterError("q0 must be < capacity_k")


@dataclass(frozen=True)
class SolverStats:
    """Accepted and rejected solver steps, inflow bins solved in closed
    form, and the worst negative backlog excursion.  Every bin is solved in
    closed form (kernels.integrate_logistic), so steps, rejected and the
    excursion are 0."""

    steps: int
    rejected: int
    closed_form: int
    max_negative_q: float

    def to_text(self) -> str:
        return (f"steps={self.steps}\nrejected={self.rejected}\n"
                f"closed_form={self.closed_form}\n"
                f"max_negative_q={self.max_negative_q!r}\n")


@dataclass(frozen=True)
class QueueTrajectory:
    """Queue solution on the inflow grid: ``grid`` is t0 followed by the
    inflow's sample times.

    ``served`` and ``lost`` are cumulative bits (solved with the state),
    so ``q[i] - q[0] == inflow-integral - served[i] - lost[i]`` to
    rounding.
    """

    grid: np.ndarray
    q: np.ndarray
    y: np.ndarray
    served: np.ndarray
    lost: np.ndarray
    stats: SolverStats

    @property
    def output_dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def lost_mass(self) -> float:
        return float(self.lost[-1])

    def q_at(self, t):
        """Linear interpolation of the backlog between grid points."""
        return np.interp(t, self.grid, self.q)

    def outflow_series(self, kind="binned") -> RateSeries:
        """Outflow as a RateSeries on the inflow grid.

        "binned": bin-average rates from the served-bits accumulator (mass
        exact); "instant": instantaneous outflow at the right bin edges.
        Both are floored at 0: a priority pair's low class is a difference
        of two queues (integrate_priority_pair), which can dip below it.
        """
        dt = self.output_dt
        if kind == "binned":
            values = np.maximum(np.diff(self.served), 0.0) / dt
        elif kind == "instant":
            values = np.maximum(self.y[1:], 0.0)
        else:
            raise ParameterError(f"unknown outflow kind {kind!r}")
        return RateSeries(float(self.grid[0]), dt, values)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t_s,q_bits,y_bps\n")
            for t, qi, yi in zip(self.grid, self.q, self.y):
                fh.write(f"{t:.9f},{float(qi)!r},{float(yi)!r}\n")


def _rhs_at(t, q, inflow: RateSeries, spec: QueueSpec):
    """The kernel's (dq/dt, outflow, lost-rate) row for ``spec`` fed by
    ``inflow``, with X linear between the inflow's sample times and
    constant beyond them, as the kernel reads it."""
    x = np.interp(t, inflow.sample_times, inflow.values)
    return kernels._rhs(float(q), float(x), *_server_args(spec))


def outflow_rate(x, q, mu, alpha):
    """Smooth outflow law: mu + exp(-alpha*q) * (min(mu, x) - mu)."""
    # negated checks, so that NaN fails them
    if not (np.all(np.asarray(x) >= 0) and np.all(np.asarray(q) >= 0)):
        raise DomainError("inflow and backlog must be nonnegative")
    if not (0 < mu < math.inf and 0 < alpha < math.inf):   # NaN fails too
        raise DomainError("mu and alpha must be finite and > 0")
    y = kernels._outflow(np.asarray(q, dtype=float),
                         np.asarray(x, dtype=float), float(mu), float(alpha))
    return float(y) if y.ndim == 0 else y


def logistic_rhs(t, q, inflow: RateSeries, spec: QueueSpec):
    """Right-hand side dq/dt of the queue ODE as the solver solves it: the
    inflow interpolated on the ``inflow`` grid minus the outflow law, and
    at a full buffer (q >= capacity_k) at most 0, the rest of the inflow
    being lost.  Small negative q is evaluated at 0."""
    return _rhs_at(t, q, inflow, spec)[0]


def point_queue_rhs(t, q, inflow, mu):
    """Projected point-queue right-hand side: X - mu while the queue is
    nonempty, clamped at the q = 0 boundary."""
    x = float(inflow(t)) if callable(inflow) else float(inflow)
    if q > 0:
        return x - mu
    return max(0.0, x - mu)


def compute_alpha(inflow: RateSeries, mu: float) -> float:
    """Logistic steepness from the mean occupancy: alpha = rho / mu."""
    from .series import mean_rate

    if not mu > 0:      # NaN fails too
        raise ParameterError("mu must be > 0")
    lam = mean_rate(inflow)
    if lam <= 0:
        raise DomainError("mean inflow is zero; alpha must be given explicitly")
    return lam / (mu * mu)


def exit_time(t, q_at_t, mu):
    """Time at which a bit arriving at t leaves the system: t + q/mu."""
    if not mu > 0:      # NaN fails too
        raise DomainError("mu must be > 0")
    return np.asarray(t, dtype=float) + np.asarray(q_at_t, dtype=float) / mu


def _check_bound_args(t_x, alpha):
    # negated checks, so that NaN fails them
    if not math.isfinite(t_x):
        raise DomainError("t_x must be finite")
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be finite and > 0")


def emptying_time_bound(t_x, q_x, eps, mu, x_inf, alpha):
    """Upper bound on the time to drain the backlog from q_x down to eps
    under a sustained inflow ceiling x_inf < mu."""
    _check_bound_args(t_x, alpha)
    if not 0.0 < eps <= q_x:
        raise DomainError("need 0 < eps <= q_x")
    if not 0.0 <= x_inf < mu:
        raise DomainError("bound requires 0 <= x_inf < mu")
    beta = mu - x_inf
    return t_x + (q_x - eps) / beta + math.log(q_x / eps) / (alpha * beta)


def queue_decay_bound(t, t_x, q_x, mu, x_inf, alpha):
    """Exponential envelope exp(alpha*(c - beta*t)) valid for t >= t_x when
    the inflow stays below x_inf < mu."""
    _check_bound_args(t_x, alpha)
    if not 0 < mu < math.inf:
        raise DomainError("mu must be finite and > 0")
    if not 0.0 <= x_inf < mu:
        raise DomainError("bound requires 0 <= x_inf < mu")
    if not 0 < q_x < math.inf:
        raise DomainError("bound requires finite q_x > 0")
    beta = mu - x_inf
    c = q_x + math.log(q_x) / alpha + beta * t_x
    return np.exp(alpha * (c - beta * np.asarray(t, dtype=float)))


def _grid(inflow: RateSeries):
    """t0 followed by the inflow's sample times."""
    return inflow.t0 + inflow.dt * np.arange(len(inflow) + 1)


def _server_args(spec: QueueSpec):
    """Kernel arguments (mu, alpha, cap_k) of the server ``spec``; cap_k is
    inf for the infinite buffer."""
    cap_k = math.inf if spec.capacity_k is None else float(spec.capacity_k)
    return float(spec.mu), float(spec.alpha), cap_k


def _solve(inflow: RateSeries, server, q0):
    """Run the kernel on ``inflow`` for the server arguments ``server`` (see
    _server_args) from the backlog q0."""
    if len(inflow) == 0:
        raise ParameterError("empty inflow")
    out = kernels.integrate_logistic(inflow.dt, inflow.values, *server,
                                     float(q0))
    # every bin is closed form; max_negative_q is written as -0.0, as the
    # solver_stats files have always carried it
    return QueueTrajectory(_grid(inflow), *out,
                           SolverStats(0, 0, len(inflow), -0.0))


def integrate_queue(inflow: RateSeries, spec: QueueSpec) -> QueueTrajectory:
    """Solve the queue ODE (the finite buffer included when the spec
    carries a capacity) over the inflow's window."""
    return _solve(inflow, _server_args(spec), spec.q0)


def integrate_finite_queue(inflow: RateSeries,
                           spec: QueueSpec) -> QueueTrajectory:
    """Finite-buffer solve; requires spec.capacity_k. The trajectory's
    ``lost`` accumulator reports the inflow mass the full buffer turned
    away."""
    if spec.capacity_k is None:
        raise ParameterError("integrate_finite_queue needs spec.capacity_k")
    return integrate_queue(inflow, spec)


def integrate_point_queue(inflow: RateSeries, mu: float, q0: float = 0.0
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(grid, q): exact trajectory of the projected point-queue model on
    the inflow grid: the exact logistic bins at alpha = inf, no ODE
    stepping."""
    if not 0 < mu < math.inf:      # NaN fails too
        raise ParameterError("mu must be finite and > 0")
    if not 0 <= q0 < math.inf:
        raise ParameterError("q0 must be finite and >= 0")
    q = kernels.point_queue_exact(inflow.dt, inflow.values, float(mu),
                                  float(q0))
    return _grid(inflow), q


def split_outflow(components, total_out: RateSeries):
    """Share an aggregate outflow among inflow components proportionally to
    their instantaneous inflow weight; zero-inflow instants give zero shares."""
    components = list(components)
    if not components:
        raise ParameterError("need at least one component")
    for c in components:
        if not c.same_grid(total_out):
            raise ParameterError("components and outflow must share the grid")
    x_total = np.sum([c.values for c in components], axis=0)
    safe = np.where(x_total > 1e-12, x_total, 1.0)
    ratio = np.where(x_total > 1e-12, total_out.values / safe, 0.0)
    return [RateSeries(c.t0, c.dt, ratio * c.values) for c in components]


def priority_rates(x1, x2, q1, mu, alpha):
    """Service split (mu1, mu2) of the priority pair; mu1 + mu2 == mu.  The
    high class, a queue of its own, is served at its outflow law at inflow
    x1 and backlog q1; the low class gets the rest.  x2 does not enter."""
    # max keeps a NaN q1, which outflow_rate rejects
    mu1 = outflow_rate(x1, max(q1, 0.0), mu, alpha)
    return mu1, mu - mu1


def integrate_priority_pair(x1: RateSeries, x2: RateSeries, spec: QueueSpec):
    """Solve the priority pair on the server ``spec``; x1 has preemptive
    priority over x2.

    Work conservation: the pair's total backlog is that of one queue fed
    by both classes, and the high class, which never waits for the low
    one, is a queue of its own.  So the aggregate is the single queue
    ``spec`` on x1 + x2, starting at ``spec.q0``; the high class is the
    same server on x1 alone, starting empty; and the low class is the
    aggregate minus the high class, field by field.  A finite buffer
    holds both queues at or below K, each on its own backlog: the high
    class loses inflow only once its own backlog fills the buffer, and the
    low class loses the rest of the aggregate's loss (push-out).

    Returns (high-priority trajectory, low-priority trajectory); the first
    carries the high class's solver stats, the second the aggregate's.
    """
    if not x1.same_grid(x2):
        raise ParameterError("priority inflows must share the grid")
    aggregate = RateSeries(x1.t0, x1.dt, x1.values + x2.values)
    server = _server_args(spec)
    total = _solve(aggregate, server, spec.q0)
    high = _solve(x1, server, 0.0)
    low = QueueTrajectory(
        total.grid, total.q - high.q, total.y - high.y,
        total.served - high.served, total.lost - high.lost, total.stats)
    return high, low
