"""Error measures comparing the fluid model against the packet oracle,
plus the aggregation-time error bound and the no-queue baseline."""

from dataclasses import dataclass, asdict

import numpy as np

from .series import ParameterError


class DegenerateInputError(ValueError):
    """All-zero reference makes the measure undefined."""


def _pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ParameterError("inputs must be equal-length 1-d vectors")
    return a, b


def error_relative_to_max(q_disc, q_log) -> float:
    """L2 difference normalised by a constant vector at the reference peak."""
    q_disc, q_log = _pair(q_disc, q_log)
    peak = q_disc.max()
    if peak <= 0:
        raise DegenerateInputError("reference queue is identically zero")
    return float(np.linalg.norm(q_disc - q_log)
                 / (np.sqrt(q_disc.size) * peak))


def max_occupancy_error(q_disc, q_log) -> float:
    q_disc, q_log = _pair(q_disc, q_log)
    peak = q_disc.max()
    if peak <= 0:
        raise DegenerateInputError("reference queue is identically zero")
    return float(abs(peak - q_log.max()) / peak)


def mean_relative_outflow_error(y_disc, y_log):
    """Mean of per-bin relative errors; zero-reference bins are excluded and
    their count returned alongside so the masking stays visible."""
    y_disc, y_log = _pair(y_disc, y_log)
    keep = y_disc != 0.0
    excluded = int(np.count_nonzero(~keep))
    if not np.any(keep):
        raise DegenerateInputError("reference outflow is identically zero")
    err = float(np.mean(np.abs(y_disc[keep] - y_log[keep])
                        / np.abs(y_disc[keep])))
    return err, excluded


def global_relative_error(y_disc, y_log) -> float:
    y_disc, y_log = _pair(y_disc, y_log)
    denom = np.linalg.norm(y_disc)
    if denom <= 0:
        raise DegenerateInputError("reference outflow is identically zero")
    return float(np.linalg.norm(y_disc - y_log) / denom)


def aggregation_error_bound(mu, rho, dt):
    """Irreducible aggregation error: (mu*(1-rho)*dt bits, (1-rho)*dt s)."""
    if not 0.0 <= rho <= 1.0:
        raise ParameterError("rho must be in [0, 1]")
    return mu * (1.0 - rho) * dt, (1.0 - rho) * dt


@dataclass(frozen=True)
class ErrorReport:
    err_rel_max: float
    max_occupancy_err: float
    mean_rel_outflow_err: float
    global_rel_err: float
    outflow_bins_excluded: int
    aggregation_bound_s: float
    observed_delay_gap_s: float
    baseline_mean_rel_err: float
    baseline_global_rel_err: float

    def to_text(self) -> str:
        lines = [f"{k}={v!r}" for k, v in asdict(self).items()]
        return "\n".join(lines) + "\n"

    @staticmethod
    def csv_header() -> str:
        return ",".join(ErrorReport.__dataclass_fields__)

    def csv_row(self) -> str:
        return ",".join(repr(v) for v in asdict(self).values())


def build_report(q_disc, q_log, y_disc, y_log, x_inflow, mu, rho, dt) -> ErrorReport:
    """All measures in one pass; the no-queue baseline replaces the fluid
    outflow with the inflow itself."""
    mean_err, excluded = mean_relative_outflow_error(y_disc, y_log)
    base_mean, _ = mean_relative_outflow_error(y_disc, x_inflow)
    q_disc = np.asarray(q_disc, dtype=float)
    q_log = np.asarray(q_log, dtype=float)
    gap = float(np.max(np.abs(q_disc - q_log)) / mu)
    _, bound_s = aggregation_error_bound(mu, rho, dt)
    return ErrorReport(
        err_rel_max=error_relative_to_max(q_disc, q_log),
        max_occupancy_err=max_occupancy_error(q_disc, q_log),
        mean_rel_outflow_err=mean_err,
        global_rel_err=global_relative_error(y_disc, y_log),
        outflow_bins_excluded=excluded,
        aggregation_bound_s=bound_s,
        observed_delay_gap_s=gap,
        baseline_mean_rel_err=base_mean,
        baseline_global_rel_err=global_relative_error(y_disc, x_inflow),
    )
