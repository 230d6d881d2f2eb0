"""Fluid-flow queue network toolkit built around the logistic queue model,
with a packet-level FIFO oracle and a latency digital-twin layer."""

from .series import (PacketTrace, RateSeries, ParameterError, intensity,
                     mean_rate, merge_traces, trace_to_inflow)
from .traffic import (VideoUserParams, generate_aggregate, generate_users,
                      generate_video_user, interuse_for_rate)
from .fluid import (DomainError, QueueSpec, QueueTrajectory, compute_alpha,
                    emptying_time_bound, exit_time, integrate_finite_queue,
                    integrate_point_queue, integrate_priority_pair,
                    integrate_queue, logistic_rhs, outflow_rate,
                    point_queue_rhs, priority_rates, queue_decay_bound,
                    split_outflow)
from .des import DesConfig, DesResult, departures_to_outflow, simulate_fifo
from .metrics import (ErrorReport, aggregation_error_bound, build_report,
                      error_relative_to_max, global_relative_error,
                      max_occupancy_error, mean_relative_outflow_error)
from .network import (DtState, HorizonError, Topology, expected_latency,
                      inject_priority_flow, latency, latency_series,
                      max_expected_latency, propagate)

__version__ = "0.1.0"
