"""One ``logiq`` command through ``logiq.cli.main`` in a fresh interpreter.

``run.py`` starts this script once per command, with a JSON spec as its only
argument, and reads back the JSON record it writes to ``spec["result"]``.
A spec without a ``command`` only times set-up (importing logiq and loading
the config) and reports which build of the program ran.
"""

import json
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict

import checks
from tracing import Tracer


# A runaway command fails with MemoryError at this size instead of taking
# the host's memory; a desk command peaks near 1.1 GiB of address space.
ADDRESS_SPACE_LIMIT = 3 << 30


def main(spec):
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import logiq.accel
    import logiq.cli
    from logiq.config import load_config
    cfg = load_config(spec["config"])
    record = {"setup_s": time.perf_counter() - start}

    if spec.get("command"):
        record.update(run_command(spec, cfg, logiq.cli))
    else:
        import numpy
        record["stamp"] = {"numba_enabled": bool(logiq.accel.NUMBA_ENABLED),
                           "python": platform.python_version(),
                           "numpy": numpy.__version__}
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)


class Observations:
    """Summaries taken from the program's return values as calls return.

    Only small numbers are kept, so holding them does not change the
    memory the run needs.
    """

    def __init__(self):
        self.counts = defaultdict(float)
        self.validation = None
        self.dt = None
        self.priority_residuals = []

    def observers(self, timed):
        """The callbacks the checks need; with ``timed`` also the counters."""
        needed = {"pipeline.validate": self.on_validate,
                  "pipeline.dt": self.on_dt,
                  "network.priority_inject": self.on_priority_inject}
        if not timed:
            return needed
        return {**needed,
                "traffic.generate": self.on_generate,
                "des.simulate": self.on_simulate,
                "fluid.integrate": self.on_integrate,
                "fluid.priority": self.on_priority_pair,
                "network.propagate": self.on_propagate}

    def on_validate(self, args, kwargs, run):
        from logiq.metrics import aggregation_error_bound
        dt, mu = args[3], args[5]
        floor_bits, _ = aggregation_error_bound(mu, run.rho, dt)
        report = run.report
        self.validation = {
            "err_rel_max": report.err_rel_max,
            "max_occupancy_err": report.max_occupancy_err,
            "mean_rel_outflow_err": report.mean_rel_outflow_err,
            "global_rel_err": report.global_rel_err,
            "observed_delay_gap_s": report.observed_delay_gap_s,
            "aggregation_bound_s": report.aggregation_bound_s,
            "aggregation_floor_bits": floor_bits,
            "des_q_max_bits": float(run.des_result.q_sampled.max()),
            "fluid_q_max_bits": float(run.trajectory.q.max()),
            "drop_bits": float(run.des_result.drop_bits),
            "lost_bits": float(run.trajectory.lost_mass),
            "mass_residual_rel": checks.mass_residual(run.trajectory,
                                                      run.inflow),
        }

    def on_priority_inject(self, args, kwargs, state):
        topology, inflows, priority_inflow = args[:3]
        self.priority_residuals.append(
            checks.state_residual(state, inflows, priority_inflow))

    def on_dt(self, args, kwargs, run):
        self.dt = {
            "l_max": run.l_max,
            "priority_l_max": list(run.priority_l_max),
            "priority_rates": list(run.priority_rates),
            "base_residual_rel": checks.state_residual(run.state, run.inflows),
            "priority_residual_rel": list(self.priority_residuals),
        }

    def on_generate(self, args, kwargs, traces):
        self.counts["traffic.packets"] += sum(len(t) for t in traces)

    def on_simulate(self, args, kwargs, result):
        self.counts["des.packets"] += len(args[0])
        self.counts["des.drops"] += result.drop_count
        self.counts["des.drop_bits"] += result.drop_bits

    def on_integrate(self, args, kwargs, traj):
        self.counts["fluid.calls"] += 1
        self.counts["fluid.steps"] += traj.stats.steps
        self.counts["fluid.rejected"] += traj.stats.rejected
        self.counts["fluid.bins"] += len(traj.grid) - 1

    def on_priority_pair(self, args, kwargs, pair):
        # both classes share one stepper and its stats
        self.on_integrate(args, kwargs, pair[0])

    def on_propagate(self, args, kwargs, state):
        named = ([(f"access{i}", t) for i, t in enumerate(state.access)]
                 + [("core", state.core)]
                 + [(f"egress{j}", t) for j, t in enumerate(state.egress)])
        for name, traj in named:
            self.counts[f"fluid.{name}.steps"] += traj.stats.steps
            self.counts[f"fluid.{name}.rejected"] += traj.stats.rejected


def run_command(spec, cfg, cli):
    timed = bool(spec["trace"])
    obs = Observations()
    tracer = Tracer(obs.observers(timed), timed)
    tracer.install()
    argv = [spec["command"], "--config", spec["config"], "--out", spec["out"],
            "--seed", str(spec["seed"]), "--workers", "1"]
    error = None
    start = time.perf_counter()
    try:
        code = tracer.span("cli.command", cli.main, argv)
        if code != 0:
            error = f"logiq {spec['command']} exited with code {code}"
    except Exception:  # any raise is a failed operation, not a crashed benchmark
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    tracer.restore()

    record = {"wall_s": wall_s, "error": error}
    if spec["command"] == "validate":
        v = obs.validation
        if error or v is None:
            record["ops"] = [[error or "no validation result"]]
        else:
            if spec["check"] == "droptail":
                failures = checks.check_droptail(v, cfg["queue"]["capacity"])
            else:
                failures = checks.check_desk(v, spec["acceptance"])
            record["ops"] = [failures]
            record["validation"] = v
            record["mass_residual_rel"] = v["mass_residual_rel"]
    else:
        n_ops = 1 + len(cfg["network"]["priority_rates"])
        if error or obs.dt is None:
            record["ops"] = [[error or "no dt result"]] * n_ops
        else:
            record["ops"] = checks.check_dt(obs.dt)
            record["mass_residual_rel"] = max(
                [obs.dt["base_residual_rel"]] + obs.dt["priority_residual_rel"])
    if timed:
        record["self_s"] = dict(tracer.self_s)
        record["counts"] = dict(obs.counts)
    return record


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
