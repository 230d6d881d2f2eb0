"""Command-line front end: generate / simulate / validate / sweep / dt.

Every command reads one JSON scenario config (see config.py), writes its
artifacts into --out, and is deterministic given config + seed.
"""

import argparse
import sys
from pathlib import Path

from . import pipeline, plot
from .config import COUNT, WORKERS, ConfigError, load_config
from .fluid import DomainError, QueueSpec, compute_alpha, integrate_queue
from .metrics import DegenerateInputError
from .network import HorizonError, Topology
from .series import (PacketTrace, ParameterError, RateSeries, _write_csv,
                     intensity, mean_rate, merge_traces, trace_to_inflow)
from .traffic import generate_users
from .units import fmt_rate

# the errors of a run whose input is out of the model's domain: an
# ``error:`` line for a command, a failure line for a sweep point
_INPUT_ERRORS = (ParameterError, DomainError, DegenerateInputError,
                HorizonError)


def _write_summary(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            fh.write(f"{key}={value}\n")


def cmd_generate(cfg, out: Path) -> int:
    t = cfg["traffic"]
    horizon = (0.0, t["horizon"])
    traces = generate_users(t["params"], horizon, t["seed"], t["users"])
    for i, trace in enumerate(traces):
        trace.to_csv(out / f"user_{i:03d}.csv")
    merged = (merge_traces(traces, horizon=horizon) if traces else
              PacketTrace((), t["params"].packet_size_bits, horizon))
    merged.to_csv(out / "trace.csv")
    inflow = trace_to_inflow(merged, t["dt"], horizon)
    inflow.to_csv(out / "inflow.csv")

    lam = mean_rate(inflow)
    entries = [("users", t["users"]), ("horizon_s", t["horizon"]),
               ("dt_s", t["dt"]), ("seed", t["seed"]),
               ("lambda_bps", repr(lam)), ("lambda_pretty", fmt_rate(lam))]
    mu = cfg["queue"]["mu"]
    if mu is not None:
        entries.append(("rho", repr(intensity(inflow, mu))))
        if lam > 0:
            entries.append(("alpha_s_per_bit", repr(compute_alpha(inflow, mu))))
        else:
            entries.append(("alpha_s_per_bit", "undefined"))
    elif lam <= 0:
        entries.append(("alpha_s_per_bit", "undefined"))
    _write_summary(out / "summary.txt", entries)
    return 0


def cmd_simulate(cfg, out: Path) -> int:
    t, q = cfg["traffic"], cfg["queue"]
    if q["mu"] is None:
        raise ConfigError("config.queue.mu: required for simulate")
    horizon = (0.0, t["horizon"])
    traces = generate_users(t["params"], horizon, t["seed"], t["users"])
    inflow = trace_to_inflow(traces, t["dt"], horizon)
    inflow.to_csv(out / "inflow.csv")

    alpha = q["alpha"] if q["alpha"] is not None else compute_alpha(inflow, q["mu"])
    spec = QueueSpec(mu=q["mu"], alpha=alpha, q0=q["q0"],
                     capacity_k=q["capacity"])
    traj = integrate_queue(inflow, spec)
    traj.to_csv(out / "trajectory.csv")
    traj.outflow_series().to_csv(out / "outflow.csv")
    _write_summary(out / "summary.txt", [
        ("lambda_bps", repr(mean_rate(inflow))),
        ("rho", repr(intensity(inflow, q["mu"]))),
        ("alpha_s_per_bit", repr(alpha)),
        ("q_max_bits", repr(float(traj.q.max()))),
        ("lost_bits", repr(traj.lost_mass)),
    ])
    return 0


def _validate_once(cfg, seed):
    t, q = cfg["traffic"], cfg["queue"]
    if q["mu"] is None:
        raise ConfigError("config.queue.mu: required for validate")
    return pipeline.validate_scenario(
        t["params"], t["users"], t["horizon"], t["dt"], seed, q["mu"],
        alpha=q["alpha"], q0=q["q0"], capacity=q["capacity"])


def _write_validation(run, out: Path):
    run.inflow.to_csv(out / "inflow.csv")
    run.trajectory.to_csv(out / "trajectory.csv")
    run.des_result.q_to_csv(out / "q_disc.csv")
    run.trajectory.outflow_series().to_csv(out / "outflow_log.csv")
    RateSeries(run.inflow.t0, run.inflow.dt, run.y_disc).to_csv(out / "outflow_disc.csv")
    des = run.des_result
    text = run.report.to_text()
    text += (f"lambda_bps={run.lam!r}\nrho={run.rho!r}\nalpha={run.alpha!r}\n"
             f"runtime_logistic_s={run.runtime_logistic_s!r}\n"
             f"runtime_des_s={run.runtime_des_s!r}\nspeedup={run.speedup!r}\n"
             f"packets={des.packets}\n"
             f"des_drops={des.drop_count}\n"
             f"des_drop_bits={des.drop_bits!r}\n"
             f"lost_bits={run.trajectory.lost_mass!r}\n"
             f"loss_rel_err={run.loss_rel_err!r}\n"
             f"des_loop_packets={des.looped}\n"
             f"des_step_packets={des.stepped}\n"
             f"des_segments={des.segments}\n"
             f"traffic_process={run.traffic_process}\n")
    with open(out / "report.txt", "w") as fh:
        fh.write(text)
    with open(out / "report.csv", "w") as fh:
        fh.write("rho," + run.report.csv_header()
                 + ",des_drop_bits,lost_bits,loss_rel_err"
                 + ",runtime_logistic_s,runtime_des_s\n")
        fh.write(f"{run.rho!r}," + run.report.csv_row()
                 + f",{des.drop_bits!r},{run.trajectory.lost_mass!r}"
                 + f",{run.loss_rel_err!r}"
                 + f",{run.runtime_logistic_s!r},{run.runtime_des_s!r}\n")


def cmd_validate(cfg, out: Path) -> int:
    run = _validate_once(cfg, cfg["traffic"]["seed"])
    _write_validation(run, out)
    return 0


def _sweep_worker(task):
    """One sweep point: its ValidationRun, or the message of the error that
    made the point fail."""
    cfg, rho_target = task
    t, q = cfg["traffic"], cfg["queue"]
    try:
        return pipeline.sweep_point(
            t["params"], t["users"], t["horizon"], t["dt"], t["seed"],
            q["mu"], rho_target, alpha=q["alpha"], q0=q["q0"],
            capacity=q["capacity"])
    except _INPUT_ERRORS as exc:
        return str(exc)


_SWEEP_COLUMNS = ("rho_target", "rho", "err_rel_max", "max_occupancy_err",
                  "mean_rel_outflow_err", "global_rel_err",
                  "baseline_mean_rel_err", "baseline_global_rel_err",
                  "runtime_logistic_s", "runtime_des_s", "speedup")


def cmd_sweep(cfg, out: Path) -> int:
    if cfg["queue"]["mu"] is None:
        raise ConfigError("config.queue.mu: required for sweep")
    targets = cfg["sweep"]["rho_targets"]
    tasks = [(cfg, rho) for rho in targets]
    if cfg["workers"] > 1 and len(tasks) > 1:
        # imported here: only a parallel sweep needs the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = list(map(_sweep_worker, tasks))
    rows, failures = [], []
    for rho_target, run in zip(targets, results):
        if isinstance(run, str):
            failures.append((rho_target, run))
            continue
        r = run.report
        rows.append((rho_target, run.rho, r.err_rel_max, r.max_occupancy_err,
                     r.mean_rel_outflow_err, r.global_rel_err,
                     r.baseline_mean_rel_err, r.baseline_global_rel_err,
                     run.runtime_logistic_s, run.runtime_des_s, run.speedup))

    with open(out / "sweep.csv", "w") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    if failures:
        with open(out / "failures.txt", "w") as fh:
            for rho, msg in failures:
                fh.write(f"rho_target={rho}: {msg}\n")

    if rows:
        rho = [r[1] for r in rows]
        for col_idx, name in ((2, "err_rel_max"), (3, "max_occupancy_err"),
                              (8, "runtime_logistic_s"), (9, "runtime_des_s")):
            plot.line_plot(out / f"{name}_vs_rho.svg",
                           [(name, rho, [r[col_idx] for r in rows])],
                           title=f"{name} vs intensity", xlabel="rho",
                           ylabel=name)
        plot.line_plot(out / "global_rel_err_vs_rho.svg",
                       [("logistic", rho, [r[5] for r in rows]),
                        ("no-queue", rho, [r[7] for r in rows])],
                       title="global relative outflow error", xlabel="rho",
                       ylabel="error")
        plot.line_plot(out / "mean_rel_err_vs_rho.svg",
                       [("logistic", rho, [r[4] for r in rows]),
                        ("no-queue", rho, [r[6] for r in rows])],
                       title="mean relative outflow error", xlabel="rho",
                       ylabel="error")
    return 0 if not failures else 1


def _build_topology(net):
    return Topology(access_mu=net["access_mu"], core_mu=net["core_mu"],
                    core_k=net["core_k"], egress_xi=net["egress_xi"],
                    routing=net["routing"],
                    packet_size_bits=net["packet_size"])


def cmd_dt(cfg, out: Path) -> int:
    net = cfg["network"]
    if net is None:
        raise ConfigError("config.network: required for dt")
    if net["core_mu"] is None or net["core_k"] is None:
        raise ConfigError("config.network.core: mu and capacity are required")
    topology = _build_topology(net)
    flows = net["flows"]
    inflows = pipeline.generate_flow_inflows(
        flows["params"], topology.n_origins, flows["users_per_flow"],
        flows["horizon"], flows["dt"], flows["seed"],
        target_rate=flows["target_rate"],
        warmup_s=flows["warmup"])
    run = pipeline.dt_scenario(topology, inflows,
                               priority_rates=net["priority_rates"])

    for i, inflow in enumerate(run.inflows):
        inflow.to_csv(out / f"flow_{i}.csv")
    run.state.core.to_csv(out / "core_trajectory.csv")
    _write_csv(out / "l_od.csv", "t_s,L_od_s\n", "%.9f,%r\n",
               run.latency_times, run.latency_od)
    plot.line_plot(out / "l_od.svg",
                   [("L_od", run.latency_times, run.latency_od)],
                   title="expected latency", xlabel="t (s)", ylabel="L_od (s)")
    entries = [("l_max_s", repr(run.l_max))]
    if run.priority_rates:
        with open(out / "l_max_vs_priority.csv", "w") as fh:
            fh.write("priority_bps,l_max_s\n")
            for rate, lmax in zip(run.priority_rates, run.priority_l_max):
                fh.write(f"{rate!r},{lmax!r}\n")
        plot.line_plot(out / "l_max_vs_priority.svg",
                       [("L_max", run.priority_rates, run.priority_l_max)],
                       title="max expected latency vs priority rate",
                       xlabel="priority inflow (b/s)", ylabel="L_max (s)")
        entries.extend((f"l_max_priority_{fmt_rate(r)}", repr(l))
                       for r, l in zip(run.priority_rates, run.priority_l_max))
    entries.append(("traffic_process", run.traffic_process))
    _write_summary(out / "summary.txt", entries)
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "dt": cmd_dt,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="logiq",
                                     description="logistic queue model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seeds")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers for sweep points")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["traffic"]["seed"] = COUNT.read(args.seed, "--seed")
            if cfg["network"] is not None:
                cfg["network"]["flows"]["seed"] = args.seed
        if args.workers is not None:
            cfg["workers"] = WORKERS.read(args.workers, "--workers")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
