"""Benchmark of the user-facing ``logiq validate`` and ``logiq dt`` commands.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 28 --trace 0

Run it from the root of a checkout.  Each command runs through
``logiq.cli.main`` with ``--workers 1``, one at a time (a closed loop with
one client), each in a fresh interpreter started by this script.  A run
repeats the workload's pass of commands while another pass still fits in
``--seconds``; there is always at least one pass.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one pass with every layer function wrapped and reports
the per-layer metrics.  The last line of standard output is the result
object; the lines before it are the same numbers for people, the run's
stamp and the accuracy figures.  README.md in this directory says what
each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"

# tests/test_acceptance.py asserts criteria 2 and 7 on these desk seeds, and
# criterion 6 on dt_star.json's own flow seed.
DESK_ACCEPTANCE_SEEDS = (42, 49, 52, 65, 78)
DT_ACCEPTANCE_SEEDS = (484,)
# Two of them keep a drop-tail run near 30 s: seed 42, and seed 65, which
# drops the most packets at 25 MB (275 k).
DROPTAIL_SEEDS = (42, 65)

# name: (command, config, acceptance seeds, held-out inputs per pass, check)
WORKLOADS = {
    "desk": ("validate", ROOT / "scenarios" / "desk_validate.json",
             DESK_ACCEPTANCE_SEEDS, 1, "desk"),
    "desk_droptail": ("validate", BENCH / "desk_droptail.json",
                      DROPTAIL_SEEDS, 1, "droptail"),
    # No held-out input: on some flow seeds `logiq dt` never finishes (see
    # README.md), so dt_star repeats its own seed while a pass fits.
    "dt_star": ("dt", ROOT / "scenarios" / "dt_star.json",
                DT_ACCEPTANCE_SEEDS, 0, "dt"),
}

SETUP_PROBES = 5       # set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 150

# per-layer metric -> span whose self time it reports
LAYER_SPANS = {
    "traffic.generate_s": "traffic.generate",
    "series.merge_s": "series.merge",
    "series.bin_s": "series.bin",
    "des.simulate_s": "des.simulate",
    "des.outflow_bin_s": "des.outflow_bin",
    "fluid.integrate_s": "fluid.integrate",
    "fluid.priority_s": "fluid.priority",
    "network.propagate_s": "network.propagate",
    "network.priority_inject_s": "network.priority_inject",
    "network.latency_s": "network.latency",
    "metrics.report_s": "metrics.report",
    "cli.write_s": "cli.command",  # the command minus its pipeline calls
}
BASE_QUEUES = ([f"access{i}" for i in range(4)] + ["core"]
               + [f"egress{j}" for j in range(5)])


class Runner:
    """Starts the child interpreters; its scratch directory lives in the
    checkout and is removed by ``close``."""

    def __init__(self, workload, seeds):
        self.workload = workload
        self.command, self.config, self.acceptance, _, self.check = WORKLOADS[workload]
        self.seeds = list(seeds)
        self.scratch = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._n = 0

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def child(self, **spec):
        """One fresh interpreter; returns its record, or an error string."""
        self._n += 1
        result = self.scratch / f"result-{self._n}.json"
        out = self.scratch / f"out-{self._n}"
        spec = {"src": str(ROOT / "src"), "config": str(self.config),
                "check": self.check, "out": str(out), "result": str(result),
                **spec}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {CHILD_TIMEOUT_S} s"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0 or not result.is_file():
            return f"child exited with {proc.returncode}: {proc.stderr[-2000:]}"
        record = json.loads(result.read_text())
        result.unlink()
        return record

    def probe(self):
        return self.child(command=None)

    def op_count(self):
        if self.command == "validate":
            return 1
        with open(self.config) as fh:
            return 1 + len(json.load(fh)["network"]["priority_rates"])

    def command_run(self, seed, trace):
        record = self.child(command=self.command, seed=seed, trace=trace,
                            acceptance=seed in self.acceptance)
        if isinstance(record, str):
            record = {"error": record, "ops": [[record]] * self.op_count()}
        record["seed"] = seed
        record["acceptance"] = seed in self.acceptance
        return record

    def run_pass(self, trace):
        return [self.command_run(seed, trace) for seed in self.seeds]


def op_tally(records):
    ops = [failures for r in records for failures in r["ops"]]
    return len(ops), sum(1 for failures in ops if failures)


def report_failures(records):
    for r in records:
        for k, failures in enumerate(r["ops"]):
            if failures:
                print(f"FAILED seed {r['seed']} op {k}: {'; '.join(failures)}",
                      file=sys.stderr)


def measure_end_to_end(runner, seconds):
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.probe()
        if isinstance(probe, str):
            raise RuntimeError(f"set-up probe failed: {probe}")
        setups.append(probe["setup_s"])
    passes, records = [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        done = runner.run_pass(trace=False)
        records += done
        passes.append(sum(r.get("wall_s", 0.0) for r in done))
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break
    setups += [r["setup_s"] for r in records if "setup_s" in r]
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in records),
    }
    notes = {"passes": len(passes), "setup_samples": len(setups),
             "command_wall_s": [round(r.get("wall_s", 0.0), 3) for r in records]}
    return metrics, records, notes


def measure_layers(runner):
    records = runner.run_pass(trace=True)
    # the same first command untraced, for the tracing overhead
    untraced = runner.command_run(runner.seeds[0], trace=False)
    m = layer_metrics(records)
    m["trace.overhead_s"] = (records[0].get("wall_s", 0.0)
                             - untraced.get("wall_s", 0.0))
    return m, records + [untraced]


def layer_metrics(records):
    """Per-layer metrics of one traced pass, except the tracing overhead."""
    self_s, counts = {}, {}
    for r in records:
        for key, value in r.get("self_s", {}).items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in r.get("counts", {}).items():
            counts[key] = counts.get(key, 0.0) + value

    m = {name: self_s.get(span, 0.0) for name, span in LAYER_SPANS.items()}
    for key in ("traffic.packets", "des.drops", "des.drop_bits",
                "fluid.calls", "fluid.steps", "fluid.rejected"):
        m[key] = counts.get(key, 0.0)
    for queue in BASE_QUEUES:
        for stat in ("steps", "rejected"):
            m[f"fluid.{queue}.{stat}"] = counts.get(f"fluid.{queue}.{stat}", 0.0)
    m["des.packets_per_s"] = _ratio(counts.get("des.packets", 0.0),
                                    m["des.simulate_s"])
    m["fluid.accept_ratio"] = _ratio(m["fluid.steps"],
                                     m["fluid.steps"] + m["fluid.rejected"])
    m["fluid.steps_per_bin"] = _ratio(m["fluid.steps"],
                                      counts.get("fluid.bins", 0.0))
    m["fluid.mass_residual_rel"] = max(
        (r["mass_residual_rel"] for r in records if "mass_residual_rel" in r),
        default=0.0)
    # Criterion 7's ratio.  It is kept out of the end-to-end set on purpose:
    # a faster oracle lowers it, and a gate on it would reject that fix.
    m["pipeline.oracle_over_model"] = _ratio(m["des.simulate_s"],
                                             m["fluid.integrate_s"])
    m.update(accuracy(records))
    return m


def accuracy(records):
    """Worst acceptance seed's model-vs-oracle errors (0 without an oracle).

    Off the acceptance seeds the backlog may stay below criterion 2's
    aggregation floor, where these measures say nothing about the model.
    """
    runs = [r["validation"] for r in records
            if r["acceptance"] and "validation" in r]
    dropped = [v for v in runs if v["drop_bits"] > 0]
    return {
        "metrics.global_rel_err": max((v["global_rel_err"] for v in runs),
                                      default=0.0),
        "metrics.max_occupancy_err": max(
            (v["max_occupancy_err"] for v in runs), default=0.0),
        "metrics.loss_rel_err": max(
            (abs(v["lost_bits"] - v["drop_bits"]) / v["drop_bits"]
             for v in dropped), default=0.0),
    }


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def stamp(runner, probe, args):
    src = sorted((ROOT / "src" / "logiq").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seeds": runner.seeds,
            "acceptance_seeds": list(runner.acceptance), "trace": args.trace,
            **probe["stamp"], "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed of the run's held-out inputs (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    command, config, acceptance, held_out, _ = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "logiq" / "cli.py", config, SPEC]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The acceptance seeds keep the workload in the regime its criteria
    # cover; inputs from the run's own seed make runs differ.
    runner = Runner(args.workload, acceptance + tuple(
        args.seed + k for k in range(held_out)))
    try:
        probe = runner.probe()  # also compiles the bytecode before timing
        if isinstance(probe, str):
            print(f"cannot import logiq: {probe}", file=sys.stderr)
            return 1
        if args.trace:
            values, records = measure_layers(runner)
            notes = {}
        else:
            values, records, notes = measure_end_to_end(runner, args.seconds)
        run_stamp = stamp(runner, probe, args)
    finally:
        runner.close()

    attempted, failed = op_tally(records)
    report_failures(records)
    print(f"logiq {command}: workload {args.workload}, seeds {runner.seeds}, "
          f"trace {args.trace} {notes}")
    print("stamp " + json.dumps(run_stamp))
    for metric in listed:
        print(f"  {metric['name']:<28} {values[metric['name']]:.6g} {metric['unit']}")
    print(f"  {'failed_share':<28} {_ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    if command == "validate" and not args.trace:
        for name, value in accuracy(records).items():
            print(f"  {name:<28} {value:.6g} (worst acceptance seed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
