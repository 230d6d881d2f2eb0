"""End-to-end CLI runs on tiny scenarios."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from logiq import pipeline, series
from logiq.cli import main
from logiq.des import simulate_fifo
from logiq.metrics import DegenerateInputError
from logiq.series import ParameterError

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = {
    "traffic": {"users": 3, "horizon": "1800 s", "dt": "60 s", "seed": 1},
    "queue": {"mu": "3.4 Mb/s"},
}

NETWORK = {
    "network": {
        "access_mu": ["25 Gb/s", "25 Gb/s"],
        "core": {"mu": "100 Gb/s", "capacity": "25 GB"},
        "egress_xi": ["20 Gb/s", "20 Gb/s"],
        "routing": [[0.5, 0.5], [0.25, 0.75]],
        "priority_rates": ["0 Gb/s", "5 Gb/s"],
        "flows": {"users_per_flow": 3, "target_rate": "12.5 Gb/s",
                  "horizon": "300 s", "dt": "10 s", "seed": 3,
                  "warmup": "1 d"},
    }
}


def run(tmp_path, command, payload, name="cfg.json", extra=()):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(payload))
    # one directory per config: two runs of a test do not share their files
    out = tmp_path / f"out_{command}_{Path(name).stem}"
    return main([command, "--config", str(cfg), "--out", str(out), *extra]), out


class TestCommands:
    def test_generate(self, tmp_path):
        code, out = run(tmp_path, "generate", BASE)
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "inflow.csv").exists()
        assert (out / "user_000.csv").exists()
        assert "lambda_bps=" in (out / "summary.txt").read_text()

    def test_simulate(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE)
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "outflow.csv").exists()
        assert "q_max_bits=" in (out / "summary.txt").read_text()
        stats = dict(line.split("=", 1) for line in
                     (out / "solver_stats.txt").read_text().splitlines())
        assert set(stats) == {"steps", "rejected", "closed_form",
                              "max_negative_q"}
        for value in stats.values():
            float(value)  # plain numbers, not numpy reprs

    def test_simulate_zero_users_keeps_horizon(self, tmp_path):
        payload = {"traffic": {"users": 0, "horizon": "600 s", "dt": "60 s"},
                   "queue": {"mu": "1 Mb/s", "alpha": 1e-6}}
        code, out = run(tmp_path, "simulate", payload)
        assert code == 0
        rows = (out / "inflow.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_generate_zero_users_writes_the_header(self, tmp_path):
        # no trace to merge: trace.csv holds the header alone
        payload = {"traffic": {"users": 0, "horizon": "600 s", "dt": "60 s"}}
        code, out = run(tmp_path, "generate", payload)
        assert code == 0
        assert (out / "trace.csv").read_text() == "t_arrival_s,size_bits\n"
        rows = (out / "inflow.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_validate(self, tmp_path):
        code, out = run(tmp_path, "validate", BASE)
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "err_rel_max=" in report and "speedup=" in report
        assert "des_loop_packets=0\n" in report   # infinite buffer: no loop
        assert "des_step_packets=0\n" in report
        assert "traffic_process=child\n" in report
        # infinite buffer: neither the fluid nor the oracle loses
        assert "lost_bits=0.0\nloss_rel_err=0.0\n" in report
        assert (out / "q_disc.csv").exists()
        # the oracle saw every packet of the merged trace
        _, gen = run(tmp_path, "generate", BASE)
        n_packets = len((gen / "trace.csv").read_text().splitlines()) - 1
        assert n_packets > 0
        assert f"packets={n_packets}\n" in report.splitlines(keepends=True)

    def test_validate_inline_traffic(self, tmp_path, monkeypatch):
        # without os.fork the traffic is drawn in the process itself, with
        # the same files
        _, child = run(tmp_path, "validate", BASE, name="a.json")
        monkeypatch.delattr(os, "fork")
        code, inline = run(tmp_path, "validate", BASE, name="b.json")
        assert code == 0
        for name in ("inflow.csv", "q_disc.csv", "outflow_disc.csv",
                     "outflow_log.csv", "trajectory.csv"):
            assert (child / name).read_bytes() == (inline / name).read_bytes()
        reports = [(out / "report.txt").read_text().splitlines()
                   for out in (child, inline)]
        kept = [[line for line in r if not line.startswith(
            ("runtime_", "speedup=", "traffic_process="))] for r in reports]
        assert kept[0] == kept[1]
        assert "traffic_process=inline" in reports[1]

    def test_validate_horizon_not_whole_bins(self, tmp_path):
        # 150 s in 60 s bins: three inflow bins, the last reaching 180 s,
        # and the backlog sampled at their four edges
        payload = {**BASE, "traffic": {"users": 10, "horizon": "150 s",
                                       "dt": "60 s", "seed": 3}}
        code, out = run(tmp_path, "validate", payload)
        assert code == 0
        assert len((out / "inflow.csv").read_text().splitlines()) == 1 + 3
        rows = (out / "q_disc.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0, 60, 120, 180]
        assert float(rows[2].split(",")[1]) > 0

    def test_python_m_logiq_runs_from_source(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "logiq", "validate", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "packets=" in (tmp_path / "out" / "report.txt").read_text()

    def test_validate_drop_tail_reports_looped_packets(self, tmp_path):
        # segments of one bin: the oracle sees the trace in 30 pieces
        payload = {**BASE, "queue": {"mu": "3.4 Mb/s", "capacity": "100 kB"}}
        segments = []

        def spy(trace, cfg, carry):
            segments.append((len(trace), simulate_fifo(trace, cfg, carry)))
            return segments[-1][1]

        with mock.patch.object(pipeline, "simulate_fifo", spy), \
                mock.patch.object(pipeline, "_SEGMENT_PACKETS", 1):
            code, out = run(tmp_path, "validate", payload)
        assert code == 0
        report = dict(line.split("=", 1) for line in
                      (out / "report.txt").read_text().splitlines())
        assert int(report["des_segments"]) == len(segments) == 30
        parts = [part for _, part in segments]
        drops = sum(part.drop_count for part in parts)
        assert int(report["des_drops"]) == drops > 0
        # integer sizes: the segments' dropped bits add up exactly
        assert float(report["des_drop_bits"]) == sum(
            part.drop_bits for part in parts) > 0.0
        # every generated packet reaches the oracle, and departs or is
        # dropped
        _, gen = run(tmp_path, "generate", payload)
        n_packets = len((gen / "trace.csv").read_text().splitlines()) - 1
        assert int(report["packets"]) == n_packets == sum(
            n for n, _ in segments) == (
            sum(len(part.departures) for part in parts) + drops)
        # des_loop_packets: the busy runs walked from a drop to the next
        # idle arrival; des_step_packets: the loop's scalar steps, which one
        # size takes only at a few binade crossings
        assert int(report["packets"]) > int(report["des_loop_packets"]) > 0
        assert int(report["des_loop_packets"]) == sum(
            part.looped for part in parts)
        assert 0 <= int(report["des_step_packets"]) <= 64
        # the fluid's lost bits beside the oracle's, in both reports; its 60
        # s bins average away the bursts that overflow 100 kB
        lost = float(report["lost_bits"])
        dropped = float(report["des_drop_bits"])
        assert lost >= 0.0
        assert float(report["loss_rel_err"]) == (lost - dropped) / dropped
        header, row = (out / "report.csv").read_text().splitlines()
        columns = dict(zip(header.split(","), row.split(",")))
        for key in ("des_drop_bits", "lost_bits", "loss_rel_err"):
            assert columns[key] == report[key]

    def test_import_leaves_the_process_pool_out(self):
        # only a parallel sweep needs concurrent.futures.process, and only
        # a forked traffic child needs logiq.producer
        code = ("import sys, logiq.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules "
                "or 'logiq.producer' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_validate_deterministic(self, tmp_path):
        _, out1 = run(tmp_path, "validate", BASE, name="a.json")
        code, out2 = run(tmp_path, "validate", dict(BASE), name="b.json")
        assert code == 0
        # same config, twice: byte-identical artifacts, apart from the
        # measured runtimes
        for name in ("inflow.csv", "trajectory.csv", "q_disc.csv",
                     "outflow_log.csv", "outflow_disc.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = [[line.split(",")[:-2] for line in
                 (out / "report.csv").read_text().splitlines()]
                for out in (out1, out2)]
        assert rows[0] == rows[1]

    def test_seed_override_changes_output(self, tmp_path):
        _, out1 = run(tmp_path, "validate", BASE, name="a.json")
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(BASE))
        out2 = tmp_path / "out_seeded"
        code = main(["validate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "77"])
        assert code == 0
        assert (out1 / "inflow.csv").read_bytes() != (out2 / "inflow.csv").read_bytes()

    def test_sweep(self, tmp_path):
        payload = dict(BASE)
        payload["sweep"] = {"rho_targets": [0.5, 0.7]}
        code, out = run(tmp_path, "sweep", payload)
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 points
        assert (out / "global_rel_err_vs_rho.svg").exists()

    def test_sweep_workers_flag(self, tmp_path):
        payload = dict(BASE)
        payload["sweep"] = {"rho_targets": [0.5, 0.7]}
        code, out = run(tmp_path, "sweep", payload, extra=("--workers", "2"))
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_dt(self, tmp_path):
        payload = dict(BASE)
        payload.update(NETWORK)
        with mock.patch("logiq.cli._write_csv",
                        wraps=series._write_csv) as write:
            code, out = run(tmp_path, "dt", payload)
        assert code == 0
        # l_od.csv is byte for byte what one f-string per sample wrote
        (path, _, _, times, l_od), _ = write.call_args
        assert path == out / "l_od.csv"
        assert path.read_text() == "t_s,L_od_s\n" + "".join(
            f"{t:.9f},{float(v)!r}\n" for t, v in zip(times, l_od))
        assert (out / "l_max_vs_priority.csv").exists()
        assert (out / "l_od.svg").exists()
        summary = (out / "summary.txt").read_text()
        assert "l_max_s=" in summary
        assert summary.endswith("traffic_process=child\n")
        lines = (out / "solver_stats.csv").read_text().splitlines()
        assert lines[0] == "queue,steps,rejected,closed_form,max_negative_q"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["access0", "access1", "core",
                                        "egress0", "egress1"]
        for row in rows:
            assert all(int(v) >= 0 for v in row[1:4])
            float(row[4])
        # the priority re-solves reuse the base's access queues, so only the
        # pair and the egress queues get rows, once per rate
        lines = (out / "solver_stats_priority.csv").read_text().splitlines()
        assert lines[0] == ("priority_bps,queue,steps,rejected,closed_form,"
                            "max_negative_q")
        rows = [line.split(",") for line in lines[1:]]
        queues = ["core_priority", "core", "egress0", "egress1"]
        assert [(float(r[0]), r[1]) for r in rows] == (
            [(0.0, q) for q in queues] + [(5e9, q) for q in queues])
        for row in rows:
            assert all(int(v) >= 0 for v in row[2:5])
            float(row[5])

    def test_dt_inline_traffic(self, tmp_path, monkeypatch):
        # without os.fork every flow is drawn in the process itself, with
        # the same files
        payload = {**BASE, **NETWORK}
        _, child = run(tmp_path, "dt", payload, name="a.json")
        monkeypatch.delattr(os, "fork")
        code, inline = run(tmp_path, "dt", payload, name="b.json")
        assert code == 0
        names = sorted(p.name for p in child.iterdir())
        assert names == sorted(p.name for p in inline.iterdir())
        for name in names:
            if name != "summary.txt":
                assert ((child / name).read_bytes()
                        == (inline / name).read_bytes()), name
        summaries = [(out / "summary.txt").read_text().splitlines()
                     for out in (child, inline)]
        assert summaries[0][:-1] == summaries[1][:-1]
        assert (summaries[0][-1], summaries[1][-1]) == (
            "traffic_process=child", "traffic_process=inline")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"queue": {"bogus_key": 1}})
        assert code == 2

    def test_missing_mu_is_2(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"traffic": {"users": 1}})
        assert code == 2

    def test_runtime_error_is_1(self, tmp_path):
        # zero users leaves the inflow empty; alpha cannot be derived
        payload = {"traffic": {"users": 0, "horizon": "600 s"},
                   "queue": {"mu": "1 Mb/s"}}
        code, _ = run(tmp_path, "validate", payload)
        assert code == 1

    def test_producer_error_is_1(self, tmp_path, capsys):
        # a ParameterError raised where the traffic is drawn, in the child
        # process, reaches the command with its message
        def failing_runs(*args):
            def broken():
                yield np.array([1.0, 2.0])
                raise ParameterError("burst 2 is malformed")
            return [broken()]

        with mock.patch.object(pipeline, "user_chunks", failing_runs):
            code, _ = run(tmp_path, "validate", BASE)
        assert code == 1
        assert capsys.readouterr().err == "error: burst 2 is malformed\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_backlog_that_is_not_a_number_is_2(self, tmp_path, capsys):
        # a NaN q0 (JSON's NaN literal) used to pass the config's parsing
        # and be refused by QueueSpec with exit 1; every number the config
        # reads is finite, so it is a config error that names the field
        payload = {**BASE, "queue": {"mu": "3.4 Mb/s", "q0": float("nan")}}
        code, _ = run(tmp_path, "simulate", payload)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.queue.q0: ")

    def test_queue_never_built_is_1(self, tmp_path, capsys):
        # the oracle's backlog is 0 at every sample, so the relative
        # occupancy error has no reference
        payload = {"traffic": {"users": 30, "horizon": "150 s", "dt": "60 s",
                               "seed": 1},
                   "queue": {"mu": "3.4 Mb/s"}}
        code, _ = run(tmp_path, "validate", payload)
        assert code == 1
        assert (capsys.readouterr().err
                == "error: reference queue is identically zero\n")

    def test_sweep_point_without_a_queue_is_a_failure(self, tmp_path):
        sweep_point = pipeline.sweep_point

        def degenerate_at_half(*args, **kwargs):
            if args[6] == 0.5:
                raise DegenerateInputError("reference queue is identically "
                                           "zero")
            return sweep_point(*args, **kwargs)

        payload = dict(BASE, sweep={"rho_targets": [0.5, 0.7]})
        with mock.patch.object(pipeline, "sweep_point", degenerate_at_half):
            code, out = run(tmp_path, "sweep", payload)
        assert code == 1
        assert ((out / "failures.txt").read_text()
                == "rho_target=0.5: reference queue is identically zero\n")
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.7]

    def test_nan_packet_size_is_2(self, tmp_path, capsys):
        # json writes and reads the NaN literal; the config refuses it, as
        # it does a traffic packet_size
        payload = dict(BASE)
        payload["network"] = dict(NETWORK["network"], packet_size=float("nan"))
        code, _ = run(tmp_path, "dt", payload)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.network.packet_size: expected a whole "
            "number of bits > 0, got NaN")

    def test_packet_beyond_the_window_is_1(self, tmp_path, capsys):
        # 10 TB takes 3 200 s to cross a 25 Gb/s access link, longer than
        # the 300 s window, so no departure time has a latency
        payload = dict(BASE)
        payload["network"] = dict(NETWORK["network"], packet_size="10 TB")
        code, _ = run(tmp_path, "dt", payload)
        assert code == 1
        assert (capsys.readouterr().err
                == "error: no evaluable latency window\n")

    def test_infinite_user_count_is_2(self, tmp_path, capsys):
        # JSON reads 1e999 as inf, which int() cannot convert
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"traffic": {"users": 1e999}, '
                       '"queue": {"mu": "3.4 Mb/s"}}')
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.traffic.users: ")

    def test_scaled_validation_rejected(self, tmp_path, capsys):
        # the oracle runs on the packets as drawn: no key scales the rates
        payload = dict(BASE)
        payload["traffic"] = dict(BASE["traffic"], rate_scale=2.0)
        code, _ = run(tmp_path, "validate", payload)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: config.traffic.rate_scale: unknown key\n")

    def test_scaled_sweep_rejected(self, tmp_path, capsys):
        # each point validates against the oracle, which runs on the
        # packets as drawn: the sweep used to drop the scale silently
        payload = dict(BASE, sweep={"rho_targets": [0.5]})
        payload["traffic"] = dict(BASE["traffic"], rate_scale=2.0)
        code, out = run(tmp_path, "sweep", payload)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: config.traffic.rate_scale: unknown key\n")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_2(self, tmp_path, capsys, workers):
        # as "workers": 0 in the config is; the flag was clamped to 1
        payload = dict(BASE, sweep={"rho_targets": [0.5]})
        code, out = run(tmp_path, "sweep", payload,
                        extra=("--workers", workers))
        assert code == 2
        assert (capsys.readouterr().err
                == "config error: --workers: must be >= 1\n")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("flow", [0, 1], ids=["parent", "child"])
    def test_idle_flow_is_1(self, tmp_path, capsys, flow):
        # one flow draws no packet, so it cannot be rescaled: flow 0 is
        # drawn in this process, flow 1 in the forked child
        user_traces = pipeline._user_traces

        def idle_at(params, horizon, seed, n_users, warmup_s):
            if seed.spawn_key[-1] == flow:
                return iter(())
            return user_traces(params, horizon, seed, n_users, warmup_s)

        with mock.patch.object(pipeline, "_user_traces", idle_at):
            code, out = run(tmp_path, "dt", {**BASE, **NETWORK})
        assert code == 1
        assert (capsys.readouterr().err
                == "error: cannot rescale an all-idle flow\n")
        assert not (out / "summary.txt").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _with_seed(command, seed):
    """The tiny payload of ``command`` with its config seed set to ``seed``."""
    if command == "dt":
        flows = dict(NETWORK["network"]["flows"], seed=seed)
        return {**BASE, "network": dict(NETWORK["network"], flows=flows)}
    return {**BASE, "traffic": dict(BASE["traffic"], seed=seed),
            "sweep": {"rho_targets": [0.5]}}


COMMANDS = ("generate", "simulate", "validate", "sweep", "dt")


class TestNegativeSeed:
    """A negative seed is a config error that names its field, before any
    traffic is drawn."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_seed_is_2(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, _with_seed(command, -1))
        assert code == 2
        field = ("config.network.flows.seed" if command == "dt"
                 else "config.traffic.seed")
        assert (capsys.readouterr().err
                == f"config error: {field}: must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_seed_flag_is_2(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, _with_seed(command, 1),
                        extra=("--seed", "-1"))
        assert code == 2
        assert (capsys.readouterr().err
                == "config error: --seed: must be >= 0\n")
        assert not out.exists()


def test_negative_users_per_flow_is_2(tmp_path, capsys):
    flows = dict(NETWORK["network"]["flows"], users_per_flow=-3)
    payload = {**BASE, "network": dict(NETWORK["network"], flows=flows)}
    code, _ = run(tmp_path, "dt", payload)
    assert code == 2
    assert (capsys.readouterr().err == "config error: "
            "config.network.flows.users_per_flow: must be >= 0\n")
