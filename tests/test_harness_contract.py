"""What the benchmark harness in perfbench/ reads of the package.

Its traced mode (``perfbench/run.py --trace 1``) rebinds the layer functions
listed in ``tracing.LAYER_FUNCTIONS`` and hands their results to
``child.Observations``.  perfbench's own test is not part of this suite, so
these checks catch a rename or a deletion that would break a traced run.
The benchmark's untimed gate observes only ``validate_scenario``,
``dt_scenario`` and ``inject_priority_flow``, and its checks read what those
observers keep.  These tests import perfbench's modules and change nothing
there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from logiq import cli, pipeline
from logiq.des import DesConfig, simulate_fifo
from logiq.fluid import QueueSpec, integrate_priority_pair, integrate_queue
from logiq.network import Topology, inject_priority_flow, propagate
from logiq.series import RateSeries, merge_traces
from logiq.traffic import VideoUserParams, generate_users

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOPOLOGY = Topology(access_mu=(25e9, 25e9), core_mu=20e9, core_k=5e9,
                    egress_xi=(15e9, 15e9),
                    routing=np.array([[0.5, 0.5], [0.25, 0.75]]),
                    packet_size_bits=1464 * 8.0)


@pytest.fixture(scope="module")
def harness():
    """perfbench's (tracing, child) modules, imported as run.py's child
    process imports them: from the perfbench directory."""
    names = ("tracing", "checks", "child")
    saved = {name: sys.modules.pop(name) for name in names
             if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield tuple(importlib.import_module(name)
                    for name in ("tracing", "child"))
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def series(values):
    return RateSeries(0.0, 1.0, np.asarray(values, dtype=float))


def test_layer_functions_resolve(harness):
    tracing, _ = harness
    for module_name, attr, _ in tracing.LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def test_observations_read_real_results(harness):
    _, child = harness
    obs = child.Observations()
    n = 60
    x1, x2 = series(np.full(n, 4e9)), series(np.linspace(5e9, 9e9, n))
    spec = QueueSpec(mu=10e9, alpha=1e-10, capacity_k=2e9)
    obs.on_integrate((x2, spec), {}, integrate_queue(x2, spec))
    obs.on_priority_pair((x1, x2, spec), {},
                         integrate_priority_pair(x1, x2, spec))

    inflows = [series(np.full(n, 12e9)), series(np.full(n, 10e9))]
    obs.on_propagate((TOPOLOGY, inflows), {}, propagate(TOPOLOGY, inflows))
    priority = series(np.full(n, 3e9))
    obs.on_priority_inject(
        (TOPOLOGY, inflows, priority), {},
        inject_priority_flow(TOPOLOGY, inflows, priority))

    assert obs.counts["fluid.calls"] == 2
    assert obs.counts["fluid.bins"] == 2 * n
    # no solve takes a step
    assert obs.counts["fluid.steps"] == obs.counts["fluid.rejected"] == 0
    for name in ("access0", "access1", "core", "egress0", "egress1"):
        assert obs.counts[f"fluid.{name}.steps"] == 0
        assert obs.counts[f"fluid.{name}.rejected"] == 0
    [residual] = obs.priority_residuals
    assert residual <= 1e-12


def traced(harness, call):
    """``call()`` under perfbench's untimed tracer, the one its benchmark
    gate installs, and the Observations it filled."""
    tracing, child = harness
    obs = child.Observations()
    tracer = tracing.Tracer(obs.observers(False), False)
    tracer.install()
    try:
        call()
    finally:
        tracer.restore()
    return obs


@pytest.mark.parametrize("capacity", [None, 4e6])
def test_untimed_tracer_reads_validate(harness, capacity):
    # the call passes dt and mu by position, as the CLI does: on_validate
    # reads them from its arguments
    _, child = harness
    params = VideoUserParams()
    obs = traced(harness, lambda: pipeline.validate_scenario(
        params, 3, 3600.0, 60.0, 7, 3 * params.mean_rate_bps / 0.8,
        capacity=capacity))
    v = obs.validation
    assert v is not None and v["des_q_max_bits"] > 0
    assert (v["drop_bits"] > 0) == (capacity is not None)
    assert v["mass_residual_rel"] <= child.checks.MASS_REL


def test_untimed_tracer_reads_dt(harness):
    _, child = harness
    n = 60
    inflows = [series(np.full(n, 12e9)), series(np.full(n, 10e9))]
    obs = traced(harness, lambda: pipeline.dt_scenario(
        TOPOLOGY, inflows, priority_rates=(1e9, 3e9)))
    dt = obs.dt
    assert dt is not None and dt["priority_rates"] == [1e9, 3e9]
    assert len(dt["priority_l_max"]) == 2
    residuals = [dt["base_residual_rel"]] + dt["priority_residual_rel"]
    assert len(residuals) == 3
    assert max(residuals) <= child.checks.MASS_REL


def test_observations_count_packets_and_drops(harness):
    _, child = harness
    obs = child.Observations()
    params, horizon = VideoUserParams(), (0.0, 3600.0)
    traces = generate_users(params, horizon, 7, 3)
    obs.on_generate((params, horizon, 7, 3), {}, traces)
    trace = merge_traces(traces)
    cfg = DesConfig(mu=0.5 * trace.total_bits / horizon[1],
                    capacity_k=20 * params.packet_size_bits, sample_dt=60.0)
    result = simulate_fifo(trace, cfg)
    obs.on_simulate((trace, cfg), {}, result)
    assert obs.counts["traffic.packets"] == obs.counts["des.packets"] == len(
        trace) > 0
    assert obs.counts["des.drops"] == result.drop_count > 0
    assert obs.counts["des.drop_bits"] == result.drop_bits


@pytest.mark.parametrize("command, cfg", [
    ("validate", {}),
    ("dt", {"network": {"priority_rates": [1e9, 3e9]}}),
])
def test_cli_parses_the_harness_argv(harness, tmp_path, command, cfg):
    # run_command builds the argv and hands it to cli.main; here main only
    # parses it with the CLI's own parser
    _, child = harness
    parsed = []

    class ParseOnly:
        @staticmethod
        def main(argv):
            parsed.append(cli.build_parser().parse_args(argv))
            return 0

    spec = {"command": command, "config": str(tmp_path / "cfg.json"),
            "out": str(tmp_path / "out"), "seed": 42, "trace": 0}
    child.run_command(spec, cfg, ParseOnly)
    [args] = parsed
    assert args.command == command and args.seed == 42
    assert args.workers == 1
