"""What the benchmark harness in perfbench/ reads of the package.

Its traced mode (``perfbench/run.py --trace 1``) rebinds the layer functions
listed in ``tracing.LAYER_FUNCTIONS`` and hands their results to
``child.Observations``.  perfbench's own test is not part of this suite, so
these checks catch a rename or a deletion that would break a traced run.
They import perfbench's modules and change nothing there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from logiq.fluid import QueueSpec, integrate_priority_pair, integrate_queue
from logiq.network import Topology, inject_priority_flow, propagate
from logiq.series import RateSeries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

    topology = Topology(access_mu=(25e9, 25e9), core_mu=20e9, core_k=5e9,
                        egress_xi=(15e9, 15e9),
                        routing=np.array([[0.5, 0.5], [0.25, 0.75]]),
                        packet_size_bits=1464 * 8.0)
    inflows = [series(np.full(n, 12e9)), series(np.full(n, 10e9))]
    obs.on_propagate((topology, inflows), {}, propagate(topology, inflows))
    priority = series(np.full(n, 3e9))
    obs.on_priority_inject(
        (topology, inflows, priority), {},
        inject_priority_flow(topology, inflows, priority))

    assert obs.counts["fluid.calls"] == 2
    assert obs.counts["fluid.bins"] == 2 * n
    # no solve takes a step
    assert obs.counts["fluid.steps"] == obs.counts["fluid.rejected"] == 0
    for name in ("access0", "access1", "core", "egress0", "egress1"):
        assert obs.counts[f"fluid.{name}.steps"] == 0
        assert obs.counts[f"fluid.{name}.rejected"] == 0
    [residual] = obs.priority_residuals
    assert residual <= 1e-12
