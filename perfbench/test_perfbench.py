"""The benchmark's own test: two traced passes over the same inputs give
identical solver and oracle counts and identical accuracy figures.

    python3 -m pytest perfbench/test_perfbench.py

It runs one drop-tail validate (oracle drops, the gated fluid solve) and one
``dt`` command (70 fluid solves) twice each, about a minute in all.
"""

import json

import pytest

import run

with open(run.SPEC) as fh:
    _SPEC = json.load(fh)

# Counts and accuracy depend only on the inputs; times do not.
REPEATABLE = [m["name"] for m in _SPEC["per_layer"]
              if m["unit"] in ("count", "bit", "ratio")
              and m["name"] != "pipeline.oracle_over_model"]


@pytest.mark.parametrize("workload,seed", [("desk_droptail", 42),
                                           ("dt_star", 484)])
def test_traced_counts_repeat_exactly(workload, seed):
    runner = run.Runner(workload, [seed])
    try:
        first = runner.run_pass(trace=True)
        second = runner.run_pass(trace=True)
    finally:
        runner.close()
    assert run.op_tally(first)[1] == 0
    a, b = run.layer_metrics(first), run.layer_metrics(second)
    assert {k: a[k] for k in REPEATABLE} == {k: b[k] for k in REPEATABLE}
    assert a["fluid.steps"] > 0
    if workload == "desk_droptail":
        assert a["des.drops"] > 0 and a["metrics.loss_rel_err"] > 0
