"""The finite buffer against packets: the fluid's lost bits against the
drop-tail oracle's dropped bits, and its backlog against the oracle's
samples, on the desk drop-tail scenario (10 video users, 6 h, an 11.33 Mb/s
link with a 25 MB buffer) at two bin widths."""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from logiq.pipeline import ValidationRun, validate_scenario
from logiq.traffic import VideoUserParams

MU = 11.33e6
CAPACITY = 25 * 8e6     # 25 MB
HORIZON = 6 * 3600.0

# Bounds by bin width (s).  Binning averages away bursts of a few seconds
# that overflow the buffer, so the fluid loses less than the oracle drops,
# and less so at finer bins.  Measured on seeds 42 / 65: loss error -0.052 /
# -0.050 at 60 s and -0.023 / -0.011 at 10 s; err_rel_max 0.074 / 0.064 and
# 0.030 / 0.028.
LOSS_ERR = {60.0: 0.08, 10.0: 0.035}
ERR_REL_MAX = {60.0: 0.10, 10.0: 0.045}


@pytest.mark.parametrize("seed", [42, 65])
def test_loss_and_backlog_track_the_oracle(seed):
    errors = {}
    for dt in (60.0, 10.0):
        run = validate_scenario(VideoUserParams(), 10, HORIZON, dt, seed, MU,
                                capacity=CAPACITY)
        assert run.des_result.drop_bits > 0.0
        assert -LOSS_ERR[dt] <= run.loss_rel_err < 0.0
        assert run.report.err_rel_max <= ERR_REL_MAX[dt]
        errors[dt] = run.loss_rel_err
    assert abs(errors[10.0]) < abs(errors[60.0])


@pytest.mark.parametrize("lost, dropped, expected", [
    (0.0, 0.0, 0.0), (5.0, 0.0, math.inf), (3.0, 4.0, -0.25)],
    ids=["neither", "fluid_only", "both"])
def test_loss_rel_err(lost, dropped, expected):
    fields = {f.name: None for f in dataclasses.fields(ValidationRun)}
    run = ValidationRun(**{**fields,
                           "trajectory": SimpleNamespace(lost_mass=lost),
                           "des_result": SimpleNamespace(drop_bits=dropped)})
    assert run.loss_rel_err == expected
