"""Quick-look SVG plots: axis ticks on ordinary and degenerate ranges."""

import math

import pytest

from logiq.plot import _ticks, line_plot


def test_ordinary_range_ticks():
    assert _ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    ticks = _ticks(-3.7, 12.1)
    assert ticks == pytest.approx([0.0, 5.0, 10.0])
    assert all(-3.7 <= t <= 12.1 for t in ticks)


def test_one_ulp_range_is_treated_as_flat():
    # a flat priority curve whose values differ by one ulp once made the
    # tick loop step by less than an ulp and never end
    lo = 0.2656325102004433
    hi = math.nextafter(lo, 1.0)
    pad = 0.05 * (hi - lo)
    ticks = _ticks(lo - pad, hi + pad)
    assert 1 <= len(ticks) <= 6
    assert len(set(ticks)) == len(ticks)


def test_line_plot_of_one_ulp_series(tmp_path):
    lo = 0.2656325102004433
    ys = [lo, math.nextafter(lo, 1.0), lo]
    path = tmp_path / "flat.svg"
    line_plot(path, [("L_max", [0.0, 5e9, 1e10], ys)])
    assert path.read_text().count("<text") < 40
