"""The calibrated λ's must not depend on how the running Python sums floats.

CPython 3.12's ``sum`` compensates its rounding errors (Neumaier's
algorithm), so a calibration that decided feasibility through ``sum`` would
return other bits there than on 3.11. These tests replace ``builtins.sum``
with that algorithm and require the golden values of ``calibrate`` anyway.
"""

import builtins
import math

import pytest

from condet.calibration import _fold_sum
from test_calibration_golden import test_calibration_is_bit_identical as check_golden

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it over floats; anything else is
    passed to the running interpreter's own ``sum``."""
    items = list(iterable)
    if not items or start != 0 or type(start) is not int or {*map(type, items)} != {float}:
        return _builtin_sum(items, start)
    total = 0.0
    compensation = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_differs_from_a_left_fold():
    values = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(values) == 2.0
    assert _fold_sum(values) == 0.0


@pytest.mark.parametrize("name", ["small-00", "small-01", "tie-00", "tie-01", "dense", "pixelwise"])
def test_golden_under_compensated_sum(monkeypatch, name):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    check_golden(name)
