import math

import numpy as np
import pytest

from fredtw.errors import NonConvergent
from fredtw.quadrature import HALVING_TOL, gl_halving, gl_panels


def test_halving_returns_the_half_panel_rule():
    f = lambda x, w: float(np.dot(w, np.exp(-x) * np.cos(3.0 * x)))
    assert gl_halving(f, 0.0, 3.0, 16, 1.0) == f(*gl_panels(0.0, 3.0, 16, 0.5))
    freq = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = lambda x, w: np.sin(np.multiply.outer(freq, x)) @ w
    assert np.array_equal(gl_halving(g, -1.0, 2.0, 16, 1.5),
                          g(*gl_panels(-1.0, 2.0, 16, 0.75)))


def _steps(gap):
    """A scalar and a matrix f on 4-point panels of [0, 1] whose value on
    the halved panels (8 nodes) exceeds the one on the whole (4 nodes)
    by gap, in one entry for the matrix."""
    scalar = lambda x, w: gap * x.size / 4
    matrix = lambda x, w: np.diag([1.0, 1.0 + gap * x.size / 4])
    return scalar, matrix


@pytest.mark.parametrize("which", [0, 1], ids=["scalar", "matrix"])
def test_halving_refuses_a_gap_past_the_tolerance(which):
    f = _steps(2.0 * HALVING_TOL)[which]
    with pytest.raises(NonConvergent):
        gl_halving(f, 0.0, 1.0, 4, 1.0)
    f = _steps(0.5 * HALVING_TOL)[which]
    assert np.array_equal(gl_halving(f, 0.0, 1.0, 4, 1.0),
                          f(*gl_panels(0.0, 1.0, 4, 0.5)))


def test_halving_refuses_a_nan_difference():
    """A NaN on one rule makes the estimate NaN, which is no pass."""
    f = lambda x, w: math.nan if x.size == 4 else 1.0
    g = lambda x, w: np.diag([1.0, math.nan if x.size == 4 else 1.0])
    for h in (f, g):
        with pytest.raises(NonConvergent):
            gl_halving(h, 0.0, 1.0, 4, 1.0)
