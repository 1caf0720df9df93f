import math

import numpy as np
import pytest

from fredtw import fredholm
from fredtw.errors import SingularOperator
from fredtw.fredholm import (GridConfig, IntervalUnion, fredholm_det,
                             fredholm_series, gap_probability, half_line,
                             nystrom, resolve)
from fredtw.wavefun import zero_model

# Tracy-Widom GUE value F(0), frozen from an mpmath quadrature oracle
F0_AIRY = 0.9693728283552627
# Hastings-McLeod q(0) = [(I - K_[0,inf))^{-1} Ai](0), same provenance
Q0_AIRY = 0.36706155154807796


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnion((0.0,))
    with pytest.raises(ValueError):
        IntervalUnion((1.0, 0.0))
    with pytest.raises(ValueError):
        IntervalUnion((math.inf, 2.0))
    iu = IntervalUnion((0.0, 1.0, 2.0, math.inf))
    assert iu.half_infinite
    assert iu.finite_endpoints == (0.0, 1.0, 2.0)
    assert iu.with_endpoint(1, 1.5).endpoints[1] == 1.5


def test_airy_gap_frozen(airy):
    assert gap_probability(airy, half_line(0.0)) == pytest.approx(
        F0_AIRY, abs=1e-9)


def test_grid_self_convergence(airy):
    F40 = gap_probability(airy, half_line(0.0), GridConfig())
    F80 = gap_probability(airy, half_line(0.0),
                          GridConfig(nodes_per_panel=80))
    assert abs(F40 - F80) < 1e-9


def test_series_vs_lu_determinant(airy):
    # far out the kernel is small and four series terms nail the det
    tau = 2.0
    s = fredholm_series(airy, half_line(tau), k_max=4)
    F = gap_probability(airy, half_line(tau))
    assert abs(s.value - F) < 1e-10
    with pytest.raises(ValueError):
        fredholm_series(airy, half_line(tau), k_max=5)


def test_resolve_endpoint_value(airy):
    disc = nystrom(half_line(0.0), model=airy)
    grid = disc.grid
    q = resolve(disc, airy.psi(grid.nodes))
    # Nystrom extension of the solve back to the endpoint
    from fredtw.kernel import kernel_row
    row = kernel_row(airy, 0.0, grid.nodes) * grid.weights
    q0 = float(airy.psi(np.float64(0.0))) + float(np.dot(row, q))
    assert q0 == pytest.approx(Q0_AIRY, abs=1e-9)


def test_multi_interval_gap(airy):
    iu = IntervalUnion((0.0, 1.0, 2.0, math.inf))
    F = gap_probability(airy, iu)
    assert 0.0 < F < 1.0
    # removing mass from I can only raise the gap probability
    assert F > gap_probability(airy, half_line(0.0))


def test_far_tail_gap(airy):
    assert gap_probability(airy, half_line(8.0)) >= 1.0 - 1e-8


def test_zero_model_gap():
    assert gap_probability(zero_model(), half_line(0.0)) == 1.0


def test_det_result_fields(airy):
    res = fredholm_det(nystrom(half_line(0.0), model=airy))
    assert res.sign == 1.0
    assert res.value == pytest.approx(math.exp(res.log_abs))


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(nodes_per_panel=3)


def test_gap_reuses_the_accepted_discretization(airy, monkeypatch):
    """The L-doubling search hands back the factorized kernel it accepted:
    F on [0, inf) costs the L and 2L builds of the one level tried."""
    calls = []
    inner = fredholm.discretize

    def counting(model, grid):
        calls.append(grid.nodes.size)
        return inner(model, grid)

    monkeypatch.setattr(fredholm, "discretize", counting)
    F = gap_probability(airy, half_line(0.0))
    assert len(calls) == 2
    assert F == pytest.approx(F0_AIRY, abs=1e-9)
