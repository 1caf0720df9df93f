import math
from dataclasses import replace

import numpy as np
import pytest

from fredtw import fredholm
from fredtw.errors import SingularOperator
from fredtw.fredholm import (GridConfig, IntervalUnion, discretize,
                             fredholm_det, fredholm_series, gap_probability,
                             half_line, nystrom, resolve)
from fredtw.kernel import kernel_diag
from fredtw.quadrature import gl_panels
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
    for e in ((0.0, math.nan), (math.nan, 1.0),
              (0.0, math.nan, 2.0, math.inf)):
        with pytest.raises(ValueError, match="NaN.*nan"):
            IntervalUnion(e)
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
    """Settings the grid cannot use are refused up front: a panel length
    of -1 would halve h forever, 0 divides by zero, and a NaN tolerance
    would switch its test off."""
    bad = [dict(nodes_per_panel=3)]
    for v in (0.0, -8.0, math.inf, math.nan):
        bad += [dict(L_start=v), dict(max_panel_len=v)]
    for v in (math.inf, math.nan, 4.0):                # 4 < L_start = 8
        bad.append(dict(L_max=v))
    for v in (0.0, -1e-12, math.nan):
        bad += [dict(tail_tol=v), dict(det_stab_tol=v)]
    for kw in bad:
        with pytest.raises(ValueError):
            GridConfig(**kw)
    GridConfig(L_start=16.0, L_max=16.0, max_panel_len=0.5)


def test_gap_reuses_the_accepted_discretization(airy):
    """The nested L-doubling search evaluates the model once per step, on
    the panels the step adds: F on [0, inf), accepted at L = 8, costs one
    pair pass on the 80 nodes of the 2L grid, and hands back the
    factorized L level it read off the 2L matrix."""
    sizes = []

    def pair(x):
        sizes.append(np.size(x))
        return airy.pair(x)

    F = gap_probability(replace(airy, pair=pair), half_line(0.0))
    assert sizes == [80]
    assert F == gap_probability(airy, half_line(0.0))
    assert F == pytest.approx(F0_AIRY, abs=1e-9)


@pytest.mark.parametrize("iu", [half_line(-1.25),
                                IntervalUnion((-3.0, -1.5, 0.5, math.inf))],
                         ids=["half-line", "union"])
def test_grid_at_L_is_a_prefix_of_the_grid_at_2L(iu):
    cfg = GridConfig()
    for L in (8.0, 16.0, 32.0, 64.0):
        coarse, fine = fredholm._grid(iu, cfg, L), fredholm._grid(iu, cfg, 2 * L)
        n = coarse.nodes.size
        assert fine.nodes.size == n + (L / 8.0) * cfg.nodes_per_panel
        assert fine.nodes[:n].tobytes() == coarse.nodes.tobytes()
        assert fine.weights[:n].tobytes() == coarse.weights.tobytes()


@pytest.mark.parametrize("iu", [half_line(-8.0), half_line(0.0),
                                half_line(4.0),
                                IntervalUnion((-3.0, -1.5, 0.5, math.inf))],
                         ids=["-8", "0", "4", "union"])
def test_accepted_level_is_the_model_discretization(airy, iu):
    """Level L, read off the leading block of the 2L matrix, is bit for
    bit the kernel discretize() builds on the accepted grid."""
    disc = nystrom(iu, model=airy)
    ref = discretize(airy, disc.grid)
    assert disc.K.tobytes() == ref.K.tobytes()
    assert disc.psi.tobytes() == ref.psi.tobytes()
    assert disc.psip.tobytes() == ref.psip.tobytes()
    assert fredholm_det(disc) == fredholm_det(ref)


def test_tail_bound_off_the_diagonal_is_the_64_point_pass(airy):
    """The tail rule reads sum_i w_i |K(x_i, x_i)| over the 2L grid's
    nodes in [tau + L, tau + 2L]; it is the integral the old separate
    64-point pass took."""
    cfg = GridConfig()
    for tau in (-8.0, -4.0, 0.0, 2.0):
        for L in (8.0, 16.0):
            iu = half_line(tau)
            fine = fredholm._grid(iu, cfg, 2 * L)
            n = fredholm._grid(iu, cfg, L).nodes.size
            K = discretize(airy, fine).K
            bound = np.dot(fine.weights[n:], np.abs(np.diag(K)[n:]))
            x, w = gl_panels(tau + L, tau + 2 * L, 64)
            ref = np.dot(w, np.abs(kernel_diag(airy, x)))
            assert abs(bound - ref) <= 1e-12 * ref, (tau, L)
