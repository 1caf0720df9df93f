import numpy as np
import pytest

from fredtw import kpz
from fredtw.airy import airy_ai
from fredtw.errors import WeightVanishes
from fredtw.fredholm import (GridConfig, build_grid, discretize_matrix,
                             gap_probability, half_line)
from fredtw.kernel import cd_kernel
from fredtw.kpz import (FiniteTempSpec, generic_ft_kernel, kpz_gap,
                        kpz_kernel, kpz_matrix, u_reparam_check,
                        _AIRY_CUT, _lambda_cuts)
from fredtw.quadrature import HALVING_TOL


def test_spec_validation():
    with pytest.raises(ValueError):
        FiniteTempSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        FiniteTempSpec(1.0, 0.0)
    s = FiniteTempSpec(1.0, 2.0)
    assert s.gamma == 1.0
    with pytest.raises(TypeError):      # the kernel is Ai's; no phi
        FiniteTempSpec(1.0, 2.0, phi=airy_ai)


def test_fermi_weight_limits():
    s = FiniteTempSpec(1.0, 20.0)
    w = s.fermi(np.array([-5.0, 0.0, 5.0]))
    assert w[0] < 1e-40
    assert w[1] == pytest.approx(0.5)
    assert w[2] == pytest.approx(1.0, abs=1e-10)


def test_symmetry():
    s = FiniteTempSpec(1.0, 10.0)
    assert kpz_kernel(s, 0.3, 1.7) == kpz_kernel(s, 1.7, 0.3)


def test_zero_temperature_limit_kernel(airy):
    s = FiniteTempSpec(1.0, 40.0)
    assert abs(kpz_kernel(s, 1.0, 2.0) - cd_kernel(airy, 1.0, 2.0)) < 1e-3


def test_zero_phi():
    z = lambda w: np.zeros_like(np.asarray(w, dtype=float))
    assert generic_ft_kernel(z, lambda l: np.ones_like(l), 1.0,
                             0.0, 5.0, 0.0, 1.0) == 0.0


def test_generic_unit_weight_is_airy_kernel(airy):
    v = generic_ft_kernel(airy_ai, lambda l: np.ones_like(l), 1.0,
                          0.0, 40.0, 0.0, 1.0)
    assert abs(v - cd_kernel(airy, 0.0, 1.0)) < 1e-8


def test_generic_reproduces_fermi_kernel():
    s = FiniteTempSpec(1.0, 2.0)
    lo, hi = _lambda_cuts(s, 1.0)
    assert airy_ai(_AIRY_CUT) ** 2 < 0.01 * HALVING_TOL
    v = generic_ft_kernel(airy_ai,
                          lambda l: -(1.0 * np.exp(-2.0 * l) + 1.0),
                          1.0, hi, lo, 1.0, 2.0)  # reversed = sign flip
    assert abs(v - kpz_kernel(s, 1.0, 2.0)) < 1e-9


def test_weight_vanishes_guard():
    flat = lambda l: np.full_like(np.asarray(l, dtype=float), 1e-16)
    with pytest.raises(WeightVanishes):
        generic_ft_kernel(airy_ai, flat, 1.0, -1.0, 1.0, 0.0, 0.0)


def test_gap_far_tail():
    assert kpz_gap(FiniteTempSpec(1.0, 20.0), 8.0) >= 1.0 - 1e-6


def test_gap_makes_one_matrix_per_doubling_step(monkeypatch):
    """Each step of the nested L-doubling search builds one kernel matrix,
    on the 2L grid, and reads level L off its leading block: at c2 = 2,
    tau = 0 the search accepts L = 16 after two steps."""
    sizes = []
    inner = kpz.kpz_matrix

    def counting(spec, nodes):
        sizes.append(np.size(nodes))
        return inner(spec, nodes)

    monkeypatch.setattr(kpz, "kpz_matrix", counting)
    spec = FiniteTempSpec(1.0, 2.0)
    assert 0.0 < kpz_gap(spec, 0.0) < 1.0
    assert sizes == [80, 160]


MATRIX_SPECS = [FiniteTempSpec(1.0, c2) for c2 in (1.0, 5.0, 20.0, 40.0)] \
    + [FiniteTempSpec(0.3, 40.0, gamma=0.7)]


@pytest.mark.parametrize("tau", [-4.0, 0.25])
@pytest.mark.parametrize("spec", MATRIX_SPECS,
                         ids=lambda s: "c1=%g,c2=%g,g=%g" % (s.c1, s.c2,
                                                              s.gamma))
def test_matrix_is_the_pointwise_kernel(spec, tau):
    """The sigma'-form matrix agrees with the sigma-form kernel entrywise
    on Nystrom nodes -- the first node (the one the Airy cut is gauged
    at), its neighbour (a closest pair: the CD quotient's worst
    cancellation) and the last -- and is bit-for-bit symmetric."""
    x = build_grid(half_line(tau), GridConfig()).nodes
    K = kpz_matrix(spec, x)
    assert np.array_equal(K, K.T)
    picks = (0, 1, x.size - 1)
    for n, i in enumerate(picks):
        for j in picks[n:]:
            assert abs(K[i, j] - kpz_kernel(spec, x[i], x[j])) < 1e-12, (i, j)


def test_matrix_airy_work_does_not_grow_with_c2(monkeypatch):
    """sigma' has width 1/c2 and so have the panels: the lambda-window
    costs the same number of Airy points at every c2 >= 4."""
    points = []
    inner = kpz.airy_ai_pair

    def counting(a):
        points[-1] += np.size(a)
        return inner(a)

    monkeypatch.setattr(kpz, "airy_ai_pair", counting)
    x = build_grid(half_line(0.0), GridConfig()).nodes
    for c2 in (10.0, 20.0, 40.0):
        points.append(0)
        kpz_matrix(FiniteTempSpec(1.0, c2), x)
    assert points[0] > 0 and points == [points[0]] * 3


def test_matrix_refuses_repeated_nodes():
    with pytest.raises(ValueError):
        kpz_matrix(FiniteTempSpec(1.0, 5.0), np.array([0.0, 1.0, 0.0]))


def test_gap_bounds_and_monotone_tau():
    s = FiniteTempSpec(1.0, 10.0)
    vals = [kpz_gap(s, t) for t in (-2.0, 0.0, 2.0, 4.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_discretized_spectrum_in_unit_interval():
    """Report-style check: the symmetrized kernel matrix has spectrum in
    [0, 1) -- a positive-definite smoothed projection."""
    s = FiniteTempSpec(1.0, 10.0)
    grid = build_grid(half_line(0.0), GridConfig())
    disc = discretize_matrix(kpz_matrix(s, grid.nodes), grid)
    ev = np.linalg.eigvalsh(disc.Ktil)
    assert ev.min() > -1e-12
    assert ev.max() < 1.0


def test_u_reparam_closed_form():
    assert u_reparam_check(FiniteTempSpec(1.0, 1.0), 10.0, 50) <= 1e-8
    # c1 -> 0: the flow is exactly u = u_ref - x
    assert u_reparam_check(FiniteTempSpec(1e-14, 1.0), 5.0, 20) <= 1e-10
    with pytest.raises(ValueError):
        u_reparam_check(FiniteTempSpec(1.0, 1.0), float("inf"))
