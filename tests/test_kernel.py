import numpy as np
import pytest

from fredtw.kernel import (DELTA_DIAG, cd_kernel, kernel_derivative_residual,
                           kernel_diag, kernel_direct, kernel_matrix,
                           kernel_row)
from fredtw.wavefun import damped_airy_model, zero_model

from conftest import counting

# K(0,0) = Ai'(0)^2 - 0 * Ai(0)^2, frozen from the closed form
K00_AIRY = 0.06698748377966399


def test_airy_diagonal_frozen(airy):
    assert kernel_diag(airy, 0.0) == pytest.approx(K00_AIRY, abs=1e-14)
    assert cd_kernel(airy, 0.0, 0.0) == pytest.approx(K00_AIRY, abs=1e-14)


def test_matrix_bitwise_symmetric(airy):
    x = np.linspace(-2.0, 5.0, 60)
    K = kernel_matrix(airy, x)
    assert np.array_equal(K, K.T)


def test_matrix_takes_one_pair_pass(airy):
    """n nodes, one pair evaluation: the exact diagonal is formed from
    the values the off-diagonal entries already use."""
    m, calls = counting(airy)
    x = np.linspace(-2.0, 5.0, 60)
    K = kernel_matrix(m, x)
    assert calls == {"array": 1, "scalar": 0}
    assert np.array_equal(np.diag(K), kernel_diag(airy, x))


def test_matrix_matches_pointwise(airy):
    x = np.array([-1.3, 0.2, 0.7, 3.1])
    K = kernel_matrix(airy, x)
    for i in range(4):
        for j in range(4):
            assert K[i, j] == pytest.approx(
                cd_kernel(airy, x[i], x[j]), abs=1e-15)
    row = kernel_row(airy, 0.45, x)
    for j in range(4):
        assert row[j] == pytest.approx(cd_kernel(airy, 0.45, x[j]), abs=1e-15)


def test_diagonal_seam_continuity(airy):
    # crossing the |xi - zeta| = DELTA_DIAG seam changes nothing visible
    xi = 0.3
    below = cd_kernel(airy, xi, xi + 0.99 * DELTA_DIAG)
    above = cd_kernel(airy, xi, xi + 1.01 * DELTA_DIAG)
    # the quotient itself carries ~eps/delta = 1e-10 cancellation noise
    # right at the seam; the switch must not add anything beyond that
    assert abs(below - above) < 1e-9


def test_cd_vs_direct_oracle(airy):
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-2.0, 3.0, size=(10, 2))
    for xi, zeta in pts:
        assert abs(cd_kernel(airy, xi, zeta)
                   - kernel_direct(airy, xi, zeta)) < 1e-8


def test_derivative_residual_damped():
    # exercises the u0_ddot-proportional term of the derivative relation
    m = damped_airy_model()
    r1 = kernel_derivative_residual(m, 0.4, 1.1, h=1e-3)
    r2 = kernel_derivative_residual(m, 0.4, 1.1, h=5e-4)
    assert abs(r1) < 1e-5
    assert 3.0 < abs(r1) / abs(r2) < 5.0


def test_derivative_residual_second_order(airy):
    r1 = kernel_derivative_residual(airy, 0.4, 1.1, h=1e-3)
    r2 = kernel_derivative_residual(airy, 0.4, 1.1, h=5e-4)
    assert abs(r1) < 1e-5
    assert 3.0 < abs(r1) / abs(r2) < 5.0


def test_zero_model_kernel():
    m = zero_model()
    assert cd_kernel(m, 0.3, 1.7) == 0.0
    assert kernel_diag(m, 0.0) == 0.0


def test_direct_requires_profile(airy):
    m = zero_model()
    with pytest.raises(ValueError):
        kernel_direct(m, 0.0, 1.0)
