import contextlib
import io
import math

import numpy as np
import pytest

from fredtw import awf, cli
from fredtw.fredholm import IntervalUnion
from fredtw.lax import (build_A, build_B, build_truncation,
                        commutator_AA_diag, commutator_BA_diag, _comm,
                        lax_system_residual, measured, schlesinger_mask,
                        schlesinger_residual)
from fredtw.wavefun import damped_airy_model, zero_model

IU = IntervalUnion((0.0, 1.0, 2.0, math.inf))


@pytest.fixture(scope="module")
def trunc(airy):
    return build_truncation(airy, IU, 4)


def _block(M, n, p):
    return M[2 * n:2 * n + 2, 2 * p:2 * p + 2]


def test_A_structural_zeros_and_trace(trunc):
    N = trunc.N
    for Aj in trunc.A:
        for n in range(N + 1):
            for p in range(n + 1, N + 1):
                assert np.max(np.abs(_block(Aj, n, p))) <= 1e-12
            assert abs(Aj[2 * n, 2 * n] + Aj[2 * n + 1, 2 * n + 1]) <= 1e-12
            # diagonal 2x2 blocks repeat along the diagonal
            assert np.array_equal(_block(Aj, n, n), _block(Aj, 0, 0))


def test_A_corner_display(trunc):
    # the 2x2 corner in terms of q = chi_{0,0}, p = chi_{0,1} at tau_j
    t = trunc.table
    for j in range(3):
        tau = trunc.taus[j]
        q, p = t.eval_chi(0, 0, tau), t.eval_chi(0, 1, tau)
        sj = trunc.parities[j]
        assert trunc.A[j][0, 0] == pytest.approx(-sj * p * q, abs=1e-15)
        assert trunc.A[j][0, 1] == pytest.approx(sj * q * q, abs=1e-15)
        assert trunc.A[j][1, 1] == pytest.approx(sj * p * q, abs=1e-15)


def test_B_relations(trunc, airy):
    B = trunc.B(0.5)
    N = trunc.N
    for n in range(N + 1):
        for p in range(N + 1):
            assert B[2 * n, 2 * p + 1] == (1.0 if p == n else 0.0)
            if p > n + 1:
                assert B[2 * n, 2 * p] == 0.0
            if p > n:
                assert B[2 * n + 1, 2 * p] == 0.0
    # Airy: every u0_ddot-proportional entry vanishes
    assert B[0, 2] == 0.0 and B[1, 5] == 0.0
    # the w(xi) entry
    t = trunc.table
    assert B[1, 0] == pytest.approx(0.5 - 2.0 * t.mu[0, 1], rel=1e-14)
    with pytest.raises(ValueError):
        build_B(t, 0.5, t.N)  # needs one order of headroom


def test_build_A_needs_order(trunc, airy):
    with pytest.raises(ValueError):
        build_A(trunc.table, 0, trunc.table.N + 1)


def test_linear_system_residuals(trunc):
    for j in range(3):
        assert lax_system_residual(trunc, "TAU_EQ", j, xi=0.5) < 1e-5
    assert lax_system_residual(trunc, "XI_EQ", xi=0.5) < 1e-5
    assert lax_system_residual(trunc, "XI_EQ", xi=3.0) < 1e-5
    with pytest.raises(ValueError):
        lax_system_residual(trunc, "TAU_EQ", 0, xi=1.0)  # at an endpoint
    with pytest.raises(ValueError):
        lax_system_residual(trunc, "BOTH", 0, xi=0.5)


def test_schlesinger_guaranteed_components(trunc):
    mask = schlesinger_mask(trunc.N)
    for i in range(3):
        for j in range(3):
            R = schlesinger_residual(trunc, i, j)
            assert np.max(np.abs(R[mask])) < 1e-5, (i, j)


def test_commutator_structural_zeros_and_diag(trunc):
    N = trunc.N
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            C = _comm(trunc.A[i], trunc.A[j])
            for n in range(N + 1):
                for p in range(n + 1, N + 1):
                    assert np.max(np.abs(_block(C, n, p))) <= 1e-12
            blk = commutator_AA_diag(trunc, i, j)
            for n in range(N - 1):
                assert np.max(np.abs(_block(C, n, n) - blk)) <= 1e-10
    for j in range(3):
        C = _comm(trunc.B(trunc.taus[j]), trunc.A[j])
        for n in range(N - 1):
            for p in range(n + 1, N + 1):
                assert np.max(np.abs(_block(C, n, p))) <= 1e-12
            blk = commutator_BA_diag(trunc, j)
            assert np.max(np.abs(_block(C, n, n) - blk)) <= 1e-10


def test_damped_model_commutators():
    """u0_ddot != 0 exercises every term of the closed-form blocks."""
    tr = build_truncation(damped_airy_model(), IU, 3)
    C = _comm(tr.A[0], tr.A[1])
    blk = commutator_AA_diag(tr, 0, 1)
    for n in range(tr.N - 1):
        assert np.max(np.abs(_block(C, n, n) - blk)) <= 1e-10
    C = _comm(tr.B(tr.taus[0]), tr.A[0])
    blk = commutator_BA_diag(tr, 0)
    for n in range(tr.N - 1):
        assert np.max(np.abs(_block(C, n, n) - blk)) <= 1e-10
    assert lax_system_residual(tr, "TAU_EQ", 0, xi=0.5) < 1e-5


def test_zero_model_trivial():
    tr = build_truncation(zero_model(), IU, 3)
    assert max(np.max(np.abs(A)) for A in tr.A) == 0.0
    assert lax_system_residual(tr, "TAU_EQ", 0, xi=0.5) == 0.0
    assert np.max(np.abs(schlesinger_residual(tr, 0, 1))) == 0.0


def test_measured_helper():
    v = np.arange(10.0)
    assert measured(v, 4).size == 6
    M = np.ones((10, 10))
    assert measured(M, 4).shape == (6, 6)


def test_lax_builds_each_moved_table_once(monkeypatch):
    """The tau-equations and the nine Schlesinger residuals move each of
    the three endpoints by +-h: six moved unions, one table each."""
    built = []
    inner = awf.discretize

    def counting(model, grid):
        built.append(grid.iu)
        return inner(model, grid)

    monkeypatch.setattr(awf, "discretize", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["lax", "--endpoints", "0,1,2", "--N", "4"]) == 0
    assert len(built) == 6
    assert len(set(built)) == 6
