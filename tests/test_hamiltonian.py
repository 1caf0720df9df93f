import numpy as np
import pytest

from fredtw.hamiltonian import (ROUTES, _q_derivs, h1_derivative_residual,
                                hamiltonian, logdet_link_residual)
from fredtw.awf import build_awf
from fredtw.fredholm import half_line, nystrom

from false_relations import hamiltonian_scaling_residual

# H_1(tau) frozen from the matrix-resolvent route at reference grids
H1_AIRY = {-1.0: 0.35374863745, 0.0: 0.069091380709,
           1.0: 0.0070414005013, 2.0: 0.00037924175603}


def test_h1_frozen_values(airy):
    for tau, ref in H1_AIRY.items():
        table = build_awf(airy, nystrom(half_line(tau), model=airy), 1)
        assert hamiltonian(table, 1, tau, "DIAGONAL") == pytest.approx(
            ref, rel=1e-8)


def test_route_agreement(airy, airy_table):
    for n in (1, 2, 3):
        d = hamiltonian(airy_table, n, 0.0, "DIAGONAL")
        c = hamiltonian(airy_table, n, 0.0, "CANONICAL")
        assert abs(d - c) <= 1e-6 * max(1.0, abs(d)), n


def test_closed_form_route(airy, airy_table):
    d = hamiltonian(airy_table, 1, 0.0, "DIAGONAL")
    cf = hamiltonian(airy_table, 1, 0.0, "CLOSED_FORM")
    assert abs(d - cf) < 1e-6
    with pytest.raises(ValueError):
        hamiltonian(airy_table, 2, 0.0, "CLOSED_FORM")
    with pytest.raises(ValueError):
        hamiltonian(airy_table, 1, 0.0, "BOGUS")
    with pytest.raises(ValueError):
        hamiltonian(airy_table, 0, 0.0)


def test_logdet_link(airy):
    r = logdet_link_residual(airy, 0.0, h=1e-3)
    assert abs(r) < 1e-5
    # observed second-order decay in the step
    r2 = logdet_link_residual(airy, 0.0, h=5e-4)
    assert 3.0 < abs(r) / abs(r2) < 5.0
    with pytest.raises(ValueError):
        logdet_link_residual(airy, 0.0, h=1e-1)


def test_h1_derivative_residual(airy, airy_table):
    assert abs(h1_derivative_residual(airy_table, 0.0)) < 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="H_n = n eta^{n-1} H_1 rests on the order-scaling relation, "
           "which fails; the residual only decays once the kernel is "
           "perturbatively small (tau >> 0); see notes/decisions.md")
def test_scaling_identity(airy, airy_table):
    h1 = hamiltonian(airy_table, 1, 0.0, "DIAGONAL")
    for n in (2, 3):
        r = hamiltonian_scaling_residual(airy_table, n, 0.0)
        assert abs(r) <= 1e-6 * abs(h1), n


def test_endpoint_functions_refuse_another_tau(airy_table):
    """The table holds its endpoint: a tau elsewhere is refused (on
    [0, inf), CLOSED_FORM at tau = 0.5 gave 0.0466 against DIAGONAL's
    0.0245)."""
    calls = [lambda t, r=r: hamiltonian(airy_table, 1, t, r) for r in ROUTES]
    calls += [lambda t: _q_derivs(airy_table, t),
              lambda t: h1_derivative_residual(airy_table, t)]
    for call in calls:
        with pytest.raises(ValueError, match="endpoint"):
            call(0.5)
