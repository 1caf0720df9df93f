import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy as scipy_airy

from fredtw.errors import NonConvergent
from fredtw.fredholm import gap_probability, half_line
from fredtw.twsolver import (_tails, det_via_alternative, det_via_functional,
                             q_ode_residual, solve_q)
from fredtw.wavefun import WaveModel, airy_model, damped_airy_model, \
    zero_model

from conftest import counting, endpoint_q

Q0_AIRY = 0.36706155154807796


def test_q0_matches_resolvent_oracle(airy_sol):
    assert airy_sol.interp(airy_sol.q, 0.0) == pytest.approx(
        Q0_AIRY, abs=1e-6)


def test_solution_metadata(airy_sol):
    assert airy_sol.match_T == 8.0
    assert airy_sol.iterations == 1
    assert airy_sol.residual_norm < 1e-8


def test_hastings_mcleod_character(airy, airy_sol):
    for t in np.linspace(4.0, 8.0, 9):
        ratio = airy_sol.interp(airy_sol.q, t) / float(airy.psi(t))
        assert 1.0 - 1e-4 <= ratio <= 1.0 + 1e-4


def test_ode_residual_interior_nodes(airy_sol):
    worst = 0.0
    for p in airy_sol.panels:
        for t in p.nodes[1:-1]:
            worst = max(worst, abs(q_ode_residual(airy_sol, float(t))))
    assert worst < 1e-8
    with pytest.raises(ValueError):
        q_ode_residual(airy_sol, -1.234567)  # not a node


def test_perturbation_sensitivity(airy_sol):
    bump = 1e-3 * np.exp(-((airy_sol.tau_grid - 1.0) / 0.5) ** 2)
    perturbed = replace(airy_sol, q=airy_sol.q + bump)
    interior = np.concatenate([p.nodes[1:-1] for p in airy_sol.panels])
    node = float(interior[np.argmin(np.abs(interior - 1.0))])
    assert abs(q_ode_residual(perturbed, node)) >= 1e-4


def test_deep_tail_start(airy):
    sol = solve_q(airy, 6.0)
    dev = np.max(np.abs(sol.q - airy.psi(sol.tau_grid)))
    assert dev <= 1e-8


def test_zero_model_fixed_point():
    sol = solve_q(zero_model(), -1.0)
    assert sol.iterations == 1
    assert np.max(np.abs(sol.q)) == 0.0
    assert det_via_functional(sol, 0.0) == 1.0
    assert det_via_alternative(sol, 0.0) == 1.0


def test_functional_routes_match_direct(airy, airy_sol):
    for tau in (-2.0, 0.0, 1.5):
        Fd = gap_probability(airy, half_line(tau))
        assert abs(det_via_functional(airy_sol, tau) - Fd) < 1e-6
        assert abs(det_via_alternative(airy_sol, tau) - Fd) < 1e-6
    with pytest.raises(ValueError):
        det_via_functional(airy_sol, -3.0)


def test_tw_reduction_same_code_path(airy_sol):
    """With u0_ddot = 0 the alternative representation must equal the
    classical exp(-int (sigma - tau) q^2) through the very same
    quadrature calls."""
    sol = airy_sol
    for tau in (-1.0, 0.5):
        h = sol.q ** 2
        G1 = sol.antiderivative(sol.tau_grid * h)
        G0 = sol.antiderivative(h)
        core = (float(G1[-1]) - sol.interp(G1, tau)) \
            - tau * (float(G0[-1]) - sol.interp(G0, tau))
        int_q2, int_sq2, _ = sol.tails
        tw = math.exp(-(core + int_sq2 - tau * int_q2))
        assert abs(det_via_alternative(sol, tau) - tw) <= 1e-10


def test_tails_take_one_vectorized_pass(airy):
    m, calls = counting(airy)
    sol = solve_q(m, -4.25)
    for tau in (-4.25, -2.25, -0.25):
        det_via_functional(sol, tau)
        det_via_alternative(sol, tau)
    # (psi(T), psi'(T)) for the boundary data is the only scalar call,
    # the two tail rules the only array calls
    assert calls == {"array": 2, "scalar": 1}
    m, calls = counting(airy)
    _tails(m, 8.0)
    assert calls == {"array": 2, "scalar": 0}


@pytest.mark.parametrize("T", [8.0, 9.68, 12.0])
def test_tails_match_quad(airy, T):
    def ai(s):
        return scipy_airy(s)[0]

    def aip(s):
        return scipy_airy(s)[1]

    integrands = (lambda s: ai(s) ** 2,
                  lambda s: s * ai(s) ** 2,
                  lambda s: ai(s) * (s * ai(s) - ai(s) ** 3) - aip(s) ** 2)
    for got, f in zip(_tails(airy, T), integrands):
        ref = quad(f, T, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(got - ref) <= 1e-15
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_tails_refuse_non_decaying():
    one = WaveModel(pair=lambda x: (np.ones_like(np.asarray(x, dtype=float)),
                                    np.zeros_like(np.asarray(x, dtype=float))))
    with pytest.raises(NonConvergent):
        _tails(one, 8.0)


def test_painleve_ii_residual(airy, airy_sol):
    """q'' - tau q - 2 q^3 with q'' from independent spectral double
    differentiation, at interior nodes."""
    worst = 0.0
    for p in airy_sol.panels:
        q = airy_sol.q[p.s]
        qpp = p.D @ (p.D @ q)
        r = qpp - p.nodes * q - 2.0 * q ** 3
        worst = max(worst, float(np.max(np.abs(r[1:-1]))))
    assert worst <= 1e-8


def test_bvp_vs_resolvent_nodewise(airy, airy_sol):
    for tau in (-2.0, -0.7, 1.3, 4.0):
        ref = endpoint_q(airy, tau)
        assert abs(airy_sol.interp(airy_sol.q, tau) - ref) \
            <= 1e-5 * max(abs(ref), 1e-12)


def test_psi_zero_guard():
    """With u0_ddot != 0 the closed q-equation carries 1/psi terms and is
    false (test_damped_resolvent_q_satisfies_closed_ode): the solve
    refuses such a model up front, whether or not psi changes sign
    inside the domain, so no functional ever sees one."""
    m = damped_airy_model()
    bad = replace(m, pair=lambda x: (np.asarray(np.cos(x), dtype=float),
                                     -np.asarray(np.sin(x), dtype=float)))
    for model in (m, bad):
        with pytest.raises(ValueError, match="u0_ddot"):
            solve_q(model, -1.0)


@pytest.mark.xfail(
    strict=True,
    reason="for u0_ddot != 0 the closed q-equation inherits the failure "
           "of the order-scaling relation: the resolvent-defined q "
           "violates it at the 5e-2 relative level near the left edge; "
           "see notes/decisions.md")
def test_damped_resolvent_q_satisfies_closed_ode():
    m = damped_airy_model()
    tau, h = -1.0, 1e-4
    from fredtw.awf import build_awf, _rebuild
    from fredtw.fredholm import nystrom
    tab = build_awf(m, nystrom(half_line(tau), model=m), 1)
    q = tab.eval_chi(0, 0, tau)
    qp = tab.chi_total_deriv(0, 0)
    tp = _rebuild(half_line(tau + h), tab)
    tm = _rebuild(half_line(tau - h), tab)
    qpp = (tp.eval_chi(0, 0, tau + h) - 2.0 * q
           + tm.eval_chi(0, 0, tau - h)) / h ** 2
    M = tab.mu[1, 0] + tab.mu[0, 0]  # = int_tau^inf q^2 (shift identity)
    # the closed q-equation for u0_ddot != 0, as the solver once used it
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot
    p, pp = (float(v) for v in m.pair(tau))
    rhs = (g * g / ud ** 2) * (m.v0 + tau) * q \
        + (2.0 * g / ud) * (q ** 3 - (g * udd / ud ** 2) * q * M) \
        - (2.0 * g * g * udd ** 2 / ud ** 4) * (q ** 3 / p ** 2 - q ** 2 / p) \
        + (g * udd / ud ** 2) * (qp + 2.0 * (q ** 2 / p ** 2) * pp
                                 - 4.0 * (q / p) * qp)
    assert abs(qpp - rhs) < 1e-6

