"""
Hamiltonians H_n at the interval endpoint: three computation routes,
the link between H_1 and the log-derivative of the Fredholm
determinant, and the tau-derivative of H_1.

Routes:
  DIAGONAL    (gamma/u0_dot) R_n(tau, tau) via the matrix-resolvent
              Nystrom extension -- fully independent of the chi
              derivative identities, so it can serve as oracle.
  CANONICAL   the Wronskian-type sum over chi pairs with total
              tau-derivatives taken from the derivative identities.
  CLOSED_FORM n = 1 only; H_1 expressed solely through q = chi_{0,0}
              and its first two tau-derivatives.
"""

import math
from dataclasses import replace

from .awf import FD_STEP, _check_endpoint, resolvent_endpoint
from .fredholm import GridConfig, gap_probability, half_line, nystrom

ROUTES = ("DIAGONAL", "CANONICAL", "CLOSED_FORM")


def _q_derivs(table, tau):
    """(q, q', q'') at the endpoint: q' is the total derivative from the
    identity machinery, q'' a centered difference of q (step FD_STEP)
    over rebuilt tables (independent of the identity under test)."""
    _check_endpoint(table, tau)
    h = FD_STEP
    q = table.eval_chi(0, 0, tau)
    qp = table.chi_total_deriv(0, 0)
    tp, tm = table.moved(0, h)
    qpp = (tp.eval_chi(0, 0, tau + h) - 2.0 * q
           + tm.eval_chi(0, 0, tau - h)) / h ** 2
    return q, qp, qpp


def hamiltonian(table, n, tau, route="DIAGONAL"):
    """H_n at the table's endpoint tau by the selected route; any other
    tau raises ValueError."""
    if route not in ROUTES:
        raise ValueError("unknown route %r" % route)
    if not 1 <= n <= table.N:
        raise ValueError("need 1 <= n <= table.N")
    _check_endpoint(table, tau)
    m = table.model
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot

    if route == "DIAGONAL":
        diag = resolvent_endpoint(table.disc, tau, n)
        return (g / ud) * float(diag[n - 1])

    if route == "CANONICAL":
        s = 0.0
        for k in range(1, n + 1):
            s += table.chi_total_deriv(n - k, 0) * table.eval_chi(k - 1, 1, tau) \
                - table.chi_total_deriv(k - 1, 1) * table.eval_chi(n - k, 0, tau)
        return s

    # CLOSED_FORM, n = 1 only
    if n != 1:
        raise ValueError("CLOSED_FORM is available only at n = 1")
    p, pp, _ = table.jet_above_floor(tau)
    q, qp, qpp = _q_derivs(table, tau)
    corr = (g * udd / ud ** 2) * q * (qp / p - pp * q / (p * p))
    return qp * qp - q * (qpp - (g / ud) * q ** 3 + corr)


def logdet_link_residual(model, tau, h=1e-3):
    """Centered FD of log F([tau, inf)) minus (u0_dot/gamma) H_1(tau),
    H_1 by the DIAGONAL route, on the default GridConfig."""
    if not 1e-5 <= h <= 1e-2:
        raise ValueError("h must lie in [1e-5, 1e-2]")
    cfg = GridConfig()
    disc = nystrom(half_line(tau), cfg, model)
    h1 = (model.gamma / model.u0_dot) \
        * float(resolvent_endpoint(disc, tau, 1)[0])

    L = disc.grid.truncation
    pinned = replace(cfg, L_start=L, L_max=L)
    Fp = gap_probability(model, half_line(tau + h), pinned)
    Fm = gap_probability(model, half_line(tau - h), pinned)
    fd = (math.log(Fp) - math.log(Fm)) / (2.0 * h)
    return fd - (model.u0_dot / model.gamma) * h1


def h1_derivative_residual(table, tau):
    """FD of H_1 across rebuilt tables (step FD_STEP) minus the
    closed-form derivative
    -(gamma^2/u0_dot^2)(q^2 + (u0_ddot/gamma)(2q/psi - 1) H_1)."""
    _check_endpoint(table, tau)
    m = table.model
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot
    h = FD_STEP
    if udd != 0.0:
        p = table.jet_above_floor(tau)[0]
    tp, tm = table.moved(0, h)
    fd = (hamiltonian(tp, 1, tau + h, "DIAGONAL")
          - hamiltonian(tm, 1, tau - h, "DIAGONAL")) / (2.0 * h)
    q = table.eval_chi(0, 0, tau)
    h1 = hamiltonian(table, 1, tau, "DIAGONAL")
    rhs = -(g * g / ud ** 2) * (q * q)
    if udd != 0.0:
        rhs -= (g * g / ud ** 2) * (udd / g) * (2.0 * q / p - 1.0) * h1
    return fd - rhs
