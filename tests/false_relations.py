"""
The four relations the package records as false, written once for the
strict-xfail tests that measure them (see notes/decisions.md, sections
1-4).  None of them is in the identity registry; each function returns
the signed residual the tests assert on, at the table's endpoint tau.
"""

from fredtw.awf import FD_STEP, resolvent_endpoint


def eta(table, n, tau):
    """eta_n(tau) = (q(tau)/psi(tau) - 1)^n, guarded by the psi floor."""
    p = table.jet_above_floor(tau)[0]
    return (table.eval_chi(0, 0, tau) / p - 1.0) ** n


def order_residual(table, tau):
    """ORDER: chi_{N,a}(tau) - eta^N chi_{0,a}(tau), N = table.N, the
    larger in magnitude over a in {0, 1}."""
    N = table.N
    r = 0.0
    for a in range(2):
        lhs = table.eval_chi(N, a, tau)
        rhs = eta(table, N, tau) * table.eval_chi(0, a, tau)
        if abs(lhs - rhs) > abs(r):
            r = lhs - rhs
    return r


def mun0_dot_residual(table, tau):
    """MUN0-DOT: centred FD of mu_{n,0} over the moved tables plus
    (n + 1) eta^n q^2, n = table.N - 1."""
    N, h = table.N, FD_STEP
    tp, tm = table.moved(0, h)
    fd = (tp.mu[N - 1, 0] - tm.mu[N - 1, 0]) / (2.0 * h)
    q = table.eval_chi(0, 0, tau)
    return fd + N * eta(table, N - 1, tau) * q * q


def qn_ode_residual(table, tau, n=1):
    """QN-ODE: the second-order tau-ODE for chi_{n,0}(tau), needing
    table.N >= n + 2.  The second derivative is a centred difference over
    the moved tables; every first derivative on the right-hand side comes
    from the identities, d(mu_{k,0})/dtau from the MUN0-DOT law."""
    model = table.model
    g, ud, udd = model.gamma, model.u0_dot, model.u0_ddot
    h = FD_STEP
    tp, tm = table.moved(0, h)
    chi_pp = (tp.eval_chi(n, 0, tau + h) - 2.0 * table.eval_chi(n, 0, tau)
              + tm.eval_chi(n, 0, tau - h)) / h ** 2

    c = lambda k: table.eval_chi(k, 0, tau)
    cp = lambda k: table.chi_total_deriv(k, 0)
    q = c(0)
    mup = lambda k: 0.0 if k < 0 else -(k + 1) * eta(table, k, tau) * q * q
    nu_ = lambda k, a: 0.0 if k < 0 else table.nu(k, a)

    rhs = (g * g / ud ** 2) * (model.v0 + tau) * c(n)
    rhs -= (g * udd / ud ** 2) * ((2 * n + 1) * cp(n) + 2 * (n + 1) * cp(n + 1))
    rhs -= (g * g * udd ** 2 / ud ** 4) * ((n * n + n) * c(n)
                                           + 2 * (n + 1) ** 2 * c(n + 1)
                                           + (n + 1) * (n + 2) * c(n + 2))
    rhs -= (g * g * udd / ud ** 3) * (n + 1) * table.mu[0, 0] * c(n + 1)
    for k in range(n + 1):
        rhs -= (g / ud) * ((mup(n - k) + mup(n - k - 1))
                           + 2.0 * nu_(n - k, 1)) * c(k)
        for l in range(k + 1):
            rhs += (g * g / ud ** 2) * nu_(n - k, 0) * nu_(k - l, 0) * c(l)
        rhs -= (g * g * udd / ud ** 3) * (
            nu_(n - k, 0) * ((n - k + 1) * c(k) - (k + 1) * c(k + 1))
            + (n + 1) * nu_(n - k + 1, 0) * c(k))
    return chi_pp - rhs


def hamiltonian_scaling_residual(table, n, tau):
    """H_n - n eta^{n-1} H_1 for n >= 2, both Hamiltonians by the
    DIAGONAL route (the matrix resolvent)."""
    m = table.model
    diag = resolvent_endpoint(table.disc, tau, n)
    h1 = (m.gamma / m.u0_dot) * float(diag[0])
    hn = (m.gamma / m.u0_dot) * float(diag[n - 1])
    return hn - n * eta(table, n - 1, tau) * h1


# name -> residual(table, tau), for sweeps over the table's endpoint
FALSE_RELATIONS = {"ORDER": order_residual, "MUN0-DOT": mun0_dot_residual,
                   "QN-ODE": qn_ode_residual}
