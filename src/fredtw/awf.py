"""
Auxiliary wave functions and the identity registry.

The table materializes chi_{n,a} = R^n (I-K)^{-1} psi^{(a)} on the
quadrature nodes (R = (I-K)^{-1} K the resolvent operator), the moment
scalars mu_{n,a} = <psi, Pi_I R^n rho psi^{(a)}>, the n-th order
resolvent kernels, and the derivative identities that tie them all
together.  identity_residual() turns each relation into a signed
numerical residual; derivatives in tau are centered differences over
re-built tables except where an identity itself supplies the derivative.
"""

import numpy as np

from .errors import PsiTooSmall
from .fredholm import _grid, discretize, resolve
from .kernel import _diag_from, _row_from
from .wavefun import psi_second_from

FD_STEP = 1e-4
PSI_FLOOR_FRAC = 1e-6


class AwfTable:
    """chi[n][a] node values for n in 0..N, a in {0,1,2}, plus mu[n][a]
    for a in {0,1} and the resolved intermediates needed for off-node
    Nystrom evaluation.  Immutable after construction, apart from two
    caches: the kernel row and psi-jet per evaluation point, and the
    tables rebuilt from this one (moved, _rebuild).

    The psi-jet at the nodes comes from the node values disc was built
    with, so disc must have been discretized from this very model."""

    def __init__(self, model, disc, N):
        if not 1 <= N <= 8:
            raise ValueError("N = %r: the order must lie in 1..8" % N)
        if disc.model is not model:
            raise ValueError("disc was not discretized from this model")
        self.model = model
        self.disc = disc
        self.grid = disc.grid
        self.N = N
        m = self.grid.nodes.size

        self.chi = np.empty((N + 1, 3, m))
        self.rho_chi = np.empty((N + 1, 3, m))
        jet = (disc.psi, disc.psip,
               psi_second_from(model, self.grid.nodes, disc.psi, disc.psip))
        for a in range(3):
            self.chi[0, a] = resolve(disc, jet[a])
            self.rho_chi[0, a] = self.chi[0, a]  # rho psi = chi_0 already
        # chi_{n+1,a} = R chi_{n,a} = K_w rho chi_{n,a}
        for n in range(N):
            for a in range(3):
                rc = resolve(disc, self.chi[n, a])
                self.rho_chi[n, a] = rc
                self.chi[n + 1, a] = disc.apply_Kw(rc)
        for a in range(3):
            self.rho_chi[N, a] = resolve(disc, self.chi[N, a])

        psi_nodes = jet[0]
        w = self.grid.weights
        self.mu = np.array([[float(np.dot(w, psi_nodes * self.chi[n, a]))
                             for a in range(2)] for n in range(N + 1)])
        self.psi_floor = PSI_FLOOR_FRAC * float(np.max(np.abs(psi_nodes)))
        self._rows = {}
        self._rebuilt = {}

    # -- evaluation ----------------------------------------------------

    def _krow(self, xi):
        """(K(xi, x_j) over the nodes, (psi, psi', psi'')(xi)), from one
        scalar pair evaluation per distinct xi."""
        xi = float(xi)
        if xi not in self._rows:
            m, d = self.model, self.disc
            p, pp = (float(v) for v in m.pair(xi))
            self._rows[xi] = (
                _row_from(m, xi, p, pp, self.grid.nodes, d.psi, d.psip),
                (p, pp, psi_second_from(m, xi, p, pp)))
        return self._rows[xi]

    def jet(self, xi):
        """(psi, psi', psi'')(xi), from the per-xi cache."""
        return self._krow(xi)[1]

    def eval_chi(self, n, a, xi):
        """chi_{n,a}(xi) off the nodes, by the Nystrom extension."""
        row, jet = self._krow(xi)
        row = row * self.grid.weights
        if n == 0:
            return jet[a] + float(np.dot(row, self.chi[0, a]))
        return float(np.dot(row, self.rho_chi[n - 1, a]))

    def nu(self, n, a):
        """nu_{n,a} = mu_{n,a} + mu_{n-1,a}, with mu_{-1,a} = 0."""
        v = self.mu[n, a]
        if n >= 1:
            v = v + self.mu[n - 1, a]
        return float(v)

    def jet_above_floor(self, tau):
        """(psi, psi', psi'')(tau) for a divisor psi(tau): PsiTooSmall
        when |psi(tau)| is below psi_floor."""
        jet = self.jet(tau)
        if abs(jet[0]) < self.psi_floor:
            raise PsiTooSmall("psi(%g) = %.3e below floor" % (tau, jet[0]))
        return jet

    # -- resolvent kernels --------------------------------------------

    def resolvent_xy(self, n, xi, zeta):
        """R_n(xi, zeta) for xi != zeta via the Christoffel-Darboux sum
        over chi products; zeta is assumed inside I."""
        g, ud = self.model.gamma, self.model.u0_dot
        s = 0.0
        for k in range(1, n + 1):
            s += self.eval_chi(n - k, 0, xi) * self.eval_chi(k - 1, 1, zeta) \
                - self.eval_chi(n - k, 1, xi) * self.eval_chi(k - 1, 0, zeta)
        return (ud / g) * s / (xi - zeta)

    def resolvent_diag(self, n, xi):
        """R_n(xi, xi) at an interior point, with the xi-derivatives of
        chi taken from the derivative identity (never FD)."""
        g, ud = self.model.gamma, self.model.u0_dot
        s = 0.0
        for k in range(1, n + 1):
            s += self.dchi_dxi(n - k, 0, xi) * self.eval_chi(k - 1, 1, xi) \
                - self.dchi_dxi(k - 1, 1, xi) * self.eval_chi(n - k, 0, xi)
        return (ud / g) * s

    # -- derivative identities ----------------------------------------

    def dchi_dj(self, n, alpha, xi, j):
        """Parameter derivative d(chi_{n,alpha}(xi))/d(tau_j) from the
        resolvent-kernel representation; j is a 0-based index into the
        finite endpoints."""
        tj = self.grid.iu.finite_endpoints[j]
        sign = -1.0 if (j + 1) % 2 else 1.0
        out = self.resolvent_xy(1, xi, tj) * self.eval_chi(n, alpha, tj)
        for k in range(n):
            out += (self.resolvent_xy(n - k + 1, xi, tj)
                    + self.resolvent_xy(n - k, xi, tj)) \
                * self.eval_chi(k, alpha, tj)
        return sign * out

    def _dchi_algebraic(self, n, alpha, xi):
        """The algebraic part of the derivative identity for
        d(chi_{n,alpha})/dxi, before the endpoint terms dchi_dj."""
        g, ud, udd = self.model.gamma, self.model.u0_dot, self.model.u0_ddot
        out = self.eval_chi(n, alpha + 1, xi)
        out -= (g / ud ** 2) * (ud * self.mu[0, alpha] * self.eval_chi(n, 0, xi)
                                + udd * n * self.eval_chi(n, alpha, xi)
                                + udd * (n + 1) * self.eval_chi(n + 1, alpha, xi))
        for k in range(n):
            out -= (g / ud) * self.nu(n - k, alpha) * self.eval_chi(k, 0, xi)
        return out

    def dchi_dxi(self, n, alpha, xi):
        """d(chi_{n,alpha})/dxi at fixed interval, from the derivative
        identity.  Requires n + 1 <= N and alpha <= 1."""
        out = self._dchi_algebraic(n, alpha, xi)
        for j in range(len(self.grid.iu.finite_endpoints)):
            out -= self.dchi_dj(n, alpha, xi, j)
        return out

    def chi_total_deriv(self, n, alpha):
        """Total derivative d/dtau_0 of chi_{n,alpha}(tau_0) at the first
        finite endpoint: the xi and tau_0 partials combine so that the
        singular self-term cancels, leaving the algebraic part minus the
        cross terms of the other endpoints."""
        t0 = self.grid.iu.finite_endpoints[0]
        out = self._dchi_algebraic(n, alpha, t0)
        for i in range(1, len(self.grid.iu.finite_endpoints)):
            out -= self.dchi_dj(n, alpha, t0, i)
        return out

    def moved(self, j, h):
        """The tables of this model on the union with finite endpoint j
        moved by +h and by -h (0-based j), from _rebuild."""
        iu, t = self.grid.iu, self.grid.iu.finite_endpoints[j]
        return (_rebuild(iu.with_endpoint(j, t + h), self),
                _rebuild(iu.with_endpoint(j, t - h), self))


def build_awf(model, disc, N):
    """Construct the AWF table of order N over a discretized kernel."""
    return AwfTable(model, disc, N)


def resolvent_kernel(table, n, i, j):
    """R_n at node pair (i, j); diagonal via the derivative identity."""
    if not 1 <= n <= table.N:
        raise ValueError("need 1 <= n <= table.N")
    x = table.grid.nodes
    if i == j:
        return table.resolvent_diag(n, float(x[i]))
    return table.resolvent_xy(n, float(x[i]), float(x[j]))


# ----------------------------------------------------------------------
# independent matrix-resolvent oracle (no chi machinery)

def resolvent_matrix(disc, n):
    """Node matrix r_n[i,j] with R^n f(x_i) = sum_j w_j r_n[i,j] f(x_j),
    computed from powers of K_w(I - K_w)^{-1}."""
    w = disc.grid.weights
    KW = disc.K * w[None, :]
    R = np.linalg.solve(np.eye(KW.shape[0]) - KW, KW)
    P = np.linalg.matrix_power(R, n)
    return P / w[None, :]


def resolvent_endpoint(disc, tau, n_max):
    """R_n(tau, tau) for n = 1..n_max with tau off the grid (endpoint),
    via Nystrom extension rows of the matrix resolvent.  K(tau, .) and
    K(tau, tau) come from one pair evaluation at tau and the model and
    node values disc was discretized with."""
    model = disc.model
    if model is None:
        raise ValueError("disc is a bare kernel matrix, not a model's")
    x, w = disc.grid.nodes, disc.grid.weights
    p, pp = (float(v) for v in model.pair(tau))
    c = _row_from(model, tau, p, pp, x, disc.psi, disc.psip)
    r1m = resolvent_matrix(disc, 1)
    # r_1(tau, x_j) = K(tau,x_j) + sum_l w_l K(tau,x_l) r_1(x_l,x_j)
    row = c + (c * w) @ r1m
    # r_1(tau,tau) = K(tau,tau) + sum_l w_l K(tau,x_l) r_1(x_l,tau)
    diag = [_diag_from(model, tau, p, pp) + float(np.dot(c * w, row))]
    prev = row
    for n in range(2, n_max + 1):
        diag.append(float(np.dot(prev * w, row)))
        prev = (prev * w) @ r1m
    return np.array(diag)


# ----------------------------------------------------------------------
# identity registry

IDENTITIES = ("CLOSURE", "AWF-DERIV", "AWF-PARAM", "MU01", "MU00-DOT",
              "MU-SHIFT", "MU-IPRO")


def _check_endpoint(table, tau):
    """Refuse a tau that is not the table's first finite endpoint, the
    one the endpoint functions read the table at."""
    t = table.grid.iu.finite_endpoints[0]
    if tau != t:
        raise ValueError("tau = %r is not the table's endpoint %r"
                         % (tau, t))


def _rebuild(iu, ref_table):
    """Private table of the reference table's model on the union iu (the
    reference union with one endpoint moved), laid out with the reference
    grid's settings at its truncation length, so FD differences see no
    tail noise.  Memoized on the reference table per iu: every residual
    that moves the same endpoint by the same step reads the same table."""
    if iu not in ref_table._rebuilt:
        grid, m = ref_table.grid, ref_table.model
        ref_table._rebuilt[iu] = build_awf(
            m, discretize(m, _grid(iu, grid.cfg, grid.truncation)),
            ref_table.N)
    return ref_table._rebuilt[iu]


def closure_residual(table, n, xi):
    """chi_{n,2} minus its closure expansion, at a point xi."""
    m = table.model
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot
    rhs = (g * g / ud ** 2) * (m.v0 + xi) * table.eval_chi(n, 0, xi) \
        - (g * udd / ud ** 2) * table.eval_chi(n, 1, xi)
    for k in range(n + 1):
        rhs += (g / ud) * (table.nu(n - k, 0) * table.eval_chi(k, 1, xi)
                           - table.nu(n - k, 1) * table.eval_chi(k, 0, xi))
    return table.eval_chi(n, 2, xi) - rhs


def identity_residual(name, model, table, tau):
    """Signed residual of a named identity at endpoint tau.

    The table must be built on [tau, inf) from model; any other tau or
    model raises ValueError.  The orders are fixed: n = N = table.N
    for MU-SHIFT and MU-IPRO; n = N - 1 for CLOSURE, AWF-DERIV and
    AWF-PARAM.  FD-based identities rebuild private tables at
    tau +- FD_STEP.
    """
    if name not in IDENTITIES:
        raise ValueError("unknown identity %r" % name)
    if model is not table.model:
        raise ValueError("table was not built from this model")
    _check_endpoint(table, tau)
    m = model
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot
    N, h = table.N, FD_STEP

    if name == "CLOSURE":
        return closure_residual(table, N - 1, tau)

    if name == "AWF-DERIV":
        # xi-derivative identity vs centered FD of the Nystrom extension
        xi = tau + 1.0
        fd = (table.eval_chi(N - 1, 0, xi + h)
              - table.eval_chi(N - 1, 0, xi - h)) / (2.0 * h)
        return fd - table.dchi_dxi(N - 1, 0, xi)

    if name == "AWF-PARAM":
        xi = tau + 1.0
        tp, tm = table.moved(0, h)
        fd = (tp.eval_chi(N - 1, 0, xi) - tm.eval_chi(N - 1, 0, xi)) \
            / (2.0 * h)
        return fd - table.dchi_dj(N - 1, 0, xi, 0)

    if name == "MU01":
        q = table.eval_chi(0, 0, tau)
        rhs = 0.5 * ((g / ud) * (table.mu[0, 0] ** 2
                                 + (udd / ud) * table.mu[1, 0]) - q * q)
        return table.mu[0, 1] - rhs

    if name == "MU00-DOT":
        tp, tm = table.moved(0, h)
        fd = (tp.mu[0, 0] - tm.mu[0, 0]) / (2.0 * h)
        return fd + table.eval_chi(0, 0, tau) ** 2

    if name == "MU-SHIFT":
        w = table.grid.weights
        q = table.chi[0, 0]
        r = 0.0
        for a in range(2):
            lhs = table.mu[N, a] + table.mu[N - 1, a]
            rhs = float(np.dot(w, table.chi[N - 1, a] * q))
            r = lhs - rhs if abs(lhs - rhs) > abs(r) else r
        return r

    # MU-IPRO
    w = table.grid.weights
    psi = table.disc.psi
    q = table.chi[0, 0]
    r = 0.0
    for a in range(2):
        acc = ((-1.0) ** N) * psi * table.chi[0, a]
        for k in range(N):
            acc -= ((-1.0) ** (N - k)) * table.chi[k, a] * q
        rhs = float(np.dot(w, acc))
        lhs = table.mu[N, a]
        r = lhs - rhs if abs(lhs - rhs) > abs(r) else r
    return r
