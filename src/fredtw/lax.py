"""
Finite truncations of the isomonodromic linear system attached to the
kernel on a multi-interval union: residue matrices A_j at the finite
endpoints, the polynomial-part matrix B(xi), finite-difference residuals
of the linear system satisfied by the stacked wave-function column
X(xi) = (chi_{0,0}, chi_{0,1}, chi_{1,0}, ...)^T,

    d/dtau_j X = -A_j X / (xi - tau_j),
    d/dxi    X = (B + sum_j A_j / (xi - tau_j)) X,

and the Schlesinger-type deformation residuals for the A_j themselves.

All matrices are 2(N+1) x 2(N+1) truncations of infinite ones.  B
couples block-row n to n+1 and the A sums reach down to order n-p, so
the top two block-rows of any matrix-vector or commutator product are
polluted by the cut; residuals are therefore measured only on components
2n+alpha with n <= N-2.
"""

from dataclasses import dataclass

import numpy as np

from .awf import FD_STEP, build_awf
from .fredholm import nystrom


def _chi(table, tau, n, a):
    return 0.0 if n < 0 else table.eval_chi(n, a, tau)


def build_A(table, j, N):
    """Residue matrix A_j at tau_j, the finite endpoint j (0-based) of
    the table's union.

    Entry (2n+alpha, 2p+beta) is
        -(u0_dot/gamma) (-1)^{j+1+beta}
            sum_{k=0}^{n-p} (chi_{n-p-k,-beta} + chi_{n-p-k-1,-beta}) chi_{k,alpha}
    with every chi evaluated at tau_j and the index conventions
    chi_{n,-0} = chi_{n,1}, chi_{n,-1} = chi_{n,0}, chi_{-p,a} = 0; the
    parity (-1)^{j+1} is -1 at a left endpoint and +1 at a right one.
    Block upper-triangular entries (p > n) are exact zeros of the empty
    sum.
    """
    if table.N < N:
        raise ValueError("need table.N >= N")
    tau = table.grid.iu.finite_endpoints[j]
    m = table.model
    size = 2 * (N + 1)
    A = np.zeros((size, size))
    # cache the handful of chi values actually used
    c = {(n, a): _chi(table, tau, n, a) for n in range(N + 1) for a in (0, 1)}
    c.update({(-1, 0): 0.0, (-1, 1): 0.0})
    pref = -(m.u0_dot / m.gamma) * (-1.0) ** (j + 1)
    for n in range(N + 1):
        for p in range(n + 1):
            for beta in (0, 1):
                mb = 1 - beta  # chi_{., -beta}
                for alpha in (0, 1):
                    s = 0.0
                    for k in range(n - p + 1):
                        s += (c[(n - p - k, mb)] + c[(n - p - k - 1, mb)]) \
                            * c[(k, alpha)]
                    A[2 * n + alpha, 2 * p + beta] = pref * (-1.0) ** beta * s
    return A


def build_B(table, xi, N):
    """Polynomial-part matrix B(xi) of the xi-equation.

    Needs table.N >= N + 1 because the moment combinations
    nu_{n-p,a} = mu_{n-p,a} + mu_{n-p-1,a} reach one order past the
    truncation.  Only the (1,0)-type entries depend on xi, linearly.
    """
    if table.N < N + 1:
        raise ValueError("need table.N >= N + 1")
    model = table.model
    g, ud, udd = model.gamma, model.u0_dot, model.u0_ddot
    mu00, mu01 = table.mu[0, 0], table.mu[0, 1]
    size = 2 * (N + 1)
    B = np.zeros((size, size))
    for n in range(N + 1):
        for p in range(N + 1):
            if p == n:
                B[2 * n, 2 * p] = (g / ud ** 2) * (-ud * mu00 - udd * n)
                B[2 * n, 2 * p + 1] = 1.0
                B[2 * n + 1, 2 * p] = (g / ud ** 2) \
                    * (g * (model.v0 + xi) - 2.0 * ud * mu01)
                B[2 * n + 1, 2 * p + 1] = (g / ud ** 2) \
                    * (ud * mu00 - udd * (n + 1))
            elif p == n + 1:
                B[2 * n, 2 * p] = -(g / ud ** 2) * udd * (n + 1)
                B[2 * n + 1, 2 * p + 1] = -(g / ud ** 2) * udd * (n + 1)
            elif p < n:
                B[2 * n, 2 * p] = -(g / ud) * table.nu(n - p, 0)
                B[2 * n + 1, 2 * p] = -(2.0 * g / ud) * table.nu(n - p, 1)
                B[2 * n + 1, 2 * p + 1] = (g / ud) * table.nu(n - p, 0)
    return B


@dataclass(frozen=True)
class LaxTruncation:
    """A_j truncations at every finite endpoint of a union, plus the
    shared AWF table (order N + 1, as build_B requires) of the union
    operator.  The model, the union and its endpoints are the table's;
    parities[j] = (-1)^(1-based endpoint number)."""
    N: int
    table: object
    A: tuple

    @property
    def model(self):
        return self.table.model

    @property
    def iu(self):
        return self.table.grid.iu

    @property
    def taus(self):
        return self.iu.finite_endpoints

    @property
    def parities(self):
        return tuple((-1.0) ** (j + 1) for j in range(len(self.taus)))

    def B(self, xi):
        return build_B(self.table, xi, self.N)

    def X(self, xi, table=None):
        """The stacked column (chi_{0,0}, chi_{0,1}, ..., chi_{N,1})(xi)."""
        t = self.table if table is None else table
        return np.array([t.eval_chi(n, a, xi)
                         for n in range(self.N + 1) for a in (0, 1)])


def build_truncation(model, iu, N, cfg=None):
    """The order-N truncation on iu.  Its table has order N + 1, at most 8,
    and the measured components n <= N-2 need N >= 2."""
    if not 2 <= N <= 7:
        raise ValueError("N = %r: the truncation order must lie in 2..7" % N)
    table = build_awf(model, nystrom(iu, cfg, model), N + 1)
    A = tuple(build_A(table, j, N) for j in range(len(iu.finite_endpoints)))
    return LaxTruncation(N, table, A)


def measured(vec_or_mat, N):
    """Restrict to the components 2n+alpha with n <= N-2 (rows, and
    columns too for a matrix)."""
    stop = 2 * (N - 1)
    a = np.asarray(vec_or_mat)
    return a[:stop] if a.ndim == 1 else a[:stop, :stop]


def lax_system_residual(trunc, which, j=0, *, xi):
    """Max-norm residual of the linear system at a point xi inside the
    union, over the measured components n <= N-2; h = FD_STEP.

    TAU_EQ: centered difference of X(xi) across tables with endpoint j
    moved by +-h, against -A_j X / (xi - tau_j).
    XI_EQ: centered difference of X in xi on the fixed table, against
    (B(xi) + sum_j A_j/(xi - tau_j)) X(xi).
    """
    if which not in ("TAU_EQ", "XI_EQ"):
        raise ValueError("which must be TAU_EQ or XI_EQ")
    h = FD_STEP
    if any(abs(xi - t) < 10 * h for t in trunc.taus):
        raise ValueError("xi must stay away from the endpoints")
    X0 = trunc.X(xi)
    if which == "TAU_EQ":
        tp, tm = trunc.table.moved(j, h)
        fd = (trunc.X(xi, tp) - trunc.X(xi, tm)) / (2.0 * h)
        res = fd + (trunc.A[j] @ X0) / (xi - trunc.taus[j])
    else:
        fd = (trunc.X(xi + h) - trunc.X(xi - h)) / (2.0 * h)
        M = trunc.B(xi)
        for t, Aj in zip(trunc.taus, trunc.A):
            M = M + Aj / (xi - t)
        res = fd - M @ X0
    return float(np.max(np.abs(measured(res, trunc.N))))


def schlesinger_residual(trunc, i, j):
    """Signed residual matrix of the deformation equation for A_i under
    motion of endpoint j (FD over tables moved by +-FD_STEP):

        i != j:  FD_{tau_j} A_i - [A_i, A_j]/(tau_i - tau_j)
        i == j:  FD_{tau_j} A_j - sum_{k != j} [A_k, A_j]/(tau_j - tau_k)
                               + [A_j, B(tau_j)]

    The full matrix is returned; only the block-lower part p >= n inside
    the measured range n <= N-2 carries a guarantee, the rest is
    diagnostic.
    """
    N, h = trunc.N, FD_STEP
    Ap, Am = (build_A(t, i, N) for t in trunc.table.moved(j, h))
    fd = (Ap - Am) / (2.0 * h)
    if i != j:
        rhs = _comm(trunc.A[i], trunc.A[j]) / (trunc.taus[i] - trunc.taus[j])
    else:
        rhs = np.zeros_like(fd)
        for k in range(len(trunc.taus)):
            if k != j:
                rhs += _comm(trunc.A[k], trunc.A[j]) \
                    / (trunc.taus[j] - trunc.taus[k])
        rhs -= _comm(trunc.A[j], trunc.B(trunc.taus[j]))
    return fd - rhs


def _comm(X, Y):
    return X @ Y - Y @ X


def schlesinger_mask(N):
    """Boolean matrix marking the guaranteed components: p >= n within
    the measured range n <= N-2."""
    size = 2 * (N + 1)
    mask = np.zeros((size, size), dtype=bool)
    for n in range(N - 1):
        for p in range(n, N - 1):
            mask[2 * n:2 * n + 2, 2 * p:2 * p + 2] = True
    return mask


# ----------------------------------------------------------------------
# closed-form diagonal 2x2 blocks of the commutators

def commutator_AA_diag(trunc, i, j):
    """The (n-independent) diagonal 2x2 block of [A_i, A_j] in closed
    form: entry (alpha, beta) equals
        -(u0_dot/gamma)^2 (-1)^{i+j+beta} (q_i p_j - p_i q_j)
            (chi_{0,alpha}(tau_i) chi_{0,-beta}(tau_j)
             + chi_{0,-beta}(tau_i) chi_{0,alpha}(tau_j)).
    """
    m = trunc.model
    t = trunc.table
    ti, tj = trunc.taus[i], trunc.taus[j]
    qi, pi = t.eval_chi(0, 0, ti), t.eval_chi(0, 1, ti)
    qj, pj = t.eval_chi(0, 0, tj), t.eval_chi(0, 1, tj)
    wr = qi * pj - pi * qj
    ci = {0: qi, 1: pi}
    cj = {0: qj, 1: pj}
    pref = -(m.u0_dot / m.gamma) ** 2 * trunc.parities[i] * trunc.parities[j]
    blk = np.empty((2, 2))
    for alpha in (0, 1):
        for beta in (0, 1):
            mb = 1 - beta
            blk[alpha, beta] = pref * (-1.0) ** beta * wr \
                * (ci[alpha] * cj[mb] + ci[mb] * cj[alpha])
    return blk


def commutator_BA_diag(trunc, j):
    """The diagonal 2x2 block of [B(tau_j), A_j] in closed form, through
    q = chi_{0,0}, p = chi_{0,1}, chi_{1,0}, chi_{1,1} at tau_j and the
    moments mu_{0,a}."""
    m = trunc.model
    t = trunc.table
    tj = trunc.taus[j]
    g, ud, udd = m.gamma, m.u0_dot, m.u0_ddot
    q = t.eval_chi(0, 0, tj)
    p = t.eval_chi(0, 1, tj)
    c10 = t.eval_chi(1, 0, tj)
    c11 = t.eval_chi(1, 1, tj)
    mu00, mu01 = t.mu[0, 0], t.mu[0, 1]
    w = (g / ud) * (m.v0 + tj) - 2.0 * mu01
    G = np.empty((2, 2))
    G[0, 0] = (ud / g) * p * p + w * q * q \
        - (udd / ud) * (p * q + p * c10 + q * c11)
    G[1, 0] = 2.0 * (w * p * q + (mu00 - udd / ud) * p * p
                     - (udd / ud) * p * c11)
    G[0, 1] = 2.0 * (mu00 * q * q + (udd / ud) * q * c10 - (ud / g) * p * q)
    G[1, 1] = (udd / ud) * (p * q + p * c10 + q * c11) \
        - w * q * q - (ud / g) * p * p
    # the display is for -(-1)^j [B_j, A_j]
    return -trunc.parities[j] * G
