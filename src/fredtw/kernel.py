"""
The integrable kernel K(xi, zeta) built from boundary data.

Primary route: the Christoffel-Darboux quotient
    K = (u0_dot/gamma) (psi(xi) psi'(zeta) - psi'(xi) psi(zeta)) / (xi - zeta)
with the exact removable-singularity value on the diagonal.  Oracle
route: direct x-integration of the defining integral
    K = int_0^inf phi(u(x) + gamma xi) phi(u(x) + gamma zeta) dx
for models that carry a profile.
"""

import numpy as np

from .errors import NonConvergent
from .quadrature import HALVING_TOL, gl_halving

DELTA_DIAG = 1e-6   # below this separation the CD quotient cancels badly
X_CAP = 200.0       # truncation cap for the direct-integral oracle


def _diag_from(model, xi, p, pp):
    """Exact diagonal value K(xi, xi) from the values p = psi(xi),
    pp = psi'(xi)."""
    g, ud, udd = model.gamma, model.u0_dot, model.u0_ddot
    return (ud / g) * pp * pp - (g / ud) * (model.v0 + xi) * p * p \
        + (udd / ud) * p * pp


def kernel_diag(model, xi):
    """Exact diagonal value K(xi, xi), by _diag_from on one pair
    evaluation."""
    xi = np.asarray(xi, dtype=float)
    out = _diag_from(model, xi, *model.pair(xi))
    return float(out) if np.ndim(xi) == 0 else out


def cd_kernel(model, xi, zeta):
    """Kernel value via the Christoffel-Darboux formula.

    For |xi - zeta| <= DELTA_DIAG the quotient is replaced by the exact
    diagonal value at the midpoint; the first-order term of the CD
    expansion vanishes by symmetry there, so the seam is O(delta^2)
    continuous.
    """
    if abs(xi - zeta) <= DELTA_DIAG:
        return kernel_diag(model, 0.5 * (xi + zeta))
    pxi, ppxi = (float(v) for v in model.pair(xi))
    pz, ppz = (float(v) for v in model.pair(zeta))
    num = pxi * ppz - ppxi * pz
    return (model.u0_dot / model.gamma) * num / (xi - zeta)


def _matrix_from(model, x, p, pp):
    """K(x_i, x_j) for all node pairs from the node values p = psi(x),
    pp = psi'(x).

    Bit-for-bit symmetric: every product is formed once per unordered
    pair up to an exact IEEE negation.
    """
    num = p[:, None] * pp[None, :] - pp[:, None] * p[None, :]
    den = x[:, None] - x[None, :]
    np.fill_diagonal(den, 1.0)
    K = (model.u0_dot / model.gamma) * num / den
    np.fill_diagonal(K, _diag_from(model, x, p, pp))
    near = np.abs(den) <= DELTA_DIAG
    if np.any(near):
        ii, jj = np.nonzero(near)
        K[ii, jj] = kernel_diag(model, 0.5 * (x[ii] + x[jj]))
    return K


def _row_from(model, xi, pxi, ppxi, x, p, pp):
    """K(xi, x_j) for a single off-grid xi against many nodes, from the
    values pxi, ppxi = psi(xi), psi'(xi) and p, pp = psi(x), psi'(x)."""
    den = xi - x
    near = np.abs(den) <= DELTA_DIAG
    den[near] = 1.0
    row = (model.u0_dot / model.gamma) * (pxi * pp - ppxi * p) / den
    if np.any(near):
        row[near] = kernel_diag(model, 0.5 * (xi + x[near]))
    return row


def _node_pair(model, x):
    """(psi(x), psi'(x)) as float arrays, from one pair evaluation."""
    return tuple(np.asarray(v, dtype=float) for v in model.pair(x))


def kernel_matrix(model, nodes):
    """K(xi_i, xi_j) for all node pairs, by _matrix_from on one pair
    evaluation."""
    x = np.asarray(nodes, dtype=float)
    return _matrix_from(model, x, *_node_pair(model, x))


def kernel_row(model, xi, nodes):
    """K(xi, x_j) for a single off-grid xi against many nodes."""
    x = np.asarray(nodes, dtype=float)
    pxi, ppxi = (float(v) for v in model.pair(xi))
    return _row_from(model, xi, pxi, ppxi, x, *_node_pair(model, x))


def kernel_direct(model, xi, zeta):
    """Direct x-integration of the defining kernel integral.

    Requires model.profile.  Truncates at X where the integrand envelope
    falls below HALVING_TOL*1e-2, doubling X up to X_CAP; the quadrature
    error is estimated by gl_halving.  Used only as an oracle for
    cd_kernel.
    """
    if model.profile is None:
        raise ValueError("kernel_direct needs a model with a profile")
    u, phi = model.profile
    g = model.gamma

    def integrand(x):
        ux = np.asarray(u(x), dtype=float)
        return np.asarray(phi(ux + g * xi), dtype=float) \
            * np.asarray(phi(ux + g * zeta), dtype=float)

    X = 8.0
    while X < X_CAP:
        if abs(integrand(np.array([X]))[0]) < HALVING_TOL * 1e-2:
            break
        X *= 2.0
    else:
        raise NonConvergent("integrand tail above tolerance at X cap")

    return gl_halving(lambda x, w: float(np.dot(w, integrand(x))),
                      0.0, X, 32, 2.0)


def kernel_derivative_residual(model, xi, zeta, h=1e-4):
    """Residual of the kernel derivative identity

        (d_xi + d_zeta) K + (gamma/u0_dot)(psi(xi)psi(zeta)
                                           + (u0_ddot/u0_dot) K) = 0

    with the diagonal-direction derivative taken by centered differences
    of cd_kernel; expected O(h^2).
    """
    dsum = (cd_kernel(model, xi + h, zeta + h)
            - cd_kernel(model, xi - h, zeta - h)) / (2.0 * h)
    g, ud, udd = model.gamma, model.u0_dot, model.u0_ddot
    return dsum + (g / ud) * (float(model.psi(xi)) * float(model.psi(zeta))
                              + (udd / ud) * cd_kernel(model, xi, zeta))
