"""Independent reference values for the benchmark's output checks.

Nothing here imports fredtw.  Airy values come from scipy.special.airy,
determinants from a Cholesky factorization of the symmetrized Nystrom
matrix (Bornemann, "On the numerical evaluation of Fredholm
determinants", Math. Comp. 79 (2010)), and every value checks its own
convergence by comparing m against 2m quadrature nodes.
"""

import math

import numpy as np
from scipy.special import airy, expit

# Published moments of the GUE Tracy-Widom distribution F2, as tabulated
# by Bornemann (2010).
TW2_MEAN = -1.7710868074
TW2_VAR = 0.8131947928

# Beyond this point Ai(x)^2 < 1e-30, so every kernel below is negligible.
_AIRY_CUT = 14.0
# Required agreement of the m- and 2m-node values: relative on log F,
# against max(1, |log F|).  Far left (log F2(-8.25) = -47.2) the
# determinant's rounding floor is 4e-8 of |log F|; elsewhere the values
# agree to 1e-12 or better.
_SELF_RTOL = 1e-7


class ReferenceNotConverged(RuntimeError):
    """The m- and 2m-node reference values disagree."""


def _gauss(a, b, m):
    t, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (a + b) + 0.5 * (b - a) * t, 0.5 * (b - a) * w


def _log_det(K, w):
    """log det(I - W^1/2 K W^1/2) by Cholesky: I - K is positive definite
    for these kernels, so a grid on which it is not is too coarse."""
    s = np.sqrt(w)
    A = np.eye(w.size) - s[:, None] * K * s[None, :]
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ReferenceNotConverged("I - K is not positive definite on "
                                    "%d nodes" % w.size) from None
    return 2.0 * float(np.sum(np.log(np.diag(C))))


def _converged(f, m, what):
    lo, hi = f(m), f(2 * m)
    if abs(hi - lo) > _SELF_RTOL * max(1.0, abs(hi)):
        raise ReferenceNotConverged("%s: m=%d gives %.17g, 2m gives %.17g"
                                    % (what, m, lo, hi))
    return hi


def _airy_log_f2(s, m):
    x, w = _gauss(s, max(s, 0.0) + _AIRY_CUT, m)
    ai, aip, _, _ = airy(x)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / d
    np.fill_diagonal(K, aip * aip - x * ai * ai)
    return _log_det(K, w)


def log_f2(s, m=96):
    """log F2(s), the GUE Tracy-Widom distribution at s."""
    return _converged(lambda k: _airy_log_f2(s, k), m, "log F2(%g)" % s)


def _fermi_log_gap(c1, c2, s, m):
    # lambda grid: Gauss panels of width 1/c2 across the Fermi step at
    # lambda0 = ln(c1)/c2, unit panels on either side of it
    lam0 = math.log(c1) / c2
    lo = lam0 - 40.0 / c2
    hi = _AIRY_CUT - s
    step = np.linspace(lam0 - 6.0 / c2, lam0 + 6.0 / c2, 13)
    edges = np.unique(np.concatenate([
        np.linspace(lo, step[0], max(1, math.ceil(step[0] - lo)) + 1),
        step,
        np.linspace(step[-1], hi, max(1, math.ceil(hi - step[-1])) + 1)]))
    parts = [_gauss(a, b, m // 6) for a, b in zip(edges[:-1], edges[1:])]
    lam = np.concatenate([p[0] for p in parts])
    wl = np.concatenate([p[1] for p in parts]) * expit(c2 * lam - math.log(c1))
    x, wx = _gauss(s, max(s, 0.0) + _AIRY_CUT, m)
    Phi = airy(x[:, None] + lam[None, :])[0]
    return _log_det((Phi * wl[None, :]) @ Phi.T, wx)


def log_fermi_gap(c1, c2, s, m=96):
    """log det(I - K) on [s, inf) for the Fermi-weighted Airy kernel
    K(x, y) = int Ai(l + x) Ai(l + y) / (c1 exp(-c2 l) + 1) dl."""
    return _converged(lambda k: _fermi_log_gap(c1, c2, s, k), m,
                      "log F(c1=%g, c2=%g, %g)" % (c1, c2, s))
