"""
Finite-temperature (Fermi-weighted) Airy kernels and their gap
probabilities:

    K(xi, zeta) = int_R  Ai(lam + g xi) Ai(lam + g zeta)
                         / (c1 exp(-c2 lam) + 1)  dlam,

the generic weighted form int phi phi / f(lam) dlam on a finite window,
and the closed-form reparametrization u(x) solving
u' = -c1 exp(-c2 u) - 1 that identifies the weighted kernel with a
profile-type one at finite reference point.

Two evaluations of K.  kpz_kernel integrates the form above pointwise on
a two-sided truncated lambda-grid (the Fermi factor kills the left tail,
the Airy decay the right one); it is the oracle.  kpz_matrix builds all
node pairs at once from the equivalent form

    K(xi, zeta) = int_R sigma'(lam) K_Ai(lam + g xi, lam + g zeta) dlam

(Fubini, with K_Ai(a, b) = int_0^inf Ai(a+t) Ai(b+t) dt and sigma the
Fermi factor, sigma(-inf) = 0).  sigma' is a bump of width 1/c2 around
lam0 = ln(c1)/c2, so the lambda-window is O(1/c2) wide whatever c2, and
K_Ai has the Christoffel-Darboux form in (Ai, Ai'), which one pass of the
Airy engine gives.  Gap probabilities reuse the Nystrom determinant
machinery through that externally built kernel matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .airy import airy_ai, airy_ai_pair
from .errors import NonConvergent, WeightVanishes
from .fredholm import fredholm_det, half_line, nystrom
from .quadrature import HALVING_TOL, gl_halving

WEIGHT_FLOOR = 1e-14
# sigma' has fallen below 1e-16 of its peak this many units of c2*lam
# from lam0; past there kpz_matrix's lambda-window ends
_SIGMA_PRIME_SPAN = math.log(1e16)


@dataclass(frozen=True)
class FiniteTempSpec:
    c1: float
    c2: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise ValueError("c1 and c2 must be strictly positive")

    def fermi(self, lam):
        """The weight 1/(c1 e^{-c2 lam} + 1), evaluated stably."""
        lam = np.asarray(lam, dtype=float)
        # e^{-c2 lam} overflows for lam << 0; switch branches there
        out = np.empty_like(lam)
        neg = self.c2 * lam < -30.0
        out[neg] = np.exp(self.c2 * lam[neg]) / (
            self.c1 + np.exp(self.c2 * lam[neg]))
        out[~neg] = 1.0 / (self.c1 * np.exp(-self.c2 * lam[~neg]) + 1.0)
        return out

    def fermi_prime(self, lam):
        """sigma'(lam) = c2 e^{-|u|}/(1 + e^{-|u|})^2 with
        u = c2 lam - ln c1: the derivative of fermi, even in u."""
        e = np.exp(-np.abs(self.c2 * np.asarray(lam, dtype=float)
                           - math.log(self.c1)))
        return self.c2 * e / (1.0 + e) ** 2


def _lambda_cuts(spec, x_min):
    """Two-sided truncation of the lambda axis: left where the Fermi
    factor drops below HALVING_TOL/100, right where the phi^2 envelope
    does (Airy decay gauged at the smallest kernel argument)."""
    lo = min(math.log(0.01 * HALVING_TOL * spec.c1) / spec.c2 - 1.0, -2.0)
    a = 10.0
    while airy_ai(np.array([a]))[0] ** 2 > 0.01 * HALVING_TOL and a < 60.0:
        a += 5.0
    hi = max(a - spec.gamma * x_min, lo + 4.0)
    return lo, hi


def _panel_len(spec):
    # the Fermi transition layer has width 1/c2; resolve it
    return min(1.0, 4.0 / spec.c2)


def kpz_kernel(spec, xi, zeta):
    """Fermi-weighted kernel value at a single pair, with the quadrature
    error estimated by gl_halving."""
    lo, hi = _lambda_cuts(spec, min(xi, zeta))

    def rule(lam, w):
        f = airy_ai(lam + spec.gamma * xi) * airy_ai(lam + spec.gamma * zeta)
        return float(np.dot(w * spec.fermi(lam), f))

    return gl_halving(rule, lo, hi, 32, _panel_len(spec))


def generic_ft_kernel(phi, f_weight, gamma, lambda_lo, lambda_hi, xi, zeta):
    """int_{lambda_lo}^{lambda_hi} phi(lam+g xi) phi(lam+g zeta) / f(lam)
    dlam on an explicit finite window; reversed limits flip the sign."""
    sign = 1.0
    if lambda_lo > lambda_hi:
        lambda_lo, lambda_hi, sign = lambda_hi, lambda_lo, -1.0

    def rule(lam, w):
        f = np.asarray(f_weight(lam), dtype=float)
        if np.min(np.abs(f)) < WEIGHT_FLOOR:
            raise WeightVanishes("|f| < %g at a quadrature node"
                                 % WEIGHT_FLOOR)
        num = np.asarray(phi(lam + gamma * xi), dtype=float) \
            * np.asarray(phi(lam + gamma * zeta), dtype=float)
        return float(np.dot(w, num / f))

    return sign * gl_halving(rule, lambda_lo, lambda_hi, 32, 1.0)


def kpz_matrix(spec, nodes):
    """The kernel matrix on a set of distinct nodes, all pairs at once,
    from the sigma'-form: with A, B = Ai, Ai' at lam_l + g x_i and the
    weights w_l sigma'(lam_l) folded into A, N = A B^T and

        K_ij = (N_ij - N_ji) / (g (x_i - x_j)),
        K_ii = sum_l w_l sigma'(lam_l) (B_il^2 - (lam_l + g x_i) A_il^2),

    bit-for-bit symmetric.  The lambda-window is |lam - lam0| <= 36.8/c2
    (sigma' below 1e-16 of its peak past it), cut on the right where
    _lambda_cuts cuts the Airy tail; gl_halving on 16-point panels of
    _panel_len(spec) gives the result and its error estimate."""
    x = np.asarray(nodes, dtype=float)
    gx = spec.gamma * x
    den = gx[:, None] - gx[None, :]
    np.fill_diagonal(den, 1.0)
    if np.any(den == 0.0):
        raise ValueError("kpz_matrix needs distinct nodes")
    lam0 = math.log(spec.c1) / spec.c2
    lo = lam0 - _SIGMA_PRIME_SPAN / spec.c2
    hi = min(lam0 + _SIGMA_PRIME_SPAN / spec.c2,
             _lambda_cuts(spec, float(np.min(x)))[1])
    # an Airy cut left of the window leaves nothing above rounding: an
    # empty window, K = 0
    hi = max(hi, lo)

    def rule(lam, w):
        ws = w * spec.fermi_prime(lam)
        a = lam[None, :] + gx[:, None]
        A, B = airy_ai_pair(a)
        N = (A * ws[None, :]) @ B.T
        K = (N - N.T) / den
        np.fill_diagonal(K, (B * B - a * A * A) @ ws)
        return K

    return gl_halving(rule, lo, hi, 16, _panel_len(spec))


def kpz_gap(spec, tau, cfg=None):
    """F([tau, inf)) = det(I - K) for the Fermi-weighted kernel.

    The kernel is a bare matrix, not a WaveModel's, so the truncation is
    the one fredholm.nystrom accepts by determinant stability alone; each
    doubling step makes one kpz_matrix call (the sigma'-form on an
    O(1/c2) lambda-window, one Airy pass per rule), on the 2L nodes.
    """
    disc = nystrom(half_line(tau), cfg,
                   matrix=lambda x: kpz_matrix(spec, x))
    return fredholm_det(disc).value


def u_reparam_check(spec, u_ref, n_points=50):
    """Max deviation between the numerically integrated solution of
    u' = -c1 e^{-c2 u} - 1, u(0) = u_ref, and the closed-form inverse
    x(u) = (1/c2)[ln(e^{c2 u_ref} + c1) - ln(e^{c2 u} + c1)], sampled at
    n_points points across a drop of 5 in u."""
    c1, c2 = spec.c1, spec.c2
    if not math.isfinite(u_ref):
        raise ValueError("u_ref must be finite")
    A = math.exp(c2 * u_ref) + c1
    x_span = (math.log(A) - math.log(math.exp(c2 * (u_ref - 5.0)) + c1)) / c2

    def rhs(x, u):
        return [-c1 * math.exp(-c2 * u[0]) - 1.0]

    xs = np.linspace(0.0, x_span, n_points)
    sol = solve_ivp(rhs, (0.0, x_span), [u_ref], t_eval=xs,
                    method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise NonConvergent(sol.message)
    u_closed = np.log(A * np.exp(-c2 * xs) - c1) / c2
    return float(np.max(np.abs(sol.y[0] - u_closed)))
