"""
The q-equation solver and the two functional determinant formulas.

q = (I-K)^{-1} psi restricted to the endpoint satisfies, for models with
u0_ddot = 0, the local second-order equation
(u0_dot/gamma)^2 q'' = (v0 + tau) q + 2 (u0_dot/gamma) q^3 (Painleve II
for the Airy model).  Models with u0_ddot != 0 are refused: the closed
equation written for them is false (see notes/decisions.md).  The solve
is one backward DOP853 integration from q, q' = psi, psi' at the right
end T_match, sampled on piecewise Chebyshev-Lobatto panels (spectral
elements).  The panels serve what follows the solve: q' by spectral
differentiation, the collocation residual of the q-equation, and the
antiderivatives of the functionals.  They are short because a single
global Chebyshev grid on a length-10 domain carries O(n^4)-scaled
differentiation rows whose roundoff drowns the exponentially small
right-end data.  A collocation Newton corrector with q, q' pinned at
T_match poses the same terminal-value problem again and is flat along
the growing mode at double precision, so there is none.

The solution feeds two independent expressions for
F([tau, inf)) = det(I - K): the q-functional integral and the
(sigma - tau)-weighted alternative; both are quadratures over the
collocation grid with a psi-asymptote tail closure beyond T_match,
computed once per solution on Gauss-Legendre panels.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonConvergent
from .quadrature import gl_panels
from .wavefun import WaveModel, psi_second_from

PANEL_LEN = 2.0         # target spectral-element length
PANEL_DEGREE = 20       # Lobatto degree per element
MATCH_TOL = 1e-9        # on |q - psi| at T_match
TAIL_TOL = 1e-10        # on each of the three tail integrals
TAIL_PANEL = 2.0        # panel length of the tail rule; its check halves it
TAIL_NODES = 20


@dataclass(frozen=True)
class Panel:
    nodes: np.ndarray     # ascending Lobatto points on [a, b]
    D: np.ndarray         # first-derivative matrix on the panel
    s: slice              # the panel's nodes within the concatenated grid


@dataclass(frozen=True)
class QSolution:
    model: WaveModel
    tau_min: float
    match_T: float
    panels: Tuple[Panel, ...]
    tau_grid: np.ndarray        # all panel nodes, concatenated ascending
    q: np.ndarray
    qp: np.ndarray              # spectral derivative of q
    qpp: np.ndarray             # RHS of the q-equation on q
    tails: Tuple[float, float, float]  # see _tails, from match_T on
    iterations: int             # one backward integration: always 1
    residual_norm: float

    def _locate(self, t):
        for p in self.panels:
            if p.nodes[0] - 1e-12 <= t <= p.nodes[-1] + 1e-12:
                return p
        raise ValueError("point %g outside the solution domain" % t)

    def interp(self, vals, t):
        """Barycentric interpolation of nodal values to a point."""
        p = self._locate(t)
        x, v = p.nodes, np.asarray(vals)[p.s]
        d = t - x
        hit = int(np.argmin(np.abs(d)))
        if abs(d[hit]) < 1e-13 * max(1.0, abs(t)):
            return float(v[hit])
        n = x.size - 1
        bw = (-1.0) ** np.arange(n + 1)
        bw[0] *= 0.5
        bw[n] *= 0.5
        c = bw / d
        return float(np.dot(c, v) / np.sum(c))

    def antiderivative(self, vals):
        """G with G' = vals on the grid and G(tau_min) = 0, solved
        panel-wise with the running value pinned at each left edge."""
        vals = np.asarray(vals, dtype=float)
        out = np.empty_like(vals)
        acc = 0.0
        for p in self.panels:
            A = p.D.copy()
            b = vals[p.s].copy()
            A[0] = 0.0
            A[0, 0] = 1.0
            b[0] = acc
            g = np.linalg.solve(A, b)
            out[p.s] = g
            acc = float(g[-1])
        return out


def _cheb(n):
    """Chebyshev-Lobatto points (descending on [-1,1]) and the
    differentiation matrix, Trefethen's construction (n >= 1)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _make_panels(a, b):
    """Spectral elements of length at most PANEL_LEN tiling [a, b]."""
    n_el = max(1, int(math.ceil((b - a) / PANEL_LEN)))
    edges = np.linspace(a, b, n_el + 1)
    x, D = _cheb(PANEL_DEGREE)
    m = x.size
    # nodes ascend on each panel since x descends
    return tuple(Panel(nodes=0.5 * (lo + hi) - 0.5 * (hi - lo) * x,
                       D=D * (-2.0 / (hi - lo)), s=slice(k * m, (k + 1) * m))
                 for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])))


def _ode_rhs(model, t, q):
    """Right-hand side of the q-equation (u0_ddot = 0), vectorized over
    nodes."""
    g, ud = model.gamma, model.u0_dot
    return (g * g / ud ** 2) * (model.v0 + t) * q + (2.0 * g / ud) * q ** 3


def _ode_residual(model, panels, t, q):
    """(q', q'' - rhs) at every node, q'' by double spectral
    differentiation on each panel."""
    rhs = _ode_rhs(model, t, q)
    qp = np.empty_like(q)
    r = np.empty_like(q)
    for p in panels:
        qp[p.s] = p.D @ q[p.s]
        r[p.s] = (p.D @ qp[p.s]) - rhs[p.s]
    return qp, r


def _functional_integrand(model, q, qp, qpp):
    """q((u0_dot/gamma) q'' - q^3) - (u0_dot/gamma) q'^2, vectorized."""
    g, ud = model.gamma, model.u0_dot
    return q * ((ud / g) * qpp - q ** 3) - (ud / g) * qp ** 2


def _tail_panel_sums(model, T, length, panel_len):
    """Per-panel sums of psi^2, s psi^2 and the functional integrand on
    [T, T + length], from one pair evaluation.  The panels are laid on
    [0, length], so that there are exactly length/panel_len."""
    x, w = gl_panels(0.0, length, TAIL_NODES, panel_len)
    s = T + x
    psi, psip = (np.asarray(v, dtype=float) for v in model.pair(s))
    psi2 = psi * psi
    f = np.stack([psi2, s * psi2, _functional_integrand(
        model, psi, psip, psi_second_from(model, s, psi, psip))])
    return (f * w).reshape(3, -1, TAIL_NODES).sum(axis=2)


def _tails(model, T):
    """int_T^inf of psi^2, s psi^2 and the functional integrand, with q
    replaced by its psi asymptote.

    The rule covers [T, T + 2 cut], the cut doubling from 16; a level
    is accepted when, for all three integrals, the outer half
    [T + cut, T + 2 cut] adds less than TAIL_TOL and the rule on
    half-length panels moves the total by less than TAIL_TOL."""
    cut, cut_max = 16.0, 512.0
    while cut < cut_max:
        coarse = _tail_panel_sums(model, T, 2.0 * cut, TAIL_PANEL)
        fine = _tail_panel_sums(model, T, 2.0 * cut,
                                0.5 * TAIL_PANEL).sum(axis=1)
        outer = coarse[:, coarse.shape[1] // 2:].sum(axis=1)
        if np.all(np.abs(outer) < TAIL_TOL) \
                and np.all(np.abs(fine - coarse.sum(axis=1)) < TAIL_TOL):
            return tuple(float(v) for v in fine)
        cut *= 2.0
    raise NonConvergent("tail integrals not resolved below %g by "
                        "T + %g" % (TAIL_TOL, cut_max))


def solve_q(model, tau_min):
    """The q-equation's solution on [tau_min, T_match], T_match =
    max(tau_min + 10, 8), integrated backward from (psi, psi')(T_match)
    and sampled on the spectral elements."""
    if not math.isfinite(tau_min):
        raise ValueError("tau_min must be finite (got %r)" % tau_min)
    if model.u0_ddot != 0.0:
        raise ValueError("the q-equation route needs u0_ddot = 0 (got %g); "
                         "see notes/decisions.md" % model.u0_ddot)
    T = max(tau_min + 10.0, 8.0)
    panels = _make_panels(tau_min, T)
    t = np.concatenate([p.nodes for p in panels])
    psi_T, psip_T = (float(v) for v in model.pair(T))
    tails = _tails(model, T)
    if psi_T == 0.0 and psip_T == 0.0:
        q = np.zeros_like(t)
    else:
        # backward from the right-end data, the direction in which the
        # mode that decays toward +inf is resolved in a relative sense
        def rhs(s, y):
            qv, qpv = y
            return [qpv, float(_ode_rhs(model, np.float64(s), qv))]

        # absolute tolerance pinned to the right-end data scale: a fixed
        # floor would be amplified by the full leftward growth factor
        atol = 1e-13 * max(abs(psi_T) + abs(psip_T), 1e-290)
        ivp = solve_ivp(rhs, (T, tau_min), [psi_T, psip_T],
                        method="DOP853", rtol=3e-13, atol=atol,
                        dense_output=True)
        if not ivp.success:
            raise NonConvergent("backward integration failed: %s"
                                % ivp.message)
        q = ivp.sol(t)[0]
    if abs(q[-1] - psi_T) > MATCH_TOL:
        raise NonConvergent("boundary match |q - psi|(T) = %.3e"
                            % abs(q[-1] - psi_T))
    qp, r = _ode_residual(model, panels, t, q)
    res = max(float(np.max(np.abs(r[p.s][1:-1]))) for p in panels)
    return QSolution(model=model, tau_min=float(tau_min), match_T=float(T),
                     panels=panels, tau_grid=t, q=q, qp=qp,
                     qpp=_ode_rhs(model, t, q), tails=tails, iterations=1,
                     residual_norm=res)


# ----------------------------------------------------------------------
# determinant functionals

def det_via_functional(sol, tau):
    """F([tau, inf)) from the q-functional integral."""
    if tau < sol.tau_min - 1e-12:
        raise ValueError("tau below the solution domain")
    f = _functional_integrand(sol.model, sol.q, sol.qp, sol.qpp)
    G = sol.antiderivative(f)
    core = float(G[-1]) - sol.interp(G, tau)
    return math.exp(core + sol.tails[2])


def det_via_alternative(sol, tau):
    """F([tau, inf)) from the (sigma - tau)-weighted representation."""
    if tau < sol.tau_min - 1e-12:
        raise ValueError("tau below the solution domain")
    g, ud = sol.model.gamma, sol.model.u0_dot
    t = sol.tau_grid
    h = sol.q ** 2
    G1 = sol.antiderivative(t * h)
    G0 = sol.antiderivative(h)
    core = (float(G1[-1]) - sol.interp(G1, tau)) \
        - tau * (float(G0[-1]) - sol.interp(G0, tau))
    tail = sol.tails[1] - tau * sol.tails[0]
    return math.exp(-(g / ud) * (core + tail))


def q_ode_residual(sol, tau):
    """Residual of the q-equation at an interior collocation node, with
    q'' by independent double spectral differentiation."""
    for p in sol.panels:
        d = np.abs(p.nodes - tau)
        i = int(np.argmin(d))
        if d[i] <= 1e-10 * max(1.0, abs(tau)) and 0 < i < p.nodes.size - 1:
            _, r = _ode_residual(sol.model, sol.panels, sol.tau_grid, sol.q)
            return float(r[p.s][i])
    raise ValueError("tau is not an interior collocation node")
