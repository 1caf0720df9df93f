"""
The q-equation solver and the two functional determinant formulas.

q = (I-K)^{-1} psi restricted to the endpoint satisfies, for models with
u0_ddot = 0, the local second-order equation
(u0_dot/gamma)^2 q'' = (v0 + tau) q + 2 (u0_dot/gamma) q^3 (Painleve II
for the Airy model).  Models with u0_ddot != 0 are refused: the closed
equation written for them is false (see notes/decisions.md).  We solve
it by piecewise Chebyshev-Lobatto collocation (spectral elements with
C^1 interfaces): one pass of a backward IVP predictor and a damped
Newton corrector with q, q' matched to psi, psi' at the right end
T_match.  Panelization is essential, not cosmetic: a single global
Chebyshev grid on a length-10 domain carries O(n^4)-scaled rows whose
roundoff drowns the exponentially small right-end data that determines
the solution, while short panels keep the differentiation scale small
so the conditioning reduces to the physical sensitivity of the
right-anchored problem.

The converged solution feeds two independent expressions for
F([tau, inf)) = det(I - K): the q-functional integral and the
(sigma - tau)-weighted alternative; both are quadratures over the
collocation grid with a psi-asymptote tail closure beyond T_match,
computed once per solution on Gauss-Legendre panels.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonConvergent, TailNotResolved
from .quadrature import gl_panels
from .wavefun import psi_second_from


@dataclass(frozen=True)
class SolverConfig:
    panel_len: float = 2.0          # target spectral-element length
    panel_degree: int = 20          # Lobatto degree per element
    T_match: Optional[float] = None  # default max(tau_min + 10, 8)
    match_tol: float = 1e-9
    newton_tol: float = 1e-10       # on the Newton step, not on |F|
    max_newton: int = 40
    integ_tail_tol: float = 1e-10


@dataclass(frozen=True)
class Panel:
    nodes: np.ndarray     # ascending Lobatto points on [a, b]
    D: np.ndarray         # first-derivative matrix on the panel


@dataclass(frozen=True)
class QSolution:
    tau_min: float
    match_T: float
    panels: Tuple[Panel, ...]
    tau_grid: np.ndarray        # all panel nodes, concatenated ascending
    q: np.ndarray
    qp: np.ndarray              # spectral derivative of q
    qpp: np.ndarray             # RHS of the q-equation on the converged q
    tails: Tuple[float, float, float]  # see _tails, from match_T on
    iterations: int             # predictor-corrector passes: always 1
    residual_norm: float

    def _slices(self):
        off = 0
        for p in self.panels:
            m = p.nodes.size
            yield p, slice(off, off + m)
            off += m

    def _locate(self, t):
        for p, s in self._slices():
            if p.nodes[0] - 1e-12 <= t <= p.nodes[-1] + 1e-12:
                return p, s
        raise ValueError("point %g outside the solution domain" % t)

    def interp(self, vals, t):
        """Barycentric interpolation of nodal values to a point."""
        p, s = self._locate(t)
        x, v = p.nodes, np.asarray(vals)[s]
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
        for p, s in self._slices():
            A = p.D.copy()
            b = vals[s].copy()
            A[0] = 0.0
            A[0, 0] = 1.0
            b[0] = acc
            g = np.linalg.solve(A, b)
            out[s] = g
            acc = float(g[-1])
        return out


def _cheb(n):
    """Chebyshev-Lobatto points (descending on [-1,1]) and the
    differentiation matrix, Trefethen's construction."""
    if n == 0:
        return np.array([1.0]), np.zeros((1, 1))
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _panel(a, b, p):
    x, D = _cheb(p)
    t = 0.5 * (a + b) - 0.5 * (b - a) * x       # ascending since x descends
    return Panel(nodes=t, D=D * (-2.0 / (b - a)))


def _make_panels(a, b, cfg):
    n_el = max(1, int(math.ceil((b - a) / cfg.panel_len)))
    edges = np.linspace(a, b, n_el + 1)
    return tuple(_panel(lo, hi, cfg.panel_degree)
                 for lo, hi in zip(edges[:-1], edges[1:]))


def _refuse_damped(model):
    if model.u0_ddot != 0.0:
        raise ValueError("the q-equation route needs u0_ddot = 0 (got %g); "
                         "see notes/decisions.md" % model.u0_ddot)


def _ode_rhs(model, t, q):
    """Right-hand side of the q-equation (u0_ddot = 0), vectorized over
    nodes."""
    g, ud = model.gamma, model.u0_dot
    return (g * g / ud ** 2) * (model.v0 + t) * q + (2.0 * g / ud) * q ** 3


def _ode_jac(model, t, q):
    """d rhs/d q as a nodal diagonal array."""
    g, ud = model.gamma, model.u0_dot
    return (g * g / ud ** 2) * (model.v0 + t) + (2.0 * g / ud) * (3.0 * q ** 2)


def _functional_integrand(model, q, qp, qpp):
    """q((u0_dot/gamma) q'' - q^3) - (u0_dot/gamma) q'^2, vectorized."""
    g, ud = model.gamma, model.u0_dot
    return q * ((ud / g) * qpp - q ** 3) - (ud / g) * qp ** 2


TAIL_PANEL = 2.0    # panel length of the tail rule; its check halves it
TAIL_NODES = 20


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


def _tails(model, T, tol, cut0=16.0, cut_max=512.0):
    """int_T^inf of psi^2, s psi^2 and the functional integrand, with q
    replaced by its psi asymptote.

    The rule covers [T, T + 2 cut], the cut doubling from cut0; a level
    is accepted when, for all three integrals, the outer half
    [T + cut, T + 2 cut] adds less than tol and the rule on half-length
    panels moves the total by less than tol."""
    cut = cut0
    while cut < cut_max:
        coarse = _tail_panel_sums(model, T, 2.0 * cut, TAIL_PANEL)
        fine = _tail_panel_sums(model, T, 2.0 * cut,
                                0.5 * TAIL_PANEL).sum(axis=1)
        outer = coarse[:, coarse.shape[1] // 2:].sum(axis=1)
        if np.all(np.abs(outer) < tol) \
                and np.all(np.abs(fine - coarse.sum(axis=1)) < tol):
            return tuple(float(v) for v in fine)
        cut *= 2.0
    raise TailNotResolved("tail integrals not resolved below %g by "
                          "T + %g" % (tol, cut_max))


class _System:
    """Global collocation system over the spectral elements.

    Row layout mirrors the node layout: interior nodes carry the ODE,
    each interface carries the C^0/C^1 matching pair, and the last two
    rows of the final panel carry the right-end boundary conditions."""

    def __init__(self, model, panels, psi_T, psip_T):
        self.model = model
        self.panels = panels
        self.psi_T = psi_T
        self.psip_T = psip_T
        self.slices = []
        off = 0
        for p in panels:
            m = p.nodes.size
            self.slices.append(slice(off, off + m))
            off += m
        self.size = off
        self.t = np.concatenate([p.nodes for p in panels])

    def deriv(self, q):
        qp = np.empty_like(q)
        for p, s in zip(self.panels, self.slices):
            qp[s] = p.D @ q[s]
        return qp

    def residual(self, q):
        F = np.empty(self.size)
        rhs = _ode_rhs(self.model, self.t, q)
        last = len(self.panels) - 1
        for k, (p, s) in enumerate(zip(self.panels, self.slices)):
            loc = (p.D @ (p.D @ q[s])) - rhs[s]
            F[s] = loc
            if k > 0:
                prev = self.slices[k - 1]
                pprev = self.panels[k - 1]
                # C^1 interface: derivative match from the two sides
                F[s.start] = (pprev.D @ q[prev])[-1] - (p.D @ q[s])[0]
            if k < last:
                nxt = self.slices[k + 1]
                F[s.stop - 1] = q[s.stop - 1] - q[nxt.start]
            else:
                F[s.stop - 2] = (p.D @ q[s])[-1] - self.psip_T
                F[s.stop - 1] = q[s.stop - 1] - self.psi_T
        return F

    def jacobian(self, q):
        J = np.zeros((self.size, self.size))
        dq = _ode_jac(self.model, self.t, q)
        last = len(self.panels) - 1
        for k, (p, s) in enumerate(zip(self.panels, self.slices)):
            D2 = p.D @ p.D
            J[s, s] = D2 - np.diag(dq[s])
            if k > 0:
                prev = self.slices[k - 1]
                pprev = self.panels[k - 1]
                J[s.start, :] = 0.0
                J[s.start, prev] = pprev.D[-1]
                J[s.start, s] -= p.D[0]
            if k < last:
                J[s.stop - 1, :] = 0.0
                J[s.stop - 1, s.stop - 1] = 1.0
                J[s.stop - 1, self.slices[k + 1].start] = -1.0
            else:
                J[s.stop - 2, :] = 0.0
                J[s.stop - 2, s] = p.D[-1]
                J[s.stop - 1, :] = 0.0
                J[s.stop - 1, s.stop - 1] = 1.0
        return J


def solve_q(model, tau_min, cfg=None):
    """Collocation solution of the q-equation on [tau_min, T_match]."""
    _refuse_damped(model)
    cfg = cfg or SolverConfig()
    T = cfg.T_match if cfg.T_match is not None else max(tau_min + 10.0, 8.0)
    panels = _make_panels(tau_min, T, cfg)
    sys = _System(model, panels, *(float(v) for v in model.pair(T)))
    t = sys.t

    psi_t = np.asarray(model.psi(t), dtype=float)
    tails = _tails(model, T, cfg.integ_tail_tol)

    def predict():
        # backward integration of the ODE from the right-end data.
        # This direction is numerically benign -- the
        # mode that decays toward +inf is resolved in a relative sense
        # -- and places the Newton corrector inside the basin of the
        # decaying solution, which a collocation residual alone cannot
        # distinguish from its bounded neighbours at double precision.
        if float(np.max(np.abs(psi_t))) == 0.0:
            return np.zeros_like(t)

        def rhs(s, y):
            qv, qpv = y
            return [qpv, float(_ode_rhs(model, np.float64(s), qv))]

        # absolute tolerance pinned to the right-end data scale: a fixed
        # floor would be amplified by the full leftward growth factor
        atol = 1e-13 * max(abs(sys.psi_T) + abs(sys.psip_T), 1e-290)
        ivp = solve_ivp(rhs, (T, tau_min), [sys.psi_T, sys.psip_T],
                        method="DOP853", rtol=3e-13, atol=atol,
                        dense_output=True)
        if not ivp.success:
            raise NonConvergent("backward predictor failed: %s"
                                % ivp.message)
        return ivp.sol(t)[0]

    def newton(q):
        # improvement-gated corrector: the collocation residual of a
        # well-predicted iterate sits at its roundoff floor, where the
        # equilibrated system is flat along the decaying mode -- steps
        # that do not clearly reduce the residual are noise and are
        # rejected rather than accumulated
        for _ in range(cfg.max_newton):
            J = sys.jacobian(q)
            scale = np.max(np.abs(J), axis=1)
            F = sys.residual(q)
            nrm = float(np.max(np.abs(F / scale)))
            if nrm < 64.0 * np.finfo(float).eps:
                break
            step = np.linalg.solve(J / scale[:, None], -F / scale)
            s = 1.0
            accepted = False
            for _ in range(25):
                cand = float(np.max(np.abs(
                    sys.residual(q + s * step) / scale)))
                if cand <= 0.7 * nrm:
                    accepted = True
                    break
                s *= 0.5
            if not accepted:
                break
            q = q + s * step
            if float(np.max(np.abs(s * step))) < cfg.newton_tol:
                break
        return q

    q = newton(predict())
    if abs(q[-1] - psi_t[-1]) > cfg.match_tol:
        raise NonConvergent("boundary match |q - psi|(T) = %.3e"
                            % abs(q[-1] - psi_t[-1]))
    qp = sys.deriv(q)
    qpp = _ode_rhs(model, t, q)
    res = 0.0
    for p, s in zip(panels, sys.slices):
        loc = (p.D @ (p.D @ q[s])) - qpp[s]
        res = max(res, float(np.max(np.abs(loc[1:-1]))))
    return QSolution(tau_min=float(tau_min), match_T=float(T),
                     panels=panels, tau_grid=t, q=q, qp=qp, qpp=qpp,
                     tails=tails, iterations=1, residual_norm=res)


# ----------------------------------------------------------------------
# determinant functionals

def det_via_functional(sol, model, tau):
    """F([tau, inf)) from the q-functional integral."""
    _refuse_damped(model)
    if tau < sol.tau_min - 1e-12:
        raise ValueError("tau below the solution domain")
    f = _functional_integrand(model, sol.q, sol.qp, sol.qpp)
    G = sol.antiderivative(f)
    core = float(G[-1]) - sol.interp(G, tau)
    return math.exp(core + sol.tails[2])


def det_via_alternative(sol, model, tau):
    """F([tau, inf)) from the (sigma - tau)-weighted representation."""
    _refuse_damped(model)
    if tau < sol.tau_min - 1e-12:
        raise ValueError("tau below the solution domain")
    g, ud = model.gamma, model.u0_dot
    t = sol.tau_grid
    h = sol.q ** 2
    G1 = sol.antiderivative(t * h)
    G0 = sol.antiderivative(h)
    core = (float(G1[-1]) - sol.interp(G1, tau)) \
        - tau * (float(G0[-1]) - sol.interp(G0, tau))
    tail = sol.tails[1] - tau * sol.tails[0]
    return math.exp(-(g / ud) * (core + tail))


def q_ode_residual(sol, model, tau):
    """Residual of the q-equation at an interior collocation node, with
    q'' by independent double spectral differentiation."""
    for p, s in sol._slices():
        d = np.abs(p.nodes - tau)
        i = int(np.argmin(d))
        if d[i] <= 1e-10 * max(1.0, abs(tau)) and 0 < i < p.nodes.size - 1:
            q = sol.q[s]
            qpp_spec = (p.D @ (p.D @ q))[i]
            rhs = _ode_rhs(model, p.nodes, q)[i]
            return float(qpp_spec - rhs)
    raise ValueError("tau is not an interior collocation node")
