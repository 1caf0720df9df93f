"""
Nystrom discretization of integral operators on interval unions,
Fredholm determinants det(I - K), the truncated series oracle, and
resolvent solves (I - K)^{-1} f.

Gauss-Legendre panels (open rule, no endpoint nodes).  A half-infinite
final component [tau, inf) is truncated at tau + L with L chosen by one
nested doubling search (nystrom): the grid at L is a prefix of the grid
at 2L, so each doubling step evaluates the kernel once, on the panels it
adds, and reads level L off the leading block of the 2L matrix.  The
tests are determinant stability, plus, when the kernel comes from a
WaveModel, a tail rule read off the 2L diagonal on [tau + L, tau + 2L].
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NonConvergent, SingularOperator
from .kernel import _diag_from, _matrix_from, _node_pair
from .quadrature import gl_panels


@dataclass(frozen=True)
class IntervalUnion:
    """I = U_j [tau_{2j-1}, tau_{2j}]; the last endpoint may be inf."""
    endpoints: tuple

    def __post_init__(self):
        e = tuple(float(t) for t in self.endpoints)
        object.__setattr__(self, "endpoints", e)
        if len(e) < 2 or len(e) % 2 != 0:
            raise ValueError("need an even number of endpoints "
                             "(use inf to mark a half-infinite component)")
        if any(b <= a for a, b in zip(e, e[1:])):
            raise ValueError("endpoints must be strictly increasing")
        if any(not math.isfinite(t) for t in e[:-1]):
            raise ValueError("only the last endpoint may be infinite")

    @property
    def half_infinite(self):
        return math.isinf(self.endpoints[-1])

    @property
    def finite_endpoints(self):
        """The endpoints at which boundary terms live (excludes inf)."""
        return self.endpoints[:-1] if self.half_infinite else self.endpoints

    def with_endpoint(self, j, value):
        """Copy with the j-th (0-based, finite) endpoint moved."""
        e = list(self.endpoints)
        e[j] = value
        return IntervalUnion(tuple(e))


def half_line(tau):
    return IntervalUnion((float(tau), math.inf))


@dataclass(frozen=True)
class GridConfig:
    """Nystrom grid settings.

    A finite component is split into the fewest equal panels no longer
    than max_panel_len.  A half-infinite component [tau, inf) cut at
    tau + L gets panels of one length h, L_start halved until
    h <= max_panel_len, with edges tau + i*h; so the grid at L is a
    prefix of the grid at 2L, and L gets L/h panels.  With the defaults
    h = 8, so L = 8, 16, 32, 64 and 128 get 1, 2, 4, 8 and 16 panels.
    """
    nodes_per_panel: int = 40
    tail_tol: float = 1e-12
    L_max: float = 128.0
    L_start: float = 8.0
    det_stab_tol: float = 1e-10
    max_panel_len: float = 10.0

    def __post_init__(self):
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")


@dataclass(frozen=True)
class QuadratureGrid:
    nodes: np.ndarray
    weights: np.ndarray
    truncation: Optional[float]      # L applied to a half-infinite component
    iu: IntervalUnion
    cfg: GridConfig                  # the settings the grid was laid out with


class DetResult(NamedTuple):
    value: float
    log_abs: float
    sign: float


class SeriesResult(NamedTuple):
    value: float
    truncation_estimate: float


def _grid(iu, cfg, L):
    """Panels over iu, its half-infinite component cut at tau + L into the
    panels of length h that GridConfig describes."""
    e = iu.endpoints
    n, plen = cfg.nodes_per_panel, cfg.max_panel_len
    finite = e[:-2] if iu.half_infinite else e
    parts = [gl_panels(a, b, n, plen)
             for a, b in zip(finite[0::2], finite[1::2])]
    if iu.half_infinite:
        tau, h = e[-2], cfg.L_start
        while h > plen:
            h /= 2.0
        parts += [gl_panels(tau + i * h, tau + (i + 1) * h, n)
                  for i in range(round(L / h))]
    return QuadratureGrid(np.concatenate([x for x, _ in parts]),
                          np.concatenate([w for _, w in parts]), L, iu, cfg)


def build_grid(iu, cfg=None, model=None):
    """Quadrature grid over the (truncated) union: with a model, the grid
    at the truncation nystrom() accepts; without one, L = cfg.L_start."""
    cfg = cfg or GridConfig()
    if not iu.half_infinite:
        return _grid(iu, cfg, None)
    if model is None:
        return _grid(iu, cfg, cfg.L_start)
    return nystrom(iu, cfg, model).grid


def nystrom(iu, cfg=None, model=None, matrix=None):
    """The factorized Nystrom discretization of K on iu.

    The kernel is discretize(model, grid), or, given matrix(nodes), that
    bare kernel matrix.  A half-infinite component [tau, inf) is cut at
    tau + L, with L doubled from cfg.L_start until |F_L - F_2L| <
    det_stab_tol and, with a model, the tail bound
    sum_i w_i |K(x_i, x_i)| over the 2L nodes in [tau + L, tau + 2L] is
    below tail_tol.  The search is nested: each step evaluates the model
    (one pair pass) on the panels it adds only, or calls matrix once on
    the 2L nodes, and builds the 2L matrix once; level L is its leading
    block, or the 2L level of the step before.  Raises SingularOperator
    unless det(I - K) on the accepted grid is positive.
    """
    cfg = cfg or GridConfig()
    if not iu.half_infinite:
        grid = _grid(iu, cfg, None)
        disc = discretize(model, grid) if matrix is None \
            else DiscretizedKernel(grid, matrix(grid.nodes))
    else:
        L, carried = cfg.L_start, None
        p = pp = np.empty(0)
        while L <= cfg.L_max:
            grid, fine = _grid(iu, cfg, L), _grid(iu, cfg, 2 * L)
            n = grid.nodes.size
            if matrix is None:
                new = _node_pair(model, fine.nodes[p.size:])
                p, pp = np.concatenate((p, new[0])), \
                    np.concatenate((pp, new[1]))
                tail = np.dot(fine.weights[n:], np.abs(
                    _diag_from(model, fine.nodes[n:], p[n:], pp[n:])))
                if tail >= cfg.tail_tol:
                    carried = None
                    L *= 2.0
                    continue
                d2 = DiscretizedKernel(
                    fine, _matrix_from(model, fine.nodes, p, pp), model, p, pp)
                disc = carried or DiscretizedKernel(
                    grid, d2.K[:n, :n].copy(), model, p[:n], pp[:n])
            else:
                d2 = DiscretizedKernel(fine, matrix(fine.nodes))
                disc = carried or DiscretizedKernel(grid, d2.K[:n, :n].copy())
            if abs(fredholm_det(disc).value - fredholm_det(d2).value) \
                    < cfg.det_stab_tol:
                break
            carried = d2
            L *= 2.0
        else:
            raise NonConvergent("truncation unresolved up to L_max=%g"
                                % cfg.L_max)
    det = fredholm_det(disc)
    if det.sign != 1.0:
        raise SingularOperator("det(I - K) = %.3e is not positive"
                               % det.value)
    return disc


class DiscretizedKernel:
    """Kernel sampled on a grid with the symmetrized Nystrom matrix
    Ktil = W^{1/2} K W^{1/2}; det(I - Ktil) = det(I - K W).

    A kernel built from a WaveModel keeps the model and the node values
    psi, psip = psi(x), psi'(x) it was built from, so that tables, rows
    and extensions over the same grid never evaluate them again; all
    three are None for a bare matrix (e.g. finite-temperature kernels).
    """

    def __init__(self, grid, K, model=None, psi=None, psip=None):
        self.grid = grid
        self.K = np.asarray(K, dtype=float)
        self.model, self.psi, self.psip = model, psi, psip
        self.sqrtw = np.sqrt(grid.weights)
        self.Ktil = self.sqrtw[:, None] * self.K * self.sqrtw[None, :]
        self._lu = None

    def _factor(self):
        if self._lu is None:
            n = self.Ktil.shape[0]
            self._lu = lu_factor(np.eye(n) - self.Ktil)
        return self._lu

    def apply_Kw(self, f):
        """K_w f = K (w * f), the Nystrom action of the operator."""
        return self.K @ (self.grid.weights * np.asarray(f, dtype=float))


def discretize(model, grid):
    """K of the model on the grid, from one pair pass over its nodes."""
    p, pp = _node_pair(model, grid.nodes)
    return DiscretizedKernel(grid, _matrix_from(model, grid.nodes, p, pp),
                             model, p, pp)


def discretize_matrix(K, grid):
    """Wrap an externally computed kernel matrix (e.g. finite-temperature
    kernels) on the given grid."""
    return DiscretizedKernel(grid, K)


def fredholm_det(disc):
    """det(I - K) via partial-pivot LU of the symmetrized matrix."""
    lu, piv = disc._factor()
    d = np.diag(lu)
    sign = 1.0 if np.sum(piv != np.arange(len(piv))) % 2 == 0 else -1.0
    sign *= float(np.prod(np.sign(d)))
    log_abs = float(np.sum(np.log(np.abs(d))))
    return DetResult(sign * math.exp(log_abs), log_abs, sign)


def resolve(disc, f):
    """g = (I - K)^{-1} f in the Nystrom sense: g - K_w g = f."""
    lu, piv = disc._factor()
    d = np.abs(np.diag(lu))
    if d.min() < 1e-14 * d.max():
        raise SingularOperator("pivot ratio %.3e" % (d.min() / d.max()))
    y = lu_solve((lu, piv), disc.sqrtw * np.asarray(f, dtype=float))
    return y / disc.sqrtw


def fredholm_series(model, iu, k_max=2):
    """Truncated Fredholm series 1 + sum_k (-1)^k/k! int det[K(x_i,x_j)].

    The k-fold tensor-quadrature sums of the k x k minors collapse
    exactly (finite algebra, Leibniz expansion) to combinations of the
    power sums t_m = tr((K W)^m); they are evaluated in that form.
    Independent of the LU determinant route; the grid is nystrom's on
    the default GridConfig.
    """
    if k_max > 4:
        raise ValueError("k_max is capped at 4")
    disc = nystrom(iu, model=model)
    M = disc.K * disc.grid.weights[None, :]
    t = [None]
    P = np.eye(M.shape[0])
    for _ in range(k_max):
        P = P @ M
        t.append(float(np.trace(P)))

    # elementary symmetric functions via Newton's identities
    e = [1.0]
    for k in range(1, k_max + 1):
        s = 0.0
        for m in range(1, k + 1):
            s += (-1.0) ** (m - 1) * e[k - m] * t[m]
        e.append(s / k)

    value = sum((-1.0) ** k * e[k] for k in range(k_max + 1))
    return SeriesResult(value, abs(e[k_max]))


def gap_probability(model, iu, cfg=None):
    """F(I) = det(I - K) on the truncation nystrom() accepts."""
    return fredholm_det(nystrom(iu, cfg, model)).value
