"""Composite Gauss-Legendre panels: the one quadrature rule behind the
Nystrom grids and the kernel integrals, and the one panel-halving test
that the kernel integrals share."""

import functools
import math

import numpy as np

from .errors import NonConvergent

HALVING_TOL = 1e-10  # max |fine - coarse| gl_halving accepts


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gl_panels(a, b, n, panel_len=math.inf):
    """Nodes and weights of the n-point rule on each of the
    max(1, ceil((b - a)/panel_len)) equal panels of [a, b]."""
    t, w = _leggauss(n)
    n_panels = max(1, int(math.ceil((b - a) / panel_len)))
    edges = np.linspace(a, b, n_panels + 1)
    h = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + h[:, None] * t[None, :]).ravel(), \
        (h[:, None] * w[None, :]).ravel()


def gl_halving(f, a, b, n, panel_len):
    """f(x, w) on the n-point gl_panels of [a, b] of length panel_len and
    of half that; returns the finer value (a scalar or an array).  Raises
    NonConvergent unless max |fine - coarse| is at most HALVING_TOL, so
    a NaN difference raises too."""
    coarse = f(*gl_panels(a, b, n, panel_len))
    fine = f(*gl_panels(a, b, n, 0.5 * panel_len))
    err = float(np.max(np.abs(np.subtract(fine, coarse))))
    if not err <= HALVING_TOL:
        raise NonConvergent("panel-halving estimate %.3e exceeds %g"
                            % (err, HALVING_TOL))
    return fine
