"""Composite Gauss-Legendre panels: the one quadrature rule behind the
Nystrom grids and the kernel integrals."""

import functools
import math

import numpy as np


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
