"""
Wave-function models: the boundary data (psi, psi', gamma, u0_dot, ...)
that seeds every kernel, plus regularity probes.  One evaluator, `pair`,
gives (psi, psi') together: every kernel needs both at each node.

A model optionally carries the full profile (u(x), phi(omega)) so the
kernel can also be computed by direct x-integration as a cross-check.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .airy import airy_ai, airy_ai_pair


@dataclass(frozen=True)
class WaveModel:
    """Boundary wave-function data.  `pair(xi)` returns (psi(xi),
    psi'(xi)) from one evaluation; it must be pure and accept numpy
    arrays.  The model is immutable after construction."""
    pair: Callable
    gamma: float = 1.0
    u0_dot: float = 1.0
    u0_ddot: float = 0.0
    v0: float = 0.0
    # optional (u, phi) pair for the direct-integral kernel oracle
    profile: Optional[Tuple[Callable, Callable]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero")
        if self.u0_dot == 0.0:
            raise ValueError("u0_dot must be nonzero")

    def psi(self, xi):
        """psi(xi) alone, for callers that do not need psi'."""
        return self.pair(xi)[0]


@dataclass(frozen=True)
class RegularityReport:
    decay_ok: bool
    ratio_ok: bool            # gamma/u0_dot well defined and nonzero
    min_abs_psi: float
    argmin_psi: float
    psi_vanishes: bool        # psi == 0 on the whole probe
    profile_consistent: Optional[bool] = None

    @property
    def all_ok(self):
        return self.decay_ok and self.ratio_ok and not self.psi_vanishes


def airy_model():
    """The Airy model: psi = Ai, gamma = u0_dot = 1, u0_ddot = v0 = 0.
    Profile u(x) = x, phi = Ai gives the classical Airy kernel."""
    return WaveModel(
        pair=airy_ai_pair,
        gamma=1.0, u0_dot=1.0, u0_ddot=0.0, v0=0.0,
        profile=(lambda x: np.asarray(x, dtype=float), airy_ai),
        name="airy",
    )


def damped_airy_model(u0_ddot=0.3):
    """A genuinely non-Airy model with u0_ddot != 0.

    phi(w) = exp(-c w / 2) Ai(w + c^2/4) with c = u0_ddot solves
    phi'' + c phi' = w phi, which is exactly the second-derivative
    relation psi'' = (v0 + xi) psi - c psi' demanded of the boundary
    data with gamma = u0_dot = 1, u0 = v0 = 0.  The profile
    u(x) = x + (c/2) x^2 has the matching jet at x = 0.
    """
    c = float(u0_ddot)
    sh = 0.25 * c * c

    def phi(w):
        w = np.asarray(w, dtype=float)
        return np.exp(-0.5 * c * w) * airy_ai(w + sh)

    def pair(xi):
        xi = np.asarray(xi, dtype=float)
        e = np.exp(-0.5 * c * xi)
        a, ap = airy_ai_pair(xi + sh)
        return e * a, e * (ap - 0.5 * c * a)

    def u(x):
        x = np.asarray(x, dtype=float)
        return x + 0.5 * c * x * x

    return WaveModel(pair=pair,
                     gamma=1.0, u0_dot=1.0, u0_ddot=c, v0=0.0,
                     profile=(u, phi), name="damped_airy")


def zero_model():
    """psi identically zero; useful for trivial-limit checks."""
    def pair(xi):
        z = np.zeros_like(np.asarray(xi, dtype=float))
        return z, np.zeros_like(z)
    return WaveModel(pair=pair, name="zero")


def tabulated_model(xi, psi_vals, psip_vals, *, gamma=1.0, u0_dot=1.0,
                    u0_ddot=0.0, v0=0.0, name="tabulated"):
    """Model backed by cubic interpolation of sampled (xi, psi, psi')."""
    from scipy.interpolate import CubicSpline
    xi = np.asarray(xi, dtype=float)
    sp = CubicSpline(xi, np.asarray(psi_vals, dtype=float))
    spp = CubicSpline(xi, np.asarray(psip_vals, dtype=float))
    return WaveModel(pair=lambda x: (sp(x), spp(x)),
                     gamma=gamma, u0_dot=u0_dot, u0_ddot=u0_ddot, v0=v0,
                     name=name)


def psi_second_from(model, xi, psi, psip):
    """psi''(xi) = (gamma^2/u0_dot^2)((v0 + xi) psi - (u0_ddot/gamma) psi')
    from the values psi(xi), psi'(xi).

    This relation is the only source of psi'' anywhere in the library;
    no finite differencing of the model evaluators is ever performed.
    """
    g, ud, udd = model.gamma, model.u0_dot, model.u0_ddot
    return (g * g / ud ** 2) * ((model.v0 + xi) * psi - (udd / g) * psip)


def psi_second(model, xi):
    """psi''(xi) by psi_second_from on one pair evaluation."""
    xi = np.asarray(xi, dtype=float)
    out = psi_second_from(model, xi, *model.pair(xi))
    return float(out) if out.ndim == 0 else out


def check_regularity(model, probe):
    """Probe-grid checks of the decay and non-vanishing hypotheses.
    Report-only: nothing raises."""
    probe = np.sort(np.asarray(probe, dtype=float))
    vals = np.abs(np.asarray(model.psi(probe), dtype=float))

    psi_vanishes = bool(np.all(vals == 0.0))

    # decay proxy: |psi| eventually monotonically decreasing toward zero
    # on a window past the last probe point
    tail = probe[-1] + np.linspace(0.0, 20.0, 81)
    tv = np.abs(np.asarray(model.psi(tail), dtype=float))
    decay_ok = bool(np.all(np.diff(tv) <= 1e-14 + 1e-10 * tv[:-1])
                    and tv[-1] <= tv[0])
    if psi_vanishes:
        decay_ok = True

    ratio = model.gamma / model.u0_dot
    ratio_ok = np.isfinite(ratio) and ratio != 0.0

    imin = int(np.argmin(vals))

    profile_consistent = None
    if model.profile is not None:
        u, phi = model.profile
        ref = np.asarray(phi(float(u(0.0)) + model.gamma * probe), dtype=float)
        scale = np.maximum(np.abs(ref), 1e-300)
        profile_consistent = bool(
            np.max(np.abs(ref - np.asarray(model.psi(probe))) / scale) < 1e-10)

    return RegularityReport(
        decay_ok=decay_ok, ratio_ok=bool(ratio_ok),
        min_abs_psi=float(vals[imin]), argmin_psi=float(probe[imin]),
        psi_vanishes=psi_vanishes, profile_consistent=profile_consistent)
