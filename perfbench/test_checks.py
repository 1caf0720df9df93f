"""Each workload's check accepts reference answers and rejects wrong ones.

    python3 -m pytest -q perfbench/test_checks.py

The correct answers here come from reference.py, never from fredtw; a
wrong answer is F scaled by (1 + 1e-6) or a residual pushed past its
tolerance.
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402

SCALE = 1.0 + 1e-6


def _f2(t):
    return math.exp(reference.log_f2(t))


def _sweep(a, b, n=57):
    tau = list(np.linspace(a, b, n))
    return {"a": a, "b": b, "n": n}, {"tau": tau, "F": [_f2(t) for t in tau]}


def _routes(t0):
    tau = [t0, t0 + 2.0, t0 + 4.0]
    F = [_f2(t) for t in tau]
    return {"t0": t0}, {"tau": tau, "q": [0.0] * 3, "F_functional": F,
                        "F_alternative": list(F), "F_direct": list(F),
                        "residual": [1e-10] * 3}


def _kpz(tau):
    c2 = [5.0, 10.0, 20.0]
    return {"tau": tau}, {"c2": c2, "F": [
        math.exp(reference.log_fermi_gap(1.0, c, tau)) for c in c2]}


def _identity_stack():
    lax = [{"check": "schlesinger", "component": "i=%d" % i,
            "residual": 1e-7, "tolerance": 1e-5, "pass": True}
           for i in range(checks.LAX_CHECKS)]
    return {"tau": 0.5}, {
        "identities": {k: 0.5 * t for k, t in checks.IDENTITY_TOL.items()},
        "routes": [1e-9, 1e-9, 1e-9], "link": 1e-8, "lax": lax}


def _ok(check, p, out):
    n, problems = check(p, out)
    assert problems == []
    return n


@pytest.mark.parametrize("a,b", [(-8.25, 5.75), (-7.75, 6.25)])
def test_tw2_sweep(a, b):
    p, out = _sweep(a, b)
    assert _ok(checks.check_tw2_sweep, p, out) == 57
    wrong = dict(out, F=[f * SCALE for f in out["F"]])
    assert checks.check_tw2_sweep(p, wrong)[1]


def test_tw2_sweep_monotone_and_moments():
    p, out = _sweep(-8.0, 6.0)
    bumped = list(out["F"])
    bumped[30] = bumped[31] * (1.0 + 1e-15)       # a local decrease only
    problems = checks.check_tw2_sweep(p, dict(out, F=bumped))[1]
    assert any("decreases" in m for m in problems)
    short = _sweep(-8.0, 2.0, 41)                 # misses the right tail
    problems = checks.check_tw2_sweep(*short)[1]
    assert any("mean" in m for m in problems)


@pytest.mark.parametrize("t0", [-6.0, -3.0, 0.0])
def test_tw_routes(t0):
    p, out = _routes(t0)
    assert _ok(checks.check_tw_routes, p, out) == 9
    for route in ("F_functional", "F_alternative", "F_direct"):
        wrong = dict(out, **{route: [f * SCALE for f in out[route]]})
        assert checks.check_tw_routes(p, wrong)[1]
    wrong = dict(out, residual=[1e-10, 2.0 * checks.Q_RESIDUAL_TOL, 1e-10])
    assert checks.check_tw_routes(p, wrong)[1]


@pytest.mark.parametrize("tau", [-2.0, 1.0])
def test_kpz_crossover(tau):
    p, out = _kpz(tau)
    assert _ok(checks.check_kpz_crossover, p, out) == 3
    for i in range(3):
        F = list(out["F"])
        F[i] *= SCALE
        assert checks.check_kpz_crossover(p, dict(out, F=F))[1]
    swapped = dict(out, c2=out["c2"][::-1], F=out["F"][::-1])
    assert checks.check_kpz_crossover(p, swapped)[1]


def test_identity_stack():
    p, out = _identity_stack()
    assert _ok(checks.check_identity_stack, p, out) == 7 + 3 + 1 + 19
    for name, tol in checks.IDENTITY_TOL.items():
        wrong = copy.deepcopy(out)
        wrong["identities"][name] = -2.0 * tol
        assert checks.check_identity_stack(p, wrong)[1]
    wrong = copy.deepcopy(out)
    wrong["routes"][2] = 2.0 * checks.ROUTE_TOL
    assert checks.check_identity_stack(p, wrong)[1]
    wrong = dict(out, link=2.0 * checks.LINK_TOL)
    assert checks.check_identity_stack(p, wrong)[1]
    wrong = copy.deepcopy(out)
    wrong["lax"][4]["residual"] = 2e-5            # still marked "pass"
    assert checks.check_identity_stack(p, wrong)[1]


def test_reference_against_independent_facts():
    # left-tail asymptote (Deift-Its-Krasovsky): the next term is ~1e-4
    s = -8.0
    asym = -abs(s) ** 3 / 12 - math.log(abs(s)) / 8 + math.log(2) / 24 \
        - 0.1654211437004509
    assert abs(reference.log_f2(s) - asym) < 2e-4
    # the Fermi kernel tends to the Airy kernel as c2 grows
    gaps = [abs(math.exp(reference.log_fermi_gap(1.0, c, 0.0)) - _f2(0.0))
            for c in (10.0, 20.0, 40.0)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_reference_refuses_unconverged():
    with pytest.raises(reference.ReferenceNotConverged):
        reference.log_f2(-4.0, m=8)
