"""
Acceptance gate: one test per criterion, each emitting a single
CRITERION n ...: PASS/FAIL line (visible with pytest -s or on failure).

Criteria 4 and 5 each carry a strict-xfail companion for the
order-scaling relation and its corollaries, which are mathematically
false as stated and live in false_relations.py, not in the package; the
analysis lives in notes/decisions.md.
"""

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fredtw import (IDENTITIES, GridConfig, IntervalUnion, build_awf,
                    build_truncation, gap_probability, half_line,
                    identity_residual, lax_system_residual, nystrom,
                    schlesinger_mask, schlesinger_residual, solve_q)
from fredtw.hamiltonian import (h1_derivative_residual, hamiltonian,
                                logdet_link_residual)
from fredtw.kernel import cd_kernel, kernel_derivative_residual, kernel_direct
from fredtw.kpz import FiniteTempSpec, kpz_gap, kpz_kernel, u_reparam_check
from fredtw.twsolver import det_via_alternative, det_via_functional, \
    q_ode_residual
from fredtw.wavefun import airy_model

from conftest import endpoint_q
from false_relations import FALSE_RELATIONS, hamiltonian_scaling_residual


def _report(k, name, ok, detail):
    line = "CRITERION %d %s: %s (%s)" % (k, name, "PASS" if ok else "FAIL",
                                         detail)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_route_triangle(airy, airy_sol):
    t0 = time.monotonic()
    worst_df = worst_fa = 0.0
    for tau in (-2.0, -1.0, 0.0, 1.0, 2.0):
        Fd = gap_probability(airy, half_line(tau))
        Ff = det_via_functional(airy_sol, tau)
        Fa = det_via_alternative(airy_sol, tau)
        worst_df = max(worst_df, abs(Fd - Ff))
        worst_fa = max(worst_fa, abs(Ff - Fa))
    dt = time.monotonic() - t0
    _report(1, "route triangle", worst_df <= 1e-6 and worst_fa <= 1e-6
            and dt <= 120.0,
            "|Fd-Ff|=%.3e |Ff-Fa|=%.3e tol=1e-6, %.1fs/120s"
            % (worst_df, worst_fa, dt))


def test_criterion_2_bvp_definition_equivalence(airy, airy_sol):
    t0 = time.monotonic()
    worst_q = 0.0
    nodes = [float(t) for p in airy_sol.panels for t in p.nodes
             if -2.0 <= t <= 6.0]
    # every fourth collocation node gets the full independent per-tau
    # Nystrom build; that samples each panel at interior and edge alike
    for tau in nodes[::4]:
        ref = endpoint_q(airy, tau)
        rel = abs(airy_sol.interp(airy_sol.q, tau) - ref) \
            / max(abs(ref), 1e-12)
        worst_q = max(worst_q, rel)
    worst_r = 0.0
    for p in airy_sol.panels:
        for t in p.nodes[1:-1]:
            worst_r = max(worst_r, abs(q_ode_residual(airy_sol, float(t))))
    dt = time.monotonic() - t0
    _report(2, "BVP vs resolvent definition",
            worst_q <= 1e-5 and worst_r <= 1e-8 and dt <= 60.0,
            "max rel dq=%.3e tol=1e-5, ode residual=%.3e tol=1e-8, "
            "%.1fs/60s" % (worst_q, worst_r, dt))


def test_criterion_3_tracy_widom_reduction(airy_sol):
    sol = airy_sol
    int_q2, int_sq2, _ = sol.tails
    worst = 0.0
    for tau in (-2.0, 0.0, 1.0):
        h = sol.q ** 2
        G1 = sol.antiderivative(sol.tau_grid * h)
        G0 = sol.antiderivative(h)
        core = (float(G1[-1]) - sol.interp(G1, tau)) \
            - tau * (float(G0[-1]) - sol.interp(G0, tau))
        tw = math.exp(-(core + int_sq2 - tau * int_q2))
        worst = max(worst, abs(det_via_alternative(sol, tau) - tw))
    pii = 0.0
    for p in sol.panels:
        q = sol.q[p.s]
        r = p.D @ (p.D @ q) - p.nodes * q - 2.0 * q ** 3
        pii = max(pii, float(np.max(np.abs(r[1:-1]))))
    _report(3, "Tracy-Widom reduction", worst <= 1e-10 and pii <= 1e-8,
            "|F_alt - TW|=%.3e tol=1e-10, PII residual=%.3e tol=1e-8"
            % (worst, pii))


ALGEBRAIC = {"CLOSURE", "MU01", "MU-SHIFT", "MU-IPRO"}


def _registry_sweep(airy, residuals):
    """Largest |residual(table, tau)| of each named residual over the
    order-4 tables of [tau, inf), tau in {-1, 0, 1, 2}."""
    worst = dict.fromkeys(residuals, 0.0)
    for tau in (-1.0, 0.0, 1.0, 2.0):
        table = build_awf(airy, nystrom(half_line(tau), model=airy), 4)
        for n, residual in residuals.items():
            worst[n] = max(worst[n], abs(residual(table, tau)))
    return worst


def test_criterion_4_identity_registry(airy):
    t0 = time.monotonic()
    worst = _registry_sweep(airy, {n: partial(identity_residual, n, airy)
                                   for n in IDENTITIES})
    dt = time.monotonic() - t0
    ok = all(r <= (1e-8 if n in ALGEBRAIC else 1e-6)
             for n, r in worst.items()) and dt <= 180.0
    detail = " ".join("%s=%.1e" % (n, r) for n, r in worst.items())
    _report(4, "identity registry", ok, detail + ", %.1fs/180s" % dt)


@pytest.mark.xfail(
    strict=True,
    reason="ORDER (chi_{n,a} = eta^{n-p} chi_{p,a} at the endpoint) is "
           "false as stated: residuals are grid-independent and "
           "confirmed by an independent Neumann-series construction. "
           "MUN0-DOT and the QN-ODE embed the same relation through the "
           "closed form of d(mu_{n,0})/dtau; substituting the true "
           "(finite-difference) mu-dot restores the ODE to 7e-9. "
           "See notes/decisions.md")
def test_criterion_4_order_scaling_identities(airy):
    worst = _registry_sweep(airy, FALSE_RELATIONS)
    ok = worst["ORDER"] <= 1e-8 and worst["MUN0-DOT"] <= 1e-6 \
        and worst["QN-ODE"] <= 1e-5
    _report(4, "false relations (ORDER, MUN0-DOT, QN-ODE)", ok,
            "ORDER=%.1e tol=1e-8, MUN0-DOT=%.1e tol=1e-6, QN-ODE=%.1e "
            "tol=1e-5" % (worst["ORDER"], worst["MUN0-DOT"],
                          worst["QN-ODE"]))


def test_criterion_5_hamiltonian_stack(airy, airy_table):
    worst_route = 0.0
    for n in (1, 2, 3):
        d = hamiltonian(airy_table, n, 0.0, "DIAGONAL")
        c = hamiltonian(airy_table, n, 0.0, "CANONICAL")
        worst_route = max(worst_route, abs(d - c))
    r1 = abs(logdet_link_residual(airy, 0.0, h=1e-3))
    r2 = abs(logdet_link_residual(airy, 0.0, h=5e-4))
    h1d = abs(h1_derivative_residual(airy_table, 0.0))
    ok = worst_route <= 1e-6 and r1 <= 1e-5 and 3.0 < r1 / r2 < 5.0 \
        and h1d <= 1e-5
    _report(5, "Hamiltonian stack", ok,
            "route gap=%.1e tol=1e-6, logdet=%.1e tol=1e-5 "
            "(h-ratio %.2f), H1' residual=%.1e tol=1e-5"
            % (worst_route, r1, r1 / r2, h1d))


@pytest.mark.xfail(
    strict=True,
    reason="the order-scaling law H_n = n eta^{n-1} H_1 inherits the "
           "failure of the order-scaling relation for the chi; the "
           "residual decays only in the perturbative tail; see "
           "notes/decisions.md")
def test_criterion_5_hamiltonian_scaling(airy, airy_table):
    h1 = hamiltonian(airy_table, 1, 0.0, "DIAGONAL")
    worst = max(abs(hamiltonian_scaling_residual(airy_table, n, 0.0))
                for n in (2, 3))
    _report(5, "Hamiltonian order-scaling", worst <= 1e-6 * abs(h1),
            "residual=%.1e tol=%.1e" % (worst, 1e-6 * abs(h1)))


def test_criterion_6_lax_schlesinger(airy):
    t0 = time.monotonic()
    iu = IntervalUnion((0.0, 1.0, 2.0, math.inf))
    tr = build_truncation(airy, iu, 4)
    N = tr.N
    zero = max(float(np.max(np.abs(
        Aj[2 * n:2 * n + 2, 2 * p:2 * p + 2])))
        for Aj in tr.A for n in range(N + 1) for p in range(n + 1, N + 1))
    sys_r = max(lax_system_residual(tr, "TAU_EQ", j, xi=0.5)
                for j in range(3))
    sys_r = max(sys_r, lax_system_residual(tr, "XI_EQ", xi=0.5))
    mask = schlesinger_mask(N)
    schl = 0.0
    unasserted = 0.0  # p < n components: reported only
    for i in range(3):
        for j in range(3):
            R = schlesinger_residual(tr, i, j)
            schl = max(schl, float(np.max(np.abs(R[mask]))))
            unasserted = max(unasserted, float(np.max(np.abs(R[~mask]))))
    dt = time.monotonic() - t0
    ok = zero <= 1e-12 and sys_r <= 1e-5 and schl <= 1e-5 and dt <= 180.0
    _report(6, "Lax/Schlesinger", ok,
            "structural zeros=%.1e tol=1e-12, system=%.1e tol=1e-5, "
            "schlesinger p>=n=%.1e tol=1e-5 (p<n reported: %.1e), "
            "%.1fs/180s" % (zero, sys_r, schl, unasserted, dt))


def test_criterion_7_kernel_correctness(airy):
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-2.0, 3.0, size=(10, 2))
    worst = max(abs(cd_kernel(airy, xi, zeta)
                    - kernel_direct(airy, xi, zeta)) for xi, zeta in pts)
    r1 = abs(kernel_derivative_residual(airy, 0.4, 1.1, h=1e-3))
    r2 = abs(kernel_derivative_residual(airy, 0.4, 1.1, h=5e-4))
    ok = worst <= 1e-8 and 3.0 < r1 / r2 < 5.0
    _report(7, "kernel correctness", ok,
            "cd vs direct=%.1e tol=1e-8, FD residual ratio=%.2f (O(h^2))"
            % (worst, r1 / r2))


def test_criterion_8_kpz_crossover(airy):
    t0 = time.monotonic()
    F_airy = gap_probability(airy, half_line(0.0))
    gaps = [abs(kpz_gap(FiniteTempSpec(1.0, c2), 0.0) - F_airy)
            for c2 in (10.0, 20.0, 40.0)]
    mono = gaps[0] > gaps[1] > gaps[2]
    s = FiniteTempSpec(1.0, 10.0)
    sym = abs(kpz_kernel(s, 0.3, 1.7) - kpz_kernel(s, 1.7, 0.3))
    rep = u_reparam_check(FiniteTempSpec(1.0, 1.0), 10.0, 50)
    dt = time.monotonic() - t0
    ok = mono and sym <= 1e-12 and rep <= 1e-8 and dt <= 120.0
    _report(8, "KPZ crossover", ok,
            "gaps to F_airy=%s strictly decreasing=%s, symmetry=%.1e "
            "tol=1e-12, reparam=%.1e tol=1e-8, %.1fs/120s"
            % (["%.2e" % g for g in gaps], mono, sym, rep, dt))


def test_criterion_9_determinant_hygiene(airy):
    taus = np.linspace(-4.0, 6.0, 21)
    F = [gap_probability(airy, half_line(t)) for t in taus]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(F, F[1:]))
    far = gap_probability(airy, half_line(8.0))
    F40 = gap_probability(airy, half_line(0.0), GridConfig())
    F80 = gap_probability(airy, half_line(0.0),
                          GridConfig(nodes_per_panel=80))
    ok = nondecreasing and far >= 1.0 - 1e-8 and abs(F40 - F80) <= 1e-9
    _report(9, "determinant hygiene", ok,
            "nondecreasing=%s, F(8)=%.12f, |F40-F80|=%.1e tol=1e-9"
            % (nondecreasing, far, abs(F40 - F80)))
