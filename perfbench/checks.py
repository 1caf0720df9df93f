"""Output checks, one function per workload.

Each check takes an operation's inputs and parsed outputs and returns
(results, problems): the number of checked results the operation
delivered and a list of what is wrong with them (empty when correct).
Every check compares against reference.py, the published TW2 moments,
or a property the method must have; none compares against a stored
copy of the program's output.
"""

import math

import numpy as np

import reference

# |log F - log F_ref| <= LOG_F_RTOL * max(1, |log F_ref|).  At tau = -8.25
# log F = -47.2 and the Nystrom determinant's rounding floor, seen as the
# reference's own m-vs-2m spread, is 4e-8 of that; the tolerance is five
# times the floor.  Scaling F by (1 + 1e-6) moves log F by 1e-6, which
# exceeds the tolerance wherever |log F| < 5: every operation has such a
# point.
LOG_F_RTOL = 2e-7
MOMENT_TOL = 1e-8
Q_RESIDUAL_TOL = 1e-8          # acceptance criterion 2
# fredtw.cli._IDENTITY_TOL for the seven identities that hold
IDENTITY_TOL = {"CLOSURE": 1e-8, "MU01": 1e-8, "MU-SHIFT": 1e-8,
                "MU-IPRO": 1e-8, "AWF-DERIV": 1e-6, "AWF-PARAM": 1e-6,
                "MU00-DOT": 1e-6}
ROUTE_TOL = 1e-6               # acceptance criterion 5, DIAGONAL/CANONICAL
LINK_TOL = 1e-5                # acceptance criterion 5, log-det link
LAX_CHECKS = 19                # 3 endpoints: 3 x 3 per-endpoint, 1, 3 x 3


def _log_f_problems(label, F, log_ref):
    if not (F > 0.0 and math.isfinite(F)):
        return ["%s: F = %r is not a probability" % (label, F)]
    err = abs(math.log(F) - log_ref)
    tol = LOG_F_RTOL * max(1.0, abs(log_ref))
    if err > tol:
        return ["%s: |log F - log F_ref| = %.3e > %.3e (F = %.17g, "
                "F_ref = %.17g)" % (label, err, tol, F, math.exp(log_ref))]
    return []


def sweep_moments(tau, F):
    """TW2 mean and variance from an equispaced sweep whose ends carry
    all the mass.

    Integration by parts turns E[X] and E[X^2] into integrals of F and
    tau*F over [a, b].  Every derivative of F vanishes to rounding at
    both ends, so by the Euler-Maclaurin formula the trapezoid rule is
    exact to rounding for F, and for tau*F only the first end term,
    (h^2/12)(F(b) - F(a)), survives; it is subtracted.
    """
    tau, F = np.asarray(tau), np.asarray(F)
    a, b, h = tau[0], tau[-1], tau[1] - tau[0]
    int_F = np.trapezoid(F, tau)
    int_tF = np.trapezoid(tau * F, tau) - h * h / 12.0 * (F[-1] - F[0])
    m1 = b * F[-1] - a * F[0] - int_F
    m2 = b * b * F[-1] - a * a * F[0] - 2.0 * int_tF
    return float(m1), float(m2 - m1 * m1)


def check_tw2_sweep(p, out):
    tau, F = out["tau"], out["F"]
    problems = []
    if len(F) != p["n"] or not np.allclose(
            tau, np.linspace(p["a"], p["b"], p["n"]), rtol=0, atol=1e-15):
        return len(F), ["sweep points differ from the requested range"]
    for t, f in zip(tau, F):
        problems += _log_f_problems("F2(%r)" % t, f, reference.log_f2(t))
    problems += ["F decreases from %r to %r" % (u, v)
                 for u, v in zip(F, F[1:]) if v < u]
    mean, var = sweep_moments(tau, F)
    if abs(mean - reference.TW2_MEAN) > MOMENT_TOL:
        problems.append("mean %.12f vs %.10f" % (mean, reference.TW2_MEAN))
    if abs(var - reference.TW2_VAR) > MOMENT_TOL:
        problems.append("variance %.12f vs %.10f" % (var, reference.TW2_VAR))
    return len(F), problems


def check_tw_routes(p, out):
    problems = []
    n = 0
    for i, t in enumerate(out["tau"]):
        log_ref = reference.log_f2(t)
        for route in ("F_functional", "F_alternative", "F_direct"):
            problems += _log_f_problems("%s(%r)" % (route, t),
                                        out[route][i], log_ref)
            n += 1
        if not abs(out["residual"][i]) <= Q_RESIDUAL_TOL:
            problems.append("q-equation residual %.3e at %r"
                            % (out["residual"][i], t))
    if n != 9:
        problems.append("expected 3 points, got %d" % len(out["tau"]))
    return n, problems


def check_kpz_crossover(p, out):
    tau = p["tau"]
    problems = []
    for c2, F in zip(out["c2"], out["F"]):
        problems += _log_f_problems(
            "F(c2=%g, %r)" % (c2, tau), F,
            reference.log_fermi_gap(1.0, c2, tau))
    f2 = math.exp(reference.log_f2(tau))
    gaps = [abs(F - f2) for F in out["F"]]
    if not all(u > v for u, v in zip(gaps, gaps[1:])):
        problems.append("|F_c - F2| not strictly decreasing in c: %r"
                        % gaps)
    return len(out["F"]), problems


def check_identity_stack(p, out):
    problems = []
    for name, tol in IDENTITY_TOL.items():
        r = out["identities"].get(name)
        if r is None or not abs(r) <= tol:
            problems.append("%s residual %r > %g" % (name, r, tol))
    for n, gap in enumerate(out["routes"], start=1):
        if not abs(gap) <= ROUTE_TOL:
            problems.append("H_%d DIAGONAL-CANONICAL %.3e > %g"
                            % (n, gap, ROUTE_TOL))
    if not abs(out["link"]) <= LINK_TOL:
        problems.append("log-det link residual %.3e > %g"
                        % (out["link"], LINK_TOL))
    lax = out["lax"]
    if len(lax) != LAX_CHECKS:
        problems.append("lax reported %d checks, expected %d"
                        % (len(lax), LAX_CHECKS))
    for c in lax:
        if not (c["pass"] and abs(c["residual"]) <= c["tolerance"]):
            problems.append("lax %s %s residual %.3e > %g"
                            % (c["check"], c["component"], c["residual"],
                               c["tolerance"]))
    n = len(IDENTITY_TOL) + len(out["routes"]) + 1 + len(lax)
    return n, problems


CHECKS = {"tw2_sweep": check_tw2_sweep, "tw_routes": check_tw_routes,
          "kpz_crossover": check_kpz_crossover,
          "identity_stack": check_identity_stack}
