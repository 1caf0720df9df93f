"""
Batch front-end: subcommand dispatch, flat INI-style config files,
deterministic CSV/JSON emission with 17 significant digits, and the
one-shot identity verification suite.

Exit codes: 0 success, 1 usage or configuration error, 2 at least one
asserted residual out of tolerance or a failed computation (no
convergence, a singular or non-positive determinant).
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .awf import IDENTITIES, build_awf, identity_residual
from .errors import NonConvergent, PsiTooSmall, SingularOperator, \
    WeightVanishes
from .fredholm import GridConfig, IntervalUnion, gap_probability, \
    half_line, nystrom
from .hamiltonian import ROUTES, hamiltonian
from .kernel import cd_kernel, kernel_direct
from .kpz import FiniteTempSpec, kpz_gap
from .lax import build_truncation, lax_system_residual, schlesinger_mask, \
    schlesinger_residual
from .twsolver import det_via_alternative, det_via_functional, \
    q_ode_residual, solve_q
from .wavefun import airy_model, damped_airy_model, zero_model

_MODELS = {
    "airy": airy_model,
    "damped": damped_airy_model,
    "zero": zero_model,
}

# per-identity assertion tolerances: algebraic relations at 1e-8,
# finite-difference ones at 1e-6
_IDENTITY_TOL = {
    "CLOSURE": 1e-8, "MU01": 1e-8, "MU-SHIFT": 1e-8, "MU-IPRO": 1e-8,
    "AWF-DERIV": 1e-6, "AWF-PARAM": 1e-6, "MU00-DOT": 1e-6,
}


def _fmt(x):
    return "%.17g" % float(x)


def _parse_range(text):
    """'a:b:n' -> n evenly spaced points; a bare number -> one point."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) != 3:
        raise ValueError("range must be 'a:b:n'")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("range needs at least one point")
    return np.linspace(a, b, n)


def _load_config(path):
    """Flat sectioned key=value file -> (GridConfig, seed).

    [grid] accepts the fields of GridConfig (keys case-insensitive, int
    fields read as int, the rest as float); [run] accepts seed.  Any
    other section or key is an error."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError("cannot read config file %r" % path)
    sections = {"grid": {f.name: f.type for f in fields(GridConfig)},
                "run": {"seed": int}}
    kw = {sec: {} for sec in sections}
    for sec in cp.sections():
        if sec not in sections:
            raise ValueError("unknown config section [%s]" % sec)
        names = {k.lower(): k for k in sections[sec]}
        for key in cp.options(sec):
            if key not in names:
                raise ValueError("unknown config key %r in [%s]" % (key, sec))
            name = names[key]
            get = cp.getint if sections[sec][name] is int else cp.getfloat
            kw[sec][name] = get(sec, key)
    return GridConfig(**kw["grid"]), kw["run"].get("seed", 0)


def _emit(out_path, text):
    """Write text to the file out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(out_path, header_meta, columns, rows):
    lines = ["# %s=%s" % (k, v) for k, v in sorted(header_meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    _emit(out_path, "\n".join(lines) + "\n")


def _write_json(out_path, report):
    _emit(out_path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _meta(args, cfg):
    meta = {f.name: getattr(cfg, f.name) for f in fields(GridConfig)}
    meta["model"] = getattr(args, "model", "-")
    return meta


# ----------------------------------------------------------------------
# subcommands

def _cmd_eval_kernel(args, gcfg, seed):
    model = _MODELS[args.model]()
    if args.pairs:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(args.lo, args.hi, size=(args.pairs, 2)).tolist()
    else:
        pts = [(args.xi, args.zeta)]
    rows = []
    for xi, zeta in pts:
        row = [xi, zeta, cd_kernel(model, xi, zeta)]
        if model.profile is not None:
            row.append(kernel_direct(model, xi, zeta))
        rows.append(row)
    cols = ["xi", "zeta", "K"] + (["K_direct"] if model.profile else [])
    meta = _meta(args, gcfg)
    meta["seed"] = seed
    _write_csv(args.out, meta, cols, rows)
    return 0


def _cmd_det(args, gcfg, seed):
    model = _MODELS[args.model]()
    taus = _parse_range(args.tau_range) if args.tau_range \
        else np.array([args.tau])
    rows = [[float(t), gap_probability(model, half_line(t), gcfg)]
            for t in taus]
    _write_csv(args.out, _meta(args, gcfg), ["tau", "F"], rows)
    return 0


def _cmd_tw_solve(args, gcfg, seed):
    model = _MODELS[args.model]()
    sol = solve_q(model, args.tau_min)
    taus = _parse_range(args.tau_range) if args.tau_range \
        else np.array([args.tau_min])
    interior = np.concatenate([p.nodes[1:-1] for p in sol.panels])
    rows = []
    for t in taus:
        t = float(t)
        # residual at the interior collocation node nearest t
        node = float(interior[np.argmin(np.abs(interior - t))])
        rows.append([t,
                     sol.interp(sol.q, t),
                     det_via_functional(sol, t),
                     det_via_alternative(sol, t),
                     gap_probability(model, half_line(t), gcfg),
                     q_ode_residual(sol, node)])
    meta = _meta(args, gcfg)
    meta.update(tau_min=args.tau_min, T_match=sol.match_T,
                iterations=sol.iterations)
    _write_csv(args.out, meta,
               ["tau", "q", "F_functional", "F_alternative", "F_direct",
                "residual"], rows)
    return 0


def _cmd_hamiltonian(args, gcfg, seed):
    model = _MODELS[args.model]()
    table = build_awf(model, nystrom(half_line(args.tau), gcfg, model),
                      max(args.n + 2, 3))
    routes = args.routes.split(",") if args.routes else list(ROUTES)
    rows = []
    for r in routes:
        r = r.strip().upper()
        if r not in ROUTES:
            raise ValueError("unknown route %r" % r)
        if r == "CLOSED_FORM" and args.n != 1:
            continue
        rows.append([r, args.n, args.tau,
                     hamiltonian(table, args.n, args.tau, r)])
    _write_csv(args.out, _meta(args, gcfg), ["route", "n", "tau", "H"], rows)
    return 0


def _cmd_lax(args, gcfg, seed):
    model = _MODELS[args.model]()
    endpoints = tuple(float(t) for t in args.endpoints.split(","))
    iu = IntervalUnion(endpoints + (math.inf,))
    trunc = build_truncation(model, iu, args.N, gcfg)
    N = args.N
    checks = []

    def add(check, component, residual, tol):
        checks.append({"check": check, "component": component,
                       "residual": float(residual), "tolerance": tol,
                       "pass": bool(abs(residual) <= tol)})

    for j, Aj in enumerate(trunc.A):
        up = max(float(np.max(np.abs(Aj[2 * n:2 * n + 2, 2 * p:2 * p + 2])))
                 for n in range(N + 1) for p in range(n + 1, N + 1))
        add("A-structural-zero", "j=%d" % j, up, 1e-12)
        trc = max(abs(Aj[2 * n, 2 * n] + Aj[2 * n + 1, 2 * n + 1])
                  for n in range(N + 1))
        add("A-traceless", "j=%d" % j, trc, 1e-12)
        add("tau-equation", "j=%d" % j,
            lax_system_residual(trunc, "TAU_EQ", j, xi=args.xi),
            1e-5)
    add("xi-equation", "xi=%g" % args.xi,
        lax_system_residual(trunc, "XI_EQ", xi=args.xi), 1e-5)
    mask = schlesinger_mask(N)
    for i in range(len(trunc.taus)):
        for j in range(len(trunc.taus)):
            R = schlesinger_residual(trunc, i, j)
            add("schlesinger", "i=%d,j=%d" % (i, j),
                float(np.max(np.abs(R[mask]))), 1e-5)
    report = {"model": args.model, "endpoints": list(endpoints),
              "N": N, "checks": checks}
    _write_json(args.out, report)
    return 0 if all(c["pass"] for c in checks) else 2


def _cmd_verify(args, gcfg, seed):
    model = _MODELS[args.model]()
    table = build_awf(model, nystrom(half_line(args.tau), gcfg, model),
                      args.N)
    checks = []
    for name in IDENTITIES:
        r = identity_residual(name, model, table, args.tau)
        tol = _IDENTITY_TOL[name]
        checks.append({"check": name, "residual": float(r),
                       "tolerance": tol, "pass": bool(abs(r) <= tol)})
    report = {"model": args.model, "tau": args.tau, "N": args.N,
              "checks": checks}
    _write_json(args.out, report)
    return 0 if all(c["pass"] for c in checks) else 2


def _cmd_kpz(args, gcfg, seed):
    spec = FiniteTempSpec(args.c1, args.c2)
    taus = _parse_range(args.tau_range)
    rows = [[float(t), kpz_gap(spec, float(t), gcfg)] for t in taus]
    meta = _meta(args, gcfg)
    meta.update(c1=args.c1, c2=args.c2)
    _write_csv(args.out, meta, ["tau", "F"], rows)
    return 0


# ----------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="fredtw",
        description="Fredholm determinants of integrable kernels")
    top.add_argument("--config", help="INI-style config file")
    sub = top.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--model", choices=sorted(_MODELS), default="airy")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("eval-kernel", help="kernel values at point pairs")
    common(p)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--zeta", type=float, default=0.0)
    p.add_argument("--pairs", type=int, default=0,
                   help="emit this many random pairs instead")
    p.add_argument("--lo", type=float, default=-2.0)
    p.add_argument("--hi", type=float, default=3.0)
    p.set_defaults(func=_cmd_eval_kernel)

    p = sub.add_parser("det", help="gap probability on [tau, inf)")
    common(p)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--tau-range", dest="tau_range",
                   help="a:b:n sweep instead of --tau")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("tw-solve", help="BVP solve and both functional "
                                        "determinant routes")
    common(p)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=-2.0)
    p.add_argument("--tau-range", dest="tau_range")
    p.set_defaults(func=_cmd_tw_solve)

    p = sub.add_parser("hamiltonian", help="endpoint Hamiltonians")
    common(p)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--routes", help="comma list (default: all)")
    p.set_defaults(func=_cmd_hamiltonian)

    p = sub.add_parser("lax", help="linear-system and Schlesinger residuals")
    common(p)
    p.add_argument("--endpoints", default="0,1,2",
                   help="finite endpoints; a trailing half-line is implied")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--xi", type=float, default=0.5)
    p.set_defaults(func=_cmd_lax)

    p = sub.add_parser("verify", help="identity registry residuals")
    common(p)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--N", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kpz", help="finite-temperature gap probabilities")
    common(p)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=10.0)
    p.add_argument("--tau-range", dest="tau_range", default="0")
    p.set_defaults(func=_cmd_kpz)
    return top


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        gcfg, seed = (_load_config(args.config) if args.config
                      else (GridConfig(), 0))
        return args.func(args, gcfg, seed)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (NonConvergent, PsiTooSmall, SingularOperator, WeightVanishes) as e:
        print("computation failed: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
