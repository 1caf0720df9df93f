"""The measured process: one fresh interpreter per run.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --setup-only 0|1

It times `import fredtw`, the input build and one small untimed warm-up
call of each entry point as its set-up, then runs whole rounds of
operations in a closed loop (one caller; the next operation starts when
the last one ends) until the next round would end past --seconds; a
traced run (--trace 1) runs exactly one round, so its counts repeat.  It
prints one JSON object on its standard output: the operations' inputs
and parsed outputs, the set-up's and each operation's wall time with
the host's pace and the time spent in the pace kernel over it
(hostspeed.py; untraced runs only), and the peak RSS.  The
output checks run in the parent (run.py), outside this process.

run.py pins the BLAS/OpenMP thread count and puts the checkout's src/
on PYTHONPATH before it starts this process.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback

import hostspeed


def _parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# The host's pace is sampled from here on, through set-up and the timed
# loop; a traced run does without, so that no span holds kernel time.
ARGS = _parse_args()
SAMPLER = hostspeed.Sampler()
if not ARGS.trace:
    SAMPLER.start()

import numpy as np

import fredtw
from fredtw import cli

import spans

ROUNDS_MAX = 512              # enough for a program 100x faster than today
PASSING_IDENTITIES = ("CLOSURE", "AWF-DERIV", "AWF-PARAM", "MU01",
                      "MU00-DOT", "MU-SHIFT", "MU-IPRO")
KPZ_C2 = (5.0, 10.0, 20.0)
JITTER = 0.25
# One round: an operation at each centre, moved by a seeded jitter of at
# most JITTER.  The centres span each workload's range and the jitter is
# small, so that a round costs the same whatever the seed.  The tw_routes
# centres keep tw-solve's match point T = max(t0 + 10, 8) at 8, where
# every operation makes the same 3152 scalar Airy calls; for t0 > -1 the
# q-equation residual exceeds its 1e-8 tolerance on some seeds (see
# CHANGES.md), so that part of [-6, 0] is left out.
CENTRES = {"tw_routes": (-5.5, -4.25, -3.0),
           "kpz_crossover": (-1.25, 0.25),
           "identity_stack": (-0.25, 1.25)}


def make_round(workload, rng):
    """The inputs of one round of operations."""
    def jitter():
        return float(rng.uniform(-JITTER, JITTER))

    if workload == "tw2_sweep":
        return [{"a": -8.0 + jitter(), "b": 6.0 + jitter(), "n": 57}]
    key = "t0" if workload == "tw_routes" else "tau"
    return [{key: c + jitter()} for c in CENTRES[workload]]


def make_inputs(workload, seed):
    return [make_round(workload, np.random.default_rng([seed, r]))
            for r in range(ROUNDS_MAX)]


def _cli(argv):
    """fredtw.cli.run(argv) in-process; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    if rc != 0:
        raise RuntimeError("fredtw %s exited %d" % (" ".join(argv), rc))
    return buf.getvalue()


def _csv_rows(text):
    """Numeric rows of a fredtw CSV (header comments and names dropped)."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [[float(v) for v in l.split(",")] for l in lines[1:]]


def _r(x):
    return repr(float(x))


def op_tw2_sweep(p):
    rows = _csv_rows(_cli(["det", "--tau-range=%s:%s:%d"
                           % (_r(p["a"]), _r(p["b"]), p["n"])]))
    return {"tau": [r[0] for r in rows], "F": [r[1] for r in rows]}


def op_tw_routes(p):
    t0 = p["t0"]
    rows = _csv_rows(_cli(["tw-solve", "--tau-min=%s" % _r(t0),
                           "--tau-range=%s:%s:3" % (_r(t0), _r(t0 + 4.0))]))
    keys = ("tau", "q", "F_functional", "F_alternative", "F_direct",
            "residual")
    return {k: [r[i] for r in rows] for i, k in enumerate(keys)}


def op_kpz_crossover(p):
    F = []
    for c2 in KPZ_C2:
        rows = _csv_rows(_cli(["kpz", "--c1", "1", "--c2", _r(c2),
                               "--tau-range=%s" % _r(p["tau"])]))
        F.append(rows[0][1])
    return {"c2": list(KPZ_C2), "F": F}


def op_identity_stack(p):
    tau = p["tau"]
    model = fredtw.airy_model()
    grid = fredtw.build_grid(fredtw.half_line(tau), model=model)
    table = fredtw.build_awf(model, fredtw.discretize(model, grid), 4)
    identities = {name: float(fredtw.identity_residual(name, model, table,
                                                       tau))
                  for name in PASSING_IDENTITIES}
    routes = [abs(fredtw.hamiltonian(table, n, tau, "DIAGONAL")
                  - fredtw.hamiltonian(table, n, tau, "CANONICAL"))
              for n in (1, 2, 3)]
    link = float(fredtw.logdet_link_residual(model, tau))
    report = json.loads(_cli([
        "lax", "--endpoints=%s,%s,%s" % (_r(tau), _r(tau + 1.0),
                                         _r(tau + 2.0)),
        "--xi=%s" % _r(tau + 0.5), "--N", "4"]))
    return {"identities": identities, "routes": routes, "link": link,
            "lax": report["checks"]}


OPS = {"tw2_sweep": op_tw2_sweep, "tw_routes": op_tw_routes,
       "kpz_crossover": op_kpz_crossover,
       "identity_stack": op_identity_stack}


def _warm_identity_stack():
    model = fredtw.airy_model()
    grid = fredtw.build_grid(fredtw.half_line(4.0), model=model)
    table = fredtw.build_awf(model, fredtw.discretize(model, grid), 1)
    fredtw.identity_residual("MU01", model, table, 4.0)
    fredtw.hamiltonian(table, 1, 4.0, "DIAGONAL")
    fredtw.hamiltonian(table, 1, 4.0, "CANONICAL")
    fredtw.logdet_link_residual(model, 4.0)
    _cli(["lax", "--endpoints=4", "--xi=4.5", "--N", "2"])


# one small call of each entry point a workload uses
WARM_UP = {
    "tw2_sweep": lambda: op_tw2_sweep({"a": 4.0, "b": 5.0, "n": 2}),
    "tw_routes": lambda: _cli(["tw-solve", "--tau-min=6",
                               "--tau-range=6"]),
    "kpz_crossover": lambda: _cli(["kpz", "--c2", "5", "--tau-range=2"]),
    "identity_stack": _warm_identity_stack,
}


def main():
    args = ARGS
    if args.workload not in OPS:
        raise SystemExit("unknown workload %r" % args.workload)

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
    rounds = make_inputs(args.workload, args.seed)
    WARM_UP[args.workload]()
    end = time.perf_counter()
    setup = {"wall_s": end - _T0}
    setup["pace_s"], setup["kernel_s"] = SAMPLER.window(_T0, end)
    if args.setup_only:
        SAMPLER.stop()
        print(json.dumps(setup))
        return 0

    op = OPS[args.workload]
    ops = []
    gc.collect()
    if recorder is not None:
        recorder.clear()
    start = time.perf_counter()
    for r, inputs in enumerate(rounds):
        for p in inputs:
            t = time.perf_counter()
            try:
                out, err = op(p), None
            except Exception:  # a failed operation is counted, not fatal
                out, err = None, traceback.format_exc()
            end = time.perf_counter()
            pace_s, kernel_s = SAMPLER.window(t, end)
            ops.append({"round": r, "inputs": p, "outputs": out,
                        "error": err, "wall_s": end - t,
                        "pace_s": pace_s, "kernel_s": kernel_s})
        now = time.perf_counter()
        # a traced run measures exactly one round, so its counts repeat
        if recorder is not None:
            break
        mean_round = (now - start) / (r + 1)
        if now - start + mean_round > args.seconds:
            break
    loop_s = time.perf_counter() - start
    SAMPLER.stop()

    result = {"setup": setup, "loop_s": loop_s, "ops": ops,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "fredtw_file": fredtw.__file__}
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans, len(ops))
        result["spans"] = len(recorder.spans)
        out_dir = os.environ.get("PERFBENCH_OUT")
        if out_dir:
            recorder.write(os.path.join(
                out_dir, "spans-%s-%d.csv" % (args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
