"""Benchmark of fredtw: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/fredtw.  The run starts
fresh worker processes (worker.py) with one BLAS/OpenMP thread: two that
only set up, then the measured one.  It checks every operation's outputs
here, outside the measured process, against the independent references
in reference.py, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  The end-to-end times are wall times
rescaled to a reference pace of the host (hostspeed.py), so that the
host's drift in speed cancels; the wall times themselves are kept in
the run record.  Run records and span files go to
perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402  (metric units; fredtw is not imported)

THREADS = "1"
SETUP_SAMPLES = 3              # the measured worker is one of them
# a hung worker is killed; together these keep a run under 180 s
SETUP_TIMEOUT_S = 40
RUN_TIMEOUT_S = 90


def _worker(args, setup_only, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-only", str(int(setup_only))]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S if setup_only
                          else RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _at_ref_pace(t):
    """A measured interval's wall time less the pace kernel's share,
    rescaled from the host's pace over it to the reference pace (see
    hostspeed.py)."""
    return (t["wall_s"] - t["kernel_s"]) * hostspeed.REF_PACE_S / t["pace_s"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fredtw", "__init__.py")):
        sys.stderr.write("no fredtw sources under %s\n" % src)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PERFBENCH_OUT=out_dir)

    setups = []
    if not args.trace:
        setups = [_worker(args, True, env) for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(args, False, env)
    if not os.path.abspath(run["fredtw_file"]).startswith(src + os.sep):
        sys.stderr.write("fredtw imported from %s\n" % run["fredtw_file"])
        return 2

    check = checks.CHECKS[args.workload]
    correct, results, failed = True, 0, 0
    for op in run["ops"]:
        if op["error"] is not None:
            failed += 1
            sys.stderr.write("failed %r: %s\n" % (op["inputs"], op["error"]))
            continue
        n, problems = check(op["inputs"], op["outputs"])
        results += n
        for msg in problems:
            correct = False
            sys.stderr.write("wrong %r: %s\n" % (op["inputs"], msg))

    if args.trace:
        metrics = {k: {"value": v, "unit": spans.unit(k)}
                   for k, v in run["layers"].items()}
    else:
        setups.append(run["setup"])
        setup_s = [_at_ref_pace(s) for s in setups]
        op_s = [_at_ref_pace(op) for op in run["ops"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "results_per_s": {"value": results / sum(op_s), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(run["ops"]),
              "failed": failed, "metrics": metrics}
    record = dict(run, setup_samples=setups, result=result)
    with open(os.path.join(out_dir, "run-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
