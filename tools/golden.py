"""Byte-compare fredtw's golden CLI outputs between two source trees.

    python3 tools/golden.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the fredtw package (a
checkout's src/).  Every golden command runs as
`python3 -m fredtw.cli ...` under each tree, with one BLAS/OpenMP
thread; its standard output goes to a file, and the two files are
compared with `cmp`, together with the exit codes.  Prints one line per
command and exits 1 if any command differs.
"""

import os
import subprocess
import sys
import tempfile

GOLDEN = (
    ("det", "--tau-range=-8:6:57"),
    ("tw-solve", "--tau-min=-2", "--tau-range=-2:2:5"),
    ("kpz", "--c1", "1", "--c2", "20", "--tau-range=-2:2:9"),
    ("hamiltonian", "--tau", "0", "--n", "1"),
    ("verify", "--tau", "0"),
    ("lax", "--endpoints", "0,1,2", "--N", "4"),
    ("hamiltonian", "--tau", "0.5", "--n", "3"),
    ("verify", "--tau", "-1", "--model", "damped"),
    ("eval-kernel", "--pairs", "50", "--lo", "-9", "--hi", "9"),
    ("eval-kernel", "--model", "damped", "--pairs", "50"),
    ("det", "--tau-range=-12:-9:4"),
    ("lax", "--endpoints=-3,-1.5,0.5", "--xi=1.25", "--N", "2"),
    ("det", "--model", "damped", "--tau-range=-1:3:5"),
    ("kpz", "--c1", "1", "--c2", "1", "--tau-range=-4:2:4"),
    ("kpz", "--c1", "0.3", "--c2", "40", "--tau-range=-1:1:3"),
    ("tw-solve", "--tau-min=-5.5", "--tau-range=-5.5:-1.5:3"),
    ("tw-solve", "--model", "zero", "--tau-min=-1", "--tau-range=-1:1:3"),
    ("verify", "--tau", "-1", "--N", "6"),
    ("tw-solve", "--tau-min=-4.25", "--tau-range=-4.25:-0.25:3"),
    ("tw-solve", "--tau-min=-0.3181287304817287",
     "--tau-range=-0.3181287304817287:3.6818712695182713:3"),
)
THREADS = "1"


def _run(src, argv, out_path, cwd):
    """Exit code of fredtw.cli under src; its stdout goes to out_path."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=THREADS,
               OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)
    with open(out_path, "wb") as fh:
        return subprocess.run([sys.executable, "-m", "fredtw.cli", *argv],
                              stdout=fh, stderr=subprocess.DEVNULL,
                              env=env, cwd=cwd).returncode


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    for src in argv:
        if not os.path.isfile(os.path.join(src, "fredtw", "__init__.py")):
            sys.stderr.write("no fredtw package under %s\n" % src)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, cmd in enumerate(GOLDEN):
            outs = [os.path.join(tmp, "%d-%s.out" % (k, side))
                    for side in ("parent", "change")]
            codes = [_run(src, cmd, out, tmp)
                     for src, out in zip(argv, outs)]
            same_out = subprocess.run(["cmp", "-s", *outs]).returncode == 0
            ok = same_out and codes[0] == codes[1]
            differ += not ok
            print("%-4s exit %d/%d  %s%s"
                  % ("same" if ok else "DIFF", codes[0], codes[1],
                     " ".join(cmd), "" if same_out else "  (stdout differs)"),
                  flush=True)
    print("%d of %d commands differ" % (differ, len(GOLDEN)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
