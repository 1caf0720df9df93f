"""Span tracing of fredtw's public functions, from outside the package.

install() replaces each traced function by a wrapper in every fredtw
module that binds it (modules import these functions by name, so
patching only the defining module would miss most calls).  A wrapper
records one span -- name, start, end, parent span, and a small detail
taken from the arguments or the result -- in memory.  layer_metrics()
turns the spans into the per-layer figures of BENCHMARK.json.
"""

import sys
import time

import numpy as np

_perf = time.perf_counter


def _airy_detail(args, kwargs, out):
    return int(np.size(args[0])), int(np.ndim(args[0]) == 0)


def _grid_detail(args, kwargs, out):
    model = kwargs.get("model", args[2] if len(args) > 2 else None)
    return (model is not None, int(out.nodes.size))


def _picard_detail(args, kwargs, out):
    return int(out.iterations)


# (module, function, span name, detail extractor)
TRACED = (
    ("fredtw.airy", "airy_ai", "airy", _airy_detail),
    ("fredtw.airy", "airy_ai_prime", "airy", _airy_detail),
    ("fredtw.airy", "airy_ai_pair", "airy", _airy_detail),
    ("fredtw.kernel", "kernel_matrix", "kernel.matrix", None),
    ("fredtw.kernel", "kernel_diag", "kernel.diag", None),
    ("fredtw.kernel", "kernel_row", "kernel.row", None),
    ("fredtw.fredholm", "build_grid", "fredholm.grid", _grid_detail),
    ("fredtw.fredholm", "discretize", "fredholm.discretize", None),
    ("fredtw.fredholm", "fredholm_det", "fredholm.det", None),
    ("fredtw.fredholm", "resolve", "fredholm.resolve", None),
    ("fredtw.fredholm", "lu_factor", "fredholm.lu", None),
    ("fredtw.fredholm", "gap_probability", "fredholm.gap", None),
    ("fredtw.twsolver", "solve_q", "twsolver.solve", _picard_detail),
    ("fredtw.twsolver", "det_via_functional", "twsolver.functional", None),
    ("fredtw.twsolver", "det_via_alternative", "twsolver.alternative",
     None),
    ("fredtw.kpz", "kpz_gap", "kpz.gap", None),
    ("fredtw.kpz", "kpz_matrix", "kpz.matrix", None),
    ("fredtw.awf", "build_awf", "awf.build", None),
    ("fredtw.awf", "identity_residual", "awf.identity", None),
    ("fredtw.awf", "_rebuild", "awf.rebuild", None),
    ("fredtw.hamiltonian", "hamiltonian", "hamiltonian.h", None),
    ("fredtw.hamiltonian", "logdet_link_residual", "hamiltonian.link",
     None),
    ("fredtw.lax", "build_truncation", "lax.truncation", None),
    ("fredtw.lax", "lax_system_residual", "lax.residual", None),
    ("fredtw.lax", "schlesinger_residual", "lax.residual", None),
    ("fredtw.cli", "run", "cli", None),
)

NAME, START, END, PARENT, DETAIL = range(5)


class Recorder:
    """Spans in call order: [name, start, end, parent index, detail]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def clear(self):
        self.spans = []

    def wrap(self, name, fn, detail):
        rec, stack = self, self._stack

        def traced(*args, **kwargs):
            idx = len(rec.spans)
            span = [name, _perf(), 0.0, stack[-1] if stack else -1, None]
            rec.spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = _perf()
            if detail is not None:
                span[DETAIL] = detail(args, kwargs, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for s in self.spans:
                fh.write("%s,%.9f,%.9f,%d\n" % (s[NAME], s[START], s[END],
                                                s[PARENT]))


def install(recorder):
    """Patch every fredtw module binding a traced function."""
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "fredtw" or k.startswith("fredtw.")]
    for mod_name, attr, name, detail in TRACED:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = recorder.wrap(name, original, detail)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


LAYER_METRICS = (
    "airy.calls", "airy.points", "airy.scalar_calls", "airy.self_s",
    "kernel.matrix_calls", "kernel.matrix_self_s", "kernel.diag_calls",
    "kernel.row_calls", "kernel.row_self_s",
    "fredholm.grid_calls", "fredholm.grid_self_s", "fredholm.doublings",
    "fredholm.discretize_calls", "fredholm.det_calls",
    "fredholm.resolve_calls", "fredholm.lu_self_s", "fredholm.builds_per_F",
    "fredholm.nodes_mean",
    "twsolver.solve_calls", "twsolver.solve_self_s", "twsolver.picard_iters",
    "twsolver.functional_self_s", "twsolver.alternative_self_s",
    "kpz.gap_calls", "kpz.gap_self_s", "kpz.matrix_calls",
    "kpz.matrix_self_s", "kpz.phi_points", "kpz.matrices_per_F",
    "awf.build_calls", "awf.build_self_s", "awf.identity_calls",
    "awf.identity_self_s", "awf.rebuilds",
    "hamiltonian.calls", "hamiltonian.self_s", "hamiltonian.link_self_s",
    "lax.truncation_self_s", "lax.residual_self_s",
    "cli.self_s",
)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_per_F") else "count"


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, n_ops):
    """Per-operation counts and self times, and the waste ratios.

    A span's self time is its duration minus the time covered by its
    direct children (children never overlap: the program is serial).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls, self_s = {}, {}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) \
            + (s[END] - s[START]) - child_time[i]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    # a call that raised has no detail
    airy = [s for s in spans if s[NAME] == "airy" and s[DETAIL]]
    grids = [s for s in spans if s[NAME] == "fredholm.grid" and s[DETAIL]]
    # one L value is tried per tail probe of a model-driven grid; a grid
    # without a model is built at a single pinned L
    probes = sum(1 for s in spans if s[NAME] == "kernel.diag"
                 and s[PARENT] >= 0 and spans[s[PARENT]][NAME]
                 == "fredholm.grid")
    pinned = sum(1 for s in grids if not s[DETAIL][0])
    phi_points = sum(s[DETAIL][0] for s in airy
                     if s[PARENT] >= 0 and spans[s[PARENT]][NAME]
                     == "kpz.matrix")
    total = {
        "airy.calls": c("airy"),
        "airy.points": sum(s[DETAIL][0] for s in airy),
        "airy.scalar_calls": sum(s[DETAIL][1] for s in airy),
        "airy.self_s": t("airy"),
        "kernel.matrix_calls": c("kernel.matrix"),
        "kernel.matrix_self_s": t("kernel.matrix"),
        "kernel.diag_calls": c("kernel.diag"),
        "kernel.row_calls": c("kernel.row"),
        "kernel.row_self_s": t("kernel.row"),
        "fredholm.grid_calls": c("fredholm.grid"),
        "fredholm.grid_self_s": t("fredholm.grid"),
        "fredholm.discretize_calls": c("fredholm.discretize"),
        "fredholm.det_calls": c("fredholm.det"),
        "fredholm.resolve_calls": c("fredholm.resolve"),
        "fredholm.lu_self_s": t("fredholm.lu"),
        "twsolver.solve_calls": c("twsolver.solve"),
        "twsolver.solve_self_s": t("twsolver.solve"),
        "twsolver.picard_iters": sum(s[DETAIL] or 0 for s in spans
                                     if s[NAME] == "twsolver.solve"),
        "twsolver.functional_self_s": t("twsolver.functional"),
        "twsolver.alternative_self_s": t("twsolver.alternative"),
        "kpz.gap_calls": c("kpz.gap"),
        "kpz.gap_self_s": t("kpz.gap"),
        "kpz.matrix_calls": c("kpz.matrix"),
        "kpz.matrix_self_s": t("kpz.matrix"),
        "kpz.phi_points": phi_points,
        "awf.build_calls": c("awf.build"),
        "awf.build_self_s": t("awf.build"),
        "awf.identity_calls": c("awf.identity"),
        "awf.identity_self_s": t("awf.identity"),
        "awf.rebuilds": c("awf.rebuild"),
        "hamiltonian.calls": c("hamiltonian.h"),
        "hamiltonian.self_s": t("hamiltonian.h"),
        "hamiltonian.link_self_s": t("hamiltonian.link"),
        "lax.truncation_self_s": t("lax.truncation"),
        "lax.residual_self_s": t("lax.residual"),
        "cli.self_s": t("cli"),
    }
    out = {k: v / n_ops for k, v in total.items()}
    out["fredholm.doublings"] = _ratio(probes + pinned, len(grids))
    out["fredholm.builds_per_F"] = _ratio(c("kernel.matrix"),
                                          c("fredholm.gap"))
    out["fredholm.nodes_mean"] = _ratio(sum(s[DETAIL][1] for s in grids),
                                        len(grids))
    out["kpz.matrices_per_F"] = _ratio(c("kpz.matrix"), c("kpz.gap"))
    return {k: out[k] for k in LAYER_METRICS}
