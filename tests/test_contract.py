"""The names the benchmark's span tracer (perfbench/spans.py) patches from
outside the package must stay bound, or its per-layer figures silently
read zero; the calls its worker (perfbench/worker.py) makes must still
fit the signatures, or its operations silently fail."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

from fredtw import (airy_model, build_awf, build_grid, discretize,
                    half_line, hamiltonian, identity_residual,
                    logdet_link_residual)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_are_bound():
    traced = _traced()
    pairs = {(m, a) for m, a, _, _ in traced}
    assert {("fredtw.awf", "_rebuild"),
            ("fredtw.fredholm", "lu_factor")} <= pairs
    for mod_name, attr, _, _ in traced:
        assert callable(getattr(importlib.import_module(mod_name), attr)), \
            (mod_name, attr)


def test_solve_q_reports_iterations(airy_sol):
    # spans._picard_detail reads int(out.iterations)
    assert isinstance(airy_sol.iterations, int)


def test_model_grid_has_nodes():
    grid = build_grid(half_line(2.0), model=airy_model())
    assert grid.nodes.size > 0
    assert math.isfinite(grid.truncation)


def test_worker_call_shapes_bind():
    m, grid, table, iu = object(), object(), object(), object()
    shapes = ((identity_residual, ("MU01", m, table, 0.0), {}),
              (hamiltonian, (table, 1, 0.0, "DIAGONAL"), {}),
              (logdet_link_residual, (m, 0.0), {}),
              (build_awf, (m, object(), 4), {}),
              (build_grid, (iu,), {"model": m}),
              (discretize, (m, grid), {}))
    for f, args, kwargs in shapes:
        inspect.signature(f).bind(*args, **kwargs)
