"""The names the benchmark's span tracer (perfbench/spans.py) patches from
outside the package must stay bound, or its per-layer figures silently
read zero; the calls its worker (perfbench/worker.py) makes must still
fit the signatures, or its operations silently fail; its output checks
(perfbench/checks.py) must cover the whole identity registry."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

from fredtw import (IDENTITIES, airy_model, build_awf, build_grid,
                    discretize, half_line, hamiltonian, identity_residual,
                    logdet_link_residual)
from fredtw.cli import _IDENTITY_TOL

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py, loaded by path as perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_bound():
    traced = _load("spans").TRACED
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


def test_benchmark_checks_the_whole_registry(monkeypatch):
    """identity_stack asserts every registered identity at the tolerance
    verify uses, and verify holds a tolerance for exactly the registry."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports reference
    checks = _load("checks")
    assert checks.IDENTITY_TOL == {n: _IDENTITY_TOL[n] for n in IDENTITIES}
    assert set(_IDENTITY_TOL) == set(IDENTITIES)
