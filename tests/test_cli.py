import json

import pytest

from fredtw.cli import _load_config, run


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_unknown_subcommand(capsys):
    assert run(["bogus"]) == 1


def test_no_subcommand():
    assert run([]) == 1


def test_det_csv(tmp_path):
    out = tmp_path / "det.csv"
    assert run(["det", "--model", "airy", "--tau", "0",
                "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "tau,F"
    tau, F = data[1].split(",")
    assert abs(float(F) - 0.9693728283552627) < 1e-9
    # 17 significant digits survive the round trip
    assert len(F.replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["det", "--tau-range=-1:1:3", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert _read(a) == _read(b)


def test_eval_kernel_seeded_pairs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["eval-kernel", "--pairs", "4", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert _read(a) == _read(b)
    for line in _read(a).splitlines():
        if line.startswith("#") or line.startswith("xi"):
            continue
        xi, zeta, K, Kd = map(float, line.split(","))
        assert abs(K - Kd) < 1e-8


def test_hamiltonian_routes(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hamiltonian", "--tau", "0", "--n", "1",
                "--out", str(out)]) == 0
    rows = [l.split(",") for l in _read(out).splitlines()
            if not l.startswith("#")][1:]
    vals = {r[0]: float(r[3]) for r in rows}
    assert set(vals) == {"DIAGONAL", "CANONICAL", "CLOSED_FORM"}
    assert abs(vals["DIAGONAL"] - vals["CANONICAL"]) < 1e-9


def test_closed_form_route_on_a_coarse_grid(tmp_path, capsys):
    """CLOSED_FORM differences q over tables rebuilt with the config's
    grid settings, so it agrees with DIAGONAL on a non-default grid."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nnodes_per_panel = 12\n")
    assert run(["--config", str(cfg), "hamiltonian", "--tau", "0",
                "--n", "1"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")][1:]
    vals = {r[0]: float(r[3]) for r in rows}
    assert abs(vals["CLOSED_FORM"] - vals["DIAGONAL"]) < 1e-6


def test_verify_reports_the_registry(tmp_path):
    """verify checks the seven registered identities, in order, and all
    pass, from N = 1 up; N = 0 is a usage error."""
    out = tmp_path / "verify.json"
    for N in ("4", "1"):
        assert run(["verify", "--model", "airy", "--tau", "0", "--N", N,
                    "--out", str(out)]) == 0
        checks = json.loads(_read(out))["checks"]
        assert [c["check"] for c in checks] == [
            "CLOSURE", "AWF-DERIV", "AWF-PARAM", "MU01", "MU00-DOT",
            "MU-SHIFT", "MU-IPRO"]
        assert all(c["pass"] for c in checks)
    assert run(["verify", "--tau", "0", "--N", "0",
                "--out", str(out)]) == 1


def test_lax_report(tmp_path):
    out = tmp_path / "lax.json"
    assert run(["lax", "--N", "3", "--out", str(out)]) == 0
    report = json.loads(_read(out))
    assert all(c["pass"] for c in report["checks"])
    assert {c["check"] for c in report["checks"]} >= {
        "A-structural-zero", "tau-equation", "xi-equation", "schlesinger"}


def test_kpz_csv(tmp_path):
    out = tmp_path / "kpz.csv"
    assert run(["kpz", "--c1", "1", "--c2", "10", "--tau-range", "0",
                "--out", str(out)]) == 0
    data = [l for l in _read(out).splitlines() if not l.startswith("#")]
    tau, F = map(float, data[1].split(","))
    assert 0.9 < F < 1.0


def test_tw_solve_csv(tmp_path):
    out = tmp_path / "tw.csv"
    assert run(["tw-solve", "--tau-min", "-1", "--tau-range", "0",
                "--out", str(out)]) == 0
    data = [l for l in _read(out).splitlines() if not l.startswith("#")]
    assert data[0] == "tau,q,F_functional,F_alternative,F_direct,residual"
    row = list(map(float, data[1].split(",")))
    assert abs(row[1] - 0.36706155154807796) < 1e-6
    assert abs(row[2] - row[4]) < 1e-6


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="open: at tau_min = -0.3181287304817287 the q-equation residual "
           "is 1.415e-8, over acceptance criterion 2's 1e-8 bound "
           "(CHANGES.md, FOUND on twsolver.solve_q)")
def test_tw_solve_residual_near_zero_tau_min(capsys):
    t0 = "-0.3181287304817287"
    run(["tw-solve", "--tau-min=" + t0, "--tau-range=" + t0])
    data = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert abs(float(data[1].split(",")[5])) <= 1e-8


def test_det_refuses_negative_determinant(capsys):
    # det(I - K) at tau = -14 is below the LU's rounding floor and comes
    # out negative: a failed computation (exit 2), not a probability
    assert run(["det", "--tau", "-14"]) == 2
    assert "not positive" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nnodes_per_panel = 30\n[run]\nseed = 7\n")
    out = tmp_path / "det.csv"
    assert run(["--config", str(cfg), "det", "--tau", "0",
                "--out", str(out)]) == 0
    assert "# nodes_per_panel=30" in _read(out)
    assert run(["--config", str(tmp_path / "missing.ini"), "det"]) == 1


def test_config_keys_follow_dataclass_fields(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nnodes_per_panel = 30\nL_max = 64\n"
                   "[run]\nseed = 7\n")
    grid, seed = _load_config(str(cfg))
    assert (grid.nodes_per_panel, grid.L_max, seed) == (30, 64.0, 7)
    assert isinstance(grid.nodes_per_panel, int)
    assert isinstance(grid.L_max, float)


@pytest.mark.parametrize("text, name", [
    ("[grid]\nnodes_per_pannel = 5\n", "nodes_per_pannel"),
    ("[solver]\nmax_outer = 3\n", "solver"),
    ("[gird]\nnodes_per_panel = 30\n", "gird"),
])
def test_config_rejects_unknown_names(tmp_path, capsys, text, name):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "det", "--tau", "0"]) == 1
    err = capsys.readouterr().err
    assert name in err
