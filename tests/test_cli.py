import numpy as np
import pytest

from kwtorus import read_field
from kwtorus.cli import main


def run(args, outdir):
    return main(args + ["--out", str(outdir)])


def read_report(outdir):
    out = {}
    for line in (outdir / "report.kv").read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_solve_trivial(tmp_path):
    code = run(
        ["solve", "--dims", "64", "--n", "1", "--t", "1",
         "--s", "-1", "--s-hat", "-1"],
        tmp_path,
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["status"] == "converged"
    assert float(rep["residual_sup"]) < 1e-8
    u = read_field(tmp_path / "u.kwf")
    assert np.max(np.abs(u.values)) < 1e-8
    assert (tmp_path / "trace.csv").exists()


def test_construct_unsolvable_then_necessary(tmp_path):
    first = tmp_path / "a"
    first.mkdir()
    code = run(
        ["construct-unsolvable", "--dims", "64", "--psi", "sin(x0)",
         "--alpha-const", "0.1", "--c", "-1"],
        first,
    )
    assert code == 0
    rep = read_report(first)
    assert np.isclose(float(rep["phi_mean"]), -0.1, atol=1e-10)
    second = tmp_path / "b"
    second.mkdir()
    code = run(
        ["necessary", "--phi-file", str(first / "phi.kwf"), "--c", "-1"],
        second,
    )
    assert code == 4
    rep = read_report(second)
    assert rep["positive"] == "false"
    assert float(rep["phi0_min"]) < 0


def test_asymptotic_csv_values(tmp_path):
    code = run(
        ["asymptotic", "--dims", "256", "--f", "sin(x0)", "--c-list=-9,-99"],
        tmp_path,
    )
    assert code == 0
    rows = (tmp_path / "asymptotic.csv").read_text().splitlines()[1:]
    devs = [float(r.split(",")[1]) for r in rows]
    assert np.isclose(devs[0], 0.1, rtol=1e-3)
    assert np.isclose(devs[1], 0.01, rtol=1e-3)


def test_parser_error_exit_code(tmp_path, capsys):
    code = run(["solve", "--dims", "64", "--n", "1", "--t", "1",
                "--s", "sin(", "--s-hat", "-1"], tmp_path)
    assert code == 2
    assert "offset 4" in capsys.readouterr().err


def test_eval_error_exit_code(tmp_path):
    code = run(["solve", "--dims", "64", "--n", "1", "--t", "1",
                "--s", "log(x0-10)", "--s-hat", "-1"], tmp_path)
    assert code == 2


def test_unknown_identifier_exit_code(tmp_path):
    code = run(["validate", "--dims", "64", "--s", "sin(y0)"], tmp_path)
    assert code == 2


DRIFT_SOLVE_16 = [
    "solve", "--dims", "16,16", "--n", "1", "--t", "1", "--s=-1",
    "--s-hat=-1-0.3*cos(x0)", "--alpha0=0.2*sin(x1)", "--alpha1=0.2*cos(x0)",
]


@pytest.mark.parametrize(
    "bad",
    [DRIFT_SOLVE_16 + opts for opts in (
        ["--lin-restart", "0"], ["--lin-restart=-5"], ["--lin-tol=-1"],
        ["--strategy", "bogus"])]
    + [
        ["asymptotic", "--dims", "16", "--f=sin(x0)", "--c-list=1"],
        ["gamma-estimate", "--dims", "16", "--p", "0.5", "--c=-1"],
        ["solve", "--dims", "16", "--n", "0", "--t", "1", "--s=-1", "--s-hat=-1"],
        ["critical-c", "--dims", "16", "--phi=sin(x0)-0.5", "--search-floor=1"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=-1", "--gamma-hat=-2"],
        ["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=1",
         "--s-hat=1+0.3*sin(x0)", "--strategy", "continuation", "--steps", "0"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=-1", "--gamma-hat", "1",
         "--p", "0"],
        ["critical-c", "--dims", "16", "--phi=-1", "--search-floor=-0.001"],
        DRIFT_SOLVE_16 + ["--kw-tol=-1"],
        ["critical-c", "--dims", "16", "--phi=-1-0.5*sin(x0)", "--kw-tol=-1"],
    ],
)
def test_bad_options_exit_code(tmp_path, capsys, bad):
    code = run(bad, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_rhs_is_a_solver_failure(tmp_path):
    # the Krylov norms overflow; that must read as non-convergence (exit 3),
    # not leak a RuntimeWarning
    code = run(["solve", "--dims", "16", "--n", "1", "--t", "1",
                "--s=1", "--s-hat=-1e300"], tmp_path)
    assert code == 3
    assert read_report(tmp_path)["status"] == "not-certified"


def test_degenerate_t_and_rejection(tmp_path):
    good = tmp_path / "ok"
    good.mkdir()
    code = run(["degenerate-t", "--dims", "16,16", "--s", "-2", "--s-hat", "-1",
                "--n", "2", "--t", "-1"], good)
    assert code == 0
    u = read_field(good / "u.kwf")
    assert np.max(np.abs(u.values - np.log(2.0))) < 1e-14
    assert (good / "u.pgm").exists()
    bad = tmp_path / "bad"
    bad.mkdir()
    code = run(["degenerate-t", "--dims", "16,16", "--s", "-1", "--s-hat", "1"], bad)
    assert code == 2


def test_validate_emitted_fields_and_gauduchon(tmp_path):
    first = tmp_path / "a"
    first.mkdir()
    assert run(["reduce", "--dims", "64", "--n", "1", "--t", "1",
                "--s=-1+0.1*sin(x0)", "--s-hat", "-1"], first) == 0
    second = tmp_path / "b"
    second.mkdir()
    code = run(["validate", str(first / "g.kwf"), str(first / "phi.kwf")], second)
    assert code == 0
    rep = read_report(second)
    assert rep["g_ok"] == "true"
    assert rep["phi_ok"] == "true"
    third = tmp_path / "c"
    third.mkdir()
    code = run(["validate", "--dims", "64", "--alpha0", "sin(x0)"], third)
    assert code == 2
    rep = read_report(third)
    assert rep["alpha_gauduchon"] == "false"


def test_roundtrip_command(tmp_path):
    code = run(
        ["roundtrip", "--dims", "64", "--n", "1", "--t", "1", "--s", "-1",
         "--u-star", "0.3*sin(x0)", "--kw-maxiter", "2000"],
        tmp_path,
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert float(rep["sup_error"]) < 1e-6


def test_roundtrip_honours_lambda_override(tmp_path):
    # an overflowing monotone shift sends both commands to the Newton fallback
    override = ["--kw-lambda-override", "1e20"]
    trip = tmp_path / "trip"
    trip.mkdir()
    run(["roundtrip", "--dims", "16", "--n", "1", "--t", "1", "--s", "-1",
         "--u-star", "0.3*sin(x0)"] + override, trip)
    solve = tmp_path / "solve"
    solve.mkdir()
    run(["solve", "--dims", "16", "--n", "1", "--t", "1", "--s", "-1",
         "--s-hat-file", str(trip / "s_hat.kwf")] + override, solve)
    assert read_report(trip)["method"] == read_report(solve)["method"] == "newton"


def test_transform_command(tmp_path):
    code = run(
        ["transform", "--dims", "64", "--n", "1", "--t", "1",
         "--s", "0", "--u", "sin(x0)"],
        tmp_path,
    )
    assert code == 0
    s_hat = read_field(tmp_path / "s_hat.kwf")
    x = 2 * np.pi * np.arange(64) / 64
    expect = 0.5 * np.exp(-np.sin(x)) * np.sin(x)
    assert np.max(np.abs(s_hat.values - expect)) < 1e-4
    assert (tmp_path / "s2_hat.kwf").exists()


def test_gamma_estimate_heuristic_flag(tmp_path):
    code = run(["gamma-estimate", "--dims", "64", "--c", "-1", "--p", "3",
                "--samples", "4"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["gamma_is_heuristic"] == "true"
    assert float(rep["gamma_hat"]) >= 2.0


def test_sufficient_command(tmp_path):
    code = run(["sufficient", "--dims", "64", "--phi", "-1", "--c", "-1",
                "--p", "3", "--samples", "2"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["certified"] == "true"


@pytest.mark.parametrize("command", ["gamma-estimate", "sufficient"])
def test_gamma_estimate_uses_linear_options(tmp_path, command):
    # one unpreconditioned Krylov iteration cannot solve a random probe
    code = run([command, "--dims", "64", "--phi", "-1", "--c", "-1", "--p", "3",
                "--samples", "2", "--lin-direct", "0", "--lin-precondition", "0",
                "--lin-maxiter", "1", "--lin-restart", "1"], tmp_path)
    assert code == 3


def test_critical_c_command(tmp_path):
    code = run(["critical-c", "--dims", "64", "--phi=-1-0.5*sin(x0)",
                "--search-floor=-1000"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert float(rep["c_lo"]) == -1000.0
    assert rep["lo_evidence"] == "search-limit"
    assert (tmp_path / "probes.csv").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# trivial solve\n"
        "dims = 64\n"
        "n = 1\n"
        "t = 1\n"
        "s = -1\n"
        "s_hat = -2\n"
    )
    out = tmp_path / "o"
    out.mkdir()
    code = main(["solve", "--config", str(cfg), "--s-hat", "-1", "--out", str(out)])
    assert code == 0
    u = read_field(out / "u.kwf")
    assert np.max(np.abs(u.values)) < 1e-8  # override s_hat=-1 won


def test_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        d.mkdir()
        code = run(
            ["solve", "--dims", "64", "--n", "1", "--t", "1",
             "--s=-1+0.2*sin(x0)", "--s-hat=-1-0.1*cos(x0)",
             "--kw-maxiter", "2000"],
            d,
        )
        assert code == 0
        outs.append((d / "report.kv").read_bytes() + (d / "u.kwf").read_bytes())
    assert outs[0] == outs[1]


def test_exactly_one_source_per_field(tmp_path):
    code = run(["solve", "--dims", "64", "--n", "1", "--t", "1",
                "--s", "-1", "--s-file", "nope.kwf", "--s-hat", "-1"], tmp_path)
    assert code == 2


def test_pgm_header_and_annotation(tmp_path):
    code = run(["transform", "--dims", "16,16", "--n", "1", "--t", "1",
                "--s", "0", "--u", "sin(x0)"], tmp_path)
    assert code == 0
    data = (tmp_path / "s_hat.pgm").read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")
    assert len(data) == len(b"P5\n16 16\n255\n") + 256
    rep = read_report(tmp_path)
    assert "s_hat_pgm_min" in rep and "s_hat_pgm_max" in rep


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KW_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main(["validate", "--dims", "16", "--s", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "report.kv").exists()
