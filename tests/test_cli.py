import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwtorus import (
    GeometrySetup,
    GridSpec,
    OneForm,
    ScalarField,
    construct_unsolvable,
    read_field,
    write_field,
)
from kwtorus.cli import _KINDS, build_parser, main
from helpers import escaping_newton, field_from


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


def _spike_s_hat(tmp_path, base):
    # 16-point s_hat, -0.5 at two points and base elsewhere; with s = -50
    # the solve has c = -100 and phi = 2 s_hat
    vals = np.full(16, base)
    vals[[2, 6]] = -0.5
    path = tmp_path / f"s_hat_{base:g}.kwf"
    write_field(ScalarField(GridSpec((16,)), vals), path)
    return path


@pytest.mark.parametrize("base", [-0.5e-5, 0.0])
def test_nonpositive_phi_is_solved_without_the_positivity_test(base, tmp_path, monkeypatch):
    # phi <= 0, not identically 0, is solvable at every c < 0 (Kazdan &
    # Warner).  The discrete positivity test on this spike gives
    # min phi0 = -2.4e-6 < 0, a false certificate, because the 4th-order
    # stencil has no maximum principle; the solve must not run it
    from kwtorus import kwsolver

    monkeypatch.setattr(kwsolver, "necessary_check",
                        lambda *args, **kwargs: pytest.fail("positivity test ran"))
    code = run(["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-50",
                "--s-hat-file", str(_spike_s_hat(tmp_path, base))], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert (rep["status"], rep["method"]) == ("converged", "newton")


def test_phi_positive_somewhere_or_zero_runs_the_positivity_test_first(tmp_path, monkeypatch):
    # sign-changing phi (construct_unsolvable) and phi = 0 keep the
    # certificate: the positivity test runs before any Newton step
    from kwtorus import kwsolver

    spec = GridSpec((64,))
    psi = ScalarField(spec, np.sin(spec.coords()[0]))
    phi = construct_unsolvable(psi, 0.1, -1.0, OneForm.zero(spec))
    write_field(ScalarField(spec, phi.values / 2.0), tmp_path / "s_hat.kwf")
    calls = []
    for name in ("necessary_check", "newton_solve"):
        real = getattr(kwsolver, name)
        monkeypatch.setattr(kwsolver, name, lambda *args, _name=name, _real=real, **kwargs:
                            calls.append(_name) or _real(*args, **kwargs))
    for i, s_hat in enumerate((["--s-hat-file", str(tmp_path / "s_hat.kwf")], ["--s-hat=0"])):
        calls.clear()
        out = tmp_path / f"out{i}"
        out.mkdir()
        code = run(["solve", "--dims", "64", "--n", "1", "--t", "1", "--s=-0.5", *s_hat], out)
        assert code == 4
        assert read_report(out)["status"] == "certified-unsolvable"
        assert calls == ["necessary_check"]


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

PLAIN_SOLVE_16 = ["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--s-hat=-1"]


@pytest.mark.parametrize(
    "bad",
    [DRIFT_SOLVE_16 + opts for opts in (
        ["--lin-maxiter", "0"], ["--lin-maxiter=-5"], ["--lin-tol=-1"])]
    + [["solve", "--config", "{tmp}/strategy.cfg"]]
    + [
        ["asymptotic", "--dims", "16", "--f=sin(x0)", "--c-list=1"],
        ["gamma-estimate", "--dims", "16", "--p", "0.5", "--c=-1"],
        ["solve", "--dims", "16", "--n", "0", "--t", "1", "--s=-1", "--s-hat=-1"],
        ["critical-c", "--dims", "16", "--phi=sin(x0)-0.5", "--search-floor=1"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=-1", "--gamma-hat=-2"],
        ["solve", "--config", "{tmp}/steps.cfg"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=-1", "--gamma-hat", "1",
         "--p", "0"],
        ["critical-c", "--dims", "16", "--phi=-1", "--search-floor=-0.001"],
        DRIFT_SOLVE_16 + ["--kw-tol=-1"],
        ["critical-c", "--dims", "16", "--phi=-1-0.5*sin(x0)", "--kw-tol=-1"],
        ["necessary", "--dims", "16", "--phi=-1", "--c=nan"],
        ["necessary", "--dims", "16", "--phi=-1", "--c=-inf"],
        ["asymptotic", "--dims", "16", "--f=sin(x0)", "--c-list=-inf"],
        ["critical-c", "--dims", "16", "--phi=-1-0.5*sin(x0)", "--search-floor=nan"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=nan", "--gamma-hat=1"],
        ["sufficient", "--dims", "16", "--phi=-1", "--c=-1", "--gamma-hat=inf"],
        ["gamma-estimate", "--dims", "16", "--c=-1", "--p=nan"],
        ["construct-unsolvable", "--dims", "16", "--psi=sin(x0)", "--alpha-const=0.1",
         "--c=-1.7976931348623157e308"],
        ["construct-unsolvable", "--dims", "16", "--psi=1e308*sin(x0)",
         "--alpha-const=1e308", "--c=-1"],
        ["solve", "--config", "{tmp}/nope.cfg"],
        ["solve", "--config", "{tmp}/latin1.cfg"],
        ["validate", "{tmp}/nope.kwf"],
        ["validate", "--dims", "16", "--s=1", "--out", "{tmp}/taken"],
        ["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=1e308", "--s-hat=1"],
        ["transform", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--u=1e308"],
        ["roundtrip", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--u-star=1e308"],
        ["transform", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--u=-1000"],
        ["roundtrip", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--u-star=-1000"],
        ["validate", "--dims", "16", "--alpha0=1.5e308*sin(x0)"],
        ["solve", "--config", "{tmp}/removed-key.cfg"],
        # keys the command does not read, and negative iteration caps
        PLAIN_SOLVE_16 + ["--c=nan"],
        PLAIN_SOLVE_16 + ["--samples", "abc"],
        PLAIN_SOLVE_16 + ["--kw-maxiter=-1"],
        PLAIN_SOLVE_16 + ["--monotone-budget=-7"],
        ["critical-c", "--dims", "16", "--phi=-1-sin(x0)", "--search-floor=-10",
         "--kw-maxiter=-1"],
    ],
)
def test_bad_options_exit_code(tmp_path, capsys, bad):
    # {tmp} names tmp_path, which holds a config file that is not UTF-8,
    # three that set a removed key and a plain file in the way of an
    # output directory
    (tmp_path / "latin1.cfg").write_bytes(b"dims = 16\nphi = -1  # \xe9t\xe9\n")
    for name, key in [("removed-key", "lin_precondition = 0"), ("strategy", "strategy = newton"),
                      ("steps", "steps = 10")]:
        (tmp_path / f"{name}.cfg").write_text(
            f"dims = 16\nn = 1\nt = 1\ns = -1\ns_hat = -1-0.3*cos(x0)\n{key}\n"
        )
    (tmp_path / "taken").write_text("")
    bad = [arg.replace("{tmp}", str(tmp_path)) for arg in bad]
    code = main(bad) if "--out" in bad else run(bad, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["necessary", "--dims", "16", "--phi=-1", "--c=-5e-324"],
        ["necessary", "--dims", "16", "--phi=-1", "--c=-2.2250738585072014e-308"],
        ["asymptotic", "--dims", "16", "--f=sin(x0)", "--c-list=-5e-324"],
    ],
)
def test_subnormal_shift_is_a_solver_failure(tmp_path, capsys, argv):
    # the FFT solve's zero mode overflows; that must read as
    # non-convergence (exit 3), not leak a RuntimeWarning
    assert run(argv, tmp_path) == 3
    assert capsys.readouterr().err.startswith("solver failure: ")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    text=st.one_of(st.text(), st.floats().map(repr), st.integers().map(str),
                   st.lists(st.floats().map(repr)).map(",".join)),
    kind=st.sampled_from([str, float, int, list]),
)
def test_config_get_returns_finite_values_or_config_error(text, kind):
    # the parser of each kind, which RunConfig applies to every key of that
    # kind and whose ValueError it turns into a ConfigError
    _, parse = _KINDS[kind]
    try:
        value = parse(text)
    except ValueError:
        return
    for item in value if kind is list else [value]:
        assert isinstance(item, float if kind is list else kind)
        assert not isinstance(item, float) or math.isfinite(item)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(c=st.floats())
def test_necessary_exit_code_for_any_c(c):
    with tempfile.TemporaryDirectory() as out:
        code = main(["necessary", "--dims", "16", "--phi=-1", f"--c={c!r}", "--out", out])
    assert code in (0, 2, 3, 4)


REPORT_LAYOUT = {
    "validate": (
        ["--dims", "16", "--s", "1", "--phi=sin(x0)"],
        ["s_min", "s_max", "s_mean", "phi_min", "phi_max", "phi_mean",
         "alpha_divergence_sup", "alpha_gauduchon", "dims"],
        [],
    ),
    "transform": (
        ["--dims", "16,16", "--n", "1", "--t", "1", "--s", "0", "--u", "sin(x0)"],
        ["k_t", "s_hat_min", "s_hat_max", "s_hat_mean", "s2_hat_min", "s2_hat_max",
         "s2_hat_mean", "s_hat_pgm_min", "s_hat_pgm_max", "s2_hat_pgm_min",
         "s2_hat_pgm_max"],
        ["s2_hat.kwf", "s2_hat.pgm", "s_hat.kwf", "s_hat.pgm"],
    ),
    "reduce": (
        ["--dims", "16,16", "--n", "1", "--t", "1", "--s=-1+0.1*sin(x0)", "--s-hat", "-1"],
        ["k_t", "c", "g_mean", "g_residual_sup", "phi_min", "phi_max", "phi_mean",
         "g_pgm_min", "g_pgm_max", "phi_pgm_min", "phi_pgm_max"],
        ["g.kwf", "g.pgm", "phi.kwf", "phi.pgm"],
    ),
    "solve": (
        DRIFT_SOLVE_16[1:],
        ["k_t", "status", "method", "iterations", "residual_sup", "u_min", "u_max",
         "u_mean", "u_pgm_min", "u_pgm_max"],
        ["trace.csv", "u.kwf", "u.pgm"],
    ),
    "necessary": (
        ["--dims", "16", "--phi=-1", "--c=-1"],
        ["c", "phi_mean", "mean_negative", "phi0_min", "positive"],
        ["phi0.kwf"],
    ),
    "sufficient": (
        ["--dims", "16", "--phi=-1", "--c=-1", "--p", "3", "--samples", "2"],
        ["gamma_source", "gamma_is_heuristic", "c", "p", "gamma_hat", "certified",
         "alpha_star"],
        [],
    ),
    "critical-c": (
        ["--dims", "16", "--phi=-1-0.5*sin(x0)", "--search-floor=-1000"],
        ["c_lo", "c_hi", "lo_evidence", "hi_evidence", "probes"],
        ["probes.csv"],
    ),
    "asymptotic": (
        ["--dims", "16", "--f=sin(x0)", "--c-list=-9,-99"],
        ["entries", "max_deviation"],
        ["asymptotic.csv"],
    ),
    "construct-unsolvable": (
        ["--dims", "16", "--psi=sin(x0)", "--alpha-const=0.1", "--c=-1"],
        ["c", "alpha_const", "phi_min", "phi_max", "phi_mean"],
        ["phi.kwf"],
    ),
    "roundtrip": (
        ["--dims", "16,16", "--n", "1", "--t", "1", "--s=-1", "--u-star=0.3*sin(x0)"],
        ["s_hat_pgm_min", "s_hat_pgm_max", "status", "method", "iterations",
         "residual_sup", "sup_error", "u_pgm_min", "u_pgm_max"],
        ["s_hat.kwf", "s_hat.pgm", "trace.csv", "u.kwf", "u.pgm"],
    ),
    "gamma-estimate": (
        ["--dims", "16", "--c=-1", "--p", "3", "--samples", "4"],
        ["c", "p", "samples", "gamma_hat", "gamma_is_heuristic"],
        [],
    ),
    "degenerate-t": (
        ["--dims", "16,16", "--s=-2", "--s-hat=-1", "--n", "2", "--t=-1"],
        ["k_t", "residual_sup", "u_min", "u_max", "u_mean", "u_pgm_min", "u_pgm_max"],
        ["u.kwf", "u.pgm"],
    ),
}


@pytest.mark.parametrize("command", list(REPORT_LAYOUT))
def test_report_key_order_and_artifacts(tmp_path, command):
    # pins the layout of every command's output, not its values
    flags, keys, files = REPORT_LAYOUT[command]
    assert run([command] + flags, tmp_path) == 0
    assert list(read_report(tmp_path)) == ["command"] + keys
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["report.kv"] + files)


@pytest.mark.parametrize(
    "data", [["--s=0", "--s-hat=1"], ["--s=sin(x0)", "--s-hat=1"],
             ["--s=cos(x0)", "--s-hat=0.5+sin(x0)"], ["--s=0", "--s-hat=0.5"]]
)
def test_zero_degree_escape_is_not_converged(tmp_path, data):
    # zero degree with mean(phi) > 0 has no solution, and no Newton step
    # runs: positive phi fails the mean identity mean(phi e^w) = c = 0
    # outright, and the sign-changing 0.5 + sin(x0) has no small-oscillation
    # start.  Neither is a certificate: exit 3
    assert run(["solve", "--dims", "64", "--n", "1", "--t", "1", *data], tmp_path) == 3
    rep = read_report(tmp_path)
    assert (rep["status"], rep["method"], rep["iterations"]) == ("not-certified", "newton", "0")
    if data[1] == "--s-hat=0.5+sin(x0)":
        assert rep["message"].startswith("no zero-degree start: e^t = -mean(phi) / mean(phi v0) "
                                         "is not positive, with mean(phi) = 2.280e+00")
    else:
        assert rep["message"].startswith(
            "phi >= 0 everywhere at zero degree: the mean identity mean(A w) = 0 gives "
            "mean(phi e^w) = c = "
        )


@pytest.mark.parametrize("u_star, n, t", [
    ("0.3*cos(x0)", 1, 1), ("0.5+0.3*cos(x0)", 1, 1), ("0.5+0.3*cos(x0)", 3, -1),
], ids=["0.3*cos(x0)", "0.5+0.3*cos(x0)", "bismut-n3-0.5+0.3*cos(x0)"])
def test_zero_degree_round_trip_recovers_u_star(tmp_path, u_star, n, t):
    # Newton on the scale-free merit, from the small-oscillation start,
    # recovers u*, also the shifted one.  Bismut (t = -1) at n = 3 has
    # k = -1 < 0, which must not make the escape test's size negative
    assert run(["roundtrip", "--dims", "64", "--n", str(n), "--t", str(t), "--s=sin(x0)",
                f"--u-star={u_star}"], tmp_path) == 0
    rep = read_report(tmp_path)
    assert (rep["status"], rep["method"]) == ("converged", "newton")
    assert float(rep["sup_error"]) <= 1e-8


@pytest.mark.parametrize("s, u_star, passes", [
    ("sin(x0)", "0.5+0.3*cos(x0)", 3), ("0", "0.3*cos(x0)", 2),
], ids=["varying-s", "zero-s"])
def test_zero_degree_round_trip_applies_the_stencils_once_per_field(
    tmp_path, monkeypatch, s, u_star, passes
):
    # Newton applies the stencils to its start and to its answer; the
    # unreduced defect of u = w + g, whose sup is residual_sup and whose
    # mean is the escape test, applies them once more where g varies, and
    # sums Newton's A w where s = 0 makes g the zero constant
    from kwtorus import kwsolver

    applied = []
    real = kwsolver._apply
    monkeypatch.setattr(kwsolver, "_apply", lambda *a, **k: applied.append(1) or real(*a, **k))
    assert run(["roundtrip", "--dims", "64", "--n", "1", "--t", "1", f"--s={s}",
                f"--u-star={u_star}"], tmp_path) == 0
    assert read_report(tmp_path)["status"] == "converged"
    assert len(applied) == passes


def test_huge_rhs_is_a_solver_failure(tmp_path):
    # the Krylov norms overflow; that must read as non-convergence (exit 3),
    # not leak a RuntimeWarning.  The line search measures its merit with a
    # scaled norm, so Newton keeps stepping until its budget runs out
    code = run(["solve", "--dims", "16", "--n", "1", "--t", "1",
                "--s=1", "--s-hat=-1e300"], tmp_path)
    assert code == 3
    assert read_report(tmp_path)["status"] == "max-iter"


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


def test_roundtrip_reads_u_star_before_writing_s_hat(tmp_path):
    # u* is not held through the solve: it is read again after it, but
    # before s_hat.kwf is written, so a u_star_file naming this command's
    # own s_hat.kwf reports the sup_error of the expression
    from kwtorus import fieldexpr

    argv = ["roundtrip", "--dims", "64", "--n", "1", "--t", "1", "--s", "-1",
            "--kw-maxiter", "2000"]
    expr = "0.3*sin(x0) + 0.1*cos(2*x0)"
    by_expr, by_file = tmp_path / "expr", tmp_path / "file"
    assert run(argv + ["--u-star", expr], by_expr) == 0
    by_file.mkdir()
    own = by_file / "s_hat.kwf"
    write_field(fieldexpr.evaluate(fieldexpr.parse(expr), GridSpec((64,))), own)
    assert run(argv + ["--u-star-file", str(own)], by_file) == 0
    assert read_report(by_file)["sup_error"] == read_report(by_expr)["sup_error"]
    assert own.read_bytes() == (by_expr / "s_hat.kwf").read_bytes()


def test_reduce_writes_a_zero_g_for_constant_s(tmp_path):
    # g is held as one number for constant s, and g.kwf still holds the
    # bytes of a whole grid of +0
    assert run(["reduce", "--dims", "16,8", "--n", "2", "--t", "0", "--s=-1",
                "--s-hat=-1-0.3*cos(x0)"], tmp_path) == 0
    write_field(ScalarField(GridSpec((16, 8)), np.zeros((16, 8))), tmp_path / "zero.kwf")
    assert (tmp_path / "g.kwf").read_bytes() == (tmp_path / "zero.kwf").read_bytes()


def test_shift_overflow_falls_back_to_newton(tmp_path):
    # c = -2e14 would put the monotone shift at 4.1e14, past its 1e14
    # guard; the constant pair verifies Newton's answer, so no monotone
    # step and no shift is needed
    code = run(["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-1e14",
                "--s-hat=-1-0.3*cos(x0)"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["status"] == "converged"
    assert rep["method"] == "newton"


def test_exhausted_fallback_is_no_certificate(tmp_path, monkeypatch):
    # when the pair rejects Newton's answer, the monotone fallback's report
    # stands as returned: max-iter once monotone_budget runs out, and
    # not-certified, with the reason, where c = -2e14 puts its shift at
    # 4.1e14, past the 1e14 guard
    from kwtorus import kwsolver

    monkeypatch.setattr(kwsolver, "newton_solve", escaping_newton)
    flags = ["--dims", "16", "--n", "1", "--t", "1", "--s-hat=-1-0.3*cos(x0)"]
    assert run(["solve", *flags, "--s=-1", "--monotone-budget", "2"], tmp_path / "budget") == 3
    rep = read_report(tmp_path / "budget")
    assert (rep["status"], rep["method"], rep["iterations"]) == ("max-iter", "monotone", "2")
    rows = (tmp_path / "budget" / "trace.csv").read_text().splitlines()
    assert rows[0] == "iteration,sup_w,min_step" and len(rows) == 4
    assert all(float(row.split(",")[2]) >= -1e-10 for row in rows[2:])

    assert run(["solve", *flags, "--s=-1e14"], tmp_path / "shift") == 3
    rep = read_report(tmp_path / "shift")
    assert (rep["status"], rep["method"], rep["iterations"]) == ("not-certified", "monotone", "0")
    assert rep["message"].startswith("iteration shift overflow (lambda = 4.")


def test_parser_is_built_once_and_keeps_no_flags_between_calls(tmp_path):
    assert build_parser() is build_parser()
    calls = [
        ["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-1",
         "--s-hat=-1-0.3*cos(x0)", "--kw-tol=1e-3", "--lin-tol=1e-4"],
        # reads kw_tol and lin_tol too: a leaked flag would change its report
        ["roundtrip", "--dims", "16", "--n", "1", "--t", "1", "--s=-1",
         "--u-star=0.3*sin(x0)"],
    ]
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for k, argv in enumerate(calls):
        assert run(argv, tmp_path / f"shared{k}") == 0
        alone = tmp_path / f"alone{k}"
        subprocess.run([sys.executable, "-m", "kwtorus", *argv, "--out", str(alone)],
                       env=env, check=True)
        shared = (tmp_path / f"shared{k}" / "report.kv").read_bytes()
        assert shared == (alone / "report.kv").read_bytes()


def test_monotone_shift_is_not_an_option(tmp_path):
    # the shift is computed from the supersolution; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--s-hat=-1",
             "--kw-lambda-override", "1"], tmp_path)
    assert exc.value.code == 2


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
    # under a strong drift one Krylov iteration cannot solve a random probe
    argv = [command, "--dims", "16,16", "--alpha0=5*sin(x1)", "--alpha1=5*cos(x0)",
            "--phi", "-1", "--c", "-1", "--p", "3", "--samples", "2"]
    assert run(argv, tmp_path / "default") == 0
    assert run(argv + ["--lin-maxiter", "1"], tmp_path / "starved") == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dims", "4096", "--n", "1", "--t", "1", "--s=-1",
         "--s-hat=-1-0.3*cos(x0)"],
        ["roundtrip", "--dims", "18,4096", "--n", "2", "--t", "0", "--s=-1",
         "--alpha0=0.1", "--alpha1=-0.05", "--u-star=0.3*sin(x0) + 0.2*cos(x1)"],
        ["solve", "--dims", "8,4096", "--n", "1", "--t", "1", "--s=-1",
         "--s-hat=-1-0.3*cos(x1)", "--alpha0=0.2*sin(x1)"],
    ],
    ids=["solve-4096", "roundtrip-18x4096", "solve-8x4096-drift"],
)
def test_fine_grid_fft_solves_meet_their_contract(tmp_path, argv):
    # at h = 2 pi / 4096 the round-off of applying the stencil to the exact
    # solution exceeds lin_tol * (1 + sup|rhs|); every solve, FFT direct or
    # GMRES with a variable drift, is judged with that floor added and
    # converges instead of chasing an unreachable target
    assert run(argv, tmp_path) == 0
    rep = read_report(tmp_path)
    assert rep["status"] == "converged"
    if "sup_error" in rep:
        assert float(rep["sup_error"]) < 1e-8


@pytest.mark.parametrize("n", [4096, 8192])
def test_sign_changing_solve_converges_at_the_round_off_floor(tmp_path, n):
    # |u| is about 6.2 here, and from 4096 points the residual's round-off
    # floor (about 2e-9 there) lies above kw_tol times the scale: Newton's
    # test adds the round-off model, so the half-grid answer converges on
    # the fine grid and no monotone fallback runs
    argv = ["solve", "--dims", str(n), "--n", "1", "--t", "1", "--s=-0.001",
            "--s-hat=-0.5+sin(x0)"]
    assert run(argv, tmp_path) == 0
    rep = read_report(tmp_path)
    assert (rep["status"], rep["method"]) == ("converged", "newton")


def test_critical_c_command(tmp_path):
    code = run(["critical-c", "--dims", "64", "--phi=-1-0.5*sin(x0)",
                "--search-floor=-1000"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path)
    assert float(rep["c_lo"]) == -1000.0
    assert rep["lo_evidence"] == "search-limit" and "lo_message" not in rep
    assert (tmp_path / "probes.csv").exists()


def test_critical_c_reports_why_its_lower_end_failed(tmp_path):
    # a failed probe sets c_lo: report.kv ends with its message, and
    # probes.csv keeps its two columns
    assert run(["construct-unsolvable", "--dims", "16", "--psi=sin(x0)",
                "--alpha-const=0.1", "--c=-1"], tmp_path / "gen") == 0
    out = tmp_path / "bracket"
    assert run(["critical-c", "--phi-file", str(tmp_path / "gen" / "phi.kwf")], out) == 0
    rep = read_report(out)
    assert list(rep) == ["command", "c_lo", "c_hi", "lo_evidence", "hi_evidence", "probes",
                         "lo_message"]
    assert rep["lo_evidence"] == "solver-failed" and rep["lo_message"]
    rows = (out / "probes.csv").read_text().splitlines()
    assert rows[0] == "c,outcome" and all(len(row.split(",")) == 2 for row in rows)
    assert len(rows) - 1 == int(rep["probes"])


def test_critical_c_bracket_of_the_64_point_unsolvable_instance(tmp_path):
    # the probes warm-start Newton from the last solved answer, pair or
    # no pair; the bracket stays where it was before Newton ran first.
    # With the drift phi was built for, every failed probe's Newton runs
    # inexact GMRES solves to their caps
    assert run(["construct-unsolvable", "--dims", "64", "--psi=sin(x0)",
                "--alpha-const=0.1", "--c=-1"], tmp_path / "gen") == 0
    cases = [
        ([], -0.001259765625, -0.00125, "max-iter"),
        (["--alpha0=0.1"], -0.0012695312499999998, -0.001259765625, "line search stalled"),
    ]
    for i, (drift, c_lo, c_hi, lo_message) in enumerate(cases):
        out = tmp_path / f"bracket{i}"
        argv = ["critical-c", "--phi-file", str(tmp_path / "gen" / "phi.kwf"), *drift]
        assert run(argv, out) == 0
        rep = read_report(out)
        assert float(rep["c_lo"]) == c_lo and float(rep["c_hi"]) == c_hi
        assert (rep["lo_evidence"], rep["hi_evidence"]) == ("solver-failed", "solved")
        assert rep["probes"] == "11" and rep["lo_message"] == lo_message


@pytest.mark.parametrize(
    "argv, code, key, value",
    [
        (PLAIN_SOLVE_16[:-2] + ["--s=-5e307", "--s-hat=-1-sin(x0)"], 3, "status", "not-certified"),
        (["critical-c", "--dims", "16", "--phi=-1-sin(x0)", "--search-floor=-1e308"],
         0, "lo_evidence", "search-limit"),
    ],
    ids=["solve", "critical-c"],
)
def test_overflowing_supersolution_candidate_is_dropped(tmp_path, argv, code, key, value):
    # c near -1e308 overflows the a v + b candidate of nonpositive phi:
    # the candidate is dropped, without a RuntimeWarning, so the solve's
    # Newton answer stands unverified and the ladder reaches its floor
    assert run(argv, tmp_path) == code
    assert read_report(tmp_path)[key] == value


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


def test_roundtrip_applies_the_operator_once_per_iterate(tmp_path, monkeypatch):
    # the roundtrip-4d benchmark op on 12^4, below NEST_MIN_POINTS.  One
    # Laplacian each for the fresh residual that confirms Newton's
    # convergence and the final unreduced residual: 2.  Strictly negative
    # phi runs no positivity test.  Newton starts from the averaged
    # constant, whose residual needs none, and its 4 inner solves apply
    # none: each takes A delta from its Arnoldi residual.  The constant
    # pair verifies the answer with no stencil.
    from kwtorus import linsolve

    calls = []
    real = linsolve._laplacian
    monkeypatch.setattr(linsolve, "_laplacian", lambda *args: calls.append(1) or real(*args))
    code = run(
        ["roundtrip", "--dims", "12,12,12,12", "--n", "2", "--t", "0", "--s=-1",
         "--alpha0=0.1", "--alpha2=0.05",
         "--u-star=0.4*sin(x0 + 1.0) + 0.2*cos(2*(x0 + 1.0)) + 0.3*sin(x2 + 2.0)",
         "--monotone-budget", "40", "--kw-maxiter", "3000"],
        tmp_path,
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert (rep["status"], rep["method"], rep["iterations"]) == ("converged", "newton", "4")
    assert float(rep["sup_error"]) < 1e-8
    assert len(calls) <= 2


# the drift-2d benchmark op's expressions at its phases
DRIFT_2D_FLAGS = ["--n", "1", "--t", "1", "--s=-1", "--s-hat=-1 - 0.3*cos(x0 + 1.0)",
                  "--alpha0=0.2*sin(x1 + 2.0)", "--alpha1=0.2*cos(x0 + 3.0)"]


def _spy_restrict(monkeypatch):
    # dims of every field kwsolver restricts, in call order
    from kwtorus import kwsolver

    restricted = []
    real = kwsolver.restrict
    monkeypatch.setattr(kwsolver, "restrict",
                        lambda f: restricted.append(f.spec.dims) or real(f))
    return restricted


def test_drift_2d_op_nests_once_onto_its_half_grid(tmp_path, monkeypatch):
    # 96^2 lies above NEST_MIN_POINTS and 48^2 below it: only the fine grid
    # restricts, and Newton from the refined 48^2 answer finishes in a few
    # steps, within the kw tolerance of the un-nested solve
    from kwtorus import kwsolver

    assert 48 * 48 < kwsolver.NEST_MIN_POINTS <= 96 * 96
    restricted = _spy_restrict(monkeypatch)
    assert run(["solve", "--dims", "96,96", *DRIFT_2D_FLAGS], tmp_path / "nested") == 0
    rep = read_report(tmp_path / "nested")
    assert restricted and set(restricted) == {(96, 96)}
    assert (rep["status"], rep["method"]) == ("converged", "newton")
    assert int(rep["iterations"]) <= 3
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", 96 * 96 + 1)
    assert run(["solve", "--dims", "96,96", *DRIFT_2D_FLAGS], tmp_path / "flat") == 0
    u = read_field(tmp_path / "nested" / "u.kwf").values
    u_flat = read_field(tmp_path / "flat" / "u.kwf").values
    assert np.max(np.abs(u - u_flat)) <= kwsolver.DEFAULT_KW_TOL


# report.kv of the drift-2d op's expressions at 48^2, as written by the
# un-nested path: Newton from the averaged constant, which the constant
# pair verifies
DRIFT_2D_48_REPORT = """\
command = solve
k_t = 1
status = converged
method = newton
iterations = 4
residual_sup = 6.6553548783154781e-10
u_min = -0.17671420565037349
u_max = 0.23175868272505495
u_mean = 0.020569827319058882
u_pgm_min = -0.17671420565037349
u_pgm_max = 0.23175868272505495
"""


def test_solve_below_the_nesting_threshold_keeps_its_report(tmp_path, monkeypatch):
    # 48^2 halves onto a valid grid but lies below NEST_MIN_POINTS: no
    # half-size solve, and the un-nested report (its floats to round-off
    # of other FFT builds)
    restricted = _spy_restrict(monkeypatch)
    assert run(["solve", "--dims", "48,48", *DRIFT_2D_FLAGS], tmp_path) == 0
    assert restricted == []
    got = (tmp_path / "report.kv").read_text().splitlines()
    want = DRIFT_2D_48_REPORT.splitlines()
    assert [line.partition(" = ")[0] for line in got] == [line.partition(" = ")[0] for line in want]
    for line, expect in zip(got, want):
        value, expect = line.partition(" = ")[2], expect.partition(" = ")[2]
        try:
            assert float(value) == pytest.approx(float(expect), rel=1e-12, abs=1e-20)
        except ValueError:
            assert value == expect

