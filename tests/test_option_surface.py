"""The keyword surface of the public solvers and of LinearOptions.

Every parameter listed here has a caller or a test that sets it; fixed
settings are module constants, and the linear solve's method is chosen
from the operator, never from an option.  A new knob, or one that loses
its last caller, shows up as a change to this table.
"""

import dataclasses
import inspect

import pytest

from kwtorus import (
    LinearOptions,
    critical_c_bracket,
    degenerate_solve,
    estimate_gamma,
    monotone_solve,
    solve_meanzero,
    solve_prescribed,
    sufficient_check,
)
from kwtorus.cli import main

SIGNATURES = {
    solve_prescribed: ["s", "s_hat", "alpha", "setup", "tol", "maxiter", "monotone_budget",
                       "lin"],
    monotone_solve: ["prob", "w_minus", "w_plus", "tol", "maxiter", "lin"],
    critical_c_bracket: ["phi", "alpha", "search_floor", "tol", "maxiter", "lin"],
    sufficient_check: ["prob", "gamma_hat", "p"],
    estimate_gamma: ["alpha", "c", "p", "samples", "lin"],
    solve_meanzero: ["alpha", "f", "lin"],
    degenerate_solve: ["s", "s_hat"],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_parameter_names(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


def test_linear_options_hold_only_the_solve_contract():
    # the operator picks the backend; the options are the stop contract
    assert [f.name for f in dataclasses.fields(LinearOptions)] == ["tol", "maxiter"]


@pytest.mark.parametrize(
    "flag", ["--lin-restart", "--lin-precondition", "--lin-direct", "--gauduchon-tol"]
)
def test_removed_linear_flags_are_rejected(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=-1", "--s-hat=-1",
              flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dims", "16,16", "--n", "1", "--t", "1", "--s=-1", "--s-hat=-1-0.3*cos(x0)",
         "--alpha0=0.2*sin(x1)", "--alpha1=0.2*cos(x0)", "--strategy", "bogus"],
        ["solve", "--dims", "16", "--n", "1", "--t", "1", "--s=1", "--s-hat=1+0.3*sin(x0)",
         "--strategy", "continuation", "--steps", "0"],
    ],
)
def test_removed_solver_flags_are_rejected(tmp_path, argv):
    # the solver picks the c >= 0 method, Newton; the flags that chose
    # among three are gone
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
