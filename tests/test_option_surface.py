"""The keyword surface of the public solvers.

Every parameter listed here has a caller or a test that sets it; fixed
settings are module constants.  A new knob, or one that loses its last
caller, shows up as a change to this table.
"""

import inspect

import pytest

from kwtorus import (
    critical_c_bracket,
    degenerate_solve,
    estimate_gamma,
    fixed_point_solve,
    monotone_solve,
    solve_meanzero,
    solve_prescribed,
    sufficient_check,
)

SIGNATURES = {
    solve_prescribed: ["s", "s_hat", "alpha", "setup", "strategy", "steps", "tol",
                       "maxiter", "monotone_budget", "lin"],
    monotone_solve: ["prob", "w_minus", "w_plus", "tol", "maxiter", "lin"],
    critical_c_bracket: ["phi", "alpha", "search_floor", "tol", "maxiter", "lin"],
    sufficient_check: ["prob", "gamma_hat", "p"],
    estimate_gamma: ["alpha", "c", "p", "samples", "lin"],
    solve_meanzero: ["alpha", "f", "lin"],
    degenerate_solve: ["s", "s_hat"],
    fixed_point_solve: ["s", "s_hat", "alpha", "setup", "tol", "lin"],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_parameter_names(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]
