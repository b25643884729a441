"""Conformal transformation laws and the reduction to the exponential equation.

Under the conformal change of metric with log-factor u (so the metric is
scaled by e^u), the scalar curvature data transforms as

    s_hat = e^{-u} (s + (k/2) (laplacian(u) + <alpha, du>)),   k = n t - t + 1.

The prescription problem "find u with curvature s_hat" reduces, for
nonzero k, to

    laplacian(w) + <alpha, dw> + c = phi e^w

with c = (2/k) mean(s), phi = (2/k) e^g s_hat, where g is the mean-zero
solution of the linear equation with right-hand side (2/k)(mean(s) - s),
and u = w + g.  For k = 0 the problem is pointwise: u = log(s / s_hat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateError
from .grid import GridSpec, OneForm, ScalarField, multi_index, same_grid
from .linsolve import LinearOptions, SolveStats, solve_meanzero
from .operators import chern_laplacian, grad_squared, laplacian, lee_pairing, mean

DEGENERATE_TOL = 1e-12
# degenerate_solve rejects |s_hat| below this
DEGENERATE_FLOOR = 1e-10


def coefficient(n: int, t: float) -> float:
    """The conformal coupling constant n*t - t + 1."""
    if n < 1:
        raise ConfigError("complex dimension n must be at least 1")
    return n * t - t + 1.0


@dataclass(frozen=True)
class GeometrySetup:
    """Complex dimension n (real dimension 2n) and connection parameter t.

    t = 1, 0, -1 select the Chern, Lichnerowicz, and Bismut connections.
    """

    n: int
    t: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("complex dimension n must be at least 1")

    @property
    def k_t(self) -> float:
        return coefficient(self.n, self.t)

    @property
    def degenerate(self) -> bool:
        return abs(self.k_t) < DEGENERATE_TOL


@dataclass(frozen=True)
class ReducedProblem:
    """The triple (c, g, phi) of the reduced exponential equation."""

    c: float
    g: ScalarField
    phi: ScalarField
    setup: GeometrySetup


def transform_s(
    s: ScalarField, u: ScalarField, alpha: OneForm, setup: GeometrySetup
) -> ScalarField:
    """Curvature of the conformally changed metric with log-factor u."""
    same_grid(s, u, alpha)
    k = setup.k_t
    ch = chern_laplacian(alpha, u)
    # e^{-u} overflows for u below about -709; ScalarField rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(-u.values) * (s.values + 0.5 * k * ch.values)
    return ScalarField(s.spec, vals)


def transform_s2(
    s2: ScalarField, f: ScalarField, alpha: OneForm, setup: GeometrySetup
) -> ScalarField:
    """Second scalar curvature under the conformal change with half-factor f.

    Unlike transform_s this takes f directly (the metric scale is e^{2f});
    the gradient-squared term vanishes identically at t = 1.
    """
    same_grid(s2, f, alpha)
    n, t = setup.n, setup.t
    a_lap = n * (1.0 - t) + t
    a_grad = (1.0 - t) ** 2 * (1.0 - n * n) / 2.0
    a_lee = a_lap - (n + 1) * (1.0 - t) ** 2 / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(-2.0 * f.values) * (
            s2.values
            + a_lap * laplacian(f).values
            + a_grad * grad_squared(f).values
            + a_lee * lee_pairing(alpha, f).values
        )
    return ScalarField(s2.spec, vals)


def gauduchon_degree(s: ScalarField) -> float:
    """Integral of the curvature over the unit-volume torus."""
    return mean(s)


def reduce_problem(
    s: ScalarField,
    s_hat: ScalarField,
    alpha: OneForm,
    setup: GeometrySetup,
    lin: LinearOptions | None = None,
) -> tuple[ReducedProblem, SolveStats]:
    """Reduce prescribed data (s, s_hat) to the exponential equation.

    Returns the reduced problem and the statistics of the linear solve for
    g, which runs with the linear options lin.
    """
    same_grid(s, s_hat, alpha)
    if setup.degenerate:
        raise DegenerateError(
            f"degenerate parameter: n={setup.n}, t={setup.t} gives k_t={setup.k_t:.3e}"
        )
    k = setup.k_t
    c = (2.0 / k) * mean(s)
    if not np.isfinite(c):
        raise ConfigError(f"reduced constant (2/k) mean(s) overflows: {c}")
    # data near the float limit overflows to inf, which ScalarField rejects
    with np.errstate(over="ignore"):
        rhs = ScalarField(s.spec, (2.0 / k) * (mean(s) - s.values))
    g, stats = solve_meanzero(alpha, rhs, lin=lin)
    with np.errstate(over="ignore"):
        phi = ScalarField(s.spec, (2.0 / k) * np.exp(g.values) * s_hat.values)
    return ReducedProblem(c, g, phi, setup), stats


def recover_metric(w: ScalarField, problem: ReducedProblem) -> ScalarField:
    """Log-conformal factor u = w + g; the found metric scales by e^u."""
    same_grid(w, problem.g)
    return ScalarField(w.spec, w.values + problem.g.values)


def degenerate_solve(s: ScalarField, s_hat: ScalarField) -> ScalarField:
    """Pointwise solve e^u s_hat = s for the degenerate parameter value.

    Requires s_hat bounded away from zero and a positive ratio s / s_hat
    everywhere; reports the first violating grid point otherwise.
    """
    same_grid(s, s_hat)
    small = np.abs(s_hat.values) < DEGENERATE_FLOOR
    if np.any(small):
        where = _first_true(s.spec, small)
        raise DegenerateError(
            f"prescribed curvature vanishes at grid point {where}: "
            f"|s_hat| < {DEGENERATE_FLOOR:g}"
        )
    ratio = s.values / s_hat.values
    bad = ratio <= 0.0
    if np.any(bad):
        where = _first_true(s.spec, bad)
        raise DegenerateError(
            f"non-positive ratio s/s_hat = {ratio[np.unravel_index(np.argmax(bad), ratio.shape)]:.3e} "
            f"at grid point {where}"
        )
    return ScalarField(s.spec, np.log(ratio))


def _first_true(spec: GridSpec, mask: np.ndarray) -> tuple[int, ...]:
    flat = int(np.argmax(mask.reshape(-1)))
    return multi_index(spec, flat)
