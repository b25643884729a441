"""Matrix-free solves of Delta u + <alpha, du> + r u = f on periodic grids.

The operator alone picks the engine:

* a direct FFT solve whenever the drift is constant and the reaction is
  a scalar, since the stencils then diagonalize in the Fourier basis;
* otherwise a restarted GMRES iteration (scipy, matrix-free, cycles of
  GMRES_RESTART), always preconditioned by the constant-coefficient FFT
  inverse built from the mean drift and mean reaction.

Both stop on the documented contract, a sup-norm residual of at most
tol * (1 + sup|rhs|).  GMRES minimizes the 2-norm, so the solve checks
the true sup residual after each GMRES call and restarts warm with a
tighter 2-norm target until the contract holds or the iteration budget
is spent.  The direct solve is exact, so its computed residual is the
round-off of applying the stencil; that floor is added to its target
(see _solve_system).  Inexact Newton steps instead pass their own
relative 2-norm tolerance (a forcing term) and are judged by it.

The singular mean-zero problem (r = 0, kernel = constants) is solved on
the mean-zero subspace: the right-hand side, every operator application,
and the returned solution are projected to zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigError, GauduchonError, SolvabilityError, SolverError
from .grid import GridSpec, OneForm, ScalarField
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
    _drift_coefficients,
    _laplacian,
    _lee_pairing,
    gauduchon_defect,
    gauduchon_scale,
    grad_squared,
    lp_norm,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAXITER = 20_000
GMRES_RESTART = 50
# smallest relative 2-norm reduction asked of GMRES, near what double
# precision can reach
RTOL_FLOOR = 2e-14
# estimate_gamma draws its probes from this seed, up to this Fourier band
GAMMA_SEED = 20240801
GAMMA_BAND = 3


@dataclass(frozen=True)
class LinearOptions:
    """The contract of every inner linear solve: tol is the sup-norm
    residual target tol * (1 + sup|rhs|), maxiter the Krylov iteration
    budget."""

    tol: float = DEFAULT_TOL
    maxiter: int = DEFAULT_MAXITER

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigError(f"linear tolerance must be positive, got {self.tol!r}")
        if self.maxiter < 1:
            raise ConfigError(f"linear maxiter must be at least 1, got {self.maxiter!r}")


@dataclass
class SolveStats:
    iterations: int
    residual_sup: float
    residual_l2: float
    converged: bool


def _apply(arr: np.ndarray, spec: GridSpec, alpha_vals, reaction) -> np.ndarray:
    # alpha_vals as operators._lee_pairing takes them (see _drift_coefficients)
    out = _laplacian(arr, spec.spacings)
    out += _lee_pairing(alpha_vals, arr, spec.spacings)
    if np.isscalar(reaction):
        if reaction != 0.0:
            out += reaction * arr
    else:
        out += reaction * arr
    return out


# ---------------------------------------------------------------------------
# Fourier symbols of the stencils
# ---------------------------------------------------------------------------

def _rfft_symbols(spec: GridSpec):
    """Laplacian symbol (summed) and per-axis drift symbols in rfftn layout."""
    rank = spec.rank
    lap_total = None
    derivs = []
    for ax in range(rank):
        n = spec.dims[ax]
        h = spec.spacings[ax]
        if ax == rank - 1:
            k = np.arange(n // 2 + 1, dtype=np.float64)
        else:
            k = np.fft.fftfreq(n) * n
        theta = 2.0 * np.pi * k / n
        lap1 = (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / (12.0 * h * h)
        der1 = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
        shape = [1] * rank
        shape[ax] = k.size
        lap1 = lap1.reshape(shape)
        der1 = der1.reshape(shape)
        lap_total = lap1 if lap_total is None else lap_total + lap1
        derivs.append(der1)
    return lap_total, derivs


def _fft_inverse(spec: GridSpec, alpha_const, shift: float, zero_mode_null: bool):
    """Closure solving (Delta + <alpha_const, d.> + shift) x = b by FFT.

    With zero_mode_null the constant mode of the input is discarded and
    the output has zero mean (pseudo-inverse on the mean-zero subspace).
    Each solve runs in one complex spectrum owned by the closure: the
    same transforms, in the same order, as np.fft.irfftn(np.fft.rfftn(b)
    / denom), without their temporaries.
    """
    lap, derivs = _rfft_symbols(spec)
    denom = lap + shift
    if alpha_const is not None and any(a != 0.0 for a in alpha_const):
        denom = denom + 1j * sum(a * d for a, d in zip(alpha_const, derivs))
    denom = np.asarray(denom, dtype=complex).copy()
    zero = (0,) * spec.rank
    if zero_mode_null:
        denom[zero] = 1.0
    axes = tuple(range(spec.rank))
    spectrum = np.empty_like(denom)

    def solve(b: np.ndarray) -> np.ndarray:
        np.fft.rfftn(b, axes=axes, out=spectrum)
        if zero_mode_null:
            spectrum[zero] = 0.0
        np.divide(spectrum, denom, out=spectrum)
        for ax in axes[:-1]:
            np.fft.ifft(spectrum, spec.dims[ax], ax, out=spectrum)
        return np.fft.irfft(spectrum, spec.dims[-1], axes[-1])

    return solve


# ---------------------------------------------------------------------------
# Core solve
# ---------------------------------------------------------------------------

def _solve_system(
    spec: GridSpec,
    alpha: OneForm,
    reaction,
    rhs: np.ndarray,
    *,
    lin: LinearOptions | None = None,
    meanzero: bool = False,
    rtol: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Solve (Delta + <alpha, d.> + reaction) x = rhs.

    reaction is a scalar or an ndarray; meanzero restricts the solve to
    the mean-zero subspace.  The contract is a sup-norm residual of at
    most target = lin.tol * (1 + sup|rhs|).

    With constant drift and a scalar reaction the solve is one exact FFT
    inverse.  Its computed residual is then the round-off of applying the
    stencil, about eps * ||A||_inf * sup|x| with ||A||_inf = |reaction| +
    sum_i (64/h_i + 18|alpha_i|) / (12 h_i), which exceeds the target on
    fine grids; the solve is converged when its residual is finite and at
    most target + eps * ||A||_inf * sup|x|.  rtol is ignored.

    Otherwise FFT-preconditioned GMRES runs.  By default it stops on the
    contract: GMRES asks first for a 2-norm reduction by lin.tol, and
    while the true sup residual misses the target it restarts from its
    last iterate with a tighter rtol (never below RTOL_FLOOR).  Passing
    rtol instead requests a plain relative 2-norm reduction (the
    inexact-Newton mode, where the outer iteration absorbs the slack) and
    judges convergence by it.  Either way GMRES is called again until the
    target is met or the lin.maxiter budget is spent; no call runs past
    that budget, and stats.iterations counts every Krylov iteration.
    Never raises on non-convergence: inspect stats.converged.
    """
    lin = lin or LinearOptions()
    alpha_vals = _drift_coefficients(alpha)
    alpha_const = None
    if not any(isinstance(v, np.ndarray) for v in alpha_vals):
        alpha_const = tuple(0.0 if v is None else v for v in alpha_vals)
    scalar_reaction = np.isscalar(reaction)
    rhs_scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    target = lin.tol * (1.0 + rhs_scale)

    b = rhs - np.mean(rhs) if meanzero else rhs
    if not np.any(b):
        zero = np.zeros(spec.dims)
        return zero, SolveStats(0, 0.0, 0.0, True)

    if scalar_reaction and alpha_const is not None:
        # a reaction near the float minimum overflows the zero mode's
        # division; x and the residual then hold inf or nan: not converged
        with np.errstate(over="ignore", invalid="ignore"):
            fft_solve = _fft_inverse(spec, alpha_const, float(reaction), meanzero)
            x = fft_solve(b)
            resid = b - _apply(x, spec, alpha_vals, reaction)
            resid_sup = float(np.max(np.abs(resid)))
            resid_l2 = float(np.linalg.norm(resid.ravel()))
            x_sup = float(np.max(np.abs(x)))
        # ||A||_inf: the absolute stencil weights of one row, summed
        norm_a = abs(float(reaction)) + sum(
            (64.0 / h + 18.0 * abs(a)) / (12.0 * h)
            for h, a in zip(spec.spacings, alpha_const)
        )
        floor = float(np.finfo(float).eps) * norm_a * x_sup
        converged = (
            math.isfinite(x_sup)
            and math.isfinite(resid_sup)
            and resid_sup <= target + floor
        )
        return x, SolveStats(1, resid_sup, resid_l2, converged)

    n = spec.npoints

    def matvec(v):
        arr = v.reshape(spec.dims)
        if meanzero:
            arr = arr - np.mean(arr)
        out = _apply(arr, spec, alpha_vals, reaction)
        if meanzero:
            out = out - np.mean(out)
        return out.ravel()

    A = LinearOperator((n, n), matvec=matvec, dtype=np.float64)

    drift = alpha_const
    if drift is None:
        drift = tuple(float(np.mean(c.values)) for c in alpha.components)
    if meanzero:
        pre = _fft_inverse(spec, drift, 0.0, True)
    else:
        pre = _fft_inverse(spec, drift, _precondition_shift(reaction), False)

    def msolve(v):
        arr = pre(v.reshape(spec.dims))
        if meanzero:
            arr = arr - np.mean(arr)
        return arr.ravel()

    M = LinearOperator((n, n), matvec=msolve, dtype=np.float64)

    iters = [0]

    def callback(_):
        iters[0] += 1

    rtol_eff = max(lin.tol if rtol is None else rtol, RTOL_FLOOR)
    guess = None
    # A right-hand side near the float range overflows the Krylov norms;
    # the residual then reads inf or nan and is judged not converged.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # whole cycles of at most GMRES_RESTART that fit the remaining budget
            done = iters[0]
            restart = min(GMRES_RESTART, lin.maxiter - done)
            x, _info = gmres(
                A,
                b.ravel(),
                x0=guess,
                rtol=rtol_eff,
                atol=0.0,
                restart=restart,
                maxiter=(lin.maxiter - done) // restart,
                M=M,
                callback=callback,
                callback_type="pr_norm",
            )
            x = x.reshape(spec.dims)
            if meanzero:
                x = x - np.mean(x)
            resid = b - _apply(x, spec, alpha_vals, reaction)
            if meanzero:
                resid = resid - np.mean(resid)
            resid_sup = float(np.max(np.abs(resid)))
            resid_l2 = float(np.linalg.norm(resid.ravel()))
            if rtol is None:
                converged = resid_sup <= target
            else:
                # after an overflow both norms read inf, and inf <= inf would pass
                converged = bool(np.isfinite(resid_l2)) and (
                    resid_l2 <= 1.01 * rtol_eff * float(np.linalg.norm(b.ravel()))
                )
            if converged or not np.isfinite(resid_sup) or iters[0] >= lin.maxiter:
                break
            if rtol is None:
                if rtol_eff == RTOL_FLOOR:
                    break
                # cut rtol in proportion to the miss, by 10 to 10^4
                cut = float(np.clip(0.5 * target / resid_sup, 1e-4, 0.1))
                rtol_eff = max(rtol_eff * cut, RTOL_FLOOR)
            elif iters[0] == done:
                break  # GMRES already holds x converged; another call cannot move it
            guess = x.ravel()
    stats = SolveStats(max(iters[0], 1), resid_sup, resid_l2, converged)
    return x, stats


def _precondition_shift(reaction) -> float:
    if np.isscalar(reaction):
        return max(float(reaction), 1e-8)
    rbar = float(np.mean(reaction))
    rsup = float(np.max(np.abs(reaction)))
    floor = max(1e-8, 0.05 * rsup)
    return max(rbar, floor)


# ---------------------------------------------------------------------------
# Public solves
# ---------------------------------------------------------------------------

def solve_meanzero(
    alpha: OneForm,
    f: ScalarField,
    *,
    lin: LinearOptions | None = None,
) -> tuple[ScalarField, SolveStats]:
    """Mean-zero solution of Delta g + <alpha, dg> = f for mean-zero f.

    The problem is solvable exactly when f integrates to zero (the
    operator's cokernel is the constants for co-closed alpha); violating
    inputs raise SolvabilityError.
    """
    if f.spec != alpha.spec:
        raise ValueError("field and one-form live on mismatched grids")
    scale = 1.0 + float(np.max(np.abs(f.values)))
    if abs(float(np.mean(f.values))) > 1e-10 * scale:
        raise SolvabilityError(
            f"solvability violated: right-hand side has mean {np.mean(f.values):.3e}"
        )
    defect = gauduchon_defect(alpha)
    if defect > DEFAULT_GAUDUCHON_TOL * gauduchon_scale(alpha):
        raise GauduchonError(
            f"one-form is not co-closed: divergence sup-norm {defect:.3e}"
        )
    x, stats = _solve_system(f.spec, alpha, 0.0, f.values, lin=lin, meanzero=True)
    if not stats.converged:
        raise SolverError(
            f"mean-zero solve did not converge: residual {stats.residual_sup:.3e} "
            f"after {stats.iterations} iterations"
        )
    return ScalarField(f.spec, x), stats


def solve_shifted(
    alpha: OneForm,
    mu: float,
    f: ScalarField,
    *,
    lin: LinearOptions | None = None,
) -> tuple[ScalarField, SolveStats]:
    """Unique solution of (Delta + <alpha, d.> + mu) u = f for mu > 0."""
    if mu <= 0:
        raise ValueError("shift mu must be positive")
    if f.spec != alpha.spec:
        raise ValueError("field and one-form live on mismatched grids")
    x, stats = _solve_system(f.spec, alpha, float(mu), f.values, lin=lin)
    if not stats.converged:
        raise SolverError(
            f"shifted solve did not converge: residual {stats.residual_sup:.3e} "
            f"after {stats.iterations} iterations"
        )
    return ScalarField(f.spec, x), stats


# ---------------------------------------------------------------------------
# Heuristic a-priori constant
# ---------------------------------------------------------------------------

def random_smooth_field(
    spec: GridSpec, rng: np.random.Generator, band: int = 3, amplitude: float = 1.0
) -> ScalarField:
    """Random band-limited field: trigonometric polynomial up to the given band."""
    vals = np.zeros(spec.dims)
    coords = spec.coords()
    for _ in range(4):
        ks = rng.integers(-band, band + 1, size=spec.rank)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coef = rng.normal()
        arg = phase
        for ax in range(spec.rank):
            arg = arg + ks[ax] * coords[ax]
        vals = vals + coef * np.cos(arg)
    top = np.max(np.abs(vals))
    if top > 0:
        vals *= amplitude / top
    return ScalarField(spec, vals)


def estimate_gamma(
    alpha: OneForm,
    c: float,
    p: float,
    samples: int,
    *,
    lin: LinearOptions | None = None,
) -> float:
    """Probe-based lower bound for the uniform estimate of L = Delta + <alpha,d.> - c.

    HEURISTIC: draws band-limited probes f_k, solves L u_k = f_k, and
    returns twice the largest observed (sup|u| + sup|grad u|) / ||f||_p
    ratio.  The true constant exists but is not constructive; this
    estimate only ever under-approximates it up to the safety factor.
    """
    if c >= 0:
        raise ConfigError("estimate_gamma needs c < 0")
    if samples < 1:
        raise ConfigError("need at least one sample")
    if p <= alpha.spec.rank:
        raise ConfigError("p must exceed the grid rank")
    rng = np.random.default_rng(GAMMA_SEED)
    spec = alpha.spec
    best = 0.0
    for k in range(samples):
        if k == 0:
            probe = ScalarField(spec, np.ones(spec.dims))
        else:
            probe = random_smooth_field(spec, rng, band=GAMMA_BAND)
        denom = lp_norm(probe, p)
        if denom == 0.0:
            continue
        u, _ = solve_shifted(alpha, -c, probe, lin=lin)
        grad_sup = float(np.max(np.sqrt(grad_squared(u).values)))
        ratio = (float(np.max(np.abs(u.values))) + grad_sup) / denom
        best = max(best, ratio)
    return 2.0 * best
