"""Matrix-free solves of Delta u + <alpha, du> + r u = f on periodic grids.

Two engines share one interface:

* a direct FFT solve, exact when the operator has constant coefficients
  (constant one-form, scalar reaction), since the stencils diagonalize in
  the Fourier basis;
* a restarted GMRES iteration (scipy, matrix-free) for everything else,
  preconditioned by the constant-coefficient FFT inverse built from the
  mean drift and mean reaction.

The singular mean-zero problem (r = 0, kernel = constants) is solved on
the mean-zero subspace: the right-hand side, every operator application,
and the returned solution are projected to zero mean.

The preconditioner and the direct shortcut change results only below the
solver tolerance; both can be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigError, GauduchonError, SolvabilityError, SolverError
from .grid import GridSpec, OneForm, ScalarField
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
    _first_derivative,
    _laplacian,
    _lee_pairing,
    gauduchon_defect,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAXITER = 20_000
DEFAULT_RESTART = 50


@dataclass(frozen=True)
class LinearOptions:
    """Settings shared by every inner linear solve.

    tol is the sup-norm residual target tol * (1 + sup|rhs|), maxiter the
    Krylov iteration budget, restart the GMRES cycle length; precondition
    and allow_direct enable the FFT preconditioner and the FFT direct
    shortcut for constant coefficients.
    """

    tol: float = DEFAULT_TOL
    maxiter: int = DEFAULT_MAXITER
    restart: int = DEFAULT_RESTART
    precondition: bool = True
    allow_direct: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigError(f"linear tolerance must be positive, got {self.tol!r}")
        if self.maxiter < 1:
            raise ConfigError(f"linear maxiter must be at least 1, got {self.maxiter!r}")
        if self.restart < 1:
            raise ConfigError(f"linear restart must be at least 1, got {self.restart!r}")


@dataclass(frozen=True)
class LinearOperatorSpec:
    """Action u -> laplacian(u) + lee_pairing(alpha, u) + shift * u.

    shift = 0 is the singular mode (constants span the kernel when alpha
    is co-closed); shift > 0 is invertible.
    """

    alpha: OneForm
    shift: float = 0.0

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")


@dataclass
class SolveStats:
    iterations: int
    residual_sup: float
    residual_l2: float
    converged: bool


def apply_operator(op: LinearOperatorSpec, u: ScalarField) -> ScalarField:
    """Apply the operator to a field."""
    if u.spec != op.alpha.spec:
        raise ValueError("operator and field live on mismatched grids")
    alpha_vals = [c.values for c in op.alpha.components]
    out = _apply(u.values, u.spec, alpha_vals, op.shift)
    return ScalarField(u.spec, out)


def _apply(arr: np.ndarray, spec: GridSpec, alpha_vals, reaction) -> np.ndarray:
    out = _laplacian(arr, spec.spacings)
    if alpha_vals is not None:
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

    def solve(b: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfftn(b, axes=axes)
        if zero_mode_null:
            spectrum[zero] = 0.0
        return np.fft.irfftn(spectrum / denom, s=spec.dims, axes=axes)

    return solve


# ---------------------------------------------------------------------------
# Core solve
# ---------------------------------------------------------------------------

def _solve_system(
    spec: GridSpec,
    alpha: OneForm | None,
    reaction,
    rhs: np.ndarray,
    *,
    lin: LinearOptions | None = None,
    meanzero: bool = False,
    x0: np.ndarray | None = None,
    rtol: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Solve (Delta + <alpha, d.> + reaction) x = rhs.

    reaction is a scalar or an ndarray; meanzero restricts the solve to
    the mean-zero subspace.  By default the Krylov tolerance is tightened
    so the sup-norm residual meets lin.tol * (1 + sup|rhs|); passing rtol
    instead requests a plain relative 2-norm reduction (the inexact-Newton
    mode, where outer iterations absorb the slack).  Never raises on
    non-convergence: inspect stats.converged.
    """
    lin = lin or LinearOptions()
    alpha_vals = None if alpha is None else [c.values for c in alpha.components]
    alpha_const = (0.0,) * spec.rank if alpha is None else alpha.constant_values()
    scalar_reaction = np.isscalar(reaction)
    rhs_scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    target = lin.tol * (1.0 + rhs_scale)

    b = rhs - np.mean(rhs) if meanzero else rhs
    if not np.any(b):
        zero = np.zeros(spec.dims)
        return zero, SolveStats(0, 0.0, 0.0, True)

    if scalar_reaction and alpha_const is not None and lin.allow_direct:
        fft_solve = _fft_inverse(spec, alpha_const, float(reaction), meanzero)
        x = fft_solve(b)
        resid = b - _apply(x, spec, alpha_vals, reaction)
        stats = SolveStats(
            1,
            float(np.max(np.abs(resid))),
            float(np.linalg.norm(resid.ravel())),
            True,
        )
        stats.converged = stats.residual_sup <= target
        return x, stats

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

    M = None
    if lin.precondition:
        drift = alpha_const
        if drift is None:
            drift = tuple(float(np.mean(c.values)) for c in alpha.components)
        if meanzero:
            pre = _fft_inverse(spec, drift, 0.0, True)
        else:
            shift_pre = _precondition_shift(reaction)
            pre = _fft_inverse(spec, drift, shift_pre, False)

        def msolve(v):
            arr = pre(v.reshape(spec.dims))
            if meanzero:
                arr = arr - np.mean(arr)
            return arr.ravel()

        M = LinearOperator((n, n), matvec=msolve, dtype=np.float64)

    iters = [0]

    def callback(_):
        iters[0] += 1

    if rtol is None:
        # tightened by sqrt(n) so the sup-norm residual meets the
        # tol * (1 + sup|rhs|) contract, not just the 2-norm
        rtol_eff = max(lin.tol / np.sqrt(n), 2e-14)
    else:
        rtol_eff = max(rtol, 2e-14)
    cycles = max(1, int(np.ceil(lin.maxiter / lin.restart)))
    x, _info = gmres(
        A,
        b.ravel(),
        x0=None if x0 is None else x0.ravel(),
        rtol=rtol_eff,
        atol=0.0,
        restart=lin.restart,
        maxiter=cycles,
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
        converged = resid_l2 <= 1.01 * rtol_eff * float(np.linalg.norm(b.ravel()))
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
    gauduchon_tol: float = DEFAULT_GAUDUCHON_TOL,
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
    if defect > gauduchon_tol * (1.0 + _alpha_scale(alpha)):
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


def _alpha_scale(alpha: OneForm) -> float:
    return max(float(np.max(np.abs(c.values))) for c in alpha.components)


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
    seed: int = 20240801,
    band: int = 3,
    lin: LinearOptions | None = None,
) -> float:
    """Probe-based lower bound for the uniform estimate of L = Delta + <alpha,d.> - c.

    HEURISTIC: draws band-limited probes f_k, solves L u_k = f_k, and
    returns twice the largest observed (sup|u| + sup|grad u|) / ||f||_p
    ratio.  The true constant exists but is not constructive; this
    estimate only ever under-approximates it up to the safety factor.
    """
    if c >= 0:
        raise ValueError("estimate_gamma needs c < 0")
    if samples < 1:
        raise ValueError("need at least one sample")
    if p <= alpha.spec.rank:
        raise ValueError("p must exceed the grid rank")
    from .operators import lp_norm  # local import to avoid cycle at module load

    rng = np.random.default_rng(seed)
    spec = alpha.spec
    best = 0.0
    for k in range(samples):
        if k == 0:
            probe = ScalarField(spec, np.ones(spec.dims))
        else:
            probe = random_smooth_field(spec, rng, band=band)
        denom = lp_norm(probe, p)
        if denom == 0.0:
            continue
        u, _ = solve_shifted(alpha, -c, probe, lin=lin)
        grad_sup = 0.0
        sq = np.zeros(spec.dims)
        for ax, h in enumerate(spec.spacings):
            g = _first_derivative(u.values, ax, h)
            sq += g * g
        grad_sup = float(np.max(np.sqrt(sq)))
        ratio = (float(np.max(np.abs(u.values))) + grad_sup) / denom
        best = max(best, ratio)
    return 2.0 * best
