"""Matrix-free solves of Delta u + <alpha, du> + r u = f on periodic grids.

Every solve takes one path.  The FFT inverse P of the constant-coefficient
part (the mean drift, and the reaction itself or a constant stand-in for
it) is exact, since those stencils diagonalize in the Fourier basis.
When the drift is constant and the reaction a scalar nothing is left
over and the solve is P f.  Otherwise restarted GMRES (gmres below,
numpy only, matrix-free, cycles of GMRES_RESTART) solves the
right-preconditioned system for the remainder, with no Laplacian inside
the Krylov loop and one solve with P per iteration plus one per solve.

Every solve is judged on its true residual by one test: the documented
contract, a sup-norm residual of at most tol * (1 + sup|rhs|), plus the
round-off of applying the stencil to the solution (see _solve_system).
GMRES minimizes the 2-norm, so while the sup residual misses, the solve
restarts warm with a tighter 2-norm target until the contract holds or
the iteration budget is spent.  Inexact Newton steps instead pass their
own relative 2-norm tolerance (a forcing term) and are judged by it.

The singular mean-zero problem (r = 0, kernel = constants) is solved on
the mean-zero subspace: the right-hand side, every operator application,
and the returned solution are projected to zero mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GauduchonError, SolvabilityError, SolverError
from .grid import GridSpec, OneForm, ScalarField, same_grid
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
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
    """Outcome of one linear solve.  image is A x without the reaction
    (Laplacian plus drift) from _solve_system's residual test, for a
    caller that would otherwise apply the stencils to x again; the
    public solves return stats without it."""

    iterations: int
    residual_sup: float
    converged: bool
    image: np.ndarray | None = field(default=None, repr=False, compare=False)


def _apply(alpha: OneForm, arr: np.ndarray, reaction=0.0) -> np.ndarray:
    """(Delta + <alpha, d.> + reaction) arr, with the drift in the format
    of OneForm.coefficients.

    A constant arr whose double is finite skips the stencils: they map
    it to exactly +0.0, whatever the drift.  Above about 9e307 they
    overflow (see operators), so such a constant still runs them and
    gets their non-finite result.
    """
    spacings = alpha.spec.spacings
    first = float(arr.flat[0])
    if math.isfinite(2.0 * first) and np.all(arr == first):
        out = np.zeros_like(arr)
    else:
        out = _laplacian(arr, spacings)
        out += _lee_pairing(alpha.coefficients, arr, spacings)
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


@functools.lru_cache(maxsize=8)
def _drift_symbol(spec: GridSpec, alpha_const: tuple) -> np.ndarray:
    """Complex symbol of Delta + <alpha_const, d.>, built once per grid and
    constant drift; callers add their shift to a copy."""
    lap, derivs = _rfft_symbols(spec)
    if any(a != 0.0 for a in alpha_const):
        symbol = lap + 1j * sum(a * d for a, d in zip(alpha_const, derivs))
    else:
        symbol = np.asarray(lap, dtype=complex)
    symbol.setflags(write=False)  # shared by every solve on this grid and drift
    return symbol


def _fft_inverse(spec: GridSpec, alpha_const, shift: float, zero_mode_null: bool):
    """Closure solving (Delta + <alpha_const, d.> + shift) x = b by FFT.

    With zero_mode_null the constant mode of the input is discarded and
    the output has zero mean (pseudo-inverse on the mean-zero subspace).
    Each solve runs in one complex spectrum owned by the closure: the
    same transforms, in the same order, as np.fft.irfftn(np.fft.rfftn(b)
    / denom), without their temporaries.
    """
    denom = _drift_symbol(spec, tuple(alpha_const)) + shift
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

def gmres(matvec, b, x, r, *, rtol, maxiter, callback):
    """Restarted right-preconditioned GMRES for A x = b (Saad & Schultz 1986).

    matvec(v) returns (z, A z) with z = P v for the preconditioner P; r is
    the residual b - A x, which the caller already holds, and x is updated
    in place.  Each cycle of at most GMRES_RESTART iterations builds an
    orthonormal basis v_k by modified Gram-Schmidt and keeps z_k = P v_k,
    as flexible GMRES does, so that x += sum_k c_k z_k costs no further
    solve with P; the next cycle starts from the Arnoldi residual V (beta
    e1 - H c), so no cycle spends an operator application outside its
    iterations.  callback gets the 2-norm residual estimate once per
    iteration.  Stops when that estimate is at most rtol * ||b||, on
    breakdown (the Krylov space holds the solution), or after maxiter
    iterations in all.  Returns (x, info): info is -1 when a norm
    overflowed and 0 otherwise; the caller judges x on its true residual.
    """
    eps = float(np.finfo(float).eps)
    target = rtol * float(np.linalg.norm(b))
    beta = float(np.linalg.norm(r))
    scratch = np.empty_like(r)
    cycle = min(GMRES_RESTART, maxiter)
    basis = np.empty((cycle + 1,) + r.shape)  # reused by every cycle
    while maxiter > 0 and math.isfinite(beta) and beta > target:
        m = min(cycle, maxiter)
        np.multiply(r, 1.0 / beta, out=basis[0])
        zs, cols, rots, g = [], [], [], [beta]
        for j in range(m):
            z, w = matvec(basis[j])
            zs.append(z)
            w_norm = float(np.linalg.norm(w))
            h = []
            for v in basis[: j + 1]:
                h.append(float(np.vdot(v, w)))
                w -= np.multiply(v, h[-1], out=scratch)
            h_next = float(np.linalg.norm(w))
            if h_next <= eps * w_norm:
                h_next = 0.0  # breakdown: A z_j lies in the basis already
            for i, (c, s) in enumerate(rots):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = math.hypot(h[j], h_next)
            c, s = (h[j] / d, h_next / d) if d else (1.0, 0.0)
            h[j] = d
            rots.append((c, s))
            cols.append(h)
            g.append(-s * g[j])
            g[j] *= c
            callback(abs(g[-1]))
            if not math.isfinite(g[-1]):
                return x, -1
            stop = abs(g[-1]) <= target or h_next == 0.0
            if stop:
                break
            np.multiply(w, 1.0 / h_next, out=basis[j + 1])
        # back substitution on the rotated triangle, then x += sum c_k z_k
        k = len(cols)
        coef = [0.0] * k
        for i in reversed(range(k)):
            t = g[i] - sum(cols[l][i] * coef[l] for l in range(i + 1, k))
            coef[i] = t / cols[i][i] if cols[i][i] else 0.0
        for ck, z in zip(coef, zs):
            x += np.multiply(z, ck, out=scratch)
        maxiter -= k
        if stop:
            return x, 0
        # the residual V_{k+1} Q^T (g_k e_k) of the cycle, rotated back
        u = [0.0] * k + [g[k]]
        for i in reversed(range(k)):
            c, s = rots[i]
            u[i], u[i + 1] = c * u[i] - s * u[i + 1], s * u[i] + c * u[i + 1]
        r = np.tensordot(np.array(u), basis[: k + 1], axes=1)
        beta = float(np.linalg.norm(r))
    return x, 0 if math.isfinite(beta) else -1


def _solve_system(
    alpha: OneForm,
    reaction,
    rhs: np.ndarray,
    *,
    lin: LinearOptions | None = None,
    meanzero: bool = False,
    rtol: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Solve A x = rhs with A = Delta + <alpha, d.> + reaction.

    reaction is a scalar or an ndarray; meanzero restricts the solve to
    the mean-zero subspace.  P is the exact FFT inverse of Delta + <abar,
    d.> + shift, with abar the mean drift and shift the reaction when it
    is a scalar (else _precondition_shift); R = <alpha - abar, d.> +
    reaction - shift is what is left.  With constant drift and a scalar
    reaction R = 0 and x = P rhs.  Otherwise GMRES solves A P y = rhs
    from x0 = P rhs, whose residual is -R x0, and keeps x = P y itself:
    each Krylov iteration makes one solve with P and one application of
    R, and no Laplacian runs in the Krylov loop.

    One test judges every solve, on its true residual.  By default it
    holds when that residual is finite and at most lin.tol * (1 +
    sup|rhs|) + eps * ||A||_inf * sup|x|, with ||A||_inf = sup|reaction| +
    sum_i (64/h_i + 18 sup|alpha_i|) / (12 h_i): the added term is the
    round-off of applying the stencil to x, which exceeds the contract on
    fine grids.  While it fails, GMRES restarts from x and that true
    residual with a tighter 2-norm rtol (never below RTOL_FLOOR).  Passing
    rtol instead requests a plain relative 2-norm reduction (the
    inexact-Newton mode, where the outer iteration absorbs the slack) and
    judges by it.  No GMRES call runs past the lin.maxiter budget, and
    stats.iterations counts every Krylov iteration.  A non-finite Krylov
    norm (a right-hand side near the float range) stops the solve at once
    with x = 0.  Never raises on non-convergence: inspect stats.converged.

    The residual test applies the stencils to x once, and stats.image
    hands that image back: A x without the reaction, the same bits as
    _apply(alpha, x).  A caller that needs A x takes it from there rather
    than applying the stencils again, and drops it before its next solve.
    """
    lin = lin or LinearOptions()
    spec = alpha.spec
    coeffs = alpha.coefficients
    rhs_scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    target = lin.tol * (1.0 + rhs_scale)

    b = rhs - np.mean(rhs) if meanzero else rhs
    if not np.any(b):
        return np.zeros(spec.dims), SolveStats(0, 0.0, True, np.zeros(spec.dims))

    # P inverts the mean drift and a constant shift; GMRES sees the rest
    varying = [isinstance(v, np.ndarray) for v in coeffs]
    mean_drift = tuple(
        float(np.mean(v)) if var else 0.0 if v is None else v
        for v, var in zip(coeffs, varying)
    )
    drift_left = [v - m if var else None for v, m, var in zip(coeffs, mean_drift, varying)]
    scalar_reaction = np.isscalar(reaction)
    shift = float(reaction) if scalar_reaction else _precondition_shift(reaction)
    reaction_left = None if scalar_reaction else reaction - shift
    krylov = any(varying) or not scalar_reaction
    # ||A||_inf: the absolute stencil weights of one row, summed
    norm_a = float(np.max(np.abs(reaction))) + sum(
        (64.0 / h + 18.0 * (0.0 if v is None else float(np.max(np.abs(v))))) / (12.0 * h)
        for h, v in zip(spec.spacings, coeffs)
    )
    floor = float(np.finfo(float).eps) * norm_a

    def remainder(z):
        # R z, projected to zero mean when meanzero; krylov means R != 0
        if reaction_left is None:
            out = _lee_pairing(drift_left, z, spec.spacings)
        else:
            out = reaction_left * z
            if any(varying):
                out += _lee_pairing(drift_left, z, spec.spacings)
        if meanzero:
            out -= np.mean(out)
        return out

    def matvec(v):
        # (P v, A P v): A P v = v + R P v, as P inverts A - R
        z = precond(v)
        w = remainder(z)
        w += v
        return z, w

    iters = [0]

    def count(_estimate):
        iters[0] += 1

    rtol_eff = max(lin.tol if rtol is None else rtol, RTOL_FLOOR)
    # a reaction near the float minimum overflows P's zero mode, and a
    # right-hand side near the float range the Krylov norms; x or its
    # residual then holds inf or nan and is judged not converged
    with np.errstate(over="ignore", invalid="ignore"):
        precond = _fft_inverse(spec, mean_drift, shift, meanzero)
        x = precond(b)
        if krylov:
            resid = -remainder(x)
        while True:
            done = iters[0]
            overflow = False
            if krylov:
                image = None  # a stale image is not held beside the basis
                x, info = gmres(
                    matvec, b, x, resid, rtol=rtol_eff, maxiter=lin.maxiter - done,
                    callback=count,
                )
                overflow = info < 0
                if overflow:
                    x = np.zeros(spec.dims)
            # b - A x with A x = image + reaction x, summed as _apply sums it
            image = _apply(alpha, x)
            if np.isscalar(reaction) and reaction == 0.0:
                resid = b - image
            else:
                resid = reaction * x
                resid += image
                np.subtract(b, resid, out=resid)
            if meanzero:
                resid -= np.mean(resid)
            resid_sup = float(np.max(np.abs(resid)))
            if rtol is None:
                x_sup = float(np.max(np.abs(x)))
                bound = target + floor * x_sup
                converged = math.isfinite(x_sup) and math.isfinite(resid_sup) and (
                    resid_sup <= bound
                )
            else:
                resid_l2 = float(np.linalg.norm(resid.ravel()))
                # after an overflow both norms read inf, and inf <= inf would pass
                converged = math.isfinite(resid_l2) and (
                    resid_l2 <= 1.01 * rtol_eff * float(np.linalg.norm(b.ravel()))
                )
            if (converged or overflow or not krylov or iters[0] >= lin.maxiter
                    or not math.isfinite(resid_sup)):
                break
            if rtol is None:
                if rtol_eff == RTOL_FLOOR:
                    break
                # cut rtol in proportion to the miss, by 10 to 10^4
                cut = float(np.clip(0.5 * bound / resid_sup, 1e-4, 0.1))
                rtol_eff = max(rtol_eff * cut, RTOL_FLOOR)
            elif iters[0] == done:
                break  # GMRES already holds x converged; another call cannot move it
    return x, SolveStats(max(iters[0], 1), resid_sup, converged, image)


def _precondition_shift(reaction: np.ndarray) -> float:
    """P's constant stand-in for an array reaction: its mean, kept at
    least 5 % of its sup (and 1e-8) so that P stays well conditioned."""
    return max(float(np.mean(reaction)), 1e-8, 0.05 * float(np.max(np.abs(reaction))))


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
    same_grid(f, alpha)
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
    x, stats = _solve_system(alpha, 0.0, f.values, lin=lin, meanzero=True)
    if not stats.converged:
        raise SolverError(
            f"mean-zero solve did not converge: residual {stats.residual_sup:.3e} "
            f"after {stats.iterations} iterations"
        )
    return ScalarField(f.spec, x), replace(stats, image=None)


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
    same_grid(f, alpha)
    x, stats = _solve_system(alpha, float(mu), f.values, lin=lin)
    if not stats.converged:
        raise SolverError(
            f"shifted solve did not converge: residual {stats.residual_sup:.3e} "
            f"after {stats.iterations} iterations"
        )
    return ScalarField(f.spec, x), replace(stats, image=None)


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
