"""Matrix-free solves of Delta u + <alpha, du> + r u = f on periodic grids.

Every solve takes one path.  The FFT inverse P of the constant-coefficient
part (the mean drift, and the reaction itself or a constant stand-in for
it) is exact, since those stencils diagonalize in the Fourier basis.
When the drift is constant and the reaction a scalar nothing is left
over and the solve is P f.  Otherwise restarted GMRES (gmres below,
numpy only, matrix-free, cycles of GMRES_RESTART) solves the
right-preconditioned system for the remainder, with no Laplacian inside
the Krylov loop and one solve with P per iteration plus one per solve.

A solve to the documented contract is judged on its true residual, the
stencils applied to the solution once: a sup-norm residual of at most
tol * (1 + sup|rhs|) plus its round-off in IEEE double (_round_off,
which the nonlinear solvers' tests add too).  GMRES minimizes the
2-norm, so while the sup residual misses, the solve restarts warm with a
tighter 2-norm target until the contract holds or the budget is spent.
Inexact Newton steps instead pass their own relative 2-norm tolerance (a
forcing term): one GMRES call runs until the Arnoldi residual it
recomputes meets it, and the solve judges it there, so it applies no
stencil; the Newton iteration confirms its own convergence on a freshly
applied residual.

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
from .grid import GridSpec, OneForm, ScalarField, make_field, same_grid
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
    STENCIL_TERMS_PER_AXIS,
    _laplacian,
    _lee_pairing,
    _slab_scratch,
    _slabs,
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
    (Laplacian plus drift), as _solve_system documents it, for a caller
    that would otherwise apply the stencils to x again; the public
    solves return stats without it."""

    iterations: int
    residual_sup: float
    converged: bool
    image: np.ndarray | None = field(default=None, repr=False, compare=False)


def _apply(alpha: OneForm, arr: np.ndarray) -> np.ndarray:
    """(Delta + <alpha, d.>) arr, with the drift in the format of
    OneForm.coefficients: the image without a reaction, which a caller
    adds as reaction * arr.

    A constant arr whose double is finite skips the stencils: they map
    it to exactly +0.0, whatever the drift.  Above about 9e307 they
    overflow (see operators), so such a constant still runs them and
    gets their non-finite result.  A zero-stride view is constant, and an
    array whose last element differs from its first is not: only other
    arrays are compared whole.
    """
    spacings = alpha.spec.spacings
    first = float(arr.flat[0])
    if math.isfinite(2.0 * first) and (
        not any(arr.strides) or (arr.flat[-1] == first and np.all(arr == first))
    ):
        return np.zeros_like(arr)
    out = _laplacian(arr, spacings)
    out += _lee_pairing(alpha.coefficients, arr, spacings)
    return out


# ---------------------------------------------------------------------------
# Fourier symbols of the stencils
# ---------------------------------------------------------------------------

def _rfft_symbols(spec: GridSpec):
    """Per-axis Laplacian and drift symbols in rfftn layout: lists of 1-D
    factors, each shaped to broadcast along its axis.  The Laplacian's
    symbol is the sum of its factors in axis order, the drift's
    sum_i a_i derivs_i."""
    rank = spec.rank
    laps, derivs = [], []
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
        laps.append(lap1.reshape(shape))
        derivs.append(der1.reshape(shape))
    return laps, derivs


@functools.lru_cache(maxsize=8)
def _drift_symbol(spec: GridSpec, alpha_const: tuple):
    """Complex symbol of Delta + <alpha_const, d.>, built once per grid
    and constant drift and held in two factors (head, tail) whose
    broadcast sum is the symbol: head sums the axes but the last (a share
    1/(n_last / 2 + 1) of the symbol), tail is the last axis alone.  Real
    parts sum the Laplacian factors, imaginary parts the terms a d, each
    from +0 in axis order, as the whole symbol sum(laps) + 1j * sum(a d)
    sums them: head + tail has its bits."""
    laps, derivs = _rfft_symbols(spec)
    terms = [a * d for a, d in zip(alpha_const, derivs)]
    start = np.zeros((1,) * spec.rank)  # rank 1 has no head: 0 + tail is tail
    head = (sum(laps[:-1], start), sum(terms[:-1], start))
    tail = (laps[-1], terms[-1])
    factors = []
    for real, imag in (head, tail):
        part = real.astype(complex)
        part.imag = imag
        part.setflags(write=False)  # shared by every solve on this grid and drift
        factors.append(part)
    return tuple(factors)


def _fft_inverse(spec: GridSpec, alpha_const, shift: float, zero_mode_null: bool):
    """Closure solving (Delta + <alpha_const, d.> + shift) x = b by FFT:
    solve(b, out=None, work=None) returns x, written into out when given.

    With zero_mode_null the constant mode of the input is discarded and
    the output has zero mean (pseudo-inverse on the mean-zero subspace).
    A solve transforms in work when given: C-contiguous float64 memory of
    at least two fields (two GMRES basis rows), whose first bytes hold
    the complex spectrum; else in a spectrum of its own, freed on return.
    The denominator symbol + shift is formed slab by slab (operators._slabs)
    in one slab of scratch, as head + tail + shift from _drift_symbol's
    factors, and the spectrum divided there: the same transforms and
    divisions, in the same order, as np.fft.irfftn(np.fft.rfftn(b) /
    (symbol + shift)), with no grid-sized symbol or denominator.
    """
    head, tail = _drift_symbol(spec, tuple(alpha_const))
    zero = (0,) * spec.rank
    axes = tuple(range(spec.rank))
    shape = spec.dims[:-1] + (spec.dims[-1] // 2 + 1,)
    floats = 2 * math.prod(shape)  # of the spectrum, viewed in work
    slabs = _slabs(shape)
    denom = np.empty((slabs[0].stop,) + shape[1:], dtype=complex)

    def solve(b: np.ndarray, out: np.ndarray | None = None, work=None) -> np.ndarray:
        if work is None:
            spectrum = np.empty(shape, dtype=complex)
        else:
            spectrum = work.reshape(-1)[:floats].view(complex).reshape(shape)
        np.fft.rfftn(b, axes=axes, out=spectrum)
        if zero_mode_null:
            spectrum[zero] = 0.0
        for rows in slabs:
            d = np.add(head[rows], tail, out=denom[: rows.stop - rows.start])
            d += shift
            if zero_mode_null and rows.start == 0:
                d[zero] = 1.0
            part = spectrum[rows]
            np.divide(part, d, out=part)
        for ax in axes[:-1]:
            np.fft.ifft(spectrum, spec.dims[ax], ax, out=spectrum)
        return np.fft.irfft(spectrum, spec.dims[-1], axes[-1], out=out)

    return solve


# ---------------------------------------------------------------------------
# Core solve
# ---------------------------------------------------------------------------

def gmres(matvec, b, x, r, *, basis, rtol, maxiter):
    """Restarted right-preconditioned GMRES for A x = b (Saad & Schultz 1986).

    matvec(v, w, out=None, work=None) writes A z into w and returns
    z = P v for the preconditioner P, written into out when given; work
    is memory P may use for its transforms, basis rows j + 1 and j + 2 of
    iteration j, which no step reads before that iteration writes them.
    r is the residual b - A x, a C-contiguous array the caller already
    holds, and x and r are updated in place.  basis holds at least
    min(GMRES_RESTART, maxiter) + 2 rows shaped like r, reused by every
    cycle (and by the caller's next call).  Each cycle of at most
    GMRES_RESTART iterations builds an orthonormal basis v_k by modified
    Gram-Schmidt, each A z_j written straight into basis row j + 1 and
    orthogonalized and scaled there.  It keeps z_k = P v_k, as flexible
    GMRES does, so that x += sum_k c_k z_k costs no further solve with
    P; z_0 goes into r, whose content no step reads from v_0 = r / beta
    until the cycle writes its residual there after that update.  That
    residual is V_{k+1} Q^T (g_k e_{k+1}), its last direction taken as
    the orthogonalized last row before its scaling, so no basis row
    beyond the cycle's iterations is written: the next cycle starts from
    it, and on return r holds b - A x to round-off without an operator
    application.  The basis reserves two rows more than a cycle's
    iterations, the last for P's work only, and rows never written take
    no memory.  Every update y += v a runs slab by slab
    (operators._slabs) through one slab of scratch, the cycle's residual
    as such updates in basis order, and every inner product and norm by
    _dot, so no BLAS call (and no BLAS thread count) touches the bits.

    A cycle ends early when the rotated 2-norm estimate meets
    rtol * ||b|| or on breakdown (the Krylov space holds the solution).
    gmres returns once the 2-norm of the residual it recomputes at a
    cycle's end is at most rtol * ||b||, after a breakdown, after maxiter
    iterations in all, or when a norm overflows.  Returns (iterations,
    info): iterations counts every Krylov iteration, and info is -1 when
    a norm overflowed (r is then not meaningful) and 0 otherwise.
    """
    eps = float(np.finfo(float).eps)
    target = rtol * _norm(b)
    beta = _norm(r)
    slabs = _slabs(r.shape)
    scratch = np.empty_like(r[slabs[0]])
    done = 0

    def axpy(y, v, a):
        # y += v * a; elementwise, so the slab cut changes no bit
        for rows in slabs:
            acc = y[rows]
            acc += np.multiply(v[rows], a, out=scratch[: rows.stop - rows.start])

    while done < maxiter and math.isfinite(beta) and beta > target:
        m = min(GMRES_RESTART, maxiter - done)
        np.multiply(r, 1.0 / beta, out=basis[0])
        zs, cols, rots, g = [], [], [], [beta]
        for j in range(m):
            w = basis[j + 1]
            zs.append(matvec(basis[j], w, out=r if j == 0 else None,
                             work=basis[j + 1 : j + 3]))
            w_norm = _norm(w)
            h = []
            for v in basis[: j + 1]:
                h.append(_dot(v, w))
                axpy(w, v, -h[-1])
            h_next = _norm(w)
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
            if not math.isfinite(g[-1]):
                return done + j + 1, -1
            if abs(g[-1]) <= target or h_next == 0.0 or j + 1 == m:
                break
            w *= 1.0 / h_next
        # back substitution on the rotated triangle, then x += sum c_k z_k
        k = len(cols)
        coef = [0.0] * k
        for i in reversed(range(k)):
            t = g[i] - sum(cols[l][i] * coef[l] for l in range(i + 1, k))
            coef[i] = t / cols[i][i] if cols[i][i] else 0.0
        for i, ck in enumerate(coef):
            axpy(x, zs[i], ck)  # a loop name would hold z_k into the next cycle
        done += k
        # the residual V_{k+1} Q^T (g_k e_{k+1}) of the cycle, rotated back;
        # on breakdown g_k = 0, and so is every u_i
        u = [0.0] * k + [g[k]]
        for i in reversed(range(k)):
            c, s = rots[i]
            u[i], u[i + 1] = c * u[i] - s * u[i + 1], s * u[i] + c * u[i + 1]
        np.multiply(basis[0], u[0], out=r)
        for i in range(1, k):
            axpy(r, basis[i], u[i])
        if h_next:
            axpy(r, w, u[k] / h_next)
        beta = _norm(r)
        if not h_next:
            break  # breakdown: another cycle would start from round-off
    return done, 0 if math.isfinite(beta) else -1


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
    the mean-zero subspace and takes no rtol.  P is the exact FFT inverse
    of Delta + <abar, d.> + shift, with abar the mean drift and shift the
    reaction when it is a scalar (else _precondition_shift); R = <alpha -
    abar, d.> + reaction - shift is what is left.  With constant drift
    and a scalar reaction R = 0 and x = P rhs.  Else GMRES solves A P y = rhs
    from x0 = P rhs, whose residual is -R x0, and keeps x = P y itself:
    each Krylov iteration makes one solve with P and one application of
    R, and no Laplacian runs in the Krylov loop.  The GMRES basis is
    allocated before x0 and reused by every GMRES call of the solve.  P
    transforms in basis rows that are written next anyway: x0 in rows 1
    and 2, iteration j in rows j + 1 and j + 2.  The iteration writes R z
    straight into the basis row gmres hands it, the drift's pairing
    accumulated there and reaction - shift formed there or slab by slab
    rather than held, so each Krylov iteration adds two fields, its basis
    row and z = P v; the rest of its scratch is slab-sized.  Only the
    direct path (R = 0) transforms in a spectrum of its own.

    By default a solve is judged on its true residual, the stencils
    applied to x once after each GMRES call.  It holds when that residual
    is finite and at most lin.tol * (1 + sup|rhs|) plus its round-off,
    _round_off(alpha, reaction, sup|x|).  While it fails, GMRES restarts
    from x and that true residual with a tighter 2-norm rtol (never below
    RTOL_FLOOR).  Passing rtol instead requests a plain relative 2-norm
    reduction (the inexact-Newton mode, where the outer iteration absorbs
    the slack and confirms its own convergence on a fresh residual).  A
    GMRES solve in that mode makes one GMRES call, which stops on that
    reduction itself, and is judged on the Arnoldi residual that gmres
    leaves behind, b - A x to round-off, by the same test: it applies no
    stencil.  The direct FFT path and a GMRES call that overflowed are
    judged on the true residual in both modes.  No GMRES call runs past
    the lin.maxiter budget, and stats.iterations sums the iteration
    counts gmres returns.  A non-finite Krylov norm (a right-hand side
    near the float range) stops the solve at once with x = 0.  Never
    raises on non-convergence: inspect stats.converged.

    stats.image is A x without the reaction (Laplacian plus drift).
    Where the true residual was taken it is that image, the same bits as
    _apply(alpha, x).  From the Arnoldi residual it is b - resid -
    reaction x, which differs from _apply(alpha, x) by round-off.  A
    caller that needs A x takes it from there rather than applying the
    stencils again, and drops it before its next solve.
    """
    if meanzero and rtol is not None:
        raise ValueError("a mean-zero solve takes no rtol: it is judged on its true residual")
    lin = lin or LinearOptions()
    spec = alpha.spec
    coeffs = alpha.coefficients

    b = rhs - np.mean(rhs) if meanzero else rhs
    if not np.any(b):  # x = 0, the one solve that reports 0 iterations
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
    krylov = any(varying) or not scalar_reaction
    arnoldi = krylov and rtol is not None  # judged on the residual gmres leaves
    if rtol is None:
        target = lin.tol * (1.0 + _sup(rhs))
    if any(varying) and not scalar_reaction:
        slabs = _slabs(spec.dims)
        (scratch,) = _slab_scratch(b, 1)

    def remainder(z, out):
        # writes R z into out, projected to zero mean when meanzero; krylov
        # means R != 0.  The pairing accumulates in out, and (reaction -
        # shift) z joins it a slab at a time: out + t sums as t + out
        if any(varying):
            _lee_pairing(drift_left, z, spec.spacings, out)
            if not scalar_reaction:
                for rows in slabs:
                    t = scratch[: rows.stop - rows.start]
                    np.subtract(reaction[rows], shift, out=t)
                    t *= z[rows]
                    out[rows] += t
        else:
            np.subtract(reaction, shift, out=out)
            out *= z
        if meanzero:
            out -= np.mean(out)
        return out

    def matvec(v, w, out=None, work=None):
        # writes A P v = v + R P v into w, as P inverts A - R; returns P v
        z = precond(v, out=out, work=work)
        remainder(z, w)
        w += v
        return z

    rtol_eff = max(lin.tol if rtol is None else rtol, RTOL_FLOOR)
    # a reaction near the float minimum overflows P's zero mode, and a
    # right-hand side near the float range the Krylov norms; x or its
    # residual then holds inf or nan and is judged not converged
    with np.errstate(over="ignore", invalid="ignore"):
        precond = _fft_inverse(spec, mean_drift, shift, meanzero)
        if krylov:
            basis = np.empty((min(GMRES_RESTART, lin.maxiter) + 2,) + spec.dims)
            x = precond(b, work=basis[1:3])
            resid = remainder(x, np.empty(spec.dims))
            np.negative(resid, out=resid)
        else:
            x = precond(b)
        iterations = 0
        while True:
            overflow = False
            if krylov:
                image = None  # a stale image is not held beside the basis
                done, info = gmres(
                    matvec, b, x, resid, basis=basis, rtol=rtol_eff,
                    maxiter=lin.maxiter - iterations,
                )
                iterations += done
                overflow = info < 0
                if overflow:
                    x = np.zeros(spec.dims)
            if not arnoldi or overflow:
                # b - A x with A x = image + reaction x
                image = _apply(alpha, x)
                if np.isscalar(reaction) and reaction == 0.0:
                    resid = b - image
                else:
                    resid = reaction * x
                    resid += image
                    np.subtract(b, resid, out=resid)
                if meanzero:
                    resid -= np.mean(resid)
            resid_sup = _sup(resid)
            if rtol is None:
                x_sup = _sup(x)
                bound = target + _round_off(alpha, reaction, x_sup)
                converged = math.isfinite(x_sup) and math.isfinite(resid_sup) and (
                    resid_sup <= bound
                )
            else:
                resid_l2 = _norm(resid)
                # after an overflow both norms read inf, and inf <= inf would pass
                converged = math.isfinite(resid_l2) and resid_l2 <= rtol_eff * _norm(b)
            if (rtol is not None or converged or overflow or not krylov
                    or iterations >= lin.maxiter or not math.isfinite(resid_sup)
                    or rtol_eff == RTOL_FLOOR):
                break
            # cut rtol in proportion to the miss, by 10 to 10^4
            cut = float(np.clip(0.5 * bound / resid_sup, 1e-4, 0.1))
            rtol_eff = max(rtol_eff * cut, RTOL_FLOOR)
        if image is None:
            # resid = b - (image + reaction x) to round-off: no stencil.  The
            # image is formed in resid's storage, and reaction x in a basis
            # row that no step reads any more (x + y rounds as y + x)
            resid += np.multiply(reaction, x, out=basis[0])
            image = np.subtract(b, resid, out=resid)
    return x, SolveStats(max(iterations, 1), resid_sup, converged, image)


def _stencil_norm(alpha: OneForm) -> float:
    """||Delta + <alpha, d.>||_inf: the absolute stencil weights of one
    row, summed."""
    return sum(
        (64.0 / h + 18.0 * sup) / (12.0 * h)
        for h, sup in zip(alpha.spec.spacings, alpha.sup_norms)
    )


def _round_off(alpha: OneForm, reaction, x_sup: float) -> float:
    """Round-off of a residual b - A x, A = Delta + <alpha, d.> + reaction,
    sup|x| = x_sup, in IEEE double (u = eps/2): (gamma_m + eps log2 n)
    ||A||_inf sup|x|, with gamma_m = m u / (1 - m u) (Higham 2002, ch. 3)
    for the m = 10 rank + 2 terms a row sums (STENCIL_TERMS_PER_AXIS per
    axis, reaction x and b) and eps log2 n for the FFTs behind x."""
    u, m = 0.5 * float(np.finfo(float).eps), STENCIL_TERMS_PER_AXIS * alpha.spec.rank + 2
    norm_a = _sup(reaction) + _stencil_norm(alpha)
    return (m * u / (1.0 - m * u) + 2.0 * u * math.log2(alpha.spec.npoints)) * norm_a * x_sup


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of a and b by einsum's own summation loop, not
    BLAS: its bits do not depend on how many threads BLAS may use.  Views
    a C-contiguous a or b without a copy."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def _norm(a: np.ndarray) -> float:
    """The 2-norm of a, from _dot."""
    return math.sqrt(_dot(a, a))


def _sup(a) -> float:
    """float(np.max(np.abs(a))) without the |a| temporary, and faster: the
    larger of max a and -min a, with -0 (from an all-zero a) and a NaN's
    sign cleared as np.abs clears them."""
    return abs(max(float(np.max(a)), -float(np.min(a))))


def _precondition_shift(reaction: np.ndarray) -> float:
    """P's constant stand-in for an array reaction: its mean, kept at
    least 5 % of its sup (and 1e-8) so that P stays well conditioned."""
    return max(float(np.mean(reaction)), 1e-8, 0.05 * _sup(reaction))


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
    inputs raise SolvabilityError.  Where f minus its mean is identically
    zero, g = 0 is held as one number (grid.make_field): read-only.
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
    g = ScalarField(f.spec, x) if stats.iterations else make_field(f.spec, 0.0)
    return g, replace(stats, image=None)


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
