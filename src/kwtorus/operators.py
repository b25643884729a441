"""Discrete differential operators on periodic grids.

All derivatives use 4th-order centered stencils with periodic wrap:

    d2f/dx ~ (-f[j-2] + 16 f[j-1] - 30 f[j] + 16 f[j+1] - f[j+2]) / (12 h^2)
    df/dx  ~ ( f[j-2] -  8 f[j-1] +           8 f[j+1] - f[j+2]) / (12 h)

The Laplacian follows the geometer's sign convention (positive spectrum,
constants in the kernel: laplacian of sin(x0) on axis frequency 1 is
+sin(x0)).  The volume-1 normalization makes integrals plain means.

One ghost-layer kernel serves every stencil.  Each axis gets two
periodic ghost layers on each side (an axis has at least
grid.MIN_POINTS = 8 points), and f[j-2], ..., f[j+2] are slice views of
the padded copy.  The arithmetic runs in place in scratch buffers, in a
fixed order:

    d2f: (((f[j-1] + f[j+1]) - 2 f[j]) * 16 - ((f[j-2] + f[j+2]) - 2 f[j])) / (12 h^2)
    df:  ((f[j+1] - f[j-1]) * 8 - (f[j+2] - f[j-2])) / (12 h)

with the axis terms summed in axis order.  The difference-of-differences
form maps constants to exactly 0, and results match the roll-based
reference in tests/test_operators.py bit for bit; reordering any of it
changes the last bits of every solve.

Every stencil runs that sequence slab by slab, in _laplacian or in
_lee_pairing; divergence and the gradient pair with a unit covector
(multiplying by 1.0 is exact).  The grid is cut along axis 0 into slabs
of whole rows whose scratch buffers fit SLAB_BYTES, about half a core's
L2 cache.  The axis-0 neighbours of a slab are views of the operand (a
copy only where they wrap), and the ghost layers of the other axes are
built from the slab itself, so every pass over a slab hits cache.
Every element gets the same operations in the same order as in one
whole-grid sweep, so the slab cut changes no bit.  A grid within the
budget, such as any rank-1 grid, is one slab.

The underscore functions operate on raw ndarrays and are what the solver
modules use in their inner loops; the public functions wrap them with
ScalarField validation.  Fields near the float limit overflow the
stencils (2 f[j] exceeds the float range above about 9e307); the public
functions silence that overflow and ScalarField rejects the non-finite
result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import OneForm, ScalarField, same_grid

DEFAULT_GAUDUCHON_TOL = 1e-8
# terms one axis adds to a stencil row: 6 of _second_difference, 4 of _first_difference
STENCIL_TERMS_PER_AXIS = 10

# Scratch budget of one slab (see the module docstring): half of the 2 MiB
# per-core L2 cache, leaving the other half to the operand and result rows
SLAB_BYTES = 1 << 20
# slab-sized buffers a kernel keeps at once: 2 f[j] (or nothing), near,
# far and the ghost-layer copy of one axis
SLAB_BUFFERS = 4


def _neighbours(a: np.ndarray, axis: int):
    """Views (f[j-2], f[j-1], f[j+1], f[j+2]) of a along axis, periodic."""
    n = a.shape[axis]

    def band(lo: int, hi: int, arr: np.ndarray) -> np.ndarray:
        index = [slice(None)] * arr.ndim
        index[axis] = slice(lo, hi)
        return arr[tuple(index)]

    padded = np.concatenate((band(n - 2, n, a), a, band(0, 2, a)), axis=axis)
    return tuple(band(k, k + n, padded) for k in (0, 1, 3, 4))


def _second_difference(nbrs, h, two_a, near, far) -> np.ndarray:
    # writes d2a/dx2 into near and returns it; far is scratch, two_a = 2.0 * a
    m2, m1, p1, p2 = nbrs
    np.add(m1, p1, out=near)
    near -= two_a
    near *= 16.0
    np.add(m2, p2, out=far)
    far -= two_a
    near -= far
    near /= 12.0 * h * h
    return near


def _first_difference(nbrs, h, near, far) -> np.ndarray:
    # writes da/dx into near and returns it; far is scratch
    m2, m1, p1, p2 = nbrs
    np.subtract(p1, m1, out=near)
    near *= 8.0
    np.subtract(p2, m2, out=far)
    near -= far
    near /= 12.0 * h
    return near


def _slab_rows(shape) -> int:
    """Axis-0 rows per slab: all of a rank-1 grid, else as many as keep
    SLAB_BUFFERS slab-sized buffers within SLAB_BYTES (at least one)."""
    if len(shape) == 1:
        return shape[0]
    row_bytes = 8 * math.prod(shape[1:])
    return min(shape[0], max(1, SLAB_BYTES // (SLAB_BUFFERS * row_bytes)))


def _slabs(shape):
    """Slices of axis 0, one per slab, in order."""
    step = _slab_rows(shape)
    return [slice(s0, min(s0 + step, shape[0])) for s0 in range(0, shape[0], step)]


def _slab_neighbours(a: np.ndarray, rows: slice, axis: int):
    """_neighbours(a, axis)[k][rows] without padding all of a: along axis 0
    views of a, or of a copy of the rows' periodic ghost rows where they
    wrap around; along the other axes built from a[rows] alone."""
    if axis > 0:
        return _neighbours(a[rows], axis)
    n0 = a.shape[0]
    lo, hi = rows.start - 2, rows.stop + 2
    ext = a[max(lo, 0) : min(hi, n0)]
    if lo < 0 or hi > n0:
        ext = np.concatenate((a[lo:] if lo < 0 else a[:0], ext, a[: max(hi - n0, 0)]))
    r = rows.stop - rows.start
    return ext[0:r], ext[1 : r + 1], ext[3 : r + 3], ext[4 : r + 4]


def _slab_scratch(a: np.ndarray, count: int):
    """count buffers shaped like the largest slab of a."""
    shape = (_slab_rows(a.shape),) + a.shape[1:]
    return [np.empty(shape) for _ in range(count)]


def _laplacian(a: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros_like(a)
    two_a, near, far = _slab_scratch(a, 3)
    for rows in _slabs(a.shape):
        r = rows.stop - rows.start
        np.multiply(2.0, a[rows], out=two_a[:r])
        acc = out[rows]
        for ax, h in enumerate(spacings):
            nbrs = _slab_neighbours(a, rows, ax)
            acc -= _second_difference(nbrs, h, two_a[:r], near[:r], far[:r])
    return out


def _lee_pairing(alpha_values, a: np.ndarray, spacings, out=None) -> np.ndarray:
    """sum_i alpha_i da/dx_i, with alpha_values in the format of
    grid.OneForm.coefficients; written into out when given (zero-filled,
    then summed there as into a fresh array)."""
    if out is None:
        out = np.zeros_like(a)
    else:
        out.fill(0.0)
    axes = [ax for ax, alpha in enumerate(alpha_values) if alpha is not None]
    if not axes:
        return out
    near, far = _slab_scratch(a, 2)
    for rows in _slabs(a.shape):
        r = rows.stop - rows.start
        acc = out[rows]
        for ax in axes:
            nbrs = _slab_neighbours(a, rows, ax)
            term = _first_difference(nbrs, spacings[ax], near[:r], far[:r])
            alpha = alpha_values[ax]
            term *= alpha if isinstance(alpha, float) else alpha[rows]
            acc += term
    return out


def _unit(rank: int, axis: int) -> tuple:
    """Coefficients of the covector dx_axis."""
    return tuple(1.0 if ax == axis else None for ax in range(rank))


def laplacian(f: ScalarField) -> ScalarField:
    """Hodge Laplacian on functions, positive spectrum convention."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _laplacian(f.values, f.spec.spacings)
    return ScalarField(f.spec, vals)


def lee_pairing(alpha: OneForm, f: ScalarField) -> ScalarField:
    """Pointwise pairing of a one-form with the differential of f."""
    same_grid(f, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _lee_pairing(alpha.coefficients, f.values, f.spec.spacings)
    return ScalarField(f.spec, vals)


def chern_laplacian(alpha: OneForm, f: ScalarField) -> ScalarField:
    """laplacian(f) + lee_pairing(alpha, f)."""
    same_grid(f, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _laplacian(f.values, f.spec.spacings) + _lee_pairing(
            alpha.coefficients, f.values, f.spec.spacings
        )
    return ScalarField(f.spec, vals)


def divergence(alpha: OneForm) -> ScalarField:
    """Sum of axis derivatives of the components."""
    spec = alpha.spec
    out = np.zeros(spec.dims)
    with np.errstate(over="ignore", invalid="ignore"):
        for ax, c in enumerate(alpha.components):
            out += _lee_pairing(_unit(spec.rank, ax), c.values, spec.spacings)
    return ScalarField(spec, out)


def gauduchon_defect(alpha: OneForm) -> float:
    """Sup-norm of the divergence; zero for co-closed one-forms.  Kept on
    the form (OneForm.divergence_sup), so each form runs the stencil at
    most once."""
    return alpha.divergence_sup


def gauduchon_scale(alpha: OneForm) -> float:
    """1 + max_i sup|alpha_i|: alpha counts as co-closed when
    gauduchon_defect(alpha) <= tol * gauduchon_scale(alpha)."""
    return 1.0 + max(alpha.sup_norms)


def mean(f: ScalarField) -> float:
    """Normalized integral: on a periodic grid the trapezoid rule is the mean.

    Fields near the float limit can overflow the sum although their mean
    is finite; those are averaged again after scaling by their sup.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(np.mean(f.values))
    if not np.isfinite(m):
        peak = sup_norm(f)
        m = peak * float(np.mean(f.values / peak))
    return m


def grad_squared(f: ScalarField) -> ScalarField:
    """Pointwise squared gradient magnitude."""
    spec = f.spec
    out = np.zeros(spec.dims)
    with np.errstate(over="ignore", invalid="ignore"):
        for ax in range(spec.rank):
            g = _lee_pairing(_unit(spec.rank, ax), f.values, spec.spacings)
            out += g * g
    return ScalarField(spec, out)


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def lp_norm(f: ScalarField, p: float) -> float:
    """Discrete L^p norm under the normalized (volume 1) measure."""
    if p <= 0:
        raise ConfigError("p must be positive")
    with np.errstate(over="ignore"):
        norm = float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))
    if not np.isfinite(norm):
        # |f|^p overflowed: the norm of f / sup|f| cannot
        peak = sup_norm(f)
        norm = peak * float(np.mean((np.abs(f.values) / peak) ** p) ** (1.0 / p))
    return norm
