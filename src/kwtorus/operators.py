"""Discrete differential operators on periodic grids.

All derivatives use 4th-order centered stencils with periodic wrap:

    d2f/dx ~ (-f[j-2] + 16 f[j-1] - 30 f[j] + 16 f[j+1] - f[j+2]) / (12 h^2)
    df/dx  ~ ( f[j-2] -  8 f[j-1] +           8 f[j+1] - f[j+2]) / (12 h)

The Laplacian follows the geometer's sign convention (positive spectrum,
constants in the kernel: laplacian of sin(x0) on axis frequency 1 is
+sin(x0)).  The volume-1 normalization makes integrals plain means.

One ghost-layer kernel serves every stencil.  The operand is copied once
per axis with two periodic ghost layers on each side (an axis has at
least grid.MIN_POINTS = 8 points), and f[j-2], ..., f[j+2] are slice
views of that copy.  The arithmetic runs in place in scratch buffers, in
a fixed order:

    d2f: (((f[j-1] + f[j+1]) - 2 f[j]) * 16 - ((f[j-2] + f[j+2]) - 2 f[j])) / (12 h^2)
    df:  ((f[j+1] - f[j-1]) * 8 - (f[j+2] - f[j-2])) / (12 h)

with the axis terms summed in axis order.  The difference-of-differences
form maps constants to exactly 0, and results match the roll-based
reference in tests/test_operators.py bit for bit; reordering any of it
changes the last bits of every solve.

The underscore functions operate on raw ndarrays and are what the solver
modules use in their inner loops; the public functions wrap them with
ScalarField validation.  Fields near the float limit overflow the
stencils (2 f[j] exceeds the float range above about 9e307); the public
functions silence that overflow and ScalarField rejects the non-finite
result.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, GridError
from .grid import GridSpec, OneForm, ScalarField

DEFAULT_GAUDUCHON_TOL = 1e-8


def _neighbours(a: np.ndarray, axis: int):
    """Views (f[j-2], f[j-1], f[j+1], f[j+2]) of a along axis, periodic."""
    n = a.shape[axis]

    def band(lo: int, hi: int, arr: np.ndarray) -> np.ndarray:
        index = [slice(None)] * arr.ndim
        index[axis] = slice(lo, hi)
        return arr[tuple(index)]

    padded = np.concatenate((band(n - 2, n, a), a, band(0, 2, a)), axis=axis)
    return tuple(band(k, k + n, padded) for k in (0, 1, 3, 4))


def _second_difference(a, axis, h, two_a, near, far) -> np.ndarray:
    # writes d2a/dx2 into near and returns it; far is scratch, two_a = 2.0 * a
    m2, m1, p1, p2 = _neighbours(a, axis)
    np.add(m1, p1, out=near)
    near -= two_a
    near *= 16.0
    np.add(m2, p2, out=far)
    far -= two_a
    near -= far
    near /= 12.0 * h * h
    return near


def _first_difference(a, axis, h, near, far) -> np.ndarray:
    # writes da/dx into near and returns it; far is scratch
    m2, m1, p1, p2 = _neighbours(a, axis)
    np.subtract(p1, m1, out=near)
    near *= 8.0
    np.subtract(p2, m2, out=far)
    near -= far
    near /= 12.0 * h
    return near


def _second_derivative(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return _second_difference(a, axis, h, 2.0 * a, np.empty_like(a), np.empty_like(a))


def _first_derivative(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return _first_difference(a, axis, h, np.empty_like(a), np.empty_like(a))


def _laplacian(a: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros_like(a)
    two_a = 2.0 * a
    near = np.empty_like(a)
    far = np.empty_like(a)
    for ax, h in enumerate(spacings):
        out -= _second_difference(a, ax, h, two_a, near, far)
    return out


def _gradient(a: np.ndarray, spacings) -> list[np.ndarray]:
    return [_first_derivative(a, ax, h) for ax, h in enumerate(spacings)]


def _lee_pairing(alpha_values, a: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros_like(a)
    near = np.empty_like(a)
    far = np.empty_like(a)
    for ax, h in enumerate(spacings):
        # an identically zero component would add only zeros
        if not np.any(alpha_values[ax]):
            continue
        term = _first_difference(a, ax, h, near, far)
        term *= alpha_values[ax]
        out += term
    return out


def _check_same_spec(spec: GridSpec, *others) -> None:
    for o in others:
        if o.spec != spec:
            raise GridError("operands live on mismatched grids")


def laplacian(f: ScalarField) -> ScalarField:
    """Hodge Laplacian on functions, positive spectrum convention."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _laplacian(f.values, f.spec.spacings)
    return ScalarField(f.spec, vals)


def lee_pairing(alpha: OneForm, f: ScalarField) -> ScalarField:
    """Pointwise pairing of a one-form with the differential of f."""
    _check_same_spec(f.spec, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _lee_pairing([c.values for c in alpha.components], f.values, f.spec.spacings)
    return ScalarField(f.spec, vals)


def chern_laplacian(alpha: OneForm, f: ScalarField) -> ScalarField:
    """laplacian(f) + lee_pairing(alpha, f)."""
    _check_same_spec(f.spec, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _laplacian(f.values, f.spec.spacings) + _lee_pairing(
            [c.values for c in alpha.components], f.values, f.spec.spacings
        )
    return ScalarField(f.spec, vals)


def divergence(alpha: OneForm) -> ScalarField:
    """Sum of axis derivatives of the components."""
    spec = alpha.spec
    out = np.zeros(spec.dims)
    with np.errstate(over="ignore", invalid="ignore"):
        for ax, h in enumerate(spec.spacings):
            out += _first_derivative(alpha.components[ax].values, ax, h)
    return ScalarField(spec, out)


def gauduchon_defect(alpha: OneForm) -> float:
    """Sup-norm of the divergence; zero for co-closed one-forms."""
    return float(np.max(np.abs(divergence(alpha).values)))


def gauduchon_scale(alpha: OneForm) -> float:
    """1 + max_i sup|alpha_i|: alpha counts as co-closed when
    gauduchon_defect(alpha) <= tol * gauduchon_scale(alpha)."""
    return 1.0 + max(float(np.max(np.abs(c.values))) for c in alpha.components)


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
    out = np.zeros(f.spec.dims)
    with np.errstate(over="ignore", invalid="ignore"):
        for g in _gradient(f.values, f.spec.spacings):
            out += g * g
    return ScalarField(f.spec, out)


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
