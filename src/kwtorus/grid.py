"""Periodic grid geometry, field containers, field file I/O, and the
transfers between a grid and its half-size grid.

Grids discretize the flat torus [0, 2pi)^rank with N_i uniformly spaced
points per axis, stored row-major with the last axis fastest.  The volume
measure is normalized so the total volume is 1; integrals over the domain
are therefore plain means of grid values.

Fields are treated as immutable values after construction: every operation
in this package returns new arrays and never mutates an existing field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FileFormatError, GridError

TWO_PI = 2.0 * np.pi

MAGIC = b"KWF1"
MAX_RANK = 4
MIN_POINTS = 8


@dataclass(frozen=True)
class GridSpec:
    """Sampling lattice on [0, 2pi)^rank.

    dims holds the per-axis point counts; every count must be even and
    at least 8 so grid-doubling convergence studies nest.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= MAX_RANK:
            raise GridError(f"rank must be between 1 and {MAX_RANK}, got {len(dims)}")
        for n in dims:
            if n < MIN_POINTS:
                raise GridError(f"axis size {n} below minimum {MIN_POINTS}")
            if n % 2 != 0:
                raise GridError(f"axis size {n} must be even")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(TWO_PI / n for n in self.dims)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.dims))

    def axis_coords(self, axis: int) -> np.ndarray:
        """1-D coordinate array for one axis."""
        n = self.dims[axis]
        return TWO_PI * np.arange(n) / n

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcastable to the full grid shape."""
        out = []
        for ax in range(self.rank):
            shape = [1] * self.rank
            shape[ax] = self.dims[ax]
            out.append(self.axis_coords(ax).reshape(shape))
        return out

    def doubled(self) -> "GridSpec":
        return GridSpec(tuple(2 * n for n in self.dims))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled on a GridSpec.

    values has shape spec.dims; flattening in C order gives the canonical
    row-major layout with the last axis fastest.  values may be read-only:
    make_field and constant expressions give one number broadcast with
    zero strides.  Copy values before writing into them.
    """

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.spec.dims:
            if arr.size == self.spec.npoints:
                arr = arr.reshape(self.spec.dims)
            else:
                raise GridError(
                    f"values size {arr.size} does not match grid {self.spec.dims}"
                )
        if not np.all(np.isfinite(arr)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class OneForm:
    """Covector field: one scalar component per axis in flat coordinates."""

    spec: GridSpec
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.spec.rank:
            raise GridError(
                f"one-form needs {self.spec.rank} components, got {len(comps)}"
            )
        same_grid(self, *comps)

    @cached_property
    def coefficients(self) -> tuple:
        """The components as every drift stencil takes them, classified
        once per form: None where one is identically zero (its term is
        skipped), a float where it is constant (multiplied as a scalar,
        which rounds as the constant array would), else its values."""
        out = []
        for c in self.components:
            v = c.values
            first = v.flat[0]
            if not np.all(v == first):
                out.append(v)
            elif first == 0.0:
                out.append(None)
            else:
                out.append(float(first))
        return tuple(out)

    @cached_property
    def sup_norms(self) -> tuple[float, ...]:
        """sup|alpha_i| per component, scanned once per form."""
        return tuple(0.0 if v is None else float(np.max(np.abs(v))) for v in self.coefficients)

    @cached_property
    def divergence_sup(self) -> float:
        """Sup-norm of the divergence, computed once per form; read it
        through operators.gauduchon_defect.  A constant form skips the
        stencil, which maps constants to exactly 0."""
        if not any(isinstance(v, np.ndarray) for v in self.coefficients):
            return 0.0
        from .operators import divergence  # operators builds on this module

        return float(np.max(np.abs(divergence(self).values)))

    @classmethod
    def zero(cls, spec: GridSpec) -> "OneForm":
        return cls(spec, tuple(make_field(spec, 0.0) for _ in range(spec.rank)))

    @classmethod
    def constant(cls, spec: GridSpec, values: tuple[float, ...]) -> "OneForm":
        if len(values) != spec.rank:
            raise GridError("constant one-form needs one value per axis")
        return cls(spec, tuple(make_field(spec, float(v)) for v in values))


def same_grid(*objs) -> None:
    """Raise GridError unless every object (fields, one-forms, problems:
    anything with a spec) lives on one grid."""
    for o in objs[1:]:
        if o.spec != objs[0].spec:
            raise GridError(
                f"operands live on mismatched grids {objs[0].spec.dims} and {o.spec.dims}"
            )


def make_field(spec: GridSpec, fill: float) -> ScalarField:
    """Constant field with the given fill value, held as one number: its
    values are a read-only view with zero strides.  Copy them before
    writing."""
    fill = float(fill)
    if not np.isfinite(fill):
        raise GridError("fill value must be finite")
    return ScalarField(spec, np.broadcast_to(fill, spec.dims))


def flat_index(spec: GridSpec, multi: tuple[int, ...]) -> int:
    """Row-major flat index (last axis fastest) of a multi-index."""
    return int(np.ravel_multi_index(multi, spec.dims))


def multi_index(spec: GridSpec, flat: int) -> tuple[int, ...]:
    """Inverse of flat_index."""
    return tuple(int(i) for i in np.unravel_index(flat, spec.dims))


# ---------------------------------------------------------------------------
# Binary field files: magic "KWF1", u32le rank, rank x u32le dims, then
# f64le values in row-major order with the last axis fastest.
# ---------------------------------------------------------------------------

def write_field(f: ScalarField, path) -> None:
    header = MAGIC + struct.pack("<I", f.spec.rank)
    header += struct.pack(f"<{f.spec.rank}I", *f.spec.dims)
    payload = f.values.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise FileFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 8:
        raise FileFormatError("truncated header")
    (rank,) = struct.unpack_from("<I", data, 4)
    if not 1 <= rank <= MAX_RANK:
        raise FileFormatError(f"rank {rank} out of range 1..{MAX_RANK}")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise FileFormatError("truncated dims")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    try:
        spec = GridSpec(dims)
    except GridError as e:
        raise FileFormatError(str(e)) from e
    expected = dims_end + 8 * spec.npoints
    if len(data) != expected:
        raise FileFormatError(
            f"payload size mismatch: file has {len(data)} bytes, expected {expected}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=dims_end).reshape(dims)
    return ScalarField(spec, values.copy())


def refine_field(f: ScalarField) -> ScalarField:
    """Resample a field onto the grid with every axis count doubled.

    Uses trigonometric interpolation (Fourier zero padding), which is exact
    for band-limited fields and keeps coarse grid points as a subset of the
    fine grid, so restrict undoes it.  The c < 0 solve lifts the half-size
    grid's answer with it to start Newton on the fine grid.  The transforms
    are real-to-complex, so only half of the fine spectrum is ever held.
    """
    coarse = f.spec.dims
    spec = f.spec.doubled()
    axes = tuple(range(spec.rank))
    spectrum = np.fft.rfftn(f.values, axes=axes)
    out = np.zeros(spec.dims[:-1] + (spectrum.shape[-1],), dtype=complex)
    # the last axis keeps its nonnegative frequencies in place (irfftn pads
    # the rest with zeros); every other axis copies its low and its high
    # half to the two ends
    for idx in np.ndindex(*(2,) * (spec.rank - 1)):
        src, dst = [], []
        for side, n in zip(idx, coarse):
            half = n // 2
            src.append(slice(0, half + 1) if side == 0 else slice(half, n))
            dst.append(slice(0, half + 1) if side == 0 else slice(2 * n - half, 2 * n))
        out[(*dst, slice(None))] = spectrum[(*src, slice(None))]
    # every Nyquist plane now stands on both sides of its axis (the last
    # axis's mirror is implied by the real transform): halve each copy to
    # keep the total spectrum and the result real
    for ax, n in enumerate(coarse):
        planes = (n // 2,) if ax == spec.rank - 1 else (n // 2, 2 * n - n // 2)
        for k in planes:
            out[(slice(None),) * ax + (k,)] *= 0.5
    vals = np.fft.irfftn(out, s=spec.dims, axes=axes)
    vals *= 2**spec.rank
    return ScalarField(spec, vals)


def restrict(f: ScalarField) -> ScalarField:
    """Injection onto the half-size grid: every other point on each axis,
    starting at the origin.

    The coarse points are a subset of the fine ones, so the values are
    copied, not averaged, and restrict(refine_field(g)) equals g up to the
    round-off of the transforms.  Every half axis must make a valid grid
    (even and at least MIN_POINTS), else GridError.
    """
    spec = GridSpec(tuple(n // 2 for n in f.spec.dims))
    return ScalarField(spec, np.ascontiguousarray(f.values[(slice(None, None, 2),) * spec.rank]))
