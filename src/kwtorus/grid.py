"""Periodic grid geometry, field containers, and field file I/O.

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
    row-major layout with the last axis fastest.
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

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


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
    """Constant field with the given fill value."""
    fill = float(fill)
    if not np.isfinite(fill):
        raise GridError("fill value must be finite")
    return ScalarField(spec, np.full(spec.dims, fill))


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


# ---------------------------------------------------------------------------
# CSV import/export for rank <= 2: one row per first-axis index.
# ---------------------------------------------------------------------------

def write_field_csv(f: ScalarField, path) -> None:
    if f.spec.rank > 2:
        raise GridError("CSV export supports rank 1 and 2 only")
    rows = f.values if f.spec.rank == 2 else f.values.reshape(-1, 1)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_field_csv(path) -> ScalarField:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise FileFormatError("empty CSV file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FileFormatError("ragged CSV rows")
    arr = np.asarray(rows, dtype=np.float64)
    if width == 1:
        spec = GridSpec((len(rows),))
        return ScalarField(spec, arr.reshape(-1))
    spec = GridSpec((len(rows), width))
    return ScalarField(spec, arr)


def refine_field(f: ScalarField, factor: int = 2) -> ScalarField:
    """Resample a field onto a grid with every axis count multiplied by factor.

    Uses trigonometric interpolation (Fourier zero padding), which is exact
    for band-limited fields and keeps coarse grid points as a subset of the
    fine grid.  Useful for warm-starting solves in grid-doubling studies.
    """
    if factor < 1:
        raise GridError("refinement factor must be >= 1")
    if factor == 1:
        return f
    coarse = f.spec.dims
    fine = tuple(factor * n for n in coarse)
    spec = GridSpec(fine)
    spectrum = np.fft.fftn(f.values)
    out = np.zeros(fine, dtype=complex)
    # copy each coarse frequency block into the larger spectrum, splitting
    # the Nyquist component symmetrically to keep the result real
    for idx in np.ndindex(*(2,) * len(coarse)):
        src = []
        dst = []
        for side, n in zip(idx, coarse):
            half = n // 2
            if side == 0:
                src.append(slice(0, half + 1))
                dst.append(slice(0, half + 1))
            else:
                src.append(slice(half, n))
                dst.append(slice(factor * n - half, factor * n))
        out[tuple(dst)] += _split_nyquist(spectrum[tuple(src)], idx, coarse)
    vals = np.fft.ifftn(out).real * (np.prod(fine) / np.prod(coarse))
    return ScalarField(spec, vals)


def _split_nyquist(block: np.ndarray, idx, coarse) -> np.ndarray:
    # each block duplicates the Nyquist plane of every axis it touches on
    # both sides, so halve those planes to conserve the total spectrum
    block = block.copy()
    for ax, n in enumerate(coarse):
        sl = [slice(None)] * block.ndim
        sl[ax] = 0 if idx[ax] == 1 else block.shape[ax] - 1
        block[tuple(sl)] *= 0.5
    return block
