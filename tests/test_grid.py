import numpy as np
import pytest

from kwtorus import (
    FileFormatError,
    GridError,
    GridSpec,
    OneForm,
    ScalarField,
    make_field,
    read_field,
    refine_field,
    restrict,
    write_field,
)
from kwtorus.grid import flat_index, multi_index


def test_make_field_constant():
    f = make_field(GridSpec((16,)), 0.0)
    assert f.values.shape == (16,)
    assert np.all(f.values == 0.0)
    g = make_field(GridSpec((8, 8)), 1.5)
    assert g.values.size == 64
    assert np.all(g.values == 1.5)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_make_field_holds_one_number_read_only(rank):
    f = make_field(GridSpec((8, 10, 12, 8)[:rank]), -1.0)
    assert f.values.strides == (0,) * rank
    assert f.values.flags.writeable is False
    with pytest.raises(ValueError):
        f.values[(0,) * rank] = 0.0


_REDUCTIONS = {
    "mean": np.mean,
    "sum": np.sum,
    "2-norm": lambda v: np.linalg.norm(v.ravel()),
    "max|.|": lambda v: np.max(np.abs(v)),
}


@pytest.mark.parametrize("shape", [
    (7,), (8,), (255,), (3, 5), (24, 24), (97, 33), (9, 11, 13), (16, 16, 16),
    (5, 6, 7, 8), (1, 3, 1, 5), (24, 24, 24, 24),
])
@pytest.mark.parametrize("name", sorted(_REDUCTIONS))
def test_reductions_of_a_constant_view_match_its_copy(shape, name):
    # a constant held as one number must reduce to the same bits as the
    # full array it replaces, so reports stay byte-identical
    reduce = _REDUCTIONS[name]
    for c in (0.1, -1.0, 1.0 / 3.0, 0.05, -7.3, np.pi, 1e-300, 2.0**60 + 1.0):
        view = np.broadcast_to(c, shape)
        assert reduce(view) == reduce(view.copy()), c


def test_grid_rejects_odd_small_and_high_rank():
    with pytest.raises(GridError):
        GridSpec((7,))
    with pytest.raises(GridError):
        GridSpec((6,))
    with pytest.raises(GridError):
        GridSpec((8, 8, 8, 8, 8))
    with pytest.raises(GridError):
        GridSpec(())


def test_spacing_and_coords():
    spec = GridSpec((16, 32))
    assert spec.spacings == (2 * np.pi / 16, 2 * np.pi / 32)
    assert spec.npoints == 512
    x0 = spec.axis_coords(0)
    assert x0[0] == 0.0
    assert np.isclose(x0[1], 2 * np.pi / 16)


def test_field_rejects_nan_and_shape_mismatch():
    spec = GridSpec((8,))
    with pytest.raises(GridError):
        ScalarField(spec, np.array([np.nan] * 8))
    with pytest.raises(GridError):
        ScalarField(spec, np.zeros(9))


def test_index_bijection_random():
    rng = np.random.default_rng(7)
    for dims in [(16,), (8, 12), (8, 10, 12), (8, 8, 8, 8)]:
        spec = GridSpec(dims)
        for _ in range(50):
            flat = int(rng.integers(0, spec.npoints))
            multi = multi_index(spec, flat)
            assert flat_index(spec, multi) == flat
        # last axis fastest
        if spec.rank > 1:
            assert flat_index(spec, (0,) * (spec.rank - 1) + (1,)) == 1


def test_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    f = ScalarField(GridSpec((32, 32)), rng.standard_normal((32, 32)))
    path = tmp_path / "f.kwf"
    write_field(f, path)
    g = read_field(path)
    assert g.spec == f.spec
    assert g.values.tobytes() == f.values.tobytes()


def test_file_round_trip_rank4(tmp_path):
    rng = np.random.default_rng(4)
    f = ScalarField(GridSpec((8, 8, 8, 8)), rng.standard_normal((8, 8, 8, 8)))
    path = tmp_path / "f4.kwf"
    write_field(f, path)
    assert read_field(path).values.tobytes() == f.values.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.kwf"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FileFormatError, match="magic"):
        read_field(path)


def test_truncated_payload(tmp_path):
    f = make_field(GridSpec((16,)), 1.0)
    path = tmp_path / "t.kwf"
    write_field(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FileFormatError, match="size mismatch"):
        read_field(path)


def test_rank_out_of_range(tmp_path):
    path = tmp_path / "r.kwf"
    path.write_bytes(b"KWF1" + (9).to_bytes(4, "little") + b"\x00" * 80)
    with pytest.raises(FileFormatError, match="rank"):
        read_field(path)


def test_one_form_validation():
    spec = GridSpec((16,))
    other = GridSpec((32,))
    with pytest.raises(GridError):
        OneForm(spec, (make_field(other, 0.0),))


def test_refine_field_exact_on_band_limited():
    spec = GridSpec((16, 16))
    x, y = spec.coords()
    f = ScalarField(spec, np.sin(x) + 0.3 * np.cos(2 * y))
    fine = refine_field(f)
    xf, yf = fine.spec.coords()
    expect = np.sin(xf) + 0.3 * np.cos(2 * yf)
    assert np.max(np.abs(fine.values - expect)) < 1e-12


@pytest.mark.parametrize("dims", [(16,), (16, 24), (16, 8, 16), (16, 16, 16, 16)])
def test_restrict_undoes_refine_on_band_limited(dims):
    # a random band-limited field (no Nyquist mode) survives refinement and
    # injection back onto its own points
    rng = np.random.default_rng(len(dims))
    spec = GridSpec(dims)
    coords = spec.coords()
    vals = np.zeros(dims)
    for _ in range(6):
        ks = rng.integers(-3, 4, size=len(dims))
        vals += rng.normal() * np.cos(sum(k * x for k, x in zip(ks, coords)) + rng.uniform(0, 6))
    f = ScalarField(spec, vals)
    fine = refine_field(f)
    back = restrict(fine)
    assert back.spec == spec and back.values.flags.c_contiguous
    # injection: every other point on each axis, starting at the origin
    assert np.array_equal(back.values, fine.values[(slice(None, None, 2),) * len(dims)])
    assert np.max(np.abs(back.values - f.values)) <= 1e-13
    with pytest.raises(GridError):
        restrict(make_field(GridSpec((12,) * len(dims)), 0.0))  # 6 < MIN_POINTS


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_refine_field_splits_the_nyquist_mode(rank):
    # the product of every axis's Nyquist cosine interpolates to itself:
    # each Nyquist plane, the last axis's included, is halved on both sides
    spec = GridSpec((8, 12, 8, 10)[:rank])

    def nyquist(coords):
        out = 1.0
        for n, x in zip(spec.dims, coords):
            out = out * np.cos(n // 2 * x)
        return out

    fine = refine_field(ScalarField(spec, nyquist(spec.coords())))
    half_nyquist = nyquist(fine.spec.coords())
    assert np.max(np.abs(fine.values - half_nyquist)) <= 1e-14


def test_refine_field_holds_half_a_complex_spectrum():
    # 12^4 -> 24^4: a real-to-complex transform never holds the full
    # complex spectrum of the fine grid (four fields' worth)
    import tracemalloc

    f = ScalarField(GridSpec((12,) * 4), np.random.default_rng(0).standard_normal((12,) * 4))
    refine_field(f)  # FFT plans are cached on first use
    tracemalloc.start()
    try:
        fine = refine_field(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * fine.values.nbytes


# ---------------------------------------------------------------------------
# one grid-match rule: every public entry point rejects operands on
# different grids with GridError (a ValueError too)
# ---------------------------------------------------------------------------

def _mismatched_calls():
    import kwtorus as kw

    a, b = GridSpec((16,)), GridSpec((32,))
    fa, fb = make_field(a, -1.0), make_field(b, -1.0)
    za, zb = OneForm.zero(a), OneForm.zero(b)
    setup = kw.GeometrySetup(1, 0.5)
    prob = kw.KWProblem(za, -1.0, fa)
    psi = ScalarField(a, np.sin(a.coords()[0]))
    return {
        "OneForm": lambda: OneForm(a, (fb,)),
        "lee_pairing": lambda: kw.lee_pairing(za, fb),
        "chern_laplacian": lambda: kw.chern_laplacian(za, fb),
        "transform_s": lambda: kw.transform_s(fa, fa, zb, setup),
        "transform_s2": lambda: kw.transform_s2(fa, fb, za, setup),
        "reduce_problem": lambda: kw.reduce_problem(fa, fa, zb, setup),
        "recover_metric": lambda: kw.recover_metric(fb, kw.ReducedProblem(-1.0, fa, fa, setup)),
        "degenerate_solve": lambda: kw.degenerate_solve(fa, fb),
        "solve_meanzero": lambda: kw.solve_meanzero(za, make_field(b, 0.0)),
        "solve_shifted": lambda: kw.solve_shifted(za, 1.0, fb),
        "KWProblem": lambda: kw.KWProblem(za, -1.0, fb),
        "is_subsolution": lambda: kw.is_subsolution(fb, prob),
        "is_supersolution": lambda: kw.is_supersolution(fb, prob),
        "monotone_solve": lambda: kw.monotone_solve(prob, fb, fa),
        "newton_solve": lambda: kw.newton_solve(prob, fb),
        "construct_unsolvable": lambda: kw.construct_unsolvable(psi, 0.1, -1.0, zb),
        "solve_prescribed": lambda: kw.solve_prescribed(fa, fa, zb, setup),
    }


@pytest.mark.parametrize("entry", list(_mismatched_calls()))
def test_mismatched_grids_raise_grid_error(entry):
    with pytest.raises(GridError, match="mismatched grids") as err:
        _mismatched_calls()[entry]()
    assert isinstance(err.value, ValueError)
