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
    read_field_csv,
    refine_field,
    write_field,
    write_field_csv,
)
from kwtorus.grid import flat_index, multi_index


def test_make_field_constant():
    f = make_field(GridSpec((16,)), 0.0)
    assert f.values.shape == (16,)
    assert np.all(f.values == 0.0)
    g = make_field(GridSpec((8, 8)), 1.5)
    assert g.values.size == 64
    assert np.all(g.values == 1.5)


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


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    for dims in [(16,), (8, 10)]:
        f = ScalarField(GridSpec(dims), rng.standard_normal(dims))
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        g = read_field_csv(path)
        assert g.spec.dims == dims
        assert np.array_equal(g.values, f.values)


def test_one_form_validation():
    spec = GridSpec((16,))
    other = GridSpec((32,))
    with pytest.raises(GridError):
        OneForm(spec, (make_field(other, 0.0),))


def test_refine_field_exact_on_band_limited():
    spec = GridSpec((16, 16))
    x, y = spec.coords()
    f = ScalarField(spec, np.sin(x) + 0.3 * np.cos(2 * y))
    fine = refine_field(f, 2)
    xf, yf = fine.spec.coords()
    expect = np.sin(xf) + 0.3 * np.cos(2 * yf)
    assert np.max(np.abs(fine.values - expect)) < 1e-12


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
        "fixed_point_solve": lambda: kw.fixed_point_solve(fa, fa, zb, setup),
        "continuation_solve": lambda: kw.continuation_solve(fa, fa, zb, setup),
        "solve_prescribed": lambda: kw.solve_prescribed(fa, fa, zb, setup),
    }


@pytest.mark.parametrize("entry", list(_mismatched_calls()))
def test_mismatched_grids_raise_grid_error(entry):
    with pytest.raises(GridError, match="mismatched grids") as err:
        _mismatched_calls()[entry]()
    assert isinstance(err.value, ValueError)
