import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwtorus import (
    GridError,
    GridSpec,
    OneForm,
    ScalarField,
    chern_laplacian,
    divergence,
    gauduchon_defect,
    grad_squared,
    laplacian,
    lee_pairing,
    lp_norm,
    make_field,
    mean,
)
from helpers import divergence_free_form, field_from
from kwtorus.linsolve import _apply, _rfft_symbols, random_smooth_field


def test_laplacian_kills_constants_exactly():
    f = make_field(GridSpec((16, 16)), 4.2)
    assert np.all(laplacian(f).values == 0.0)


def test_laplacian_sin_positive_convention():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    err = np.max(np.abs(laplacian(f).values - f.values))
    assert err < 1e-7


def test_laplacian_rank2_frequency2():
    spec = GridSpec((64, 64))
    f = field_from(spec, lambda x, y: np.cos(2 * y))
    expect = field_from(spec, lambda x, y: 4 * np.cos(2 * y))
    err = np.max(np.abs(laplacian(f).values - expect.values))
    # 4th order: error ~ h^4 * k^6 / 90 * amplitude
    h = spec.spacings[1]
    assert err < 2 * h**4 * 2**6 / 90 * 4


def test_lee_pairing_examples():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    zero = OneForm.zero(spec)
    assert np.all(lee_pairing(zero, f).values == 0.0)
    one = OneForm.constant(spec, (1.0,))
    expect = field_from(spec, lambda x: np.cos(x))
    assert np.max(np.abs(lee_pairing(one, f).values - expect.values)) < 1e-7
    half = OneForm.constant(spec, (0.5,))
    g = field_from(spec, lambda x: np.cos(x))
    expect2 = field_from(spec, lambda x: -0.5 * np.sin(x))
    assert np.max(np.abs(lee_pairing(half, g).values - expect2.values)) < 1e-7


def test_lee_pairing_spec_mismatch():
    with pytest.raises(GridError):
        lee_pairing(OneForm.zero(GridSpec((16,))), make_field(GridSpec((32,)), 1.0))


def test_divergence_examples():
    spec = GridSpec((64, 64))
    const = OneForm.constant(spec, (1.0, -2.0))
    assert np.all(divergence(const).values == 0.0)
    # component depending only on the other axis
    a = field_from(spec, lambda x, y: np.sin(y))
    z = make_field(spec, 0.0)
    form = OneForm(spec, (a, z))
    assert np.max(np.abs(divergence(form).values)) < 1e-13
    spec1 = GridSpec((256,))
    form1 = OneForm(spec1, (field_from(spec1, lambda x: np.sin(x)),))
    expect = field_from(spec1, lambda x: np.cos(x))
    assert np.max(np.abs(divergence(form1).values - expect.values)) < 1e-7


def test_mean_examples():
    spec = GridSpec((128,))
    assert mean(make_field(spec, 3.0)) == 3.0
    assert abs(mean(field_from(spec, lambda x: np.sin(x)))) < 1e-14
    assert abs(mean(field_from(spec, lambda x: 1 + 0.5 * np.cos(x))) - 1.0) < 1e-14


def test_mean_linear():
    spec = GridSpec((32,))
    rng = np.random.default_rng(0)
    f = ScalarField(spec, rng.standard_normal(32))
    g = ScalarField(spec, rng.standard_normal(32))
    s = ScalarField(spec, 2.0 * f.values + 3.0 * g.values)
    assert np.isclose(mean(s), 2 * mean(f) + 3 * mean(g), rtol=1e-14)
    assert mean(make_field(spec, 1.0)) == 1.0


def test_chern_laplacian_examples():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    zero = OneForm.zero(spec)
    assert np.array_equal(chern_laplacian(zero, f).values, laplacian(f).values)
    assert np.all(chern_laplacian(zero, make_field(spec, 2.0)).values == 0.0)
    one = OneForm.constant(spec, (1.0,))
    expect = field_from(spec, lambda x: np.sin(x) + np.cos(x))
    assert np.max(np.abs(chern_laplacian(one, f).values - expect.values)) < 1e-7


def test_divergence_identity_random():
    rng = np.random.default_rng(42)
    for dims in [(64,), (32, 32), (16, 16, 16)]:
        spec = GridSpec(dims)
        for _ in range(5):
            alpha = divergence_free_form(spec, rng)
            u = random_smooth_field(spec, rng, band=3)
            assert gauduchon_defect(alpha) < 1e-12
            assert abs(mean(lee_pairing(alpha, u))) <= 1e-10


def test_order_of_accuracy_ratio():
    for dims, fn in [((32,), lambda x: np.sin(x)), ((16, 16), lambda x, y: np.sin(x) * np.cos(y))]:
        coarse = GridSpec(dims)
        fine = coarse.doubled()
        rank = coarse.rank

        def exact(spec):
            f = field_from(spec, fn)
            return f, ScalarField(spec, rank * f.values if rank == 2 else f.values)

        fc, ec = exact(coarse)
        ff, ef = exact(fine)
        err_c = np.max(np.abs(laplacian(fc).values - ec.values))
        err_f = np.max(np.abs(laplacian(ff).values - ef.values))
        ratio = err_c / err_f
        assert 12 <= ratio <= 20


def test_grad_squared():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    expect = field_from(spec, lambda x: np.cos(x) ** 2)
    assert np.max(np.abs(grad_squared(f).values - expect.values)) < 1e-6


def test_lp_norm_normalized():
    spec = GridSpec((64,))
    assert np.isclose(lp_norm(make_field(spec, 1.0), 3.0), 1.0)
    f = field_from(spec, lambda x: np.sin(x))
    # ||sin||_2 = sqrt(1/2) under the normalized measure
    assert np.isclose(lp_norm(f, 2.0), np.sqrt(0.5), atol=1e-12)


# np.roll reference copies of the stencils as first written; the kernels in
# operators must reproduce them bit for bit
def _ref_shift(a, offset, axis):
    return np.roll(a, offset, axis=axis)


def _ref_second_derivative(a, axis, h):
    near = _ref_shift(a, 1, axis) + _ref_shift(a, -1, axis) - 2.0 * a
    far = _ref_shift(a, 2, axis) + _ref_shift(a, -2, axis) - 2.0 * a
    return (16.0 * near - far) / (12.0 * h * h)


def _ref_first_derivative(a, axis, h):
    near = _ref_shift(a, -1, axis) - _ref_shift(a, 1, axis)
    far = _ref_shift(a, -2, axis) - _ref_shift(a, 2, axis)
    return (8.0 * near - far) / (12.0 * h)


def _ref_laplacian(a, spacings):
    out = np.zeros_like(a)
    for ax, h in enumerate(spacings):
        out -= _ref_second_derivative(a, ax, h)
    return out


def _ref_lee_pairing(alpha_values, a, spacings):
    out = np.zeros_like(a)
    for ax, h in enumerate(spacings):
        out += alpha_values[ax] * _ref_first_derivative(a, ax, h)
    return out


@pytest.mark.parametrize(
    "dims",
    [(8,), (16,), (98,), (8, 8), (96, 96), (10, 16), (8, 12, 10), (8, 10, 12, 14), (12, 12, 12, 12)],
)
def test_stencils_match_roll_reference_bitwise(dims):
    from kwtorus import operators

    spec = GridSpec(dims)
    spacings = spec.spacings
    rng = np.random.default_rng(sum(dims))
    a = rng.standard_normal(dims) * 10.0 ** rng.integers(-3, 4, size=dims)
    for ax, h in enumerate(spacings):
        unit = operators._unit(len(dims), ax)
        assert operators._lee_pairing(unit, a, spacings).tobytes() == \
            _ref_first_derivative(a, ax, h).tobytes()
    for field in (a, np.full(dims, 4.2)):
        assert operators._laplacian(field, spacings).tobytes() == \
            _ref_laplacian(field, spacings).tobytes()
    rank = len(dims)
    alphas = [
        [np.zeros(dims)] * rank,
        [np.full(dims, 0.1 * (ax + 1)) for ax in range(rank)],
        # variable, constant and zero components mixed
        [rng.standard_normal(dims) if ax % 3 == 0 else
         (np.full(dims, -0.05) if ax % 3 == 1 else np.zeros(dims))
         for ax in range(rank)],
    ]
    for alpha in alphas:
        assert operators._lee_pairing(alpha, a, spacings).tobytes() == \
            _ref_lee_pairing(alpha, a, spacings).tobytes()


def _multi_slab_dims(rank):
    """Dims of the given rank that the blocked kernels cut into at least
    three slabs along axis 0, the last one partial; sized from the slab
    budget, so they follow it."""
    from kwtorus import operators

    points = operators.SLAB_BYTES // (operators.SLAB_BUFFERS * 8 * 3)
    tail = (max(8, int(points ** (1.0 / (rank - 1)))),) * (rank - 1)
    rows = operators._slab_rows((10**6,) + tail)
    return (3 * rows + 1,) + tail


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_blocked_stencils_match_roll_reference_bitwise(rank):
    from kwtorus import operators

    dims = _multi_slab_dims(rank)
    slabs = operators._slabs(dims)
    assert len(slabs) >= 3
    assert slabs[-1].stop - slabs[-1].start < slabs[0].stop - slabs[0].start
    spec = GridSpec(dims)
    spacings = spec.spacings
    rng = np.random.default_rng(rank)
    a = rng.standard_normal(dims) * 10.0 ** rng.integers(-3, 4, size=dims)
    lap = _ref_laplacian(a, spacings)
    assert operators._laplacian(a, spacings).tobytes() == lap.tobytes()
    squared = np.zeros(dims)
    for ax, h in enumerate(spacings):
        g = _ref_first_derivative(a, ax, h)
        squared += g * g
    assert grad_squared(ScalarField(spec, a)).values.tobytes() == squared.tobytes()
    # drift components of every kind: zero (None), constant (float) and
    # variable (array), in every position
    values = [np.zeros(dims), np.full(dims, -0.3), rng.standard_normal(dims)]
    kinds = [type(None), float, np.ndarray]
    for shift in range(3):
        comps = [values[(ax + shift) % 3] for ax in range(rank)]
        alpha = OneForm(spec, tuple(ScalarField(spec, v) for v in comps))
        coeffs = alpha.coefficients
        assert [type(c) for c in coeffs] == [kinds[(ax + shift) % 3] for ax in range(rank)]
        pairing = _ref_lee_pairing(comps, a, spacings)
        assert operators._lee_pairing(coeffs, a, spacings).tobytes() == pairing.tobytes()
        for reaction in (0.0, 1.7, rng.uniform(0.5, 2.0, size=dims)):
            expect = lap + pairing
            expect += reaction * a
            assert (_apply(alpha, a) + reaction * a).tobytes() == expect.tobytes()
        div = np.zeros(dims)
        for ax, h in enumerate(spacings):
            div += _ref_first_derivative(comps[ax], ax, h)
        assert divergence(alpha).values.tobytes() == div.tobytes()


@pytest.mark.parametrize("one_row_slabs", [False, True], ids=["budget", "one-row"])
@pytest.mark.parametrize("zero_mode_null", [False, True], ids=["shifted", "meanzero"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fft_inverse_divides_slab_by_slab_bitwise(rank, zero_mode_null, one_row_slabs,
                                                  monkeypatch):
    # the FFT solve forms symbol + shift one slab at a time, and divides
    # there: the same bytes as dividing by a whole denominator.  One-row
    # slabs cut every spectrum of rank >= 2 into many slabs, whatever the
    # budget leaves whole
    from kwtorus import operators
    from kwtorus.linsolve import _fft_inverse

    dims = (64,) if rank == 1 else _multi_slab_dims(rank)
    if one_row_slabs:
        monkeypatch.setattr(operators, "SLAB_BYTES", 1)
    spec = GridSpec(dims)
    drift = tuple(0.1 * (ax + 1) for ax in range(rank))
    shift = 0.0 if zero_mode_null else 1.3
    zero = (0,) * rank
    b = np.random.default_rng(rank).standard_normal(dims)
    laps, derivs = _rfft_symbols(spec)
    denom = sum(laps) + shift + 1j * sum(a * d for a, d in zip(drift, derivs))
    spectrum = np.fft.rfftn(b)
    if zero_mode_null:
        denom[zero] = 1.0
        spectrum[zero] = 0.0
    expect = np.fft.irfftn(spectrum / denom, dims, axes=range(rank))
    if rank > 1:
        slabs = operators._slabs(denom.shape)
        assert len(slabs) == dims[0] if one_row_slabs else len(slabs) >= 2
    solve = _fft_inverse(spec, drift, shift, zero_mode_null)
    assert solve(b).tobytes() == expect.tobytes()
    out = np.empty(dims)
    assert solve(b, out=out) is out
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("one_row_slabs", [False, True], ids=["budget", "one-row"])
@pytest.mark.parametrize("zero_mode_null", [False, True], ids=["shifted", "meanzero"])
@pytest.mark.parametrize("drift", ["zero", "constant"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fft_solve_into_work_matches_the_whole_symbol_bitwise(rank, drift, zero_mode_null,
                                                              one_row_slabs, monkeypatch):
    # each slab's denominator is head + tail + shift from the cached
    # factors, and the spectrum lives in the caller's work memory: the
    # same bytes as the whole symbol sum(laps) + 1j * sum(a d) + shift and
    # irfftn(rfftn(b) / denominator).  The drift has zero and negative
    # components, whose products with the symbols carry signed zeros
    from kwtorus import operators
    from kwtorus.linsolve import _drift_symbol, _fft_inverse

    dims = (64,) if rank == 1 else _multi_slab_dims(rank)
    if one_row_slabs:
        monkeypatch.setattr(operators, "SLAB_BYTES", 1)
    spec = GridSpec(dims)
    alpha_const = (0.0,) * rank if drift == "zero" else (-0.3, 0.0, 0.2, 0.1)[:rank]
    shift = 0.0 if zero_mode_null else 1.3
    zero = (0,) * rank
    laps, derivs = _rfft_symbols(spec)
    whole = sum(laps) + shift + 1j * sum(a * d for a, d in zip(alpha_const, derivs))
    head, tail = _drift_symbol(spec, alpha_const)
    for rows in operators._slabs(whole.shape):
        assert (head[rows] + tail + shift).tobytes() == whole[rows].tobytes()
    b = np.random.default_rng(rank).standard_normal(dims)
    spectrum = np.fft.rfftn(b)
    if zero_mode_null:
        whole[zero] = 1.0
        spectrum[zero] = 0.0
    expect = np.fft.irfftn(spectrum / whole, dims, axes=range(rank))
    solve = _fft_inverse(spec, alpha_const, shift, zero_mode_null)
    work = np.full((2,) + dims, np.nan)  # what work held before is never read
    out = np.empty(dims)
    assert solve(b, out=out, work=work) is out
    assert out.tobytes() == expect.tobytes()
    assert solve(b, work=work).tobytes() == expect.tobytes()


def test_fft_solve_holds_no_grid_sized_symbol_or_spectrum():
    # at 24^4 the cached symbol is a head over the first three axes and a
    # 1-D tail, under 0.1 of a field (a whole complex symbol is 1.08
    # fields); a solve into work allocates at most slab scratch, and one
    # without work frees its own spectrum on return
    import tracemalloc

    from kwtorus import operators
    from kwtorus.linsolve import _drift_symbol, _fft_inverse

    spec = GridSpec((24, 24, 24, 24))
    drift = (0.1, 0.0, 0.05, 0.0)
    b = np.random.default_rng(0).standard_normal(spec.dims)
    out, work = np.empty(spec.dims), np.empty((2,) + spec.dims)
    _drift_symbol.cache_clear()
    tracemalloc.start()
    try:
        _drift_symbol(spec, drift)
        cached = tracemalloc.get_traced_memory()[0]
        solve = _fft_inverse(spec, drift, 1.3, False)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve(b, out=out, work=work)
        into_work = tracemalloc.get_traced_memory()[1] - held
        solve(b, out=out)
        kept = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert cached < 0.1 * b.nbytes
    assert into_work <= operators.SLAB_BYTES
    assert kept <= operators.SLAB_BYTES


def test_apply_and_fft_solve_allocate_few_fields():
    # 24^4 fields exceed a core's L2 cache; the blocked stencils keep slab
    # scratch only, and an FFT solve transforms in the work memory its
    # caller owns (GMRES basis rows), allocated here before the window
    import tracemalloc

    from kwtorus.linsolve import _fft_inverse

    spec = GridSpec((24, 24, 24, 24))
    a = np.random.default_rng(0).standard_normal(spec.dims)
    drift = (0.1, 0.0, 0.05, 0.0)
    alpha = OneForm.constant(spec, drift)
    alpha.coefficients  # classified with the form, not per apply
    solve = _fft_inverse(spec, drift, 1.3, False)
    work = np.empty((2,) + spec.dims)
    reaction = np.full(spec.dims, 1.3)
    tracemalloc.start()
    try:
        out = _apply(alpha, a)
        out += reaction * a
        del out  # freed before the FFT solve's window
        apply_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solve(a, work=work)
        fft_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert apply_peak <= 4.0 * a.nbytes
    assert fft_peak <= 1.5 * a.nbytes


def test_mean_and_lp_norm_of_huge_fields_stay_finite():
    # the sums overflow although the results are finite
    f = make_field(GridSpec((16,)), 1e308)
    assert mean(f) == 1e308
    assert lp_norm(f, 4.0) == pytest.approx(1e308)


# ---------------------------------------------------------------------------
# stencil properties on grids of every rank
# ---------------------------------------------------------------------------

@st.composite
def grids(draw):
    rank = draw(st.integers(1, 4))
    sizes = (8, 10) if rank == 4 else (8, 10, 12, 16)
    return GridSpec(tuple(draw(st.sampled_from(sizes)) for _ in range(rank)))


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("dims", [(8,), (8, 10), (8, 10, 8), (8, 8, 10, 8)])
def test_apply_skips_the_stencils_on_constants_bit_for_bit(dims, monkeypatch):
    # the stencils map a constant to exactly +0.0 while twice it is finite
    # and to a non-finite field above about 9e307; _apply gives the same
    # bits, sign of zero included, and runs them only in the second case
    from kwtorus import linsolve, operators

    spec = GridSpec(dims)
    rank = len(dims)
    rng = np.random.default_rng(rank)
    forms = [
        OneForm.zero(spec),
        OneForm.constant(spec, tuple(0.2 * ax - 0.3 for ax in range(rank))),
        OneForm(spec, tuple(random_smooth_field(spec, rng) for _ in range(rank))),
    ]
    levels = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308]
    calls = []
    real = linsolve._laplacian
    monkeypatch.setattr(linsolve, "_laplacian", lambda *args: calls.append(1) or real(*args))
    for alpha in forms:
        for level in levels:
            a = np.full(dims, level)
            for reaction in (0.0, -1.5, np.full(dims, 2.0)):
                with np.errstate(over="ignore", invalid="ignore"):
                    expect = operators._laplacian(a, spec.spacings)
                    expect += operators._lee_pairing(alpha.coefficients, a, spec.spacings)
                    calls.clear()
                    out = _apply(alpha, a)
                    if not (np.isscalar(reaction) and reaction == 0.0):
                        expect += reaction * a
                        out += reaction * a
                assert out.tobytes() == expect.tobytes()
                assert np.all(np.isfinite(out)) == (abs(level) < 1e308)
                assert len(calls) == (abs(level) == 1e308)


@settings(derandomize=True, deadline=None)
@given(spec=grids(), level=st.floats(-1e300, 1e300), seed=seeds)
def test_stencils_map_constants_to_zero(spec, level, seed):
    rng = np.random.default_rng(seed)
    alpha = OneForm(spec, tuple(random_smooth_field(spec, rng) for _ in range(spec.rank)))
    out = _apply(alpha, np.full(spec.dims, level))
    assert np.all(out == 0.0)


@settings(derandomize=True, deadline=None)
@given(spec=grids(), data=st.data())
def test_apply_on_fourier_mode_is_symbol_times_mode(spec, data):
    # rfftn layout: signed wave numbers on every axis but the last, which
    # holds 0..n/2
    mode = [data.draw(st.integers(-(n // 2) + 1, n // 2)) for n in spec.dims[:-1]]
    mode.append(data.draw(st.integers(0, spec.dims[-1] // 2)))
    drift = [data.draw(st.floats(-2.0, 2.0)) for _ in range(spec.rank)]
    reaction = data.draw(st.floats(0.0, 10.0))
    laps, derivs = _rfft_symbols(spec)
    lap = sum(laps)
    index = tuple(k % n for k, n in zip(mode, spec.dims))
    symbol = complex(lap[index]) + reaction
    for ax, (a, d) in enumerate(zip(drift, derivs)):
        symbol += 1j * a * complex(d[tuple(k if i == ax else 0 for i, k in enumerate(index))])
    phase = sum(k * x for k, x in zip(mode, spec.coords()))
    alpha = OneForm.constant(spec, drift)
    # the operator is real: A cos = Re(symbol e^{i phase})
    mode_values = np.cos(phase) + np.zeros(spec.dims)
    out = _apply(alpha, mode_values) + reaction * mode_values
    expect = symbol.real * np.cos(phase) - symbol.imag * np.sin(phase)
    assert np.max(np.abs(out - expect)) <= 1e-11 * (1.0 + abs(symbol))


@settings(derandomize=True, deadline=None)
@given(spec=grids(), seed=seeds, amplitude=st.floats(0.0, 5.0))
def test_co_closed_drift_operator_image_has_mean_zero(spec, seed, amplitude):
    rng = np.random.default_rng(seed)
    alpha = divergence_free_form(spec, rng, amplitude)
    assert gauduchon_defect(alpha) == 0.0
    f = random_smooth_field(spec, rng, band=3)
    out = _apply(alpha, f.values)
    assert abs(float(np.mean(out))) <= 1e-13 * (1.0 + float(np.max(np.abs(out))))


@pytest.mark.parametrize("values", [(0.0, 0.0), (0.3, 0.0), (-1.5, 2.0)])
def test_constant_form_defect_skips_the_stencil(monkeypatch, values):
    # the first-difference stencil maps constants to exactly 0, so a
    # constant form's defect is 0 without running it; a varying form runs
    # it once, and both agree with the sup of the divergence
    import kwtorus.operators as operators

    spec = GridSpec((16, 16))
    calls = [0]
    real = operators._lee_pairing

    def spy(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    constant = OneForm.constant(spec, values)
    varying = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.4 * np.sin(x1) + values[0]),
        field_from(spec, lambda x0, x1: 0.2 * np.cos(x0 + x1)),
    ))
    expect = [float(np.max(np.abs(divergence(a).values))) for a in (constant, varying)]
    monkeypatch.setattr(operators, "_lee_pairing", spy)
    assert gauduchon_defect(constant) == expect[0] == 0.0
    assert calls[0] == 0
    assert gauduchon_defect(varying) == expect[1] > 0.0
    assert calls[0] == spec.rank
    # kept on the form: asking again runs no stencil
    assert gauduchon_defect(varying) == expect[1]
    assert calls[0] == spec.rank
