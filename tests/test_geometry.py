import numpy as np
import pytest

from kwtorus import (
    DegenerateError,
    GeometrySetup,
    GridSpec,
    OneForm,
    ScalarField,
    coefficient,
    degenerate_solve,
    gauduchon_degree,
    make_field,
    mean,
    recover_metric,
    reduce_problem,
    transform_s,
    transform_s2,
)
from helpers import field_from


def test_coefficient_values():
    assert coefficient(1, 0.37) == 1.0
    assert coefficient(2, 1.0) == 2.0
    assert coefficient(2, -1.0) == 0.0
    assert GeometrySetup(2, -1.0).degenerate
    assert not GeometrySetup(2, 0.0).degenerate
    # t = 1/(1-n) is the degenerate parameter for every n >= 2
    for n in range(2, 6):
        assert coefficient(n, 1.0 / (1.0 - n)) == pytest.approx(0.0, abs=1e-15)


def test_transform_s_identity_and_constant():
    spec = GridSpec((64,))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.zero(spec)
    s = field_from(spec, lambda x: 1 + 0.3 * np.sin(x))
    assert np.array_equal(transform_s(s, make_field(spec, 0.0), alpha, setup).values, s.values)
    out = transform_s(s, make_field(spec, 0.7), alpha, setup)
    assert np.allclose(out.values, np.exp(-0.7) * s.values, rtol=1e-15)


def test_transform_s_sin_oracle():
    spec = GridSpec((256,))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.zero(spec)
    u = field_from(spec, lambda x: np.sin(x))
    out = transform_s(make_field(spec, 0.0), u, alpha, setup)
    expect = field_from(spec, lambda x: 0.5 * np.exp(-np.sin(x)) * np.sin(x))
    assert np.max(np.abs(out.values - expect.values)) < 1e-7


def test_transform_s_rank4_with_drift():
    spec = GridSpec((8, 8, 8, 8))
    setup = GeometrySetup(2, 0.0)
    alpha = OneForm.constant(spec, (1.0, 0.0, 0.0, 0.0))
    u = field_from(spec, lambda x0, x1, x2, x3: np.cos(x0))
    out = transform_s(make_field(spec, 1.0), u, alpha, setup)
    expect = field_from(
        spec,
        lambda x0, x1, x2, x3: np.exp(-np.cos(x0)) * (1 + 0.5 * (np.cos(x0) - np.sin(x0))),
    )
    h = spec.spacings[0]
    assert np.max(np.abs(out.values - expect.values)) < 5 * h**4


def test_transform_s2_trivial_and_t1():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    s2 = field_from(spec, lambda x: np.cos(x))
    out = transform_s2(s2, make_field(spec, 0.0), alpha, GeometrySetup(2, 0.0))
    assert np.array_equal(out.values, s2.values)
    # at t = 1 the gradient-squared coefficient vanishes algebraically
    setup = GeometrySetup(3, 1.0)
    f = field_from(spec, lambda x: 0.2 * np.sin(x))
    out = transform_s2(make_field(spec, 0.0), f, alpha, setup)
    lap = field_from(spec, lambda x: 0.2 * np.sin(x))
    expect = np.exp(-0.4 * np.sin(spec.axis_coords(0))) * lap.values
    assert np.max(np.abs(out.values - expect)) < 1e-6


def test_transform_s2_gradient_term():
    spec = GridSpec((256,))
    setup = GeometrySetup(2, 0.0)
    alpha = OneForm.zero(spec)
    f = field_from(spec, lambda x: np.sin(x))
    out = transform_s2(make_field(spec, 0.0), f, alpha, setup)
    expect = field_from(
        spec,
        lambda x: np.exp(-2 * np.sin(x)) * (2 * np.sin(x) - 1.5 * np.cos(x) ** 2),
    )
    assert np.max(np.abs(out.values - expect.values)) < 1e-6


def test_gauduchon_degree():
    spec = GridSpec((128,))
    assert gauduchon_degree(make_field(spec, 3.0)) == 3.0
    assert abs(gauduchon_degree(field_from(spec, lambda x: np.sin(x)))) < 1e-14
    assert abs(gauduchon_degree(field_from(spec, lambda x: 1 + np.cos(x))) - 1.0) < 1e-14


def test_reduce_constant_s():
    spec = GridSpec((64,))
    setup = GeometrySetup(2, 1.0)  # k = 2
    alpha = OneForm.zero(spec)
    s = make_field(spec, 0.8)
    s_hat = field_from(spec, lambda x: np.cos(x))
    red, _ = reduce_problem(s, s_hat, alpha, setup)
    assert np.isclose(red.c, 0.8)
    assert np.max(np.abs(red.g.values)) < 1e-12
    assert np.allclose(red.phi.values, s_hat.values, atol=1e-12)


def test_reduce_constant_s_holds_g_as_one_number():
    # s = -1, a constant whose grid mean is exact, makes the right-hand
    # side of g's equation identically zero: g is +0 everywhere, held as
    # one read-only number, and the solve reports no iteration and a zero
    # residual
    spec = GridSpec((16, 16))
    alpha = OneForm.constant(spec, (0.2, -0.1))
    s_hat = field_from(spec, lambda x0, x1: -1.0 - 0.3 * np.cos(x0))
    red, stats = reduce_problem(make_field(spec, -1.0), s_hat, alpha, GeometrySetup(2, 0.0))
    g = red.g.values
    assert not g.flags.writeable
    assert not any(g.strides)
    assert g.tobytes() == np.zeros(spec.dims).tobytes()
    assert (stats.iterations, stats.residual_sup, stats.converged) == (0, 0.0, True)


def test_reduce_sin_oracle():
    spec = GridSpec((256,))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.zero(spec)
    s = field_from(spec, lambda x: -1 + np.sin(x))
    s_hat = make_field(spec, -1.0)
    red, _ = reduce_problem(s, s_hat, alpha, setup)
    assert np.isclose(red.c, -2.0, atol=1e-14)
    expect_g = field_from(spec, lambda x: -2 * np.sin(x))
    assert np.max(np.abs(red.g.values - expect_g.values)) < 1e-6
    assert abs(mean(red.g)) < 1e-13
    expect_phi = -2 * np.exp(expect_g.values)
    assert np.max(np.abs(red.phi.values - expect_phi)) < 1e-5


def test_reduce_rejects_degenerate():
    spec = GridSpec((32,))
    setup = GeometrySetup(2, -1.0)
    with pytest.raises(DegenerateError, match="degenerate"):
        reduce_problem(
            make_field(spec, 1.0), make_field(spec, 1.0), OneForm.zero(spec), setup
        )


def test_recover_metric():
    from kwtorus import ReducedProblem

    spec = GridSpec((32,))
    setup = GeometrySetup(1, 1.0)
    g = field_from(spec, lambda x: np.cos(x))
    w = field_from(spec, lambda x: np.sin(x))
    red = ReducedProblem(c=-1.0, g=g, phi=make_field(spec, -1.0), setup=setup)
    u = recover_metric(w, red)
    assert np.allclose(u.values, w.values + g.values)
    assert np.array_equal(recover_metric(make_field(spec, 0.0), red).values, g.values)


def test_degenerate_solve():
    spec = GridSpec((32,))
    u = degenerate_solve(make_field(spec, 2.0), make_field(spec, 1.0))
    assert np.max(np.abs(u.values - np.log(2.0))) < 1e-15
    f = field_from(spec, lambda x: 1 + 0.5 * np.cos(x))
    assert np.max(np.abs(degenerate_solve(f, f).values)) == 0.0
    with pytest.raises(DegenerateError, match="non-positive ratio"):
        degenerate_solve(make_field(spec, -1.0), make_field(spec, 1.0))
    with pytest.raises(DegenerateError, match="vanishes"):
        degenerate_solve(make_field(spec, 1.0), field_from(spec, lambda x: np.sin(x)))


def test_constant_shift_invariance_of_u():
    # shifting g by a constant rescales phi but leaves u = w + g invariant;
    # solving the same data must give the same u regardless of the mean
    # normalization, checked by comparing two equivalent reduced problems
    from kwtorus import KWProblem, build_subsolution, build_supersolution, monotone_solve

    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    setup = GeometrySetup(1, 1.0)
    s = field_from(spec, lambda x: -1 + 0.2 * np.sin(x))
    s_hat = make_field(spec, -1.0)
    red, _ = reduce_problem(s, s_hat, alpha, setup)
    kappa = 0.37
    phi_shifted = ScalarField(spec, red.phi.values * np.exp(kappa))

    def solve(phi):
        prob = KWProblem(alpha, red.c, phi)
        wm = build_subsolution(prob)
        wp = build_supersolution(prob)
        return monotone_solve(prob, wm, wp, maxiter=2000).solution

    w1 = solve(red.phi)
    w2 = solve(phi_shifted)
    # u = w + g: with g shifted by kappa, w shifts by -kappa
    assert np.max(np.abs((w2.values + kappa) - w1.values)) < 1e-7
