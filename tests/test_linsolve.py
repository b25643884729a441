import numpy as np
import pytest

from kwtorus import (
    GridSpec,
    LinearOperatorSpec,
    LinearOptions,
    OneForm,
    ScalarField,
    SolvabilityError,
    apply_operator,
    estimate_gamma,
    make_field,
    solve_meanzero,
    solve_shifted,
)
from helpers import divergence_free_form, field_from
from kwtorus.linsolve import _solve_system, random_smooth_field


def test_apply_constant_kill():
    spec = GridSpec((64,))
    op = LinearOperatorSpec(OneForm.constant(spec, (0.3,)), shift=1.0)
    out = apply_operator(op, make_field(spec, 1.0))
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_apply_sin_oracles():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    op0 = LinearOperatorSpec(OneForm.zero(spec), shift=0.0)
    assert np.max(np.abs(apply_operator(op0, f).values - f.values)) < 1e-7
    op2 = LinearOperatorSpec(OneForm.constant(spec, (1.0,)), shift=2.0)
    expect = field_from(spec, lambda x: 3 * np.sin(x) + np.cos(x))
    assert np.max(np.abs(apply_operator(op2, f).values - expect.values)) < 1e-7


def test_apply_linear():
    spec = GridSpec((32, 32))
    rng = np.random.default_rng(11)
    alpha = divergence_free_form(spec, rng)
    op = LinearOperatorSpec(alpha, shift=0.7)
    u = random_smooth_field(spec, rng)
    v = random_smooth_field(spec, rng)
    lhs = apply_operator(op, ScalarField(spec, u.values + 2.0 * v.values)).values
    rhs = apply_operator(op, u).values + 2.0 * apply_operator(op, v).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def test_solve_meanzero_zero_rhs():
    spec = GridSpec((32,))
    g, stats = solve_meanzero(OneForm.zero(spec), make_field(spec, 0.0))
    assert np.all(g.values == 0.0)
    assert stats.converged


def test_solve_meanzero_sin():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    g, stats = solve_meanzero(OneForm.zero(spec), f)
    assert stats.converged
    assert np.max(np.abs(g.values - f.values)) < 1e-6
    assert abs(np.mean(g.values)) < 1e-14


def test_solve_meanzero_with_drift_oracle():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    alpha = OneForm.constant(spec, (0.5,))
    g, _ = solve_meanzero(alpha, f)
    expect = field_from(spec, lambda x: 0.8 * np.sin(x) - 0.4 * np.cos(x))
    assert np.max(np.abs(g.values - expect.values)) < 1e-6


def test_solve_meanzero_rejects_nonzero_mean():
    spec = GridSpec((32,))
    with pytest.raises(SolvabilityError, match="solvability"):
        solve_meanzero(OneForm.zero(spec), make_field(spec, 0.5))


def test_solve_shifted_constant_balance():
    spec = GridSpec((32,))
    u, stats = solve_shifted(OneForm.zero(spec), 4.0, make_field(spec, 2.0))
    assert np.max(np.abs(u.values - 0.5)) < 1e-12
    assert stats.converged


def test_solve_shifted_oracles():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    u, _ = solve_shifted(OneForm.zero(spec), 1.0, f)
    assert np.max(np.abs(u.values - 0.5 * f.values)) < 1e-7
    g = field_from(spec, lambda x: np.cos(x))
    u2, _ = solve_shifted(OneForm.constant(spec, (1.0,)), 1.0, g)
    expect = field_from(spec, lambda x: 0.2 * np.sin(x) + 0.4 * np.cos(x))
    assert np.max(np.abs(u2.values - expect.values)) < 1e-7


def test_solve_then_apply_reproduces_rhs():
    rng = np.random.default_rng(12)
    spec = GridSpec((32, 32))
    alpha = divergence_free_form(spec, rng)
    f = random_smooth_field(spec, rng)
    mu = 0.8
    u, stats = solve_shifted(alpha, mu, f)
    back = apply_operator(LinearOperatorSpec(alpha, mu), u)
    assert np.max(np.abs(back.values - f.values)) <= 1e-10 * (1 + np.max(np.abs(f.values)))
    assert stats.converged


def test_gmres_matches_direct_path():
    # the FFT shortcut and the preconditioned iteration must agree
    rng = np.random.default_rng(13)
    spec = GridSpec((64,))
    alpha = OneForm.constant(spec, (0.4,))
    f = random_smooth_field(spec, rng)
    x_direct, _ = _solve_system(
        spec, alpha, 1.3, f.values, lin=LinearOptions(allow_direct=True)
    )
    x_gmres, st = _solve_system(
        spec, alpha, 1.3, f.values, lin=LinearOptions(allow_direct=False)
    )
    assert st.converged
    assert np.max(np.abs(x_direct - x_gmres)) < 1e-9
    x_plain, st2 = _solve_system(
        spec, alpha, 1.3, f.values,
        lin=LinearOptions(allow_direct=False, precondition=False),
    )
    assert st2.converged
    assert np.max(np.abs(x_direct - x_plain)) < 1e-9


def test_variable_alpha_meanzero():
    rng = np.random.default_rng(14)
    spec = GridSpec((32, 32))
    alpha = divergence_free_form(spec, rng, amplitude=0.5)
    assert alpha.constant_values() is None
    f = random_smooth_field(spec, rng)
    f = ScalarField(spec, f.values - np.mean(f.values))
    g, stats = solve_meanzero(alpha, f)
    assert stats.converged
    from kwtorus.linsolve import _apply

    resid = f.values - _apply(g.values, spec, [c.values for c in alpha.components], 0.0)
    resid -= resid.mean()
    assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(f.values)))


def test_maximum_principle_smoke():
    rng = np.random.default_rng(15)
    spec = GridSpec((64,))
    for _ in range(5):
        base = random_smooth_field(spec, rng, band=2)
        f = ScalarField(spec, base.values**2 + 0.01)
        u, _ = solve_shifted(OneForm.zero(spec), 0.5, f)
        assert np.min(u.values) >= -1e-8 * np.max(f.values)


def test_estimate_gamma_constant_probe():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    gam1 = estimate_gamma(alpha, -1.0, 3.0, 1)
    # single constant probe: u = 1, gradient 0, ratio 1, safety factor 2
    assert np.isclose(gam1, 2.0, rtol=1e-9)
    assert gam1 >= 1.0


def test_estimate_gamma_monotone_in_samples():
    spec = GridSpec((64,))
    alpha = OneForm.constant(spec, (0.2,))
    values = [estimate_gamma(alpha, -0.5, 3.0, k) for k in (1, 2, 4, 8)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-15


def test_estimate_gamma_validates():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    with pytest.raises(ValueError):
        estimate_gamma(alpha, 1.0, 3.0, 2)
    with pytest.raises(ValueError):
        estimate_gamma(alpha, -1.0, 0.5, 2)
    with pytest.raises(ValueError):
        estimate_gamma(alpha, -1.0, 3.0, 0)


def test_estimate_gamma_skips_zero_probe(monkeypatch):
    import kwtorus.linsolve as linsolve

    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)

    def zero_probe(spec_, rng, band=3, amplitude=1.0):
        return make_field(spec_, 0.0)

    monkeypatch.setattr(linsolve, "random_smooth_field", zero_probe)
    # second probe is identically zero: skipped, not an error
    assert estimate_gamma(alpha, -1.0, 3.0, 2) == estimate_gamma(alpha, -1.0, 3.0, 1)


def test_solve_meanzero_insensitive_to_constant_perturbation():
    spec = GridSpec((128,))
    alpha = OneForm.zero(spec)
    f = field_from(spec, lambda x: np.sin(x))
    shifted = ScalarField(spec, f.values + 3e-11)
    g1, _ = solve_meanzero(alpha, f)
    g2, _ = solve_meanzero(alpha, shifted)
    assert np.max(np.abs(g1.values - g2.values)) < 1e-9
