import numpy as np
import pytest

from kwtorus import (
    GridSpec,
    LinearOptions,
    OneForm,
    ScalarField,
    SolvabilityError,
    chern_laplacian,
    estimate_gamma,
    make_field,
    solve_meanzero,
    solve_shifted,
)
from helpers import divergence_free_form, field_from
from kwtorus.linsolve import _apply, _solve_system, random_smooth_field


def shifted(alpha, shift, u):
    """(laplacian + <alpha, d.> + shift) u."""
    return chern_laplacian(alpha, u).values + shift * u.values


def test_apply_constant_kill():
    spec = GridSpec((64,))
    out = shifted(OneForm.constant(spec, (0.3,)), 1.0, make_field(spec, 1.0))
    assert np.max(np.abs(out - 1.0)) < 1e-14


def test_apply_sin_oracles():
    spec = GridSpec((256,))
    f = field_from(spec, lambda x: np.sin(x))
    assert np.max(np.abs(shifted(OneForm.zero(spec), 0.0, f) - f.values)) < 1e-7
    expect = field_from(spec, lambda x: 3 * np.sin(x) + np.cos(x))
    out = shifted(OneForm.constant(spec, (1.0,)), 2.0, f)
    assert np.max(np.abs(out - expect.values)) < 1e-7


def test_apply_linear():
    spec = GridSpec((32, 32))
    rng = np.random.default_rng(11)
    alpha = divergence_free_form(spec, rng)
    u = random_smooth_field(spec, rng)
    v = random_smooth_field(spec, rng)
    lhs = shifted(alpha, 0.7, ScalarField(spec, u.values + 2.0 * v.values))
    rhs = shifted(alpha, 0.7, u) + 2.0 * shifted(alpha, 0.7, v)
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
    back = shifted(alpha, mu, u)
    assert np.max(np.abs(back - f.values)) <= 1e-10 * (1 + np.max(np.abs(f.values)))
    assert stats.converged


def test_gmres_matches_direct_path(monkeypatch):
    # the FFT shortcut and the preconditioned iteration must agree: the
    # same constant reaction given as an array takes the GMRES path
    import kwtorus.linsolve as linsolve

    calls = []
    real = linsolve.gmres
    monkeypatch.setattr(linsolve, "gmres", lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(13)
    spec = GridSpec((64,))
    alpha = OneForm.constant(spec, (0.4,))
    f = random_smooth_field(spec, rng)
    x_direct, _ = _solve_system(alpha, 1.3, f.values)
    assert not calls
    x_gmres, st = _solve_system(alpha, np.full(spec.dims, 1.3), f.values)
    assert calls
    assert st.converged
    assert np.max(np.abs(x_direct - x_gmres)) < 1e-9


def test_variable_drift_meanzero_solve_stops_on_its_contract(monkeypatch):
    # the supersolution's mean-zero solve of solve --dims 208,208 with the
    # drift-2d fields at the phases of the benchmark's seed 1, op 0.  Asked
    # for a 2-norm reduction by tol / sqrt(n), GMRES cannot reach it and
    # stalls for thousands of iterations; the sup-norm contract takes a few
    # and leaves every GMRES call at a target it reached
    import kwtorus.linsolve as linsolve

    infos = []
    real = linsolve.gmres

    def spy(*args, **kwargs):
        x, info = real(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(linsolve, "gmres", spy)
    spec = GridSpec((208, 208))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.2 * np.sin(x1 + 5.971940)),
        field_from(spec, lambda x0, x1: 0.2 * np.cos(x0 + 0.905782)),
    ))
    phi = field_from(spec, lambda x0, x1: -2.0 - 0.6 * np.cos(x0 + 3.215870))
    f = ScalarField(spec, phi.values - np.mean(phi.values))
    lin = LinearOptions(maxiter=200)
    g, stats = solve_meanzero(alpha, f, lin=lin)
    target = lin.tol * (1.0 + np.max(np.abs(f.values)))
    resid = f.values - _apply(alpha, g.values)
    resid -= resid.mean()
    assert stats.converged
    assert np.max(np.abs(resid)) <= target
    assert stats.iterations <= 50
    assert infos and all(info == 0 for info in infos)


def test_sup_norm_stop_restarts_warm_until_the_contract_holds(monkeypatch):
    # a reaction spike concentrates the residual at one point, so a 2-norm
    # reduction by tol leaves the sup residual above tol * (1 + sup|rhs|);
    # the solve restarts from its iterate with a tighter rtol, and its
    # iteration count covers every call
    import kwtorus.linsolve as linsolve

    rtols = []
    inner = [0]
    real = linsolve.gmres

    def spy(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        callback = kwargs["callback"]

        def counting(arg):
            inner[0] += 1
            callback(arg)

        return real(*args, **{**kwargs, "callback": counting})

    monkeypatch.setattr(linsolve, "gmres", spy)
    spec = GridSpec((128, 128))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.3 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 0.3 * np.cos(x0)),
    ))
    reaction = np.ones(spec.dims)
    reaction[3, 4] = 1000.0
    rhs = field_from(spec, lambda x0, x1: np.cos(x0) * np.sin(x1) + 0.5).values
    lin = LinearOptions()
    x, stats = _solve_system(alpha, reaction, rhs, lin=lin)
    resid = rhs - _apply(alpha, x, reaction)
    assert stats.converged
    assert np.max(np.abs(resid)) <= lin.tol * (1.0 + np.max(np.abs(rhs)))
    assert len(rtols) >= 2
    assert rtols[0] == lin.tol
    assert all(b <= 0.1 * a for a, b in zip(rtols, rtols[1:]))
    assert stats.iterations == inner[0]


@pytest.mark.parametrize("rtol", [None, 1e-12])
@pytest.mark.parametrize("budget", [1, 3, 51])
def test_krylov_budget_is_honoured_exactly(budget, rtol):
    # a strong variable drift leaves the preconditioned GMRES solve of a
    # noisy right-hand side well over 51 iterations (140 with rtol None,
    # 170 with 1e-12), so every budget binds: in both stop modes the solve
    # spends its budget, in cycles shortened to fit, and never exceeds it
    spec = GridSpec((32, 32))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 20.0 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 20.0 * np.cos(x0)),
    ))
    rhs = np.random.default_rng(3).standard_normal(spec.dims)
    lin = LinearOptions(maxiter=budget)
    _, stats = _solve_system(alpha, 1.0, rhs, lin=lin, rtol=rtol)
    assert not stats.converged
    assert stats.iterations == budget


@pytest.mark.parametrize("array_reaction", [False, True], ids=["scalar", "array"])
def test_stencil_stays_out_of_the_krylov_loop(monkeypatch, array_reaction):
    # GMRES sees only the remainder <alpha - mean alpha, d.> + reaction -
    # shift after the FFT inverse of the constant part, so the Laplacian
    # runs once per GMRES call (for the true residual), not per iteration
    import kwtorus.linsolve as linsolve

    laps, calls = [0], [0]
    real_lap, real_gmres = linsolve._laplacian, linsolve.gmres

    def lap(*args, **kwargs):
        laps[0] += 1
        return real_lap(*args, **kwargs)

    def spy(*args, **kwargs):
        calls[0] += 1
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(linsolve, "_laplacian", lap)
    monkeypatch.setattr(linsolve, "gmres", spy)
    spec = GridSpec((32, 32))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 5.0 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 5.0 * np.cos(x0)),
    ))
    reaction = 1.0
    if array_reaction:
        reaction = field_from(spec, lambda x0, x1: 1.0 + 0.5 * np.cos(x0 + x1)).values
    rhs = random_smooth_field(spec, np.random.default_rng(5)).values
    _, stats = _solve_system(alpha, reaction, rhs)
    assert stats.converged
    assert stats.iterations >= 10 * calls[0]
    assert laps[0] == calls[0]


def test_krylov_solve_makes_one_fft_solve_per_iteration_plus_one(monkeypatch):
    # x0 = P rhs is the only FFT solve outside the Krylov loop: each
    # iteration keeps z_k = P v_k, so neither a restart nor the final x
    # costs another
    import kwtorus.linsolve as linsolve

    built, applies = [0], [0]
    real = linsolve._fft_inverse

    def factory(*args, **kwargs):
        built[0] += 1
        solve = real(*args, **kwargs)

        def counted(b):
            applies[0] += 1
            return solve(b)

        return counted

    monkeypatch.setattr(linsolve, "_fft_inverse", factory)
    spec = GridSpec((32, 32))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 5.0 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 5.0 * np.cos(x0)),
    ))
    reaction = field_from(spec, lambda x0, x1: 1.0 + 0.5 * np.cos(x0 + x1)).values
    rhs = random_smooth_field(spec, np.random.default_rng(5)).values
    _, stats = _solve_system(alpha, reaction, rhs)
    assert stats.converged
    assert stats.iterations >= 10
    assert built[0] == 1
    assert applies[0] == stats.iterations + 1


@pytest.mark.parametrize("restart", [50, 3])
def test_gmres_matches_dense_solve(restart, monkeypatch):
    # a nonsymmetric 12 x 12 system with a Jacobi preconditioner; restart 3
    # runs several cycles, each started from the Arnoldi residual
    import kwtorus.linsolve as linsolve

    monkeypatch.setattr(linsolve, "GMRES_RESTART", restart)

    rng = np.random.default_rng(21)
    n = 12
    a = np.diag(rng.uniform(2.0, 6.0, n)) + 0.4 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    diag = np.diag(a).copy()

    def matvec(v):
        z = v / diag
        return z, a @ z

    estimates = []
    x, info = linsolve.gmres(
        matvec, b, np.zeros(n), b.copy(), rtol=1e-13, maxiter=200,
        callback=estimates.append,
    )
    expect = np.linalg.solve(a, b)
    assert info == 0
    assert np.max(np.abs(x - expect)) <= 1e-11 * np.max(np.abs(expect))
    assert estimates[-1] <= 1e-13 * np.linalg.norm(b)
    assert len(estimates) <= (n if restart >= n else 200)


def test_gmres_stops_on_breakdown():
    # b = e0 and a block-diagonal A: the Krylov space closes after two
    # iterations, exactly, and GMRES stops there with the solution although
    # rtol = 0 can never be met by a residual estimate
    import kwtorus.linsolve as linsolve

    a = np.zeros((6, 6))
    a[:2, :2] = [[3.0, 1.0], [2.0, 4.0]]
    a[2:, 2:] = np.diag([5.0, 6.0, 7.0, 8.0]) + np.eye(4, k=1)
    b = np.zeros(6)
    b[0] = 1.0
    estimates = []
    x, info = linsolve.gmres(
        lambda v: (v.copy(), a @ v), b, np.zeros(6), b.copy(), rtol=0.0,
        maxiter=50, callback=estimates.append,
    )
    assert info == 0
    assert len(estimates) == 2
    assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-15


def test_gmres_returns_at_once_when_the_start_meets_its_target():
    import kwtorus.linsolve as linsolve

    calls = []
    x0 = np.ones(4)
    x, info = linsolve.gmres(
        lambda v: calls.append(1), np.ones(4), x0, np.zeros(4), rtol=1e-10,
        maxiter=10, callback=calls.append,
    )
    assert (x is x0, info, calls) == (True, 0, [])


def test_fft_symbol_is_built_once_per_grid_and_drift(monkeypatch):
    # P's symbol Delta + i <abar, k> is cached per (grid, mean drift), and
    # each solve adds its own shift: the same bytes as building it whole
    import kwtorus.linsolve as linsolve

    builds = [0]
    real = linsolve._rfft_symbols

    def spy(*args, **kwargs):
        builds[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(linsolve, "_rfft_symbols", spy)
    linsolve._drift_symbol.cache_clear()
    spec = GridSpec((24, 16))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.4 + 0.3 * np.sin(x1)),
        field_from(spec, lambda x0, x1: -0.25 + 0.3 * np.cos(x0)),
    ))
    rhs = random_smooth_field(spec, np.random.default_rng(8)).values
    first, _ = _solve_system(alpha, 1.3, rhs)
    again, _ = _solve_system(alpha, 1.3, rhs)
    _solve_system(alpha, 0.7, rhs)
    assert first.tobytes() == again.tobytes()
    assert builds[0] == 1
    drift = tuple(float(np.mean(c.values)) for c in alpha.components)
    lap, derivs = real(spec)
    whole = np.asarray(lap + 1.3 + 1j * sum(a * d for a, d in zip(drift, derivs)), complex)
    assert (linsolve._drift_symbol(spec, drift) + 1.3).tobytes() == whole.tobytes()
    assert builds[0] == 1


def test_cli_import_loads_no_scipy():
    # in a fresh interpreter: GMRES is kwtorus's own, so the CLI's start-up
    # pays for no scipy.sparse.linalg import
    import os
    import subprocess
    import sys
    from pathlib import Path

    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, kwtorus.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_overflowed_newton_inner_solve_is_not_converged():
    # a residual near the float range overflows its 2-norm and the norm of
    # the right-hand side alike; inf <= rtol * inf must not pass as converged
    spec = GridSpec((16,))
    rhs = 1e300 * np.where(np.arange(16) % 2, 1.0, -1.0)
    _, st = _solve_system(OneForm.zero(spec), np.full(16, -2.0), rhs, rtol=1e-6)
    assert not st.converged
    assert st.residual_sup > 1e299


def test_variable_alpha_meanzero():
    rng = np.random.default_rng(14)
    spec = GridSpec((32, 32))
    alpha = divergence_free_form(spec, rng, amplitude=0.5)
    assert any(isinstance(v, np.ndarray) for v in alpha.coefficients)
    f = random_smooth_field(spec, rng)
    f = ScalarField(spec, f.values - np.mean(f.values))
    g, stats = solve_meanzero(alpha, f)
    assert stats.converged
    from kwtorus.linsolve import _apply

    resid = f.values - _apply(alpha, g.values)
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
