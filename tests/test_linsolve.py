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
from kwtorus.linsolve import (
    _apply,
    _round_off,
    _solve_system,
    _stencil_norm,
    _sup,
    random_smooth_field,
)


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
        iterations, info = real(*args, **kwargs)
        infos.append(info)
        return iterations, info

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
    # iteration count sums the counts of every call
    import kwtorus.linsolve as linsolve

    rtols = []
    inner = [0]
    real = linsolve.gmres

    def spy(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        iterations, info = real(*args, **kwargs)
        inner[0] += iterations
        return iterations, info

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
    resid = rhs - (_apply(alpha, x) + reaction * x)
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

        def counted(b, out=None, work=None):
            applies[0] += 1
            return solve(b, out=out, work=work)

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


@pytest.mark.parametrize("reaction_kind", ["scalar", "array"])
@pytest.mark.parametrize("drift_kind", ["constant", "varying"])
@pytest.mark.parametrize("rtol", [None, 1e-8], ids=["contract", "newton"])
def test_slab_cut_changes_no_bit_of_a_solve(rtol, drift_kind, reaction_kind, monkeypatch):
    # the stencils, the FFT solve's divide and GMRES's updates run slab by
    # slab; one-row slabs and one whole slab give the same bits.  Cycles of
    # 4 restart GMRES several times, each from the residual left in r
    import kwtorus.linsolve as linsolve
    from kwtorus import operators

    monkeypatch.setattr(linsolve, "GMRES_RESTART", 4)
    spec = GridSpec((10, 8, 12))
    if drift_kind == "constant":
        alpha = OneForm.constant(spec, (0.3, 0.0, -0.2))
    else:
        alpha = OneForm(spec, (
            field_from(spec, lambda x0, x1, x2: 0.3 * np.sin(x1)),
            make_field(spec, 0.0),
            field_from(spec, lambda x0, x1, x2: -0.2 + 0.4 * np.cos(x0 + x1)),
        ))
    reaction = 1.3
    if reaction_kind == "array":
        reaction = field_from(spec, lambda x0, x1, x2: 1.0 + 0.5 * np.cos(x0 + x2)).values
    rhs = random_smooth_field(spec, np.random.default_rng(9)).values
    solves = []
    for slab_bytes in (1, 1 << 40):
        monkeypatch.setattr(operators, "SLAB_BYTES", slab_bytes)
        assert len(operators._slabs(spec.dims)) == (10 if slab_bytes == 1 else 1)
        solves.append(_solve_system(alpha, reaction, rhs, rtol=rtol))
    (x1, st1), (x2, st2) = solves
    assert st1.converged
    assert x1.tobytes() == x2.tobytes()
    assert st1.image.tobytes() == st2.image.tobytes()
    assert (st1.residual_sup, st1.iterations) == (st2.residual_sup, st2.iterations)


def test_long_krylov_solve_holds_few_fields(monkeypatch):
    # a 16^4 inexact-Newton solve of 74 Krylov iterations over cycles of 4,
    # against a reaction near -1 that leaves P far from A.  Each iteration
    # builds A z_j in its basis row, z_0 lives in the residual's storage,
    # and the updates and P's divide use slab scratch: about 14 fields.  A
    # fresh A z_j beside the basis, a whole-field scratch, and a held
    # reaction - shift and denominator trace about 17.4
    import tracemalloc

    import kwtorus.linsolve as linsolve

    monkeypatch.setattr(linsolve, "GMRES_RESTART", 4)
    spec = GridSpec((16, 16, 16, 16))
    alpha = OneForm.constant(spec, (0.1, 0.0, 0.05, 0.0))
    reaction = field_from(
        spec, lambda x0, x1, x2, x3: -(1.0 + 0.9 * np.sin(x0) * np.cos(x2))
    ).values
    rhs = np.random.default_rng(3).standard_normal(spec.dims)
    linsolve._drift_symbol.cache_clear()  # its build counts, whatever ran before
    tracemalloc.start()
    try:
        _, stats = _solve_system(alpha, reaction, rhs, rtol=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.converged
    assert stats.iterations == 74
    assert peak <= 15.5 * rhs.nbytes


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

    def matvec(v, w, out=None, work=None):
        z = np.divide(v, diag, out=out)
        np.matmul(a, z, out=w)
        return z

    x, r = np.zeros(n), b.copy()
    basis = np.empty((min(restart, 200) + 2, n))
    iterations, info = linsolve.gmres(matvec, b, x, r, basis=basis, rtol=1e-13, maxiter=200)
    expect = np.linalg.solve(a, b)
    assert info == 0
    assert np.max(np.abs(x - expect)) <= 1e-11 * np.max(np.abs(expect))
    # r is the residual gmres recomputed, b - A x to round-off
    assert linsolve._norm(r) <= 1e-13 * linsolve._norm(b)
    assert np.max(np.abs(r - (b - a @ x))) <= 1e-13 * np.max(np.abs(b))
    assert 1 <= iterations <= (n if restart >= n else 200)


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
    def matvec(v, w, out=None, work=None):
        # P = I: z = v, written into out when given
        np.matmul(a, v, out=w)
        z = np.empty_like(v) if out is None else out
        z[...] = v
        return z

    x, r = np.zeros(6), b.copy()
    iterations, info = linsolve.gmres(
        matvec, b, x, r, basis=np.empty((52, 6)), rtol=0.0, maxiter=50,
    )
    assert info == 0
    assert iterations == 2
    assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-15
    assert linsolve._norm(r) == 0.0  # <= rtol * ||b||: the breakdown residual is exact


def test_gmres_returns_at_once_when_the_start_meets_its_target():
    import kwtorus.linsolve as linsolve

    calls = []
    x, r = np.ones(4), np.zeros(4)
    result = linsolve.gmres(
        lambda v, w, out=None, work=None: calls.append(1), np.ones(4), x, r,
        basis=np.empty((12, 4)), rtol=1e-10, maxiter=10,
    )
    assert (result, calls) == ((0, 0), [])
    assert x.tolist() == [1.0] * 4 and r.tolist() == [0.0] * 4


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
    laps, derivs = real(spec)
    whole = sum(laps) + 1.3 + 1j * sum(a * d for a, d in zip(drift, derivs))
    head, tail = linsolve._drift_symbol(spec, drift)
    assert (head + tail + 1.3).tobytes() == whole.tobytes()
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


def _inexact_case(dims, drift):
    # a Newton-like inner system: positive array reaction (-phi e^w for
    # phi < 0), a smooth right-hand side, a constant or varying drift
    spec = GridSpec(dims)
    rng = np.random.default_rng(len(dims))
    if drift == "constant":
        alpha = OneForm.constant(spec, tuple(0.3 * rng.uniform(-1.0, 1.0, spec.rank)))
    else:
        # alpha_i varies along the next axis only (along its own in rank 1)
        alpha = OneForm(spec, tuple(
            field_from(spec, lambda *x, ax=ax: 0.4 * np.sin(x[(ax + 1) % spec.rank] + ax))
            for ax in range(spec.rank)
        ))
    reaction = field_from(spec, lambda *x: 1.5 + 0.5 * np.cos(x[0] + 1.0)).values
    rhs = random_smooth_field(spec, rng).values
    return alpha, reaction, rhs


@pytest.mark.parametrize("rtol", [0.1, 1e-6])
@pytest.mark.parametrize("drift", ["constant", "variable"])
@pytest.mark.parametrize("dims", [(4096,), (64, 64), (16, 16, 16), (12, 12, 12, 12)])
def test_inexact_solve_image_matches_the_stencil(dims, drift, rtol):
    # an inexact solve takes A x from the Arnoldi residual, not from the
    # stencils: it stays within the round-off of applying them, 10 (k + 1)
    # eps ||A||_inf sup|x| after k Krylov iterations
    alpha, reaction, rhs = _inexact_case(dims, drift)
    x, stats = _solve_system(alpha, reaction, rhs, rtol=rtol)
    assert stats.converged and stats.iterations >= 1
    diff = stats.image - _apply(alpha, x)
    norm_a = float(np.max(np.abs(reaction))) + _stencil_norm(alpha)
    unit = np.finfo(float).eps * norm_a * float(np.max(np.abs(x)))
    assert float(np.max(np.abs(diff))) <= 10.0 * (stats.iterations + 1) * unit


def _positivity_case(n, seed):
    # the positivity test's shifted solve (A - c) x = -phi with
    # phi = -1 - a g, c log-uniform in [-10^-1.5, -10^-3.5] and a constant
    # drift |d| <= 0.2: constant drift and a scalar shift, so FFT direct
    spec = GridSpec((n,))
    rng = np.random.default_rng(seed)
    g = random_smooth_field(spec, rng).values
    a = rng.uniform(0.0, 0.9)
    c = -10 ** -rng.uniform(1.5, 3.5)
    d = rng.uniform(-0.2, 0.2)
    return OneForm.constant(spec, (d,)), -c, 1.0 + a * g


@pytest.mark.parametrize("n, seed", [(1024, 17), (4096, 114), (4096, 120), (8192, 124), (8192, 130)])
def test_direct_fft_solve_meets_its_contract_with_the_round_off_counted(n, seed):
    # of 200 seeds per size, these direct solves left a residual of up to
    # 1.07 times eps ||A||_inf sup|x|; gamma_m and the FFT term of the
    # round-off model cover it
    alpha, shift, rhs = _positivity_case(n, seed)
    _, stats = _solve_system(alpha, shift, rhs)
    assert stats.converged and stats.iterations == 1


def test_contract_rejects_an_error_a_few_times_the_round_off():
    # the round-off allowance must not admit wrong answers.  At rank 1 on
    # 4096 points the model is gamma_12 + eps log2(4096), about 18 eps
    # ||A||_inf sup|x|; x plus a Nyquist mode delta whose image A delta
    # is 2.5 times that fails the contract that x itself passes, and a
    # model loosened 3 times would accept it
    alpha, shift, rhs = _positivity_case(4096, 114)
    x, stats = _solve_system(alpha, shift, rhs)
    assert stats.converged
    norm_a = shift + _stencil_norm(alpha)
    unit = np.finfo(float).eps * norm_a * float(np.max(np.abs(x)))
    nyquist = np.cos(np.pi * np.arange(4096))  # (-1)^j: A maps it to about norm_a (-1)^j

    def contract(y):
        resid = float(np.max(np.abs(rhs - (_apply(alpha, y) + shift * y))))
        target = LinearOptions().tol * (1.0 + float(np.max(np.abs(rhs))))
        return resid, target + _round_off(alpha, shift, float(np.max(np.abs(y)))), target

    resid, allowed, target = contract(x)
    assert resid <= allowed and target < 0.1 * unit  # round-off dominates here
    resid, allowed, _ = contract(x + 2.5 * 18.0 * unit / norm_a * nyquist)
    assert resid > allowed


@pytest.mark.parametrize("drift", ["constant", "variable"])
def test_inexact_solve_applies_no_stencil(monkeypatch, drift):
    # the Laplacian never runs in an inexact solve, and the drift stencil
    # only inside the Krylov loop, where a varying drift needs it
    import kwtorus.linsolve as linsolve

    alpha, reaction, rhs = _inexact_case((32, 32), drift)
    calls = []
    for name in ("_laplacian", "_lee_pairing"):
        real = getattr(linsolve, name)
        monkeypatch.setattr(
            linsolve, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
        )
    _, stats = _solve_system(alpha, reaction, rhs, rtol=1e-6)
    assert stats.converged and stats.iterations >= 1
    assert "_laplacian" not in calls
    assert ("_lee_pairing" in calls) == (drift == "variable")


def test_meanzero_solve_takes_no_rtol():
    # a mean-zero solve is judged on its true residual: an Arnoldi-judged
    # one is internal misuse
    alpha, reaction, rhs = _inexact_case((32, 32), "variable")
    with pytest.raises(ValueError, match="mean-zero solve takes no rtol"):
        _solve_system(alpha, reaction, rhs, meanzero=True, rtol=1e-6)


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


@pytest.mark.parametrize("values", [
    [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0],
    [1e308, -1e308], [-1e308, 2.0], [np.inf], [-np.inf, 1.0], [-np.inf, np.inf],
    [np.nan], [-np.nan, 1.0], [1.0, np.nan, -np.inf], [-2.5, -1e308],
])
def test_sup_is_the_sup_of_abs_bit_for_bit(values):
    # max(max a, -min a) with the sign of -0 and of a NaN cleared: the
    # bits of np.max(np.abs(a)), also on scalars and zero-stride views
    import struct

    a = np.array(values)
    for arr in (a, a.reshape(-1, 1), np.broadcast_to(a[-1], (4, 3)), a[-1]):
        expect = float(np.max(np.abs(arr)))
        assert struct.pack("<d", _sup(arr)) == struct.pack("<d", expect)
