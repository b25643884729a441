import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwtorus import (
    CertificateError,
    GeometrySetup,
    GridSpec,
    KWProblem,
    LinearOptions,
    OneForm,
    ScalarField,
    SolvabilityError,
    SolveReport,
    SolverError,
    asymptotic_suite,
    build_subsolution,
    build_supersolution,
    construct_unsolvable,
    critical_c_bracket,
    is_subsolution,
    is_supersolution,
    laplacian,
    make_field,
    mean,
    monotone_solve,
    necessary_check,
    newton_solve,
    recover_metric,
    reduce_problem,
    solve_prescribed,
    sufficient_check,
    transform_s,
)
from kwtorus import kwsolver
from kwtorus.linsolve import _round_off, random_smooth_field
from helpers import divergence_free_form, escaping_newton, field_from, manufactured_negative_phi


def _sin_field(spec):
    return field_from(spec, lambda x: np.sin(x))


# ---------------------------------------------------------------------------
# sub/super-solution checks and builders
# ---------------------------------------------------------------------------

def test_is_subsolution_supersolution_basics():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    zero = make_field(spec, 0.0)
    prob = KWProblem(alpha, -1.0, make_field(spec, -1.0))
    ok, margin = is_subsolution(zero, prob)
    assert ok and abs(margin) < 1e-14
    ok, margin = is_supersolution(zero, prob)
    assert ok and abs(margin) < 1e-14
    prob_bad = KWProblem(alpha, 1.0, make_field(spec, -1.0))
    ok, margin = is_subsolution(zero, prob_bad)
    assert not ok and np.isclose(margin, 2.0)
    ok, margin = is_supersolution(zero, prob_bad)
    assert ok and np.isclose(margin, 2.0)


def test_is_subsolution_deep_constant():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, _sin_field(spec))
    ok, _ = is_subsolution(make_field(spec, -10.0), prob)
    assert ok


def test_build_subsolution():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    w = build_subsolution(KWProblem(alpha, -1.0, make_field(spec, -1.0)))
    assert np.allclose(w.values, -0.1)
    w2 = build_subsolution(KWProblem(alpha, -1.0, make_field(spec, 2.0)))
    assert np.all(w2.values == 0.0)
    with pytest.raises(CertificateError):
        build_subsolution(KWProblem(alpha, 0.5, make_field(spec, -1.0)))


def test_build_supersolution_constant_case():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
    wp = build_supersolution(prob)
    assert wp is not None
    ok, _ = is_supersolution(wp, prob)
    assert ok
    # constant phi gives v = 0, so the certificate is a constant level
    assert np.ptp(wp.values) < 1e-12


def test_build_supersolution_sign_change_success():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) - 0.5)
    prob = KWProblem(OneForm.zero(spec), -0.05, phi)
    wp = build_supersolution(prob)
    assert wp is not None
    ok, margin = is_supersolution(wp, prob)
    assert ok, margin


def _offset_search_reference(prob, v, phi_bar, peaks):
    # _offset_search as it was before its masks were hoisted out of the
    # scan: every step masks the whole grid.  peaks gets the point where
    # each lower bound it computes has its maximum
    phi = prob.phi.values
    c = prob.c
    scale = max(1.0, abs(c) / abs(phi_bar))
    pos = phi > 0.0
    neg = phi < 0.0
    zer = ~(pos | neg)
    for a in scale * np.logspace(-4.0, 3.0, 141):
        num = a * (phi - phi_bar) + c
        if np.any(zer) and float(np.min(num[zer])) < 0.0:
            continue
        if float(np.min(num[pos])) <= 0.0:
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            den = phi * np.exp(a * v)
            upper = float(np.min(num[pos] / den[pos]))
            lower = 0.0
            if np.any(neg):
                lower = max(0.0, float(np.max(num[neg] / den[neg])))
                peaks.append(int(np.argmax(num[neg] / den[neg])))
        if not np.isfinite(upper) or upper <= 0.0:
            continue
        if upper <= lower * (1.0 + 1e-9):
            continue
        if lower > 0.0:
            offset = float(np.sqrt(lower * upper))
        else:
            offset = 0.5 * upper
        return a * v + float(np.log(offset))
    return None


def test_offset_search_matches_the_unhoisted_scan():
    # 1-D cases, then 2-D ones whose phi < 0 set has several wells, so the
    # lower bound's maximum jumps between points as a grows
    rng = np.random.default_rng(7)
    cases = 52
    found = moved = 0
    for case in range(cases):
        spec = GridSpec((int(rng.choice([64, 128, 256])),) if case < 40 else (16, 32))
        vals = random_smooth_field(spec, rng, band=3).values
        vals += rng.uniform(-0.8, -0.05) * np.max(vals) - np.mean(vals)  # sign change
        if case % 4 == 0:
            vals[np.abs(vals) < 0.1] = 0.0  # a zero set too
        phi = ScalarField(spec, vals)
        depth = rng.uniform(-4.0, 0.0) if case < 40 else rng.uniform(-2.0, 1.0)
        prob = KWProblem(OneForm.zero(spec), -(10.0 ** depth), phi)
        v, _ = kwsolver._solve_for_v(prob, None)
        peaks = []
        want = _offset_search_reference(prob, v.values, mean(phi), peaks)
        got = kwsolver._offset_search(prob, v.values, mean(phi))
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert np.array_equal(got.values, want)
        moved += len(set(peaks)) > 1
    assert 0 < found < cases
    assert moved >= 20


def _oscillation_bound_reference(prob):
    # the small-oscillation supersolution of Kazdan & Warner that
    # build_supersolution used to try first for sign-changing phi: the
    # largest a >= 2c / mean(phi) with sup|e^{a v} - 1| <= -mean(phi) /
    # (2 sup|phi|), and w_+ = a v + log a.  None where it certifies nothing
    def oscillation(a):
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(np.expm1(a * v))))

    v = kwsolver._solve_for_v(prob, None)[0].values
    phi_bar = mean(prob.phi)
    bound = -phi_bar / (2.0 * float(np.max(np.abs(prob.phi.values))))
    lo = 2.0 * prob.c / phi_bar
    if oscillation(lo) > bound:
        return None
    hi = max(lo, 1.0)
    while oscillation(hi) <= bound:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oscillation(mid) <= bound else (lo, mid)
    w = ScalarField(prob.spec, lo * v + float(np.log(lo)))
    return w if is_supersolution(w, prob)[0] else None


def test_offset_search_certifies_wherever_the_oscillation_bound_does():
    # random sign-changing instances in 1-D and 2-D, with zero or constant
    # drift, c from -1e-4 to -0.3 and phi scaled by 1 to 1e4: scaling phi
    # at fixed c moves the a the bound picks, not its verdict
    rng = np.random.default_rng(19)
    by_bound = by_search = 0
    for _ in range(240):
        spec = GridSpec((64,)) if rng.random() < 0.5 else GridSpec((24, 24))
        vals = np.zeros(spec.dims)
        while not (vals.max() > 0.0 > vals.mean()):
            vals = random_smooth_field(spec, rng, band=3).values
            vals += rng.uniform(-0.8, -0.05) * np.max(vals) - np.mean(vals)
        if rng.random() < 0.5:
            alpha = OneForm.zero(spec)
        else:
            drift = rng.uniform(-0.3, 0.3, spec.rank)
            alpha = OneForm(spec, tuple(make_field(spec, d) for d in drift))
        c = -(10.0 ** rng.uniform(-4.0, np.log10(0.3)))
        amp = 10.0 ** rng.integers(0, 5)
        prob = KWProblem(alpha, c, ScalarField(spec, amp * vals))
        wp = build_supersolution(prob)
        certified = wp is not None and is_supersolution(wp, prob)[0]
        if _oscillation_bound_reference(prob) is not None:
            by_bound += 1
            assert certified, (spec.dims, c, amp)
        by_search += certified
    assert by_bound >= 150 and by_search > by_bound


def test_build_supersolution_rejects_positive_mean():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) + 0.5)
    prob = KWProblem(OneForm.zero(spec), -1.0, phi)
    with pytest.raises(CertificateError, match="necessary"):
        build_supersolution(prob)


def test_build_supersolution_cannot_certify_far_below():
    # sign-changing phi admits no a v + b certificate for c deep below zero
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) - 0.1)
    prob = KWProblem(OneForm.zero(spec), -50.0, phi)
    assert build_supersolution(prob) is None


# ---------------------------------------------------------------------------
# monotone iteration
# ---------------------------------------------------------------------------

def test_monotone_trivial_constant():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
    rep = monotone_solve(prob, build_subsolution(prob), build_supersolution(prob))
    assert rep.status == "converged"
    assert rep.residual_sup < 1e-8
    assert np.max(np.abs(rep.solution.values)) < 1e-8
    assert min(rep.min_step_trace) >= -1e-10
    assert all(b >= a - 1e-10 for a, b in zip(rep.trace, rep.trace[1:]))


def test_monotone_manufactured():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    wstar = field_from(spec, lambda x: 0.3 * np.cos(x))
    phi = ScalarField(spec, (laplacian(wstar).values - 1.0) * np.exp(-wstar.values))
    assert np.max(phi.values) < 0
    prob = KWProblem(alpha, -1.0, phi)
    rep = monotone_solve(prob, build_subsolution(prob), build_supersolution(prob), maxiter=2000)
    assert rep.status == "converged"
    assert np.max(np.abs(rep.solution.values - wstar.values)) < 1e-7
    assert rep.solution.values.max() <= build_supersolution(prob).values.max() + 1e-10


def test_monotone_stops_on_the_newton_residual_test():
    # monotone_solve's residual target is newton_solve's: tol times the
    # scale 1 + |c| + sup|phi e^w| plus the stencils' round-off on w,
    # whatever lin.tol.  With lin.tol = 1e-13, 10 lin.tol times the scale
    # lies below the residual's floor on 1024 points (about 5.6e-12),
    # which no step could meet
    spec = GridSpec((1024,))
    prob = KWProblem(OneForm.zero(spec), -1.0, field_from(spec, lambda x: -1.0 - 0.3 * np.cos(x)))
    lo, hi = build_subsolution(prob), build_supersolution(prob)
    lin = LinearOptions(tol=1e-13)
    steps = []
    for tol in (kwsolver.DEFAULT_KW_TOL, 1e-6):
        rep = monotone_solve(prob, lo, hi, tol=tol, lin=lin)
        assert rep.converged
        steps.append(rep.iterations)
        w = rep.solution.values
        assert rep.residual_sup == float(np.max(np.abs(kwsolver._defect(w, prob))))
        scale = 1.0 + abs(prob.c) + float(np.max(np.abs(prob.phi.values * np.exp(w))))
        round_off = _round_off(prob.alpha, 0.0, float(np.max(np.abs(w))))
        assert rep.residual_sup <= tol * scale + round_off
    assert steps[0] <= 60 and steps[1] < steps[0]
    # tol, not lin.tol, set the looser run's target: it stopped far above
    # 10 lin.tol times the scale
    assert rep.residual_sup > 1e5 * 10.0 * lin.tol * scale


def test_monotone_shift_overflow_is_a_solver_error():
    # the shift 1 + sup(-phi e^{w_plus}) grows like |c|; past 1e14 the
    # shifted solves lose every digit, so the iteration refuses to start
    spec = GridSpec((16,))
    phi = field_from(spec, lambda x: 2.0 * (-1.0 - 0.3 * np.cos(x)))
    prob = KWProblem(OneForm.zero(spec), -2e14, phi)
    with pytest.raises(SolverError, match=r"iteration shift overflow \(lambda = 4\.105e\+14\)"):
        monotone_solve(prob, build_subsolution(prob), build_supersolution(prob))


def test_monotone_ordering_precondition():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
    with pytest.raises(CertificateError, match="ordering|subsolution|supersolution"):
        monotone_solve(prob, make_field(spec, 0.05), make_field(spec, -0.05))


# ---------------------------------------------------------------------------
# Newton first, the pair verifies, the monotone iteration falls back
# ---------------------------------------------------------------------------

def _variable_drift_problem(n=48):
    # the reduced form of solve --n 1 --t 1 --s=-1 --s-hat='-1 - 0.3*cos(x0)'
    # with drift (0.2 sin x1, 0.2 cos x0): its monotone iteration contracts
    # by about 0.6-0.7 per step
    spec = GridSpec((n, n))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.2 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 0.2 * np.cos(x0)),
    ))
    phi = field_from(spec, lambda x0, x1: -2.0 - 0.6 * np.cos(x0))
    return KWProblem(alpha, -2.0, phi)


def test_variable_drift_solve_classifies_each_component_once(monkeypatch):
    # the operator's drift format is decided once per one-form, by
    # OneForm.coefficients, which every stencil and solve then reads
    from functools import cached_property

    classify = OneForm.coefficients.func
    classified = []

    def counting(form):
        classified.extend(form.components)
        return classify(form)

    spy = cached_property(counting)
    spy.__set_name__(OneForm, "coefficients")
    monkeypatch.setattr(OneForm, "coefficients", spy)
    alpha = _variable_drift_problem(32).alpha
    spec = alpha.spec
    s_hat = field_from(spec, lambda x0, x1: -1.0 - 0.3 * np.cos(x0))
    _, rep = solve_prescribed(make_field(spec, -1.0), s_hat, alpha, GeometrySetup(1, 1.0))
    assert rep.converged
    assert [id(c) for c in classified] == [id(c) for c in alpha.components]


def test_rejected_newton_answer_falls_back_to_the_monotone_iteration(monkeypatch):
    # Newton's own answer converges inside the pair, which verifies it;
    # one that the pair rejects leaves the solve to monotone_solve, whose
    # report stands as returned
    prob = _variable_drift_problem()
    full = monotone_solve(prob, build_subsolution(prob), build_supersolution(prob))
    assert full.status == "converged"
    rep = kwsolver._solve_negative_c(prob)
    assert (rep.status, rep.method, rep.min_step_trace) == ("converged", "newton", [])
    assert np.max(np.abs(rep.solution.values - full.solution.values)) <= 1e-8

    starts, monotone = [], []
    real = kwsolver.monotone_solve
    monkeypatch.setattr(kwsolver, "newton_solve",
                        lambda p, w0, **kwargs: starts.append(w0) or escaping_newton(p, w0))
    monkeypatch.setattr(kwsolver, "monotone_solve",
                        lambda *args, **kwargs: monotone.append(1) or real(*args, **kwargs))
    rep = kwsolver._solve_negative_c(prob)
    assert len(starts) == 1 and len(monotone) == 1
    assert (rep.status, rep.method) == ("converged", "monotone")
    assert rep.iterations == len(rep.min_step_trace) == len(rep.trace) - 1
    assert min(rep.min_step_trace) >= -1e-10
    assert np.max(np.abs(rep.solution.values - full.solution.values)) <= 1e-8


# ---------------------------------------------------------------------------
# nested iteration: Newton from the half-size grid's answer
# ---------------------------------------------------------------------------

# every step of the c < 0 pipeline that a spy records, with the grid it ran on
PIPELINE_STEPS = (
    "_solve_negative_c", "necessary_check", "build_supersolution", "monotone_solve",
    "newton_solve", "restrict",
)


def _spy_grids(monkeypatch):
    # {dims: names of the pipeline steps called on that grid, in order};
    # restrict is recorded on the grid it restricts from
    calls = {}
    for name in PIPELINE_STEPS:
        def spy(first, *args, _name=name, _real=getattr(kwsolver, name), **kwargs):
            calls.setdefault(first.spec.dims, []).append(_name)
            return _real(first, *args, **kwargs)

        monkeypatch.setattr(kwsolver, name, spy)
    return calls


def test_large_round_trip_starts_from_the_half_grid(monkeypatch):
    # roundtrip-4d's data on 16^4, above NEST_MIN_POINTS: 8^4 runs Newton
    # alone (its own half axis, 4, makes no grid), and 16^4 runs only
    # Newton from the refined answer, which the constant pair of its
    # strictly negative phi accepts without the mean-zero solve of
    # build_supersolution.  Such phi needs no positivity test.  Un-nested,
    # the same Newton starts from the averaged constant and takes more steps
    spec = GridSpec((16,) * 4)
    assert spec.npoints >= kwsolver.NEST_MIN_POINTS
    setup = GeometrySetup(2, 0.0)
    alpha = OneForm.constant(spec, (0.1, 0.0, 0.05, 0.0))
    ustar = field_from(spec, lambda x0, x1, x2, x3: 0.4 * np.sin(x0 + 1.0)
                       + 0.2 * np.cos(2 * (x0 + 1.0)) + 0.3 * np.sin(x2 + 2.0))
    s = make_field(spec, -1.0)
    s_hat = transform_s(s, ustar, alpha, setup)
    calls = _spy_grids(monkeypatch)
    u, rep = solve_prescribed(s, s_hat, alpha, setup, monotone_budget=40, maxiter=3000)
    assert calls == {
        spec.dims: ["_solve_negative_c", *["restrict"] * 5, "newton_solve"],
        (8,) * 4: ["restrict", "newton_solve"],
    }
    assert (rep.status, rep.method) == ("converged", "newton")
    assert rep.iterations <= 3 and len(rep.trace) == rep.iterations + 1
    assert rep.min_step_trace == []
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", spec.npoints + 1)
    calls.clear()
    u_flat, rep_flat = solve_prescribed(s, s_hat, alpha, setup, monotone_budget=40, maxiter=3000)
    assert calls == {spec.dims: ["_solve_negative_c", "newton_solve"]}
    assert rep_flat.iterations > rep.iterations
    assert np.max(np.abs(u.values - u_flat.values)) <= kwsolver.DEFAULT_KW_TOL


def _nested_pair(monkeypatch):
    # the 32^2 variable-drift problem nests once, onto 16^2, and its
    # answer with nesting switched off
    prob = _variable_drift_problem(32)
    flat = kwsolver._solve_negative_c(prob)
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", prob.spec.npoints)
    return prob, flat


def test_nested_solve_on_a_small_threshold(monkeypatch):
    prob, flat = _nested_pair(monkeypatch)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    assert calls[(16, 16)] == ["newton_solve"]
    # strictly negative phi: no positivity test, and the constant pair
    # accepts, no build_supersolution
    assert "necessary_check" not in calls[prob.spec.dims]
    assert "build_supersolution" not in calls[prob.spec.dims]
    assert (rep.status, rep.method, rep.min_step_trace) == ("converged", "newton", [])
    assert rep.iterations < flat.iterations
    assert np.max(np.abs(rep.solution.values - flat.solution.values)) <= kwsolver.DEFAULT_KW_TOL
    # 20 halves onto a grid axis, 18 does not (9 is odd)
    for dims, nests in [((64, 20), True), ((64, 18), False)]:
        spec = GridSpec(dims)
        flat_prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
        assert (kwsolver._coarse_start(flat_prob, kwsolver.DEFAULT_KW_TOL, None) is not None) == nests


def _smallest_nesting_problem(rank):
    # 4096 points, the fewest that nest: 1-D with constant drift, 3-D
    # with a variable drift whose components skip their own axis
    if rank == 1:
        spec = GridSpec((4096,))
        alpha = OneForm.constant(spec, (0.1,))
    else:
        spec = GridSpec((16,) * 3)
        alpha = OneForm(spec, tuple(
            field_from(spec, lambda *x, _ax=ax: 0.2 * np.sin(x[(_ax + 1) % 3] + _ax))
            for ax in range(3)
        ))
    phi = field_from(spec, lambda *x: -2.0 - 0.6 * np.cos(x[0]) - 0.3 * np.sin(x[-1]))
    return KWProblem(alpha, -2.0, phi)


@pytest.mark.parametrize("rank", [1, 3])
def test_smallest_grids_above_the_threshold_nest(rank, monkeypatch):
    prob = _smallest_nesting_problem(rank)
    assert prob.spec.npoints == kwsolver.NEST_MIN_POINTS
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    half = tuple(n // 2 for n in prob.spec.dims)
    assert "restrict" in calls[prob.spec.dims] and calls[half] == ["newton_solve"]
    assert (rep.status, rep.method, rep.min_step_trace) == ("converged", "newton", [])
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", prob.spec.npoints + 1)
    calls.clear()
    flat = kwsolver._solve_negative_c(prob)
    assert calls == {prob.spec.dims: ["_solve_negative_c", "newton_solve"]}
    assert (flat.status, flat.method, flat.min_step_trace) == ("converged", "newton", [])
    assert np.max(np.abs(rep.solution.values - flat.solution.values)) <= kwsolver.DEFAULT_KW_TOL


def test_threshold_grid_without_a_half_grid_keeps_its_path(monkeypatch):
    # 8^4 holds NEST_MIN_POINTS points, but its half axis 4 makes no grid:
    # the restriction fails and the un-nested solve runs, bit for bit
    spec = GridSpec((8,) * 4)
    assert spec.npoints == kwsolver.NEST_MIN_POINTS
    alpha = OneForm.constant(spec, (0.1, 0.0, 0.05, 0.0))
    phi = field_from(spec, lambda x0, x1, x2, x3: -1.0 - 0.3 * np.cos(x0) - 0.2 * np.sin(x3))
    prob = KWProblem(alpha, -1.0, phi)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    assert list(calls) == [spec.dims] and calls[spec.dims].count("restrict") == 1
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", spec.npoints + 1)
    flat = kwsolver._solve_negative_c(prob)
    assert rep.converged and (rep.method, rep.iterations) == (flat.method, flat.iterations)
    assert rep.min_step_trace == flat.min_step_trace
    assert np.array_equal(rep.solution.values, flat.solution.values)


def test_direct_fft_positivity_solve_passes_with_the_round_off_counted():
    # on this seeded case the positivity test's direct FFT solve leaves a
    # residual of 1.715e-08 after 1 iteration, round-off of the stencils
    # that an allowance without gamma_m and the FFT term rejected; the
    # contract counts it, so necessary_check passes, and strictly
    # negative phi, which runs no such solve, converges by Newton
    spec = GridSpec((4096,))
    rng = np.random.default_rng(114)
    g = random_smooth_field(spec, rng)
    a = rng.uniform(0.0, 0.9)
    c = -10 ** -rng.uniform(1.5, 3.5)
    d = rng.uniform(-0.2, 0.2)
    prob = KWProblem(OneForm.constant(spec, (d,)), c, ScalarField(spec, -1.0 - a * g.values))
    assert necessary_check(prob).positive
    rep = kwsolver._solve_negative_c(prob)
    assert (rep.status, rep.method, rep.min_step_trace) == ("converged", "newton", [])


def test_nesting_threshold_boundary(monkeypatch):
    # 62^2 = 3844 points stays on its own grid, 64^2 = 4096 nests
    assert 62 * 62 < kwsolver.NEST_MIN_POINTS == 64 * 64
    calls = _spy_grids(monkeypatch)
    for n, nests in [(62, False), (64, True)]:
        spec = GridSpec((n, n))
        prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
        assert (kwsolver._coarse_start(prob, kwsolver.DEFAULT_KW_TOL, None) is not None) == nests
    assert "restrict" not in calls.get((62, 62), []) and "restrict" in calls[(64, 64)]


@pytest.mark.parametrize("failure", ["co-closedness", "max-iter"])
def test_failed_coarse_solve_falls_back_to_the_unnested_solve(failure, monkeypatch):
    # a drift that is not co-closed on the half grid, or a half-grid Newton
    # that does not converge: the fine Newton starts from the averaged
    # constant, as un-nested, and gives its answer, bit for bit; a coarse
    # status never shows
    prob, flat = _nested_pair(monkeypatch)
    coarse = (16, 16)
    if failure == "co-closedness":
        real_defect = kwsolver.gauduchon_defect
        monkeypatch.setattr(kwsolver, "gauduchon_defect",
                            lambda a: 1.0 if a.spec.dims == coarse else real_defect(a))
    else:
        real_newton = kwsolver.newton_solve

        def newton(p, w0, **kwargs):
            if p.spec.dims != coarse:
                return real_newton(p, w0, **kwargs)
            return SolveReport(w0, "max-iter", [0.0], 1.0, "newton", iterations=1)

        monkeypatch.setattr(kwsolver, "newton_solve", newton)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    assert calls[prob.spec.dims][-1] == "newton_solve"
    assert calls.get(coarse, []) == ([] if failure == "co-closedness" else ["newton_solve"])
    assert (rep.status, rep.min_step_trace) == ("converged", [])
    assert (rep.method, rep.iterations) == (flat.method, flat.iterations)
    assert np.array_equal(rep.solution.values, flat.solution.values)


def _no_pair_problem():
    # phi made from the solution w* = 1.5 sin x0 + 0.5 cos 2x1 at c = -1:
    # solvable, but phi changes sign and admits no a v + b supersolution
    spec = GridSpec((32, 32))
    wstar = field_from(spec, lambda x0, x1: 1.5 * np.sin(x0) + 0.5 * np.cos(2 * x1))
    phi = ScalarField(spec, (laplacian(wstar).values - 1.0) * np.exp(-wstar.values))
    prob = KWProblem(OneForm.zero(spec), -1.0, phi)
    assert necessary_check(prob).positive and build_supersolution(prob) is None
    return prob


def test_no_pair_solve_starts_from_the_half_grid(monkeypatch):
    prob = _no_pair_problem()
    flat = kwsolver._solve_negative_c(prob)
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", prob.spec.npoints)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    assert calls[(16, 16)] == ["newton_solve"]
    assert "newton_solve" in calls[prob.spec.dims]
    assert "monotone_solve" not in calls[prob.spec.dims]
    assert (rep.status, rep.method) == ("converged", "newton")
    assert rep.iterations < flat.iterations
    assert np.max(np.abs(rep.solution.values - flat.solution.values)) <= kwsolver.DEFAULT_KW_TOL


def test_no_pair_solve_prefers_a_given_initial_guess(monkeypatch):
    # critical_c_bracket's warm start still comes first: no half grid runs
    prob = _no_pair_problem()
    guess = make_field(prob.spec, 0.3)
    flat = kwsolver._solve_negative_c(prob, initial_guess=guess)
    monkeypatch.setattr(kwsolver, "NEST_MIN_POINTS", prob.spec.npoints)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob, initial_guess=guess)
    assert list(calls) == [prob.spec.dims] and "restrict" not in calls[prob.spec.dims]
    assert rep.converged and rep.iterations == flat.iterations
    assert np.array_equal(rep.solution.values, flat.solution.values)


def test_nested_newton_outside_the_enclosure_is_rejected(monkeypatch):
    # the fine Newton from the refined start converges above every
    # supersolution, the constant level log(c / phi_max) + 0.1 among them:
    # the constant pair rejects it, then the full pair of
    # build_supersolution, and monotone_solve finishes, with no second
    # fine Newton
    prob, flat = _nested_pair(monkeypatch)
    hi = kwsolver._supersolution_level(prob.c, float(np.max(prob.phi.values)))
    starts = []
    real = kwsolver.newton_solve

    def newton(p, w0, **kwargs):
        if p.spec == prob.spec and not starts:
            starts.append(w0)
            far = ScalarField(p.spec, w0.values + 100.0)
            assert float(np.min(far.values)) > hi
            return SolveReport(far, "converged", [0.0], 0.0, "newton", iterations=1)
        return real(p, w0, **kwargs)

    monkeypatch.setattr(kwsolver, "newton_solve", newton)
    calls = _spy_grids(monkeypatch)
    rep = kwsolver._solve_negative_c(prob)
    fine = calls[prob.spec.dims]
    assert len(starts) == 1 and fine.count("newton_solve") == 1
    assert fine[-3:] == ["newton_solve", "build_supersolution", "monotone_solve"]
    assert (rep.status, rep.method) == ("converged", "monotone")
    assert min(rep.min_step_trace) >= -1e-10
    assert np.max(np.abs(rep.solution.values - flat.solution.values)) <= 1e-8


def test_nested_negative_phi_needs_no_mean_zero_solve(monkeypatch):
    # strictly negative phi: the constant pair accepts the nested answer,
    # so the v of build_supersolution is never solved for
    prob, _ = _nested_pair(monkeypatch)
    assert float(np.max(prob.phi.values)) < 0.0
    nested = kwsolver._solve_negative_c(prob)

    def no_v(*args, **kwargs):
        raise AssertionError("mean-zero solve for v ran")

    monkeypatch.setattr(kwsolver, "_solve_for_v", no_v)
    rep = kwsolver._solve_negative_c(prob)
    assert (rep.status, rep.method, rep.min_step_trace) == ("converged", "newton", [])
    assert rep.iterations == nested.iterations
    assert np.array_equal(rep.solution.values, nested.solution.values)


def test_supersolution_keeps_a_v_plus_b_below_a_high_constant():
    # phi_max = -1e-14 puts the constant level near 32.3; the a v + b
    # candidate lies far lower.  The solve itself needs neither: the
    # constant pair verifies Newton's answer.  But the monotone fallback
    # runs on build_supersolution's pair, and with the constant as w_+ its
    # shift 1 + sup(-phi e^{w_+}) would overflow the 1e14 cap
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: -(1e-14 + (1.0 + np.sin(x)) ** 2))
    prob = KWProblem(OneForm.zero(spec), -1.0, phi)
    level = kwsolver._supersolution_level(prob.c, float(np.max(phi.values)))
    wp = build_supersolution(prob)
    assert float(np.max(wp.values)) < level - 1.0
    rep = kwsolver._solve_negative_c(prob)
    assert rep.converged and rep.iterations <= 10


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------

def test_newton_trivial():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
    w0 = make_field(spec, 0.5)
    rep = newton_solve(prob, w0)
    assert rep.status == "converged"
    assert np.max(np.abs(rep.solution.values)) < 1e-8
    assert np.all(w0.values == 0.5)  # Newton reads w0 without copying it


def test_newton_positive_c_manufactured():
    spec = GridSpec((256,))
    alpha = OneForm.zero(spec)
    wstar = field_from(spec, lambda x: 0.1 * np.sin(x))
    phi = ScalarField(spec, (laplacian(wstar).values + 1.0) * np.exp(-wstar.values))
    prob = KWProblem(alpha, 1.0, phi)
    rep = newton_solve(prob, make_field(spec, 0.0))
    assert rep.status == "converged"
    assert np.max(np.abs(rep.solution.values - wstar.values)) < 1e-7


def test_newton_reports_failure_on_unsolvable():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) + 0.5)
    prob = KWProblem(OneForm.zero(spec), -1.0, phi)
    rep = newton_solve(prob, make_field(spec, 0.0), maxiter=25)
    assert rep.status != "converged"


def test_newton_forcing_term_saves_krylov_iterations(monkeypatch):
    # the forcing term solves early steps loosely; a fixed inner
    # tolerance of 1e-6 is the reference
    prob = _variable_drift_problem()
    full = monotone_solve(prob, build_subsolution(prob), build_supersolution(prob))
    w0 = make_field(prob.spec, 0.0)
    krylov = []
    real = kwsolver._solve_system

    def counting(*args, **kwargs):
        x, stats = real(*args, **kwargs)
        krylov.append(stats.iterations)
        return x, stats

    monkeypatch.setattr(kwsolver, "_solve_system", counting)
    rep = newton_solve(prob, w0)
    forced = sum(krylov)
    krylov.clear()
    monkeypatch.setattr(kwsolver, "_forcing", lambda *args: 1e-6)
    fixed_rep = newton_solve(prob, w0)
    fixed = sum(krylov)
    assert rep.converged and fixed_rep.converged
    assert forced < fixed
    assert np.max(np.abs(rep.solution.values - full.solution.values)) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    ratio=st.floats(0.0, 1.0),
    prev_norm=st.floats(1e-300, 1e300),
    prev_eta=st.floats(0.0, 1.0),
    floor=st.floats(0.0, 1e3),
)
def test_forcing_term_stays_between_floor_and_cap(ratio, prev_norm, prev_eta, floor):
    # the line search only accepts a smaller residual norm, so ratio <= 1
    eta = kwsolver._forcing(ratio * prev_norm, prev_norm, prev_eta, floor)
    assert min(floor, kwsolver.FORCING_MAX) <= eta <= kwsolver.FORCING_MAX


def test_forcing_term_values():
    cap = kwsolver.FORCING_MAX
    assert kwsolver._forcing(5.0, None, cap, 1e-12) == cap
    assert kwsolver._forcing(1.0, 10.0, cap, 1e-12) == pytest.approx(0.9 * 0.01)
    assert kwsolver._forcing(1e-6, 1.0, cap, 1e-5) == 1e-5
    assert kwsolver._forcing(float("inf"), float("inf"), cap, 1e-5) == cap


# one Krylov iteration misses the Newton inner tolerance under a drift this
# strong, which the FFT preconditioner (built from the mean drift, zero)
# does not see; without drift a 1-D Newton solve converges in 7 steps
STARVED = LinearOptions(maxiter=1)


def _strong_drift(spec):
    return OneForm(spec, (
        field_from(spec, lambda x0, x1: 5.0 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 5.0 * np.cos(x0)),
    ))


def test_newton_reports_unconverged_inner_solves():
    spec = GridSpec((32, 32))
    phi = field_from(spec, lambda x0, x1: -1 - 0.3 * np.cos(x0))
    prob = KWProblem(_strong_drift(spec), -1.0, phi)
    rep = newton_solve(prob, make_field(spec, 0.3), lin=STARVED)
    assert rep.status == "max-iter"
    assert rep.iterations == 50
    assert rep.message == "unconverged inner solves: 50"


# ---------------------------------------------------------------------------
# the stencils once per iterate: carried residuals, fresh reports
# ---------------------------------------------------------------------------

def _offset_images(monkeypatch, offsets):
    # inner solve k hands back its image A x moved by offsets[k] (by
    # nothing past the end); a residual carried from those images then
    # drifts from the true one
    real = kwsolver._solve_system
    offsets = iter(offsets)

    def solve(*args, **kwargs):
        x, stats = real(*args, **kwargs)
        stats.image += next(offsets, 0.0)
        return x, stats

    monkeypatch.setattr(kwsolver, "_solve_system", solve)


def test_line_search_applies_no_stencil(monkeypatch):
    from kwtorus import linsolve

    prob = _variable_drift_problem(32)
    phi = prob.phi.values
    x = field_from(prob.spec, lambda x0, x1: 0.3 * np.cos(x0 + x1)).values
    r = kwsolver._defect(x, prob)
    reaction = -phi * np.exp(x)
    delta, stats = kwsolver._solve_system(prob.alpha, reaction, -r, rtol=1e-8)
    merit0 = float(np.linalg.norm(r))
    calls = []
    real = linsolve._laplacian
    monkeypatch.setattr(linsolve, "_laplacian", lambda *args: calls.append(1) or real(*args))
    trial, r_try, reaction_try, norm = kwsolver._line_search(
        x, delta, r.copy(), stats.image, reaction.copy(), phi
    )
    assert calls == []
    monkeypatch.undo()
    fresh = kwsolver._defect(trial, prob)
    assert np.max(np.abs(r_try - fresh)) <= 1e-12 * float(np.max(np.abs(phi * np.exp(trial))))
    assert norm == float(np.linalg.norm(r_try)) < merit0
    assert np.array_equal(reaction_try, -phi * np.exp(trial))


def _zero_degree_drift_data():
    """(s, s_hat, alpha) at zero degree: s = 0, so g = 0 and phi = 2 s_hat,
    which changes sign with mean -0.2, under a strong constant drift.
    Newton converges in 4 steps; with STARVED inner solves its line
    search stalls after one."""
    line = GridSpec((64,))
    s_hat = field_from(line, lambda x: -0.1 + np.sin(x) + 0.5 * np.cos(x))
    return make_field(line, 0.0), s_hat, OneForm.constant(line, (5.0,))


@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_reports_carry_the_fresh_residual(offset, monkeypatch):
    # converged or not, a Newton report's residual_sup is sup|F(solution)|
    # from a freshly applied stencil, whatever residual it carried, and a
    # zero-degree report's is the unreduced one; offset moves every inner
    # solve's image
    _offset_images(monkeypatch, itertools.repeat(offset))
    prob = _variable_drift_problem(32)
    line = GridSpec((64,))
    unsolvable = KWProblem(OneForm.zero(line), -1.0, field_from(line, lambda x: np.sin(x) + 0.5))
    reports = [
        (prob, newton_solve(prob, make_field(prob.spec, 0.0))),
        (prob, newton_solve(prob, make_field(prob.spec, 0.0), maxiter=1)),
        (unsolvable, newton_solve(unsolvable, make_field(line, 0.0), maxiter=25)),
    ]
    assert reports[0][1].converged == (offset == 0.0)
    assert {rep.status for _, rep in reports[1:]} == {"max-iter", "not-certified"}
    for p, rep in reports:
        assert rep.residual_sup == float(np.max(np.abs(kwsolver._defect(rep.solution.values, p))))
    setup = GeometrySetup(1, 1.0)
    data = _zero_degree_drift_data()
    cases = [solve_prescribed(*data, setup), solve_prescribed(*data, setup, lin=STARVED)]
    assert [rep.method for _, rep in cases] == ["newton", "newton"]
    assert cases[0][1].converged == (offset == 0.0)
    assert cases[1][1].status == "not-certified"
    for u, rep in cases:
        assert rep.iterations >= 1
        defect = kwsolver._unreduced_defect(u.values, *data, setup.k_t)
        assert rep.residual_sup == float(np.max(np.abs(defect)))


def test_zero_degree_failure_reports_unconverged_inner_solves():
    _, rep = solve_prescribed(*_zero_degree_drift_data(), GeometrySetup(1, 1.0), lin=STARVED)
    assert (rep.status, rep.method) == ("not-certified", "newton")
    assert rep.message == "line search stalled; unconverged inner solves: 2"


def test_carried_residual_alone_never_converges(monkeypatch):
    # an offset image in the first step only: the carried residual
    # passes when the exact run converges, while the true one is still
    # near the offset.  Its fresh confirmation rejects it, and the next
    # steps, on the fresh residual, converge for real
    prob = _variable_drift_problem(32)
    w0 = make_field(prob.spec, 0.0)
    steps = newton_solve(prob, w0).iterations
    _offset_images(monkeypatch, [1e-6])
    applied = _count_calls(monkeypatch, kwsolver, "_apply")
    rep = newton_solve(prob, w0, maxiter=steps)
    assert rep.status == "max-iter"
    assert len(applied) == 2  # the start and the rejected confirmation
    assert rep.residual_sup > 1e-7
    _offset_images(monkeypatch, [1e-6])
    rep = newton_solve(prob, w0)
    assert rep.converged and rep.iterations > steps
    u = rep.solution.values
    scale = 1.0 - prob.c + float(np.max(np.abs(prob.phi.values * np.exp(u))))
    fresh = kwsolver._defect(u, prob)
    assert rep.residual_sup == float(np.max(np.abs(fresh))) <= kwsolver.DEFAULT_KW_TOL * scale


# ---------------------------------------------------------------------------
# phi e^w once per iterate, A w once per fresh residual
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name, record=lambda *args: 1):
    # calls of module.name, each recorded as record(*args)
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(record(*a)) or real(*a, **k))
    return calls


@pytest.mark.parametrize("case", ["negative", "zeros", "overflow"])
def test_line_search_keeps_the_accepted_phi_exp(case, monkeypatch):
    # the accepted trial's reaction is the phi e^w its residual used,
    # negated: _reaction(phi, trial) to the byte, with phi e^w formed once.
    # phi vanishes on every eighth point in the last two cases, where the
    # trial is e^800, which overflows, in the last
    spec = GridSpec((64,))
    x = field_from(spec, lambda x: 0.1 * np.sin(x)).values
    phi = field_from(spec, lambda x: -1.0 - 0.5 * np.cos(x)).values
    delta = np.full(spec.dims, -0.5)
    if case != "negative":
        phi[::8] = 0.0
        delta[::8] = 800.0 if case == "overflow" else 0.3
    reaction = kwsolver._reaction(phi, x)
    full_step = x + delta
    exps = _count_calls(monkeypatch, kwsolver, "_phi_exp")
    trial, _, reaction_try, _ = kwsolver._line_search(
        x, delta, np.full(spec.dims, 10.0), np.zeros(spec.dims), reaction, phi
    )
    monkeypatch.undo()
    assert len(exps) == 1  # the first trial, accepted
    assert np.array_equal(trial, full_step)
    assert reaction_try.tobytes() == kwsolver._reaction(phi, trial).tobytes()
    if case == "overflow":
        assert np.all(trial[::8] > np.log(np.finfo(float).max))  # e^w is inf


def test_newton_forms_phi_exp_once_per_iterate(monkeypatch):
    # a converged solve forms phi e^w for its start and for each line-search
    # trial, and applies the stencils for its start and for the one
    # confirmation of its answer; its inner solves apply none.  From -3 the
    # first step backtracks
    from kwtorus import linsolve

    prob = _variable_drift_problem(32)
    w0 = make_field(prob.spec, -3.0)
    trials = []
    real_search = kwsolver._line_search

    def search(x, delta, *args):
        x0, d0 = np.array(x), delta.copy()
        step = real_search(x, delta, *args)
        # the accepted step size 2^-j is the (j + 1)-th trial
        trials.append(next(j + 1 for j in range(kwsolver.LINE_SEARCH_HALVINGS)
                           if np.array_equal(step[0], d0 * 0.5**j + x0)))
        return step

    monkeypatch.setattr(kwsolver, "_line_search", search)
    exps = _count_calls(monkeypatch, kwsolver, "_phi_exp")
    applied = _count_calls(monkeypatch, kwsolver, "_apply", lambda alpha, w, *rest: w.copy())
    monkeypatch.setattr(linsolve, "_apply", kwsolver._apply)  # the inner solves' binding
    rep = newton_solve(prob, w0)
    assert rep.converged and len(trials) == rep.iterations > 1 and sum(trials) > rep.iterations
    assert len(exps) == 1 + sum(trials)
    assert len(applied) == 2
    assert np.array_equal(applied[0], w0.values)
    assert np.array_equal(applied[1], rep.solution.values)


def test_constant_s_takes_the_unreduced_residual_from_newton(monkeypatch):
    # a constant s reduces with g the zero constant, so u = w + 0 and the
    # unreduced residual sums Newton's A w: no stencil runs once Newton has
    # converged.  A varying s (g != 0) applies them once.  Both residuals
    # have the bytes of the one recomputed with the stencils
    from kwtorus import linsolve

    spec = GridSpec((32, 32))
    alpha = OneForm(spec, (
        field_from(spec, lambda x0, x1: 0.2 * np.sin(x1)),
        field_from(spec, lambda x0, x1: 0.2 * np.cos(x0)),
    ))
    s_hat = field_from(spec, lambda x0, x1: -1.0 - 0.3 * np.cos(x0))
    setup = GeometrySetup(1, 1.0)
    stencils = _count_calls(monkeypatch, linsolve, "_laplacian")
    returned = []  # stencil count when each Newton solve returns
    real_newton = kwsolver.newton_solve

    def newton(*args, **kwargs):
        rep = real_newton(*args, **kwargs)
        returned.append(len(stencils))
        return rep

    monkeypatch.setattr(kwsolver, "newton_solve", newton)
    varying = field_from(spec, lambda x0, x1: -1.0 + 0.2 * np.cos(x1))
    for s, after in ((make_field(spec, -1.0), 0), (varying, 1)):
        u, rep = solve_prescribed(s, s_hat, alpha, setup)
        assert (rep.status, rep.method) == ("converged", "newton")
        assert len(stencils) - returned[-1] == after
        assert rep.image is None
        resid = np.max(np.abs(kwsolver._unreduced_defect(u.values, s, s_hat, alpha, setup.k_t)))
        assert np.float64(rep.residual_sup).tobytes() == np.float64(resid).tobytes()


def test_no_caller_keeps_a_newton_image(monkeypatch):
    # a report verified by the constant pair carries A w, the stencils'
    # bits; one that the full pair verifies dropped it before its
    # mean-zero solve.  The bracket's probes keep only their solutions:
    # every image a probe's report carried is freed when the bracket returns
    import weakref

    from kwtorus.linsolve import _apply

    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: -1.0 - 0.3 * np.cos(x))
    real = kwsolver._solve_negative_c
    rep = real(KWProblem(OneForm.zero(spec), -1.0, phi))
    assert (rep.status, rep.method) == ("converged", "newton")
    assert rep.image.tobytes() == _apply(OneForm.zero(spec), rep.solution.values).tobytes()
    rep = real(KWProblem(OneForm.zero(spec), -1.0, field_from(spec, lambda x: -1.0 - np.sin(x))))
    assert (rep.status, rep.method) == ("converged", "newton") and rep.image is None
    images = []

    def probe(*args, **kwargs):
        rep = real(*args, **kwargs)
        if rep.image is not None:
            images.append(weakref.ref(rep.image))
        return rep

    monkeypatch.setattr(kwsolver, "_solve_negative_c", probe)
    critical_c_bracket(phi, OneForm.zero(spec), search_floor=-10.0)
    assert images and all(ref() is None for ref in images)


def test_round_trip_solve_holds_no_more_fields():
    # the traced peak of a 16^4 round trip's solve, in fields: the GMRES
    # basis (GMRES_RESTART + 2 allocated rows) and what the Newton loop
    # holds beside it, 61.511 fields with no Newton image among them.
    # Holding an image beside a solve adds a whole field
    import tracemalloc

    spec = GridSpec((16,) * 4)
    alpha = OneForm(spec, tuple(make_field(spec, a) for a in (0.1, 0.0, 0.05, 0.0)))
    setup = GeometrySetup(2, 0.0)
    u_star = field_from(spec, lambda *x: 0.4 * np.sin(x[0]) + 0.2 * np.cos(2 * x[0])
                        + 0.3 * np.sin(x[2]))
    s = make_field(spec, -1.0)
    s_hat = transform_s(s, u_star, alpha, setup)
    solve = lambda: solve_prescribed(s, s_hat, alpha, setup, maxiter=3000, monotone_budget=40)
    solve()  # caches: the FFT symbols of both grids
    tracemalloc.start()
    try:
        u, rep = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and float(np.max(np.abs(u.values - u_star.values))) <= 1e-8
    assert peak / (8 * spec.npoints) <= 61.52


# ---------------------------------------------------------------------------
# necessary / sufficient / construct_unsolvable
# ---------------------------------------------------------------------------

def test_necessary_constant():
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, make_field(spec, -1.0))
    nec = necessary_check(prob)
    assert nec.positive and nec.mean_negative
    assert np.max(np.abs(nec.phi0.values - 1.0)) < 1e-10


def test_necessary_on_constructed_unsolvable():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    psi = _sin_field(spec)
    phi = construct_unsolvable(psi, 0.1, -1.0, alpha)
    expect = field_from(spec, lambda x: -2 * np.sin(x) - 0.1)
    assert np.max(np.abs(phi.values - expect.values)) < 1e-5
    assert np.isclose(mean(phi), -0.1, atol=1e-12)
    nec = necessary_check(KWProblem(alpha, -1.0, phi))
    assert not nec.positive
    assert np.max(np.abs(nec.phi0.values - (psi.values + 0.1))) < 1e-8


def test_necessary_positive_forcing():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: -2 + np.sin(x))
    nec = necessary_check(KWProblem(OneForm.zero(spec), -1.0, phi))
    assert nec.positive and nec.mean_negative


def test_construct_unsolvable_preconditions():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    psi = _sin_field(spec)
    with pytest.raises(CertificateError, match="change sign"):
        construct_unsolvable(psi, 2.0, -1.0, alpha)
    with pytest.raises(CertificateError, match="zero mean"):
        construct_unsolvable(make_field(spec, 0.3), 0.1, -1.0, alpha)


def test_sufficient_check_cases():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    certified, a_star = sufficient_check(KWProblem(alpha, -1.0, make_field(spec, -1.0)), 2.0, 3.0)
    assert certified and a_star < 0
    certified, a_star = sufficient_check(KWProblem(alpha, -1.0, make_field(spec, 1.0)), 2.0, 3.0)
    assert not certified and a_star == 0.0
    phi = field_from(spec, lambda x: -1 + 0.01 * np.sin(x))
    certified, a_star = sufficient_check(KWProblem(alpha, -1.0, phi), 2.0, 3.0)
    assert certified
    assert 0.25 <= -a_star <= 4.0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_constant_exact():
    spec = GridSpec((64,))
    rows = asymptotic_suite(make_field(spec, 1.0), OneForm.zero(spec), [-2.0, -8.0])
    for _, dev in rows:
        assert dev <= 1e-10


def test_asymptotic_sin_rate():
    spec = GridSpec((256,))
    f = _sin_field(spec)
    rows = asymptotic_suite(f, OneForm.zero(spec), [-9.0, -99.0])
    assert np.isclose(rows[0][1], 0.1, rtol=1e-4)
    assert np.isclose(rows[1][1], 0.01, rtol=1e-4)


def test_asymptotic_nonincreasing():
    spec = GridSpec((128,))
    f = field_from(spec, lambda x: np.sin(x) + 0.3 * np.cos(2 * x))
    cs = [-4.0, -16.0, -64.0, -256.0]
    rows = asymptotic_suite(f, OneForm.zero(spec), cs)
    devs = [dev for _, dev in rows]
    assert all(b <= a for a, b in zip(devs, devs[1:]))


# ---------------------------------------------------------------------------
# critical constant bracket
# ---------------------------------------------------------------------------

def test_bracket_sentinel_for_nonpositive_phi():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: -(1 + 0.5 * np.sin(x)))
    br = critical_c_bracket(phi, OneForm.zero(spec), -1e6)
    assert br.c_lo == -1e6
    assert br.lo_evidence == "search-limit" and br.lo_message == ""
    assert br.hi_evidence == "solved"
    assert all(outcome == "solved" for _, outcome in br.probes)


def test_bracket_on_unsolvable_instance():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    phi = construct_unsolvable(_sin_field(spec), 0.1, -1.0, alpha)
    br = critical_c_bracket(phi, alpha, -1e6)
    assert br.c_lo >= -1.0
    assert br.hi_evidence == "solved"
    assert br.c_lo <= br.c_hi < 0
    assert abs(br.c_lo - br.c_hi) <= 0.011 * abs(br.c_hi)


def test_bracket_keeps_the_message_of_the_probe_at_c_lo(monkeypatch):
    # the failed probe that sets c_lo explains itself: its report message,
    # or its status when it has none
    spec = GridSpec((16,))
    alpha = OneForm.zero(spec)
    phi = construct_unsolvable(_sin_field(spec), 0.1, -1.0, alpha)
    failures = {}
    real = kwsolver._solve_negative_c

    def probe(prob, **kwargs):
        report = real(prob, **kwargs)
        if not report.converged:
            failures[prob.c] = report.message or report.status
        return report

    monkeypatch.setattr(kwsolver, "_solve_negative_c", probe)
    br = critical_c_bracket(phi, alpha, -1e6)
    assert br.lo_evidence == "solver-failed" and br.c_lo in failures
    assert br.lo_message == failures[br.c_lo] != ""


def test_bracket_probes_the_search_floor():
    # the floor is the descent's last rung: solved, it closes the bracket
    # on itself; failed, it is bisected like any other failure
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    phi = field_from(spec, lambda x: -1 + 1.2 * np.sin(x))
    br = critical_c_bracket(phi, alpha, -0.015)
    assert br.probes == [(-0.01, "solved"), (-0.015, "solved")]
    assert br.c_lo == br.c_hi == -0.015
    assert (br.lo_evidence, br.hi_evidence) == ("search-limit", "solved")

    br = critical_c_bracket(phi, alpha, -1.2)  # fails from about -1.01
    assert br.probes[6:8] == [(-0.64, "solved"), (-1.2, "solver-failed")]
    assert br.lo_evidence == "solver-failed" and br.hi_evidence == "solved"
    assert -1.2 < br.c_lo <= br.c_hi < -0.64
    assert abs(br.c_lo - br.c_hi) <= kwsolver.BRACKET_REL_WIDTH * abs(br.c_hi)


def test_bracket_with_no_solved_probe_ends_at_the_walk_limit():
    # the first rung fails and no probe solves down to BRACKET_EPS 2^-20:
    # c_hi is half the last failed c, with search-limit evidence
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) - 1e-12)
    br = critical_c_bracket(phi, OneForm.zero(spec), -1e6)
    assert len(br.probes) == 20
    assert all(outcome == "necessary-failed" for _, outcome in br.probes)
    assert br.c_lo == -1.9073486328125e-08 and br.lo_evidence == "necessary-failed"
    assert br.c_hi == -9.5367431640625002e-09 and br.hi_evidence == "search-limit"


def test_bracket_rejects_positive_mean():
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: np.sin(x) + 0.5)
    with pytest.raises(SolvabilityError):
        critical_c_bracket(phi, OneForm.zero(spec), -1e6)


@pytest.mark.parametrize("tol", [1e-16, 1e-18])
def test_newton_stalled_at_the_round_off_floor_stops(tol):
    # a tolerance below the stencils' round-off cannot be met alone: the
    # test adds that round-off, so Newton stops at the floor, converged,
    # instead of running out its budget
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, field_from(spec, lambda x: -1.0 - 0.3 * np.cos(x)))
    rep = newton_solve(prob, make_field(spec, 0.0), tol=tol)
    assert (rep.status, rep.message) == ("converged", "")
    assert rep.iterations < 10
    w = rep.solution.values
    assert rep.residual_sup == float(np.max(np.abs(kwsolver._defect(w, prob))))
    scale = 1.0 + abs(prob.c) + float(np.max(np.abs(prob.phi.values * np.exp(w))))
    assert rep.residual_sup <= tol * scale + _round_off(prob.alpha, 0.0, float(np.max(np.abs(w))))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_pipeline_trivial_constant():
    spec = GridSpec((64,))
    setup = GeometrySetup(1, 1.0)
    s = make_field(spec, -1.0)
    u, rep = solve_prescribed(s, s, OneForm.zero(spec), setup)
    assert rep.status == "converged"
    assert np.max(np.abs(u.values)) < 1e-8
    assert rep.residual_sup < 1e-8


def test_pipeline_roundtrip_rank4_bismut():
    # degenerate parameter: pointwise solve is exact
    spec = GridSpec((8, 8, 8, 8))
    setup = GeometrySetup(2, -1.0)
    alpha = OneForm.zero(spec)
    ustar = field_from(spec, lambda x0, x1, x2, x3: 0.4 * np.sin(x0) + 0.2 * np.cos(2 * x0))
    s = make_field(spec, -1.0)
    s_hat = transform_s(s, ustar, alpha, setup)
    u, rep = solve_prescribed(s, s_hat, alpha, setup)
    assert rep.status == "converged"
    assert rep.method == "degenerate"
    assert np.max(np.abs(u.values - ustar.values)) < 1e-14


def test_pipeline_certified_unsolvable():
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    setup = GeometrySetup(1, 1.0)  # k=1, so c = 2 mean(s), phi = 2 e^g s_hat
    c = -1.0
    phi = construct_unsolvable(_sin_field(spec), 0.1, c, alpha)
    s = make_field(spec, c / 2.0)  # constant s gives that c and g = 0
    s_hat = ScalarField(spec, 0.5 * phi.values)
    u, rep = solve_prescribed(s, s_hat, alpha, setup)
    assert rep.status == "certified-unsolvable"


def test_pipeline_zero_degree_linear_case(monkeypatch):
    # c = 0 with s_hat = 0: u is the reduction's g, bit for bit, with the
    # iteration count of its solve, and kwsolver runs no mean-zero solve
    # of its own; without drift and on 16^2 with a varying one
    calls = []
    real = kwsolver.solve_meanzero
    monkeypatch.setattr(
        kwsolver, "solve_meanzero", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    spec, drift = GridSpec((128,)), GridSpec((16, 16))
    setup = GeometrySetup(1, 1.0)
    cases = [
        (_sin_field(spec), OneForm.zero(spec)),  # mean zero -> c = 0
        (field_from(drift, lambda x0, x1: np.sin(x0) + 0.5 * np.cos(x1)),
         OneForm(drift, (field_from(drift, lambda x0, x1: 0.2 * np.sin(x1)),
                         field_from(drift, lambda x0, x1: 0.2 * np.cos(x0))))),
    ]
    for s, alpha in cases:
        s_hat = make_field(s.spec, 0.0)
        u, rep = solve_prescribed(s, s_hat, alpha, setup)
        red, stats = reduce_problem(s, s_hat, alpha, setup)
        assert (rep.status, rep.method) == ("converged", "linear")
        assert u.values.tobytes() == red.g.values.tobytes()
        assert rep.iterations == stats.iterations
        if s.spec == spec:  # laplacian u = -2 sin  =>  u = -2 sin
            expect = field_from(spec, lambda x: -2 * np.sin(x))
            assert np.max(np.abs(u.values - expect.values)) < 1e-6
    assert calls == []


def test_pipeline_strategies_positive_degree():
    spec = GridSpec((64,))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.zero(spec)
    ustar = field_from(spec, lambda x: 0.05 * np.sin(x))
    s = make_field(spec, 0.3)
    s_hat = transform_s(s, ustar, alpha, setup)
    u, rep = solve_prescribed(s, s_hat, alpha, setup)
    assert (rep.status, rep.method) == ("converged", "newton")
    assert np.max(np.abs(u.values - ustar.values)) < 1e-6


def test_positive_degree_retries_from_the_averaged_start(monkeypatch):
    # c = 0.6 > 0 and mean(phi) > 0: a failed run from zero is followed by
    # one from the constant log(c / mean(phi)); when both fail, the first
    # report stands and its message names the second's status
    spec = GridSpec((64,))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.zero(spec)
    s = make_field(spec, 0.3)
    s_hat = transform_s(s, field_from(spec, lambda x: 0.05 * np.sin(x)), alpha, setup)
    real = kwsolver.newton_solve
    starts = []

    def newton(prob, w0, **kwargs):
        starts.append(float(w0.values.flat[0]))
        return real(prob, w0, **kwargs, **({"maxiter": 0} if len(starts) <= failing else {}))

    monkeypatch.setattr(kwsolver, "newton_solve", newton)
    phi_bar = float(np.mean(2.0 * s_hat.values))
    for failing, status in ((1, "converged"), (2, "max-iter")):
        starts.clear()
        _, rep = solve_prescribed(s, s_hat, alpha, setup)
        assert starts == [0.0, np.log(0.6 / phi_bar)]
        assert (rep.status, rep.method) == (status, "newton")
    assert rep.iterations == 0 and rep.message == "from the averaged start: max-iter"


def _three_modes(rng, spec, amp, level=0.0):
    """level plus three random Fourier modes of amplitude at most amp."""
    x = spec.coords()
    v = np.full(spec.dims, level)
    for _ in range(3):
        wave = rng.integers(1, 3) * x[rng.integers(spec.rank)] + rng.uniform(0.0, 2.0 * np.pi)
        v = v + amp * rng.uniform(-1.0, 1.0) * np.cos(wave)
    return ScalarField(spec, v)


def _escape_ratio(u, s, s_hat, alpha, k):
    """|mean F| / mean(|phi| e^w) of the unreduced equation at u: the
    reduced ratio, since phi e^w = (2/k) s_hat e^u."""
    defect = kwsolver._unreduced_defect(u.values, s, s_hat, alpha, k)
    return abs(float(np.mean(defect))) / float(np.mean((2.0 / k) * np.abs(s_hat.values)
                                                       * np.exp(u.values)))


def _seeded_problems(seed, setup):
    """20 problems (kind, alpha, s, s_hat, u*): zero-degree round trips
    (with mean-zero and shifted u*), zero-degree general s_hat and c > 0,
    on 64 points with constant drift and on 32^2 without."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(20):
        kind = ("round-trip", "shifted-round-trip", "zero-degree", "positive")[i % 4]
        if i // 4 % 2 == 0:
            spec = GridSpec((64,))
            alpha = OneForm.constant(spec, (0.2,))
        else:
            spec = GridSpec((32, 32))
            alpha = OneForm.zero(spec)
        s = _three_modes(rng, spec, 0.5)
        s = ScalarField(spec, s.values - mean(s))  # mean(s) = 0: zero degree
        u_star = None
        if kind == "positive":
            s = ScalarField(spec, s.values + rng.uniform(0.05, 0.5))
            s_hat = _three_modes(rng, spec, 0.3, rng.uniform(0.2, 1.0))
        elif kind == "zero-degree":
            s_hat = _three_modes(rng, spec, 0.5, rng.uniform(-1.0, 1.0))
        else:
            level = rng.uniform(-1.0, 1.0) if kind == "shifted-round-trip" else 0.0
            u_star = _three_modes(rng, spec, 0.3, level)
            s_hat = transform_s(s, u_star, alpha, setup)
        problems.append((kind, alpha, s, s_hat, u_star))
    return problems


def _sweep_problems(setup):
    """141 problems: seed 29's 20, a round trip that only continuation
    solved when a fixed order of Newton, fixed-point and continuation
    ran (problem 0 of seed 104, its coefficients rounded), then the 20 of
    each seed 100-105."""
    problems = _seeded_problems(29, setup)
    spec = GridSpec((64,))
    alpha = OneForm.constant(spec, (0.2,))
    s = field_from(spec, lambda x: -0.28 * np.cos(2 * x + 4.35) - 0.12 * np.cos(2 * x + 0.79)
                   - 0.09 * np.cos(x + 4.62))
    u_star = field_from(spec, lambda x: 0.19 * np.cos(2 * x + 4.05) + 0.15 * np.cos(x + 3.38)
                        - 0.17 * np.cos(x + 5.19))
    problems.append(("continuation-only", alpha, s, transform_s(s, u_star, alpha, setup), u_star))
    for seed in range(100, 106):
        problems += _seeded_problems(seed, setup)
    return problems


# the 93 problems of _sweep_problems that converged when solve_prescribed
# ran Newton from 0, fixed_point_solve and continuation_solve in a fixed
# order: 74 by Newton, 13 by fixed-point and 6 by continuation
FIXED_ORDER_CONVERGED = (
    0, 1, 4, 5, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 22, 24, 25, 26, 28, 29, 30, 32, 33, 36,
    37, 40, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 56, 57, 58, 60, 61, 64, 65, 66, 69, 70,
    71, 72, 73, 74, 77, 78, 80, 81, 82, 84, 85, 89, 90, 92, 93, 97, 98, 100, 101, 102, 104, 105,
    106, 107, 108, 109, 110, 112, 113, 114, 116, 117, 120, 121, 122, 125, 127, 128, 129, 132, 133,
    134, 136, 137, 140,
)


def test_fixed_order_solves_every_case_that_one_of_its_solvers_solves():
    # Newton alone, on its scale-free merit at zero degree, converges
    # wherever the former fixed order of three solvers converged, and on
    # 113 of the 141 problems at this writing.  None of its converged
    # answers has escaped toward -inf, and a converged round trip lies
    # within 10 kw_tol of u*
    setup = GeometrySetup(1, 1.0)
    bound = np.sqrt(kwsolver.DEFAULT_KW_TOL)
    converged = []
    for i, (kind, alpha, s, s_hat, u_star) in enumerate(_sweep_problems(setup)):
        u, rep = solve_prescribed(s, s_hat, alpha, setup)
        if not rep.converged:
            continue
        converged.append(i)
        assert rep.method == "newton", (i, kind)
        assert _escape_ratio(u, s, s_hat, alpha, setup.k_t) <= bound, (i, kind)
        if u_star is not None:
            assert np.max(np.abs(u.values - u_star.values)) <= 10.0 * kwsolver.DEFAULT_KW_TOL
    assert len(FIXED_ORDER_CONVERGED) == 93
    assert set(FIXED_ORDER_CONVERGED) <= set(converged)
    assert len(converged) >= 113


def test_escaped_zero_degree_answer_is_not_converged(monkeypatch):
    # the escape test stays as a safety check: a converged Newton answer
    # shifted down to w = -30 passes a residual test of its size, and
    # solve_prescribed reports it not-certified
    data = _zero_degree_drift_data()

    def escaped(prob, w0, **kwargs):
        return SolveReport(make_field(prob.spec, -30.0), "converged", [0.0, -30.0], 0.0, "newton",
                           iterations=1)

    monkeypatch.setattr(kwsolver, "newton_solve", escaped)
    u, rep = solve_prescribed(*data, GeometrySetup(1, 1.0))
    assert (rep.status, rep.method) == ("not-certified", "newton")
    assert rep.message.startswith("escaped toward -inf: |mean F| = ")
    assert np.all(u.values == -30.0)  # s = 0, so g = 0


def test_zero_degree_step_is_the_rescaled_newton_step(monkeypatch):
    # at zero degree the step of H(w) = e^(-mean w) F(w) is the plain
    # Newton step delta over 1 + mean delta, from the same solve, with
    # A delta rescaled alike and tilt its mean; and it solves
    # H'(x) step = -H(x), that is F' step - mean(step) F = -F
    spec = GridSpec((32, 32))
    alpha = OneForm.constant(spec, (0.3, -0.2))
    phi = field_from(spec, lambda x0, x1: -0.2 + np.sin(x0) + 0.5 * np.cos(x1)).values
    prob = KWProblem(alpha, 0.0, ScalarField(spec, phi))
    x = field_from(spec, lambda x0, x1: -0.5 + 0.3 * np.cos(x0 + x1)).values
    r = kwsolver._defect(x, prob)
    reaction = -phi * np.exp(x)
    delta, stats = kwsolver._solve_system(alpha, reaction, -r, rtol=1e-12)
    taken = {}

    def line_search(x, delta, r, a_delta, reaction, phi, tilt):
        taken.update(delta=delta.copy(), a_delta=a_delta.copy(), tilt=tilt)

    monkeypatch.setattr(kwsolver, "_line_search", line_search)
    kwsolver._newton_step(x, r.copy(), reaction.copy(), phi, alpha, None, 1e-12, scale_free=True)
    border = 1.0 + float(np.mean(delta))
    assert abs(border - 1.0) > 0.01  # the rescaling is no identity here
    assert np.array_equal(taken["delta"], delta / border)
    assert np.array_equal(taken["a_delta"], stats.image / border)
    assert taken["tilt"] == float(np.mean(delta / border))
    step = taken["delta"]
    h_newton = kwsolver._apply(alpha, step) + reaction * step - np.mean(step) * r + r
    assert np.max(np.abs(h_newton)) <= 1e-9 * np.max(np.abs(r))


@pytest.mark.parametrize("tilt", [-3.0, 0.0, 3.0])
def test_line_search_accepts_on_the_tilted_merit(tilt):
    # the first of s = 1, 1/2, ... with |F(x + s delta)| < |F(x)| e^(s tilt)
    # is accepted; fresh residuals, computed here, pick the same s.  The
    # step overshoots three times the Newton step, so each tilt stops at
    # another s
    spec = GridSpec((64,))
    alpha = OneForm.constant(spec, (0.2,))
    phi = field_from(spec, lambda x: -0.2 + np.sin(x)).values
    prob = KWProblem(alpha, 0.0, ScalarField(spec, phi))
    x = field_from(spec, lambda x: -1.0 + 0.3 * np.cos(x)).values
    r = kwsolver._defect(x, prob)
    reaction = -phi * np.exp(x)
    delta, _ = kwsolver._solve_system(alpha, reaction, -r, rtol=1e-12)
    delta *= 3.0
    merit0 = float(np.linalg.norm(r))
    expected = next(2.0**-j for j in range(40) if float(np.linalg.norm(
        kwsolver._defect(x + 2.0**-j * delta, prob))) < merit0 * np.exp(2.0**-j * tilt))
    trial, _, _, norm = kwsolver._line_search(
        x, delta.copy(), r.copy(), kwsolver._apply(alpha, delta), reaction.copy(), phi, tilt=tilt
    )
    assert np.array_equal(trial, x + expected * delta)
    assert norm < merit0 * np.exp(expected * tilt)
    assert expected == {-3.0: 0.25, 0.0: 0.5, 3.0: 1.0}[tilt]


def test_zero_degree_forcing_term_compares_the_scale_free_merit(monkeypatch):
    # at zero degree the forcing term, like the line search, reads the
    # merit e^(-mean w) |F(w)| of each iterate, not |F(w)|
    data = _zero_degree_drift_data()
    red, _ = reduce_problem(*data, GeometrySetup(1, 1.0))
    prob = KWProblem(data[2], red.c, red.phi)
    iterates = _count_calls(monkeypatch, kwsolver, "_newton_step", lambda x, *args: x.copy())
    norms = _count_calls(monkeypatch, kwsolver, "_forcing", lambda norm, prev, *args: (norm, prev))
    rep = newton_solve(prob, kwsolver._oscillation_start(prob, None))
    assert rep.converged and len(iterates) == len(norms) >= 3
    merits = [float(np.linalg.norm(kwsolver._defect(x, prob))) * np.exp(-np.mean(x))
              for x in iterates]
    assert abs(np.mean(iterates[0])) > 0.5  # so the two merits differ
    for i, (norm, prev) in enumerate(norms):
        assert norm == pytest.approx(merits[i], rel=1e-6)
        assert prev == (None if i == 0 else norms[i - 1][0])


def test_constant_start_reports_the_singular_border(monkeypatch):
    # at a constant w and c = 0, F'(-1) = phi e^w = -F: delta = -1, so
    # 1 + mean delta = 0 and the scale-free step does not exist.  Newton
    # reports that, not-certified, with no solve and no step
    spec = GridSpec((64,))
    prob = KWProblem(OneForm.constant(spec, (0.2,)), 0.0, field_from(spec, lambda x: -0.2 + np.sin(x)))
    solves = _count_calls(monkeypatch, kwsolver, "_solve_system")
    for level in (0.0, -3.0):
        rep = newton_solve(prob, make_field(spec, level))
        assert (rep.status, rep.iterations) == ("not-certified", 0)
        assert rep.message == "scale-free step is singular: 1 + mean(delta) = 0 at a constant iterate"
        defect = kwsolver._defect(np.full(spec.dims, level), prob)
        assert rep.residual_sup == float(np.max(np.abs(defect)))
    assert solves == []


# ---------------------------------------------------------------------------
# read-only inputs: make_field and constant expressions hold one number
# in a read-only view, so a solver that wrote into a field it was given
# would raise ValueError
# ---------------------------------------------------------------------------

def _frozen(f: ScalarField) -> ScalarField:
    """f with read-only values, like every field these tests pass in."""
    values = f.values.copy()
    values.flags.writeable = False
    return ScalarField(f.spec, values)


@pytest.mark.parametrize("varying", [False, True])
def test_strategies_never_write_into_their_inputs(varying):
    # Newton is the one c > 0 method
    spec = GridSpec((32, 32))
    setup = GeometrySetup(1, 1.0)
    alpha = OneForm.constant(spec, (0.1, 0.05))
    s = make_field(spec, 0.3)
    if varying:
        ustar = field_from(spec, lambda x0, x1: 0.05 * np.sin(x0) + 0.03 * np.cos(x1))
        s_hat = _frozen(transform_s(s, ustar, alpha, setup))
    else:
        ustar, s_hat = make_field(spec, np.log(1.5)), make_field(spec, 0.2)
    _, rep = solve_prescribed(s, s_hat, alpha, setup)
    assert (rep.status, rep.method) == ("converged", "newton")
    assert np.max(np.abs(rep.solution.values - ustar.values)) < 1e-6


@pytest.mark.parametrize("varying", [False, True])
def test_monotone_fallback_never_writes_into_its_inputs(monkeypatch, varying):
    # the escaping Newton answer is rejected, so the monotone iteration
    # starts from make_field(low) between constant or frozen data
    spec = GridSpec((32, 32))
    alpha = OneForm.constant(spec, (0.1, 0.05))
    if varying:
        phi = _frozen(field_from(spec, lambda x0, x1: -1.0 - 0.3 * np.cos(x0)))
    else:
        phi = make_field(spec, -0.5)
    monkeypatch.setattr(kwsolver, "newton_solve", escaping_newton)
    rep = kwsolver._solve_negative_c(KWProblem(alpha, -1.0, phi))
    assert (rep.status, rep.method) == ("converged", "monotone")


@pytest.mark.parametrize("varying", [False, True])
def test_bracket_never_writes_into_its_inputs(varying):
    spec = GridSpec((64,))
    if varying:
        phi = _frozen(field_from(spec, lambda x: -2.0 * np.sin(x) - 0.1))
    else:
        phi = make_field(spec, -1.0)
    br = critical_c_bracket(phi, OneForm.zero(spec), search_floor=-100.0)
    assert br.hi_evidence == "solved"
    assert (br.c_lo == -100.0) is not varying


def test_newton_drops_its_start_after_the_first_step(monkeypatch):
    # no step reads the start after the first, so newton_solve keeps no
    # reference to it: at 24^4 that is one 2.65 MB field less at the peak
    import weakref

    spec = GridSpec((64,))
    prob = KWProblem(OneForm.zero(spec), -1.0, field_from(spec, lambda x: -1.0 - 0.5 * np.sin(x)))
    refs, alive = [], []
    real = kwsolver._newton_step

    def step(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return real(*args, **kwargs)

    def start():
        values = np.full(spec.dims, 0.5)
        refs.append(weakref.ref(values))
        return ScalarField(spec, values)

    monkeypatch.setattr(kwsolver, "_newton_step", step)
    rep = newton_solve(prob, start())
    assert rep.converged and len(alive) >= 2
    assert alive[0] and not any(alive[1:])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_scaling_equivariance():
    rng = np.random.default_rng(33)
    spec = GridSpec((64,))
    alpha = divergence_free_form(spec, rng)
    _, phi = manufactured_negative_phi(spec, alpha, -1.0, rng)
    lam = 5.0
    rep1 = _solve(KWProblem(alpha, -1.0, phi))
    rep2 = _solve(KWProblem(alpha, -1.0, ScalarField(spec, lam * phi.values)))
    shift = rep1.solution.values - np.log(lam)
    assert np.max(np.abs(rep2.solution.values - shift)) < 1e-8


def _solve(prob, maxiter=3000):
    rep = monotone_solve(
        prob, build_subsolution(prob), build_supersolution(prob), maxiter=maxiter
    )
    assert rep.status == "converged"
    return rep


def test_comparison_certificate_transfer():
    # a supersolution built for phi stays one for any pointwise smaller phi
    rng = np.random.default_rng(34)
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    _, phi = manufactured_negative_phi(spec, alpha, -1.0, rng)
    prob = KWProblem(alpha, -1.0, phi)
    wp = build_supersolution(prob)
    phi_smaller = ScalarField(spec, phi.values - 0.3)
    ok, _ = is_supersolution(wp, KWProblem(alpha, -1.0, phi_smaller))
    assert ok


def test_uniqueness_monotone_vs_newton():
    rng = np.random.default_rng(35)
    spec = GridSpec((64,))
    alpha = divergence_free_form(spec, rng)
    _, phi = manufactured_negative_phi(spec, alpha, -1.0, rng)
    prob = KWProblem(alpha, -1.0, phi)
    rep_m = _solve(prob)
    wp = build_supersolution(prob)
    rep_n = newton_solve(prob, wp)
    assert rep_n.status == "converged"
    assert np.max(np.abs(rep_m.solution.values - rep_n.solution.values)) < 1e-6


def test_converged_c_negative_implies_necessary_holds():
    rng = np.random.default_rng(36)
    spec = GridSpec((64,))
    alpha = OneForm.zero(spec)
    for c in (-0.1, -1.0, -10.0):
        _, phi = manufactured_negative_phi(spec, alpha, c, rng)
        prob = KWProblem(alpha, c, phi)
        rep = _solve(prob)
        nec = necessary_check(prob)
        assert nec.positive and nec.mean_negative
        assert mean(phi) < 0
