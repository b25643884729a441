"""Existence machinery for  laplacian(w) + <alpha, dw> + c = phi e^w.

For c < 0 the solvable region is certified constructively:

* a constant subsolution always exists;
* a supersolution is built either as a constant (phi strictly negative),
  from the mean-zero solve of  A v = phi - mean(phi)  (phi nonpositive),
  or through an oscillation-bounded search on a v (phi changes sign,
  possible only for c close enough to zero);
* an ordered pair feeds the monotone iteration
      (A + lambda) w_{i+1} = phi e^{w_i} - c + lambda w_i,   w_0 = w_-,
  whose iterates increase pointwise to the solution.

The necessary test (the shifted solve of -phi must be positive) is the
only nonexistence certificate; solver failure is never reported as
nonexistence.  A damped Newton iteration provides fast polishing and a
fallback when no supersolution certificate is found, and the fixed-point
and continuation solvers cover the best-effort regimes c >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateError,
    ConfigError,
    DegenerateError,
    GauduchonError,
    SolvabilityError,
    SolverError,
)
from .geometry import GeometrySetup, recover_metric, reduce_problem
from .grid import GridSpec, OneForm, ScalarField, make_field
from .linsolve import (
    LinearOptions,
    _apply,
    _solve_system,
    solve_meanzero,
    solve_shifted,
)
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
    gauduchon_defect,
    lp_norm,
    mean,
)

DEFAULT_KW_TOL = 1e-9
DEFAULT_KW_MAXITER = 500
DEFAULT_NEWTON_MAXITER = 50
CERT_TOL = 1e-9
C_ZERO_TOL = 1e-12

# inexact Newton steps cap the inner Krylov work; stagnating past this
# point never helps because the line search judges the step anyway
NEWTON_INNER_MAXITER = 2000
NEWTON_INNER_RTOL = 1e-6
LINE_SEARCH_HALVINGS = 40
STRATEGIES = ("auto", "newton", "fixed-point", "continuation")


@dataclass(frozen=True)
class KWProblem:
    """Problem data (alpha, c, phi) for the exponential equation."""

    alpha: OneForm
    c: float
    phi: ScalarField

    def __post_init__(self):
        if self.phi.spec != self.alpha.spec:
            raise GauduchonError("phi and alpha live on mismatched grids")
        defect = gauduchon_defect(self.alpha)
        scale = 1.0 + max(
            float(np.max(np.abs(comp.values))) for comp in self.alpha.components
        )
        if defect > DEFAULT_GAUDUCHON_TOL * scale:
            raise GauduchonError(
                f"one-form is not co-closed: divergence sup-norm {defect:.3e}"
            )

    @property
    def spec(self) -> GridSpec:
        return self.phi.spec


@dataclass
class SolveReport:
    """Outcome of a nonlinear solve.

    status is one of converged, max-iter, certified-unsolvable, or
    not-certified (stall or divergence without a nonexistence
    certificate).  trace records the supremum of each iterate; for the
    monotone method it is nondecreasing.  min_step_trace records the
    pointwise minimum of each update, which certifies the pointwise
    monotonicity of the iteration.
    """

    solution: ScalarField
    status: str
    trace: list[float]
    residual_sup: float
    method: str
    iterations: int = 0
    min_step_trace: list[float] | None = None
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class Bracket:
    """Interval estimate for the critical constant below which the
    equation stops being solvable.  c_hi carries solvable evidence, c_lo
    unsolvable-or-search-limit evidence."""

    c_lo: float
    c_hi: float
    lo_evidence: str
    hi_evidence: str
    probes: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        if not (self.c_lo <= self.c_hi < 0):
            raise ValueError("bracket needs c_lo <= c_hi < 0")


@dataclass(frozen=True)
class NecessaryCheck:
    phi0: ScalarField
    positive: bool
    mean_negative: bool


# ---------------------------------------------------------------------------
# Pointwise defect and certificates
# ---------------------------------------------------------------------------

def _phi_exp(phi_vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    # phi * e^w with 0 * inf resolved to 0 where phi vanishes
    with np.errstate(over="ignore", invalid="ignore"):
        prod = phi_vals * np.exp(w)
    return np.where(phi_vals == 0.0, 0.0, prod)


def _defect(w: np.ndarray, prob: KWProblem, alpha_vals) -> np.ndarray:
    # laplacian(w) + <alpha, dw> + c - phi e^w
    return _apply(w, prob.spec, alpha_vals, 0.0) + prob.c - _phi_exp(prob.phi.values, w)


def _alpha_values(alpha: OneForm):
    return [c.values for c in alpha.components]


def is_subsolution(
    w: ScalarField, prob: KWProblem, tol: float = CERT_TOL
) -> tuple[bool, float]:
    """True when the defining field is <= tol everywhere; margin is its max."""
    if w.spec != prob.spec:
        raise ValueError("field and problem live on mismatched grids")
    d = _defect(w.values, prob, _alpha_values(prob.alpha))
    margin = float(np.max(d))
    return margin <= tol, margin


def is_supersolution(
    w: ScalarField, prob: KWProblem, tol: float = CERT_TOL
) -> tuple[bool, float]:
    """True when the defining field is >= -tol everywhere; margin is its min."""
    if w.spec != prob.spec:
        raise ValueError("field and problem live on mismatched grids")
    d = _defect(w.values, prob, _alpha_values(prob.alpha))
    margin = float(np.min(d))
    return margin >= -tol, margin


def build_subsolution(prob: KWProblem) -> ScalarField:
    """Constant subsolution for c < 0: low enough that phi e^w stays above c."""
    if prob.c >= 0:
        raise CertificateError("constant subsolution construction needs c < 0")
    phi_neg_sup = float(np.max(np.maximum(-prob.phi.values, 0.0)))
    if phi_neg_sup == 0.0:
        level = 0.0
    else:
        level = min(0.0, float(np.log(-prob.c / phi_neg_sup)) - 0.1)
    w = make_field(prob.spec, level)
    ok, margin = is_subsolution(w, prob)
    if not ok:
        raise CertificateError(f"subsolution verification failed, margin {margin:.3e}")
    return w


def build_supersolution(
    prob: KWProblem, lin: LinearOptions | None = None
) -> ScalarField | None:
    """Supersolution for c < 0, or None when the search cannot certify one.

    Nonpositive phi admits a certificate at every c < 0; sign-changing phi
    only for c >= a*mean(phi)/2 with a small enough to bound the
    oscillation of e^{a v}, which fails for c far below zero even when the
    equation happens to be solvable.
    """
    c = prob.c
    if c >= 0:
        raise CertificateError("supersolution construction needs c < 0")
    phi = prob.phi.values
    phi_bar = mean(prob.phi)
    if phi_bar >= 0:
        raise CertificateError(
            f"necessary condition violated: mean(phi) = {phi_bar:.3e} >= 0"
        )
    phi_max = float(np.max(phi))
    phi_sup = float(np.max(np.abs(phi)))
    if phi_sup == 0.0:
        raise CertificateError("phi vanishes identically")

    candidates: list[ScalarField] = []
    if phi_max <= 0.0:
        if phi_max < 0.0:
            # strictly negative phi: a constant high enough that phi e^w <= c
            level = float(np.log(c / phi_max)) + 0.1
            candidates.append(make_field(prob.spec, level))
        # nonpositive phi: w_+ = a v + b with a mean(phi) < c and e^{a v + b} > a
        v, _ = _solve_for_v(prob, lin)
        a = 1.1 * c / phi_bar
        b = float(np.log(a)) - a * float(np.min(v.values)) + 0.1
        candidates.append(ScalarField(prob.spec, a * v.values + b))
    else:
        # sign change: largest a with sup|e^{a v} - 1| <= -mean/2 sup and
        # a mean(phi)/2 <= c; if that oscillation recipe is infeasible, an
        # exact pointwise search over the constant offset can still find a
        # supersolution of the same a v + b shape
        v, _ = _solve_for_v(prob, lin)
        bound = -phi_bar / (2.0 * phi_sup)
        a_min = 2.0 * c / phi_bar
        if _oscillation(v.values, a_min) <= bound:
            a = _largest_feasible(v.values, bound, a_min)
            candidates.append(ScalarField(prob.spec, a * v.values + float(np.log(a))))
        else:
            cand = _offset_search(prob, v.values, phi_bar)
            if cand is not None:
                candidates.append(cand)

    best = None
    for cand in candidates:
        ok, _ = is_supersolution(cand, prob)
        if ok and (best is None or np.max(cand.values) < np.max(best.values)):
            best = cand
    if best is None:
        return None
    return best


def _solve_for_v(prob: KWProblem, lin: LinearOptions | None):
    rhs = ScalarField(prob.spec, prob.phi.values - mean(prob.phi))
    return solve_meanzero(prob.alpha, rhs, lin=lin)


def _oscillation(v: np.ndarray, a: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.expm1(a * v))))


def _largest_feasible(v: np.ndarray, bound: float, a_min: float) -> float:
    hi = max(a_min, 1.0)
    for _ in range(200):
        if _oscillation(v, hi) > bound:
            break
        hi *= 2.0
    else:
        return hi
    lo = a_min
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _oscillation(v, mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def _offset_search(prob: KWProblem, v: np.ndarray, phi_bar: float) -> ScalarField | None:
    """Feasible (a, b) for the supersolution ansatz a v + b, if any.

    The defining inequality phi e^{a v + b} <= a (phi - mean) + c is, for
    fixed a, an interval condition on e^b: bounded above on the set where
    phi is positive and below where it is negative.  Scans a log grid in a
    and returns the first candidate whose interval is nonempty.
    """
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
        if not np.isfinite(upper) or upper <= 0.0:
            continue
        if upper <= lower * (1.0 + 1e-9):
            continue
        if lower > 0.0:
            offset = float(np.sqrt(lower * upper))
        else:
            offset = 0.5 * upper
        return ScalarField(prob.spec, a * v + float(np.log(offset)))
    return None


# ---------------------------------------------------------------------------
# Monotone iteration
# ---------------------------------------------------------------------------

def monotone_solve(
    prob: KWProblem,
    w_minus: ScalarField,
    w_plus: ScalarField,
    *,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    lambda_override: float | None = None,
    lin: LinearOptions | None = None,
) -> SolveReport:
    """Monotone iteration between an ordered sub/super-solution pair.

    Starts at w_minus and solves (A + lambda) w_{i+1} = phi e^{w_i} - c
    + lambda w_i until the sup-norm update and the equation residual both
    drop below tolerance.  lambda exceeds sup(-phi e^w) over all states
    between the bounds, which makes the updates pointwise nonnegative.
    """
    lin = lin or LinearOptions()
    ok, margin = is_subsolution(w_minus, prob)
    if not ok:
        raise CertificateError(f"w_minus is not a subsolution (margin {margin:.3e})")
    ok, margin = is_supersolution(w_plus, prob)
    if not ok:
        raise CertificateError(f"w_plus is not a supersolution (margin {margin:.3e})")
    if float(np.max(w_minus.values - w_plus.values)) > 1e-12:
        raise CertificateError("ordering violated: w_minus > w_plus somewhere")

    spec = prob.spec
    alpha_vals = _alpha_values(prob.alpha)
    phi = prob.phi.values
    phi_neg = np.maximum(-phi, 0.0)
    if lambda_override is not None:
        lam = float(lambda_override)
    else:
        with np.errstate(over="ignore"):
            lam = 1.0 + float(np.max(phi_neg * np.exp(w_plus.values)))
    if not np.isfinite(lam) or lam > 1e14:
        raise SolverError(
            f"iteration shift overflow (lambda = {lam:.3e}); supersolution too large"
        )

    w = w_minus.values.copy()
    trace = [float(np.max(w))]
    min_steps: list[float] = []
    residual = float(np.max(np.abs(_defect(w, prob, alpha_vals))))
    status = "max-iter"
    iterations = 0
    for _ in range(maxiter):
        rhs = _phi_exp(phi, w) - prob.c + lam * w
        w_next, stats = _solve_system(spec, prob.alpha, lam, rhs, lin=lin)
        if not stats.converged:
            raise SolverError(
                f"inner shifted solve failed (residual {stats.residual_sup:.3e})"
            )
        step = w_next - w
        min_steps.append(float(np.min(step)))
        w = w_next
        iterations += 1
        trace.append(float(np.max(w)))
        residual = float(np.max(np.abs(_defect(w, prob, alpha_vals))))
        scale = 1.0 + abs(prob.c) + float(np.max(np.abs(_phi_exp(phi, w))))
        if float(np.max(np.abs(step))) <= tol and residual <= 10.0 * lin.tol * scale:
            status = "converged"
            break
    return SolveReport(
        solution=ScalarField(spec, w),
        status=status,
        trace=trace,
        residual_sup=residual,
        method="monotone",
        iterations=iterations,
        min_step_trace=min_steps,
    )


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------

def _norm2(r: np.ndarray) -> float:
    # an overflowed residual reads as inf, which every caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(r.ravel()))


def _line_search(x: np.ndarray, delta: np.ndarray, merit, merit0: float):
    """Backtracking along delta: step sizes 1, 1/2, 1/4, ...

    merit maps a trial point to the residual whose 2-norm must fall below
    merit0.  Returns (trial, residual, norm) for the first step that
    achieves it, or None after LINE_SEARCH_HALVINGS rejected trials.  A
    trial that overflows has a non-finite norm and is rejected, so its
    floating-point warnings are silenced.
    """
    s = 1.0
    for _ in range(LINE_SEARCH_HALVINGS):
        x_try = x + s * delta
        with np.errstate(over="ignore", invalid="ignore"):
            r_try = merit(x_try)
        rn_try = _norm2(r_try)
        if np.isfinite(rn_try) and rn_try < merit0:
            return x_try, r_try, rn_try
        s *= 0.5
    return None


def _newton_inner(lin: LinearOptions | None) -> LinearOptions:
    """Options of an inexact Newton step: the Krylov budget is capped."""
    lin = lin or LinearOptions()
    return replace(lin, maxiter=min(lin.maxiter, NEWTON_INNER_MAXITER))


def newton_solve(
    prob: KWProblem,
    w0: ScalarField,
    *,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_NEWTON_MAXITER,
    lin: LinearOptions | None = None,
) -> SolveReport:
    """Damped Newton iteration on F(w) = A w + c - phi e^w.

    Each step solves the linearization A - phi e^w through the Krylov
    solver and backtracks by halving until the 2-norm of F decreases.
    Stops when the sup-norm residual falls below tol times the problem
    scale.  A stalled line search or failed inner solve reports status
    not-certified; the budget running out reports max-iter.
    """
    inner = _newton_inner(lin)
    if w0.spec != prob.spec:
        raise ValueError("initial guess lives on the wrong grid")
    spec = prob.spec
    alpha_vals = _alpha_values(prob.alpha)
    phi = prob.phi.values

    def defect(x):
        return _defect(x, prob, alpha_vals)

    w = w0.values.copy()
    r = defect(w)
    rn2 = _norm2(r)
    trace = [float(np.max(w))]
    status = "max-iter"
    message = ""
    iterations = 0
    for _ in range(maxiter):
        scale = 1.0 + abs(prob.c) + float(np.max(np.abs(_phi_exp(phi, w))))
        if float(np.max(np.abs(r))) <= tol * scale:
            status = "converged"
            break
        reaction = -_phi_exp(phi, w)
        delta, _stats = _solve_system(
            spec, prob.alpha, reaction, -r, lin=inner, rtol=NEWTON_INNER_RTOL
        )
        if not np.all(np.isfinite(delta)):
            status = "not-certified"
            message = "linearized solve produced a non-finite step"
            break
        step = _line_search(w, delta, defect, rn2)
        if step is None:
            status = "not-certified"
            message = "line search stalled"
            break
        w, r, rn2 = step
        iterations += 1
        trace.append(float(np.max(w)))
    if status == "max-iter":
        scale = 1.0 + abs(prob.c) + float(np.max(np.abs(_phi_exp(phi, w))))
        if float(np.max(np.abs(r))) <= tol * scale:
            status = "converged"
    return SolveReport(
        solution=ScalarField(spec, w),
        status=status,
        trace=trace,
        residual_sup=float(np.max(np.abs(r))),
        method="newton",
        iterations=iterations,
        message=message,
    )


# ---------------------------------------------------------------------------
# Solvability tests
# ---------------------------------------------------------------------------

def necessary_check(prob: KWProblem, lin: LinearOptions | None = None) -> NecessaryCheck:
    """Positivity test: the solution of (A - c) phi0 = -phi must be positive.

    A sign change in phi0 certifies that no solution exists at this c;
    it also forces mean(phi) < 0 when positive.
    """
    if prob.c >= 0:
        raise SolvabilityError("necessary_check needs c < 0")
    rhs = ScalarField(prob.spec, -prob.phi.values)
    phi0, _ = solve_shifted(prob.alpha, -prob.c, rhs, lin=lin)
    return NecessaryCheck(
        phi0=phi0,
        positive=bool(np.min(phi0.values) > 0.0),
        mean_negative=bool(mean(prob.phi) < 0.0),
    )


def sufficient_check(
    prob: KWProblem,
    gamma_hat: float,
    p: float,
    *,
    eps: float = 1e-3,
    kmax: int = 40,
) -> tuple[bool, float]:
    """Search for a constant a < 0 with ||phi - a||_p < -a / gamma (1 - 2c).

    Success certifies solvability; failure is inconclusive.  Returns the
    certification flag and the constant with the best margin (0.0 when
    nothing certified).
    """
    if prob.c >= 0:
        raise SolvabilityError("sufficient_check needs c < 0")
    if gamma_hat <= 0:
        raise ValueError("gamma_hat must be positive")
    denom = gamma_hat * (1.0 - 2.0 * prob.c)
    best_margin = -np.inf
    best_a = 0.0
    certified = False
    for k in range(kmax):
        a = -eps * 2.0**k
        lhs = lp_norm(ScalarField(prob.spec, prob.phi.values - a), p)
        margin = (-a) / denom - lhs
        if margin > best_margin:
            best_margin = margin
            best_a = a
        if margin > 0:
            certified = True
    return certified, (best_a if certified else 0.0)


def construct_unsolvable(
    psi: ScalarField, alpha_const: float, c: float, lee: OneForm
) -> ScalarField:
    """Forcing term with negative mean for which no solution exists at c.

    phi = -A psi + c (psi + alpha_const): the positivity test then returns
    exactly psi + alpha_const, which changes sign by construction, so the
    negative-mean condition alone cannot guarantee solvability.
    """
    if psi.spec != lee.spec:
        raise ValueError("psi and lee form live on mismatched grids")
    scale = 1.0 + float(np.max(np.abs(psi.values)))
    if abs(mean(psi)) > 1e-10 * scale:
        raise CertificateError(f"psi must have zero mean, got {mean(psi):.3e}")
    if float(np.max(np.abs(psi.values))) == 0.0:
        raise CertificateError("psi must not vanish identically")
    if c >= 0:
        raise CertificateError("construction needs c < 0")
    shifted = psi.values + alpha_const
    if not (float(np.min(shifted)) < 0.0 < float(np.max(shifted))):
        raise CertificateError("psi + alpha_const must change sign")
    vals = -_apply(psi.values, psi.spec, _alpha_values(lee), 0.0) + c * shifted
    return ScalarField(psi.spec, vals)


def asymptotic_suite(
    f: ScalarField,
    alpha: OneForm,
    c_list,
    lin: LinearOptions | None = None,
) -> list[tuple[float, float]]:
    """Deviation table sup|c u(.; c) - f| for (A - c) u = -f over the list.

    The deviation shrinks like 1/|c| as c goes to minus infinity and is
    identically zero for constant f.
    """
    rows = []
    for c in c_list:
        if c >= 0:
            raise ValueError("asymptotic suite needs negative c values")
        rhs = ScalarField(f.spec, -f.values)
        u, _ = solve_shifted(alpha, -c, rhs, lin=lin)
        dev = float(np.max(np.abs(c * u.values - f.values)))
        rows.append((float(c), dev))
    return rows


# ---------------------------------------------------------------------------
# Critical constant bracketing
# ---------------------------------------------------------------------------

def critical_c_bracket(
    phi: ScalarField,
    alpha: OneForm,
    search_floor: float = -1e6,
    *,
    eps: float = 0.01,
    rel_width: float = 0.01,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    lin: LinearOptions | None = None,
) -> Bracket:
    """Bracket the critical constant below which solving stops succeeding.

    Nonpositive nonzero phi is solvable at every c < 0: the ladder of
    probes down to search_floor is solved and the floor is returned as
    the minus-infinity sentinel.  Otherwise a geometric descent runs
    until the positivity test or the solver fails, then bisects to one
    percent relative width.
    """
    if mean(phi) >= 0:
        raise SolvabilityError("bracketing needs mean(phi) < 0")
    if search_floor >= 0:
        raise ValueError("search_floor must be negative")
    phi_sup = float(np.max(np.abs(phi.values)))
    if phi_sup == 0.0:
        raise SolvabilityError("phi vanishes identically")
    probes: list[tuple[float, str]] = []
    warm: list[ScalarField | None] = [None]

    def attempt(c: float) -> str:
        prob = KWProblem(alpha, c, phi)
        nec = necessary_check(prob, lin)
        if not nec.positive:
            outcome = "necessary-failed"
        else:
            report = _solve_negative_c(
                prob, tol=tol, maxiter=maxiter, lin=lin, initial_guess=warm[0]
            )
            outcome = "solved" if report.converged else "solver-failed"
            if report.converged:
                warm[0] = report.solution
        probes.append((c, outcome))
        return outcome

    if float(np.max(phi.values)) <= 0.0:
        # solvable for every negative c; walk the ladder as evidence
        c = -eps
        while c > search_floor:
            attempt(c)
            c *= 10.0
        attempt(search_floor)
        return Bracket(
            c_lo=search_floor,
            c_hi=-eps,
            lo_evidence="search-limit",
            hi_evidence=probes[0][1],
            probes=probes,
        )

    last_solved = None
    first_failed = None
    fail_kind = "solver-failed"
    c = -eps
    while c > search_floor:
        outcome = attempt(c)
        if outcome == "solved":
            last_solved = c
            c *= 2.0
        else:
            first_failed = c
            fail_kind = outcome
            break
    if first_failed is None:
        return Bracket(
            c_lo=search_floor,
            c_hi=last_solved if last_solved is not None else -eps,
            lo_evidence="search-limit",
            hi_evidence="solved",
            probes=probes,
        )
    if last_solved is None:
        # even the first rung failed; walk toward zero for a solvable point
        c = first_failed / 2.0
        while abs(c) > eps * 2.0**-20:
            outcome = attempt(c)
            if outcome == "solved":
                last_solved = c
                break
            first_failed = c
            fail_kind = outcome
            c /= 2.0
        if last_solved is None:
            return Bracket(
                c_lo=first_failed,
                c_hi=first_failed / 2.0,
                lo_evidence=fail_kind,
                hi_evidence="search-limit",
                probes=probes,
            )
    while abs(first_failed - last_solved) > rel_width * abs(last_solved):
        mid = 0.5 * (first_failed + last_solved)
        outcome = attempt(mid)
        if outcome == "solved":
            last_solved = mid
        else:
            first_failed = mid
            fail_kind = outcome
    return Bracket(
        c_lo=first_failed,
        c_hi=last_solved,
        lo_evidence=fail_kind,
        hi_evidence="solved",
        probes=probes,
    )


# ---------------------------------------------------------------------------
# Sections 5 solvers: fixed point and continuation
# ---------------------------------------------------------------------------

def fixed_point_solve(
    s: ScalarField,
    s_hat: ScalarField,
    alpha: OneForm,
    setup: GeometrySetup,
    *,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = 200,
    lin: LinearOptions | None = None,
) -> SolveReport:
    """Small-oscillation Picard iteration on the unreduced equation.

    Iterates T(u) = L^{-1}((2/k)[s_hat - s - s_hat (1 + u - e^u)]) with
    L u = A u - (2/k) s_hat u, starting from zero.  Requires L to be
    numerically invertible; identically vanishing s_hat leaves the
    constants in the kernel and raises SolverError.
    """
    lin = lin or LinearOptions()
    if setup.degenerate:
        raise DegenerateError("fixed-point solver needs a nondegenerate parameter")
    if s.spec != s_hat.spec or s.spec != alpha.spec:
        raise ValueError("fields live on mismatched grids")
    k = setup.k_t
    spec = s.spec
    if float(np.max(np.abs(s_hat.values))) < 1e-12:
        raise SolverError(
            "fixed-point operator is singular: s_hat vanishes identically"
        )
    reaction = -(2.0 / k) * s_hat.values
    alpha_vals = _alpha_values(alpha)

    u = np.zeros(spec.dims)
    trace = [0.0]
    prev_step = np.inf
    growth = 0
    status = "max-iter"
    message = ""
    iterations = 0
    for _ in range(maxiter):
        rhs = (2.0 / k) * (
            s_hat.values - s.values - s_hat.values * (1.0 + u - np.exp(u))
        )
        u_next, stats = _solve_system(spec, alpha, reaction, rhs, lin=lin)
        if not stats.converged:
            raise SolverError(
                f"fixed-point linear solve failed (residual {stats.residual_sup:.3e}); "
                "the linearized operator may be singular for this s_hat"
            )
        step = float(np.max(np.abs(u_next - u)))
        u = u_next
        iterations += 1
        trace.append(float(np.max(u)))
        if step <= tol:
            status = "converged"
            break
        if step > prev_step:
            growth += 1
            if growth >= 10:
                status = "not-certified"
                message = "iteration diverging: step grew 10 times in a row"
                break
        else:
            growth = 0
        prev_step = step
    residual = _unreduced_residual(u, s, s_hat, alpha_vals, k, spec)
    if status == "converged":
        scale = 1.0 + float(np.max(np.abs(s.values))) + float(np.max(np.abs(s_hat.values)))
        if residual > 10.0 * max(tol, lin.tol) * scale:
            status = "not-certified"
            message = f"converged step but equation residual {residual:.3e} too large"
    return SolveReport(
        solution=ScalarField(spec, u),
        status=status,
        trace=trace,
        residual_sup=residual,
        method="fixed-point",
        iterations=iterations,
        message=message,
    )


def _unreduced_residual(u, s, s_hat, alpha_vals, k, spec) -> float:
    resid = _apply(u, spec, alpha_vals, 0.0) + (2.0 / k) * (
        s.values - s_hat.values * np.exp(u)
    )
    return float(np.max(np.abs(resid)))


def continuation_solve(
    s: ScalarField,
    s_hat: ScalarField,
    alpha: OneForm,
    setup: GeometrySetup,
    steps: int = 10,
    *,
    tol: float = DEFAULT_KW_TOL,
    newton_maxiter: int = 30,
    lin: LinearOptions | None = None,
) -> SolveReport:
    """Homotopy in the data: solve with (tau s, tau s_hat) for increasing tau.

    Newton-corrects at each step from the previous solution, starting at
    the exact solution u = 0 for tau = 0.  Near zero data the
    linearization is only invertible on mean-zero functions and the
    equation admits spurious almost-solutions escaping to minus infinity,
    so the corrector works in the mean-zero subspace and fixes the
    constant mode by solving the mean equation exactly whenever a shift
    can.  On failure the report carries the tau reached.
    """
    inner = _newton_inner(lin)
    if setup.degenerate:
        raise DegenerateError("continuation solver needs a nondegenerate parameter")
    if steps < 1:
        raise ValueError("need at least one continuation step")
    if s.spec != s_hat.spec or s.spec != alpha.spec:
        raise ValueError("fields live on mismatched grids")
    k = setup.k_t
    spec = s.spec
    alpha_vals = _alpha_values(alpha)
    scale = 1.0 + float(np.max(np.abs(s.values))) + float(np.max(np.abs(s_hat.values)))
    s_mean = float(np.mean(s.values))

    u = np.zeros(spec.dims)
    trace = [0.0]
    iterations = 0
    for j in range(1, steps + 1):
        tau = j / steps

        def residual(w):
            return _apply(w, spec, alpha_vals, 0.0) + (2.0 * tau / k) * (
                s.values - s_hat.values * np.exp(w)
            )

        def projected_residual(w):
            r = residual(w)
            return r - np.mean(r)

        converged = False
        for _ in range(newton_maxiter):
            # constant mode: the mean equation mean(s_hat e^u) = mean(s) is
            # solved exactly by a shift whenever both means are genuinely
            # nonzero and share a sign
            weight = float(np.mean(s_hat.values * np.exp(u)))
            mean_floor = 1e-13 * scale
            if abs(s_mean) > mean_floor and abs(weight) > mean_floor and s_mean * weight > 0.0:
                u = u + float(np.log(s_mean / weight))
            r = residual(u)
            r_proj = r - np.mean(r)
            full_ok = float(np.max(np.abs(r))) <= tol * scale
            proj_ok = float(np.max(np.abs(r_proj))) <= tol * scale
            # intermediate waypoints only need the mean-zero part: their
            # constant-mode defect closes as tau reaches 1
            if full_ok or (proj_ok and j < steps):
                converged = True
                break
            # mean-zero mode: Newton step restricted to the subspace where
            # the linearization stays uniformly invertible; the escape
            # family u -> -inf of the c = 0 regime is invisible there
            reaction = (2.0 * tau / k) * (-s_hat.values) * np.exp(u)
            delta, _stats = _solve_system(
                spec, alpha, reaction, -r_proj,
                lin=inner, meanzero=True, rtol=NEWTON_INNER_RTOL,
            )
            if not np.all(np.isfinite(delta)):
                break
            step = _line_search(u, delta, projected_residual, _norm2(r_proj))
            if step is None:
                break
            u = step[0]
            iterations += 1
        if not converged:
            r = residual(u)
            return SolveReport(
                solution=ScalarField(spec, u),
                status="not-certified",
                trace=trace,
                residual_sup=float(np.max(np.abs(r))),
                method="continuation",
                iterations=iterations,
                message=f"newton correction failed at tau = {tau:.6g}",
            )
        trace.append(float(np.max(u)))
    residual_final = float(
        np.max(
            np.abs(
                _apply(u, spec, alpha_vals, 0.0)
                + (2.0 / k) * (s.values - s_hat.values * np.exp(u))
            )
        )
    )
    return SolveReport(
        solution=ScalarField(spec, u),
        status="converged",
        trace=trace,
        residual_sup=residual_final,
        method="continuation",
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def _solve_negative_c(
    prob: KWProblem,
    *,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    monotone_budget: int | None = None,
    lambda_override: float | None = None,
    lin: LinearOptions | None = None,
    initial_guess: ScalarField | None = None,
) -> SolveReport:
    """Certificate-first solve for c < 0, assuming the positivity test passed.

    Runs the monotone iteration when an ordered pair exists, polishing
    with Newton if the budget runs out; falls back to Newton from the
    averaged-equation constant when no supersolution is certified.
    """
    budget = maxiter if monotone_budget is None else min(maxiter, monotone_budget)
    w_minus = build_subsolution(prob)
    try:
        w_plus = build_supersolution(prob, lin)
    except SolverError:
        w_plus = None

    if w_plus is not None:
        low = min(float(w_minus.values.flat[0]), float(np.min(w_plus.values)) - 0.1)
        w_minus = make_field(prob.spec, low)
        try:
            report = monotone_solve(
                prob,
                w_minus,
                w_plus,
                tol=tol,
                maxiter=budget,
                lambda_override=lambda_override,
                lin=lin,
            )
        except SolverError as e:
            report = SolveReport(
                solution=w_minus,
                status="not-certified",
                trace=[],
                residual_sup=np.inf,
                method="monotone",
                message=str(e),
            )
        if report.converged:
            return report
        polish = newton_solve(prob, report.solution, tol=tol, lin=lin)
        if report.trace:
            polish.trace = report.trace + polish.trace[1:]
        polish.min_step_trace = report.min_step_trace
        polish.iterations += report.iterations
        return polish

    phi_bar = mean(prob.phi)
    if initial_guess is not None:
        w0 = initial_guess
    else:
        level = float(np.clip(np.log(prob.c / phi_bar), -20.0, 20.0)) if phi_bar < 0 else 0.0
        w0 = make_field(prob.spec, level)
    return newton_solve(prob, w0, tol=tol, lin=lin)


def solve_prescribed(
    s: ScalarField,
    s_hat: ScalarField,
    alpha: OneForm,
    setup: GeometrySetup,
    strategy: str = "auto",
    *,
    steps: int = 10,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    monotone_budget: int | None = None,
    lambda_override: float | None = None,
    lin: LinearOptions | None = None,
    initial_guess: ScalarField | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Full prescription pipeline from curvature data to the log factor u.

    Degenerate parameter values solve pointwise.  Otherwise the problem
    reduces to the exponential equation; negative c runs the positivity
    test (failure is certified unsolvable) and then the certificate-based
    solve.  Vanishing c with vanishing s_hat is the linear case.  The
    remaining regimes (c > 0, or c = 0 with s_hat not identically zero)
    have no general existence theory and run the requested strategy
    (newton, fixed-point, or continuation) with an honest status.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
        )

    if setup.degenerate:
        from .geometry import degenerate_solve

        u = degenerate_solve(s, s_hat)
        resid = float(np.max(np.abs(np.exp(u.values) * s_hat.values - s.values)))
        report = SolveReport(
            solution=u,
            status="converged",
            trace=[float(np.max(u.values))],
            residual_sup=resid,
            method="degenerate",
            iterations=1,
        )
        return u, report

    red, _ = reduce_problem(s, s_hat, alpha, setup, lin)
    k = setup.k_t
    c = red.c
    spec = s.spec
    alpha_vals = _alpha_values(alpha)

    def finish(u: ScalarField, report: SolveReport) -> tuple[ScalarField, SolveReport]:
        resid = _unreduced_residual(u.values, s, s_hat, alpha_vals, k, spec)
        report.solution = u
        report.residual_sup = resid
        return u, report

    if c < -C_ZERO_TOL:
        prob = KWProblem(alpha, c, red.phi)
        nec = necessary_check(prob, lin)
        if not nec.positive:
            report = SolveReport(
                solution=make_field(spec, 0.0),
                status="certified-unsolvable",
                trace=[],
                residual_sup=np.inf,
                method="necessary",
                message=(
                    f"positivity test failed: min phi0 = {float(np.min(nec.phi0.values)):.3e}"
                ),
            )
            return make_field(spec, 0.0), report
        report = _solve_negative_c(
            prob,
            tol=tol,
            maxiter=maxiter,
            monotone_budget=monotone_budget,
            lambda_override=lambda_override,
            lin=lin,
            initial_guess=initial_guess,
        )
        u = recover_metric(report.solution, red)
        return finish(u, report)

    if abs(c) <= C_ZERO_TOL and float(np.max(np.abs(s_hat.values))) < 1e-12:
        rhs = ScalarField(spec, -(2.0 / k) * (s.values - float(np.mean(s.values))))
        u, stats = solve_meanzero(alpha, rhs, lin=lin)
        report = SolveReport(
            solution=u,
            status="converged",
            trace=[float(np.max(u.values))],
            residual_sup=stats.residual_sup,
            method="linear",
            iterations=stats.iterations,
        )
        return finish(u, report)

    # c > 0, or c = 0 with s_hat not identically zero: best effort
    chosen = "newton" if strategy == "auto" else strategy
    try:
        if chosen == "fixed-point":
            report = fixed_point_solve(s, s_hat, alpha, setup, tol=tol, lin=lin)
            return finish(report.solution, report)
        if chosen == "continuation":
            report = continuation_solve(s, s_hat, alpha, setup, steps, tol=tol, lin=lin)
            return finish(report.solution, report)
        prob = KWProblem(alpha, c, red.phi)
        w0 = initial_guess if initial_guess is not None else make_field(spec, 0.0)
        report = newton_solve(prob, w0, tol=tol, lin=lin)
        u = recover_metric(report.solution, red)
        return finish(u, report)
    except SolverError as e:
        report = SolveReport(
            solution=make_field(spec, 0.0),
            status="not-certified",
            trace=[],
            residual_sup=np.inf,
            method=chosen,
            message=str(e),
        )
        return make_field(spec, 0.0), report
