"""Existence machinery for  laplacian(w) + <alpha, dw> + c = phi e^w.

For c < 0 the solvable region is certified constructively:

* a constant subsolution always exists;
* a supersolution is built either as a constant (phi strictly negative),
  from the mean-zero solve of  A v = phi - mean(phi)  (phi nonpositive),
  or, when phi changes sign, as a v + b from an exact pointwise search
  over a and b, which finds one only for c close enough to zero;
* an ordered pair proves that a solution lies between its ends; it is
  unique for nonpositive phi, while sign-changing phi can have two.  The
  pair verifies the answer of a damped Newton iteration, and when it
  rejects that answer it feeds the monotone iteration
      (A + lambda) w_{i+1} = phi e^{w_i} - c + lambda w_i,   w_0 = w_-,
  whose iterates increase pointwise to the minimal solution in the pair.

The necessary test (the shifted solve of -phi must be positive) is the
only nonexistence certificate; solver failure is never reported as
nonexistence.  A solve runs it only where phi is positive somewhere or
identically zero: nonpositive phi that is not identically zero is
solvable at every c < 0 (Kazdan & Warner 1974, Ann. of Math. 99).
Without a pair, Newton's answer is reported unverified.  For c >= 0,
which has no existence theory, damped Newton is the one method: at
zero degree on the scale-free merit e^(-mean w) |F(w)|, which the
escape toward minus infinity does not decrease, from a small-oscillation
start (see _solve_zero_degree); for c > 0 from zero, then from the
averaged constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateError,
    ConfigError,
    GauduchonError,
    GridError,
    SolvabilityError,
    SolverError,
)
from .geometry import GeometrySetup, recover_metric, reduce_problem
from .grid import GridSpec, OneForm, ScalarField, make_field, refine_field, restrict, same_grid
from .linsolve import (
    LinearOptions,
    _apply,
    _norm,
    _round_off,
    _solve_system,
    _sup,
    solve_meanzero,
    solve_shifted,
)
from .operators import (
    DEFAULT_GAUDUCHON_TOL,
    gauduchon_defect,
    gauduchon_scale,
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
LINE_SEARCH_HALVINGS = 40
# a c < 0 solve on at least this many points starts Newton from the
# refined answer of Newton on the half-size grids (nested iteration),
# else from the averaged constant.  On the drift-2d problem
# (_solve_negative_c, min of 7 on a shared 2-vCPU host, un-nested ->
# nested once) nesting saves fine steps (4 -> 2 from 64^2 up) but no time
# up to 96^2 (4.4 -> 9.4 ms at 48^2, 5.5 -> 6.6 at 64^2, 9.3 -> 9.6 at
# 96^2); it pays from 192^2 (51 -> 42 ms) and 256^2 (83 -> 66 ms).  A
# higher threshold would move the benchmark's 96^2 and 24^4 ops off
# their nested path, so it waits for a change of the benchmark
NEST_MIN_POINTS = 1 << 12
# largest forcing term of newton_solve's inner solves, also its first one
# (Eisenstat & Walker 1996, choice 2 with eta_0 = eta_max)
FORCING_MAX = 0.1
# sufficient_check tries a = -SUFFICIENT_EPS * 2^k for k < SUFFICIENT_KMAX
SUFFICIENT_EPS = 1e-3
SUFFICIENT_KMAX = 40
# critical_c_bracket probes -BRACKET_EPS first and bisects to this relative width
BRACKET_EPS = 0.01
BRACKET_REL_WIDTH = 0.01
# bracket probe outcome of a _solve_negative_c status; the rest are solver-failed
PROBE_OUTCOMES = {"converged": "solved", "certified-unsolvable": "necessary-failed"}


@dataclass(frozen=True)
class KWProblem:
    """Problem data (alpha, c, phi) for the exponential equation."""

    alpha: OneForm
    c: float
    phi: ScalarField

    def __post_init__(self):
        same_grid(self.phi, self.alpha)
        defect = gauduchon_defect(self.alpha)
        if defect > DEFAULT_GAUDUCHON_TOL * gauduchon_scale(self.alpha):
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
    monotonicity of the iteration.  image is A solution (Laplacian plus
    drift) where a converged Newton solve formed it for its last fresh
    residual, for solve_prescribed, which takes the unreduced residual
    from it and drops it; None otherwise.
    """

    solution: ScalarField
    status: str
    trace: list[float]
    residual_sup: float
    method: str
    iterations: int = 0
    min_step_trace: list[float] | None = None
    message: str = ""
    image: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @classmethod
    def without_iterates(cls, solution, status, method, message) -> "SolveReport":
        """Report of a solve that stopped before its first iterate."""
        return cls(solution, status, [], np.inf, method, message=message)


@dataclass
class Bracket:
    """Interval estimate for the critical constant below which the
    equation stops being solvable.  c_hi carries solvable evidence, c_lo
    unsolvable evidence, either of them search-limit when no probe gave
    it.  lo_message is the report message of the failed probe at c_lo
    (its status when that message is empty), and empty at a search
    limit."""

    c_lo: float
    c_hi: float
    lo_evidence: str
    hi_evidence: str
    probes: list[tuple[float, str]] = field(default_factory=list)
    lo_message: str = ""

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

def _phi_exp(phi_vals: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    # phi * e^w with 0 * inf resolved to 0 where phi vanishes, written
    # into out (which may be w) when given
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.exp(w, out=out)
        prod *= phi_vals
    prod[phi_vals == 0.0] = 0.0
    return prod


def _reaction(phi_vals: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    # -phi e^w: the reaction of the linearization at w of a residual
    # A w + b - phi e^w
    prod = _phi_exp(phi_vals, w, out)
    return np.negative(prod, out=prod)


def _defect(w: np.ndarray, prob: KWProblem) -> np.ndarray:
    # laplacian(w) + <alpha, dw> + c - phi e^w
    return _apply(prob.alpha, w) + prob.c - _phi_exp(prob.phi.values, w)


def _newton_residual(w: np.ndarray, prob: KWProblem, reaction: np.ndarray):
    # (A w + c) + reaction with reaction = -phi e^w: the bits of
    # _defect(w, prob), since t + (-p) rounds as t - p, from the reaction
    # the caller holds.  Returns the residual and A w
    image = _apply(prob.alpha, w)
    r = image + prob.c
    r += reaction
    return r, image


def is_subsolution(
    w: ScalarField, prob: KWProblem, tol: float = CERT_TOL
) -> tuple[bool, float]:
    """True when the defining field is <= tol everywhere; margin is its max."""
    same_grid(w, prob)
    margin = float(np.max(_defect(w.values, prob)))
    return margin <= tol, margin


def is_supersolution(
    w: ScalarField, prob: KWProblem, tol: float = CERT_TOL
) -> tuple[bool, float]:
    """True when the defining field is >= -tol everywhere; margin is its min."""
    same_grid(w, prob)
    margin = float(np.min(_defect(w.values, prob)))
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

    The candidates are built on v, the mean-zero solution of
    A v = phi - mean(phi).  Nonpositive phi admits a v + b with
    a mean(phi) < c at every c < 0, and strictly negative phi a constant
    too (_supersolution_level), the one candidate without v, which
    _solve_negative_c tries alone, on every grid, before calling this.
    Sign-changing phi gets the a v + b that _offset_search finds by
    testing the defining inequality pointwise, which certifies wherever
    the small-oscillation bound does; it finds none for c far below zero,
    even where the equation happens to be solvable.  Of the
    candidates that is_supersolution accepts, the one with the lowest
    maximum is returned: a v + b beats the constant where phi_max is
    near zero, whose level log(c / phi_max) + 0.1 is then large.
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
    v, _ = _solve_for_v(prob, lin)

    candidates: list[ScalarField] = []
    if phi_max <= 0.0:
        if phi_max < 0.0:
            candidates.append(make_field(prob.spec, _supersolution_level(c, phi_max)))
        # nonpositive phi: w_+ = a v + b with a mean(phi) < c and e^{a v + b} > a
        a = 1.1 * c / phi_bar
        b = float(np.log(a)) - a * float(np.min(v.values)) + 0.1
        candidates.append(ScalarField(prob.spec, a * v.values + b))
    else:
        cand = _offset_search(prob, v.values, phi_bar)
        if cand is not None:
            candidates.append(cand)

    best = None
    for cand in candidates:
        ok, _ = is_supersolution(cand, prob)
        if ok and (best is None or np.max(cand.values) < np.max(best.values)):
            best = cand
    return best


def _supersolution_level(c: float, phi_max: float) -> float:
    """The constant supersolution of strictly negative phi (phi_max < 0):
    high enough that phi e^w <= c e^0.1 < c everywhere."""
    return float(np.log(c / phi_max)) + 0.1


def _solve_for_v(prob: KWProblem, lin: LinearOptions | None):
    rhs = ScalarField(prob.spec, prob.phi.values - mean(prob.phi))
    return solve_meanzero(prob.alpha, rhs, lin=lin)


def _offset_search(prob: KWProblem, v: np.ndarray, phi_bar: float) -> ScalarField | None:
    """Feasible (a, b) for the supersolution ansatz a v + b, if any.

    The defining inequality phi e^{a v + b} <= a (phi - mean) + c is, for
    fixed a, an interval condition on e^b: bounded above on the set where
    phi is positive and below where it is negative.  Scans a log grid in a,
    then a = 2c / mean(phi), and returns the first candidate whose interval
    is nonempty.
    """
    phi = prob.phi.values
    c = prob.c
    scale = max(1.0, abs(c) / abs(phi_bar))
    pos = phi > 0.0
    neg = phi < 0.0
    # every step works on the three sign sets, taken out of phi, phi - mean
    # and v once: pointwise the same arithmetic as on the whole grid
    dev = phi - phi_bar
    dev_zer = dev[~(pos | neg)]
    phi_pos, dev_pos, v_pos = phi[pos], dev[pos], v[pos]
    phi_neg, dev_neg, v_neg = phi[neg], dev[neg], v[neg]

    def lower_bounds(a, at=slice(None)):  # on e^b, where phi < 0
        return (a * dev_neg[at] + c) / (phi_neg[at] * np.exp(a * v_neg[at]))

    # the point where the last full pass peaked rules out most steps alone;
    # only the others take a full pass, which moves it.  Not while a
    # denominator can vanish: a full pass may then hold a NaN, read as 0
    peak = None
    den_floor = float(np.min(np.abs(phi_neg))) if phi_neg.size else 0.0
    v_low = float(np.min(v_neg)) if phi_neg.size else 0.0
    # the grid does not scale with phi; a = 2c / mean(phi) passes wherever
    # the small-oscillation bound of Kazdan & Warner holds, at any scale:
    # sup|e^{a v} - 1| <= -mean(phi) / (2 sup|phi|)
    for a in np.append(scale * np.logspace(-4.0, 3.0, 141), 2.0 * c / phi_bar):
        if dev_zer.size and float(np.min(a * dev_zer + c)) < 0.0:
            continue
        num_pos = a * dev_pos + c
        if float(np.min(num_pos)) <= 0.0:
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            upper = float(np.min(num_pos / (phi_pos * np.exp(a * v_pos))))
            if not np.isfinite(upper) or upper <= 0.0:
                continue
            lower = 0.0
            if peak is not None and den_floor * np.exp(a * v_low) > 0.0:
                lower = max(0.0, float(lower_bounds(a, slice(peak, peak + 1))[0]))
            if phi_neg.size and upper > lower * (1.0 + 1e-9):
                bounds = lower_bounds(a)
                peak = int(np.argmax(bounds))
                lower = max(0.0, float(bounds[peak]))
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
    lin: LinearOptions | None = None,
) -> SolveReport:
    """Monotone iteration between an ordered sub/super-solution pair.

    Starts at w_minus and solves (A + lambda) w_{i+1} = phi e^{w_i} - c
    + lambda w_i until the sup-norm update and the equation residual both
    drop below tolerance.  lambda = 1 + sup(max(-phi, 0) e^{w_plus})
    exceeds sup(-phi e^w) over all states between the bounds, which makes
    the updates pointwise nonnegative.
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

    phi = prob.phi.values
    with np.errstate(over="ignore"):
        lam = 1.0 + float(np.max(np.maximum(-phi, 0.0) * np.exp(w_plus.values)))
    if not np.isfinite(lam) or lam > 1e14:
        raise SolverError(
            f"iteration shift overflow (lambda = {lam:.3e}); supersolution too large"
        )

    def defect_sup(image, pe):
        # sup|A w + c - phi e^w| from A w and phi e^w, summed as _defect
        # sums them; overwrites image
        image += prob.c
        image -= pe
        return float(np.max(np.abs(image, out=image)))

    w = w_minus.values  # read only: every step rebinds w
    trace = [float(np.max(w))]
    min_steps: list[float] = []
    # the loop's own fields: phi e^w, computed once per iterate, and the
    # step; pe turns into the next right-hand side, with lam w in step
    pe, step = _phi_exp(phi, w), np.empty_like(w)
    residual = defect_sup(_apply(prob.alpha, w), pe)
    status = "max-iter"
    for _ in range(maxiter):
        np.subtract(pe, prob.c, out=pe)
        pe += np.multiply(w, lam, out=step)  # phi e^w - c + lam w
        w_next, stats = _solve_system(prob.alpha, lam, pe, lin=lin)
        if not stats.converged:
            raise SolverError(
                f"inner shifted solve failed (residual {stats.residual_sup:.3e})"
            )
        np.subtract(w_next, w, out=step)
        min_steps.append(float(np.min(step)))
        w = w_next
        trace.append(float(np.max(w)))
        _phi_exp(phi, w, out=pe)
        # the solve's residual test applied the stencils to w already
        residual = defect_sup(stats.image, pe)
        del stats  # no image beside the next solve
        scale = 1.0 + abs(prob.c) + float(np.max(np.abs(pe)))
        if float(np.max(np.abs(step))) <= tol and residual <= 10.0 * lin.tol * scale:
            status = "converged"
            break
    return SolveReport(
        solution=ScalarField(prob.spec, w),
        status=status,
        trace=trace,
        residual_sup=residual,
        method="monotone",
        iterations=len(min_steps),
        min_step_trace=min_steps,
    )


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------

def _norm2(r: np.ndarray) -> float:
    # a residual whose plain norm overflows is measured again after scaling
    # by its sup; one that still overflows reads as inf, which every caller
    # rejects
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm(r)
        if np.isinf(norm):
            peak = float(np.max(np.abs(r)))
            if np.isfinite(peak):
                norm = peak * _norm(r / peak)
    return norm


def _line_search(x, delta, r, a_delta, reaction, phi, tilt=0.0):
    """Backtracking along delta: step sizes 1, 1/2, 1/4, ...

    The residual is F(w) = A w + b - phi e^w with b constant, r = F(x),
    reaction = -phi e^x and a_delta = A delta.  A trial's residual

        F(x + s delta) = (r - reaction) + s a_delta - phi e^(x + s delta)

    then applies no stencil, and it forms phi e^(x + s delta) once:
    the accepted trial's reaction is that product, negated.  Returns
    (trial, residual, reaction, norm) for the first step whose residual
    2-norm falls below that of r times e^(s tilt), or None after
    LINE_SEARCH_HALVINGS rejected trials.  With tilt = mean delta that
    compares the scale-free merit e^(-mean w) |F(w)| of trial and x;
    tilt = 0 compares |F| itself.  A trial that overflows has a
    non-finite norm and is rejected, so its floating-point warnings are
    silenced.

    Every trial runs in the caller's fields, which it overwrites, and in
    one scratch field of its own: r becomes r - reaction, a_delta is
    halved with s (exactly), the trial's phi e^(x + s delta) goes into
    the scratch, which becomes the accepted trial's reaction, the trial
    residual into reaction and the accepted point into delta.
    """
    merit0 = _norm2(r)
    base = np.subtract(r, reaction, out=r)  # A x + b
    r_try, pe = reaction, np.empty_like(r)
    s = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(LINE_SEARCH_HALVINGS):
            np.multiply(delta, s, out=pe)
            pe += x
            _phi_exp(phi, pe, out=pe)
            np.subtract(base, pe, out=r_try)
            r_try += a_delta  # s A delta
            norm = _norm2(r_try)
            if np.isfinite(norm) and norm < (merit0 * float(np.exp(s * tilt)) if tilt else merit0):
                trial = np.multiply(delta, s, out=delta)
                trial += x
                return trial, r_try, np.negative(pe, out=pe), norm
            s *= 0.5
            a_delta *= 0.5
    return None


def _newton_step(x, r, reaction, phi, alpha, lin, rtol, scale_free=False):
    """Inexact Newton step from x for the residual F(w) = A w + b - phi e^w
    (b constant), with r = F(x) and reaction = -phi e^x: a capped Krylov
    solve of (A + reaction) delta = -r to the relative 2-norm tolerance
    rtol, then the line search along delta.  The solve hands back A
    delta, built from its Arnoldi residual (within round-off of the
    stencils' image), so no trial applies the stencils.

    With scale_free the step is that of H(w) = e^(-mean w) F(w): H' =
    e^(-mean w) (F' - F mean) is a rank-one update of F', so by
    Sherman-Morrison its step is delta / (1 + mean delta), and A delta
    scales with it; the line search's tilt is the rescaled mean.  At a
    constant x, F'(-1) = phi e^x = c - F: delta = -1 up to c, so H' is
    singular, and no solve runs.

    Returns (step, failure, inner_converged), where step is the line
    search's (trial, residual, reaction, norm) or None and failure names
    the reason.  The line search overwrites r and reaction.
    """
    if scale_free and float(np.max(x)) == float(np.min(x)):
        return None, "scale-free step is singular: 1 + mean(delta) = 0 at a constant iterate", True
    lin = lin or LinearOptions()
    inner = replace(lin, maxiter=min(lin.maxiter, NEWTON_INNER_MAXITER))
    # every operation of the solve is odd in its right-hand side, so
    # solving with r gives -delta exactly, without a copy -r beside the
    # Krylov basis
    delta, stats = _solve_system(alpha, reaction, r, lin=inner, rtol=rtol)
    np.negative(delta, out=delta)
    a_delta = np.negative(stats.image, out=stats.image)
    tilt = 0.0
    if scale_free:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            border = 1.0 + float(np.mean(delta))
            delta /= border
            a_delta /= border
            tilt = float(np.mean(delta))
    if not np.all(np.isfinite(delta)):
        return None, "linearized solve produced a non-finite step", stats.converged
    step = _line_search(x, delta, r, a_delta, reaction, phi, tilt)
    return step, "line search stalled", stats.converged


def _forcing(norm: float, prev_norm: float | None, prev_eta: float, floor: float) -> float:
    """Eisenstat-Walker forcing term (choice 2) for a Newton step whose
    residual has 2-norm norm, after one of prev_norm (None at the first
    step) solved to prev_eta.

    eta = 0.9 (norm / prev_norm)^2, raised to 0.9 prev_eta^2 when that
    exceeds 0.1 (which FORCING_MAX = 0.1 never allows, but a larger cap
    would), raised to floor and capped at FORCING_MAX.  floor keeps the
    last step from solving far below what the outer test needs.  A
    non-finite ratio gives FORCING_MAX.
    """
    if prev_norm is None:
        eta = FORCING_MAX
    else:
        eta = 0.9 * (norm / prev_norm) ** 2
        if 0.9 * prev_eta**2 > 0.1:
            eta = max(eta, 0.9 * prev_eta**2)
    # min and max keep their first argument against a nan
    return min(FORCING_MAX, max(eta, floor))


def _failure_message(message: str, unconverged: int) -> str:
    """A failed report's message, with the count of unconverged inner solves."""
    note = f"unconverged inner solves: {unconverged}" if unconverged else ""
    return "; ".join(part for part in (message, note) if part)


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
    solver to an Eisenstat-Walker forcing term (_forcing) and backtracks
    by halving until the merit, the 2-norm of F, decreases.  At zero
    degree (|c| <= C_ZERO_TOL) |F| falls along the escape w -> -inf, so
    the merit, also for the forcing term and the stall test below, is
    that of H(w) = e^(-mean w) F(w), which equals -phi at every constant:
    its step is Newton's, rescaled (_newton_step), and does not exist at
    a constant w0.  The residual of a step is carried from the last one
    (see _line_search), and the inner solve takes A delta from its
    Arnoldi residual, so a step applies no stencil: they run for the
    first residual and for the fresh ones below.  Each iterate's phi e^w
    is formed once, by the line search that accepts it (by the start for
    w0), and every fresh residual (_newton_residual) takes it from the
    reaction -phi e^w held for w.  Stops when the sup-norm residual is at
    most tol times the problem scale plus the stencils' round-off on w
    (linsolve._round_off), confirmed on a fresh residual: a carried
    residual that passes is replaced by the fresh one, and if that fails
    and its merit did not fall below the last fresh one's, the solve has
    stalled.  That stall, a stalled line search, a singular scale-free
    step or a non-finite step reports status not-certified; the budget
    running out reports max-iter.  Every report carries the fresh
    residual of its solution, and one that did not converge counts its
    inner solves that missed their forcing term.  A converged report
    also carries the A w of that fresh residual, its image, which is
    dropped before any step, so no step holds it.
    """
    same_grid(w0, prob)
    phi = prob.phi.values
    w = w0.values  # read only: every step rebinds w
    del w0  # the start would stay beside every step
    scale_free = abs(prob.c) <= C_ZERO_TOL

    def merit(norm: float) -> float:
        # |F(w)|, or |H(w)| = e^(-mean w) |F(w)| at zero degree
        if scale_free:
            with np.errstate(over="ignore", invalid="ignore"):
                norm *= float(np.exp(-np.mean(w)))
        return norm

    reaction = _reaction(phi, w)
    r, image = _newton_residual(w, prob, reaction)
    fresh = True  # r was applied to w, not carried
    norm, prev_norm, eta = merit(_norm2(r)), None, FORCING_MAX
    fresh_norm = norm  # merit of the last fresh residual
    trace = [float(np.max(w))]
    status = "max-iter"
    message = ""
    unconverged = 0
    for i in range(maxiter + 1):
        scale = 1.0 + abs(prob.c) + _sup(reaction)
        bound = tol * scale + _round_off(prob.alpha, 0.0, _sup(w))
        r_sup = _sup(r)
        if not fresh and r_sup <= bound:
            # a carried residual passes: confirm it on the stencils
            (r, image), fresh = _newton_residual(w, prob, reaction), True
            norm, r_sup = merit(_norm2(r)), _sup(r)
            if r_sup > bound and norm >= fresh_norm:
                status = "not-certified"
                message = "line search stalled at the round-off floor"
                break
            fresh_norm = norm
        if r_sup <= bound:
            status = "converged"
            break
        image = None  # a step does not hold A w beside its Krylov basis
        if i == maxiter:
            break
        eta = _forcing(norm, prev_norm, eta, 0.5 * tol * scale / r_sup)
        step, failure, inner_ok = _newton_step(
            w, r, reaction, phi, prob.alpha, lin, eta, scale_free
        )
        unconverged += not inner_ok
        fresh = False  # the step overwrote r
        if step is None:
            status = "not-certified"
            message = failure
            reaction = _reaction(phi, w)  # the line search overwrote it
            break
        w, r, reaction, rn = step
        norm, prev_norm = merit(rn), norm
        trace.append(float(np.max(w)))
    if not fresh:
        r, _ = _newton_residual(w, prob, reaction)
    if status != "converged":
        image = None
        message = _failure_message(message, unconverged)
    return SolveReport(
        solution=ScalarField(prob.spec, w),
        status=status,
        trace=trace,
        residual_sup=_sup(r),
        method="newton",
        iterations=len(trace) - 1,
        message=message,
        image=image,
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
) -> tuple[bool, float]:
    """Search for a constant a < 0 with ||phi - a||_p < -a / gamma (1 - 2c).

    Success certifies solvability; failure is inconclusive.  Returns the
    certification flag and the constant with the best margin (0.0 when
    nothing certified).
    """
    if prob.c >= 0:
        raise SolvabilityError("sufficient_check needs c < 0")
    if gamma_hat <= 0:
        raise ConfigError("gamma_hat must be positive")
    denom = gamma_hat * (1.0 - 2.0 * prob.c)
    best_margin = -np.inf
    best_a = 0.0
    certified = False
    for k in range(SUFFICIENT_KMAX):
        a = -SUFFICIENT_EPS * 2.0**k
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
    same_grid(psi, lee)
    scale = 1.0 + float(np.max(np.abs(psi.values)))
    if abs(mean(psi)) > 1e-10 * scale:
        raise CertificateError(f"psi must have zero mean, got {mean(psi):.3e}")
    if float(np.max(np.abs(psi.values))) == 0.0:
        raise CertificateError("psi must not vanish identically")
    if c >= 0:
        raise CertificateError("construction needs c < 0")
    # extreme inputs overflow to inf: shifted then fails the sign test,
    # and ScalarField rejects vals
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = psi.values + alpha_const
        if not (float(np.min(shifted)) < 0.0 < float(np.max(shifted))):
            raise CertificateError("psi + alpha_const must change sign")
        vals = -_apply(lee, psi.values) + c * shifted
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
            raise ConfigError("asymptotic suite needs negative c values")
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
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    lin: LinearOptions | None = None,
) -> Bracket:
    """Bracket the critical constant below which solving stops succeeding.

    Nonpositive nonzero phi is solvable at every c < 0: the ladder of
    probes down to search_floor is solved and the floor is returned as
    the minus-infinity sentinel.  Otherwise c doubles from -BRACKET_EPS,
    its last rung clipped to search_floor, until the positivity test or
    the solver fails, then bisects to BRACKET_REL_WIDTH; a solved floor
    gives c_lo = c_hi = search_floor.  If the first rung fails, c halves
    toward zero for a solvable point; when none solves down to
    BRACKET_EPS 2^-20, c_hi is half the last failed c.  search_floor must
    lie below -BRACKET_EPS.  Every end is a probed c, except that last
    c_hi, whose evidence is search-limit.
    """
    if mean(phi) >= 0:
        raise SolvabilityError("bracketing needs mean(phi) < 0")
    if search_floor >= -BRACKET_EPS:
        raise ConfigError(f"search_floor must lie below the first probe c = {-BRACKET_EPS:g}")
    if not tol > 0:
        raise ConfigError(f"kw tolerance must be positive, got {tol!r}")
    probes: list[tuple[float, str]] = []
    warm = last_solved = first_failed = None
    fail_kind = "solver-failed"
    fail_message = ""

    def solved(c: float) -> bool:
        """Probe c and record it as the last solved or the latest failed point."""
        nonlocal warm, last_solved, first_failed, fail_kind, fail_message
        report = _solve_negative_c(
            KWProblem(alpha, c, phi), tol=tol, budget=maxiter, lin=lin, initial_guess=warm
        )
        outcome = PROBE_OUTCOMES.get(report.status, "solver-failed")
        if report.converged:
            warm, last_solved = report.solution, c
        else:
            first_failed, fail_kind = c, outcome
            fail_message = report.message or report.status
        probes.append((c, outcome))
        return report.converged

    if float(np.max(phi.values)) <= 0.0:
        # solvable for every negative c; walk the ladder as evidence
        c = -BRACKET_EPS
        while c > search_floor:
            solved(c)
            c *= 10.0
        solved(search_floor)
        return Bracket(
            c_lo=search_floor,
            c_hi=-BRACKET_EPS,
            lo_evidence="search-limit",
            hi_evidence=probes[0][1],
            probes=probes,
        )

    # doubling descent, clipped so that search_floor is its last rung
    c = -BRACKET_EPS
    while solved(c) and c > search_floor:
        c = max(2.0 * c, search_floor)
    if last_solved is None:
        # even the first rung failed; walk toward zero for a solvable point
        c = first_failed / 2.0
        while abs(c) > BRACKET_EPS * 2.0**-20 and not solved(c):
            c /= 2.0
    if first_failed is not None and last_solved is not None:
        while abs(first_failed - last_solved) > BRACKET_REL_WIDTH * abs(last_solved):
            solved(0.5 * (first_failed + last_solved))
    return Bracket(
        c_lo=search_floor if first_failed is None else first_failed,
        c_hi=first_failed / 2.0 if last_solved is None else last_solved,
        lo_evidence="search-limit" if first_failed is None else fail_kind,
        hi_evidence="search-limit" if last_solved is None else "solved",
        probes=probes,
        lo_message=fail_message,
    )


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def _unreduced_defect(u, s, s_hat, alpha, k, image=None) -> np.ndarray:
    # A u + (2/k)(s - s_hat e^u), summed into image, the A u the caller
    # holds, when given
    if image is None:
        image = _apply(alpha, u)
    image += (2.0 / k) * (s.values - s_hat.values * np.exp(u))
    return image


def _unreduced_residual(u, s, s_hat, alpha, k, image=None) -> float:
    """sup|A u + (2/k)(s - s_hat e^u)|, summed into image when the caller
    holds A u (which it then gives up), else from the stencils applied to
    u.  inf, without a warning, where e^u overflows (a diverged
    iterate)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _sup(_unreduced_defect(u, s, s_hat, alpha, k, image=image))


def _averaged_start(prob: KWProblem) -> ScalarField:
    """The constant solving c = mean(phi) e^w, or 0 where c mean(phi) <= 0."""
    phi_bar = mean(prob.phi)
    level = float(np.clip(np.log(prob.c / phi_bar), -20.0, 20.0)) if prob.c * phi_bar > 0 else 0.0
    return make_field(prob.spec, level)


def _oscillation_start(prob: KWProblem, lin: LinearOptions | None) -> ScalarField | None:
    """The zero-degree start w0 = t + e^t v0, or None where it does not exist.

    v0 solves A v = phi - mean(phi) (_solve_for_v).  At c = 0,
    F(t + e^t v0) = -e^t mean(phi) - e^(2t) phi v0 to second order in
    e^t, so e^t = -mean(phi) / mean(phi v0) leaves F mean-zero.  As
    mean(phi v0) = mean(v0 A v0) > 0 (alpha is co-closed), that needs
    mean(phi) < 0, Kazdan and Warner's condition.
    """
    phi_bar = mean(prob.phi)
    if not phi_bar < 0.0:
        return None
    v, _ = _solve_for_v(prob, lin)
    scale = -phi_bar / float(np.mean(prob.phi.values * v.values))  # e^t
    return ScalarField(prob.spec, float(np.log(scale)) + scale * v.values) if scale > 0.0 else None


def _coarse_start(prob: KWProblem, tol: float, lin: LinearOptions | None) -> ScalarField | None:
    """Newton's answer on the half-size grid, refined onto prob's grid.

    A start, not a certificate: Newton alone solves the injected problem,
    from the next half grid's answer while that one nests, else from
    _averaged_start.  None below NEST_MIN_POINTS points, when a half axis
    makes no grid or the injected drift is not co-closed, and when the
    half grid's Newton does not converge.
    """
    if prob.spec.npoints < NEST_MIN_POINTS:
        return None
    try:
        phi = restrict(prob.phi)  # GridError when a half axis makes no grid
        alpha = OneForm(phi.spec, tuple(restrict(a) for a in prob.alpha.components))
        half = KWProblem(alpha, prob.c, phi)  # GauduchonError unless co-closed
    except (GridError, GauduchonError):
        return None
    start = _coarse_start(half, tol, lin)
    report = newton_solve(half, start or _averaged_start(half), tol=tol, lin=lin)
    return refine_field(report.solution) if report.converged else None


def _solve_negative_c(
    prob: KWProblem,
    *,
    tol: float = DEFAULT_KW_TOL,
    budget: int = DEFAULT_KW_MAXITER,
    lin: LinearOptions | None = None,
    initial_guess: ScalarField | None = None,
) -> SolveReport:
    """Certificate-first solve for c < 0: Newton first, the pair verifies.

    Runs the positivity test first when phi is positive somewhere or
    identically zero; its failure is reported as certified-unsolvable, the
    only such report in the package.  Nonpositive phi that is not
    identically zero is solvable at every c < 0, the rule
    critical_c_bracket also uses, so it skips the test.  Then Newton
    starts from initial_guess, else the half-size grids' answer
    (_coarse_start), else _averaged_start.  An ordered pair certifies
    that a solution lies between its ends, so a converged answer inside
    it (within tol (1 + sup|w_+|)) is a solution in the pair.
    Nonpositive phi has no other; sign-changing phi can have two, and the
    monotone limit from w_- is the minimal one.  The verifiers run
    cheapest first.  Strictly negative phi has the constant pair
    [min(w_-, w_+ - 0.1), w_+] with w_+ = _supersolution_level, which
    needs no mean-zero solve; only if it rejects the answer does
    build_supersolution's full pair test it.  A verified report has an
    empty min_step_trace.  When a pair exists and rejects the answer,
    monotone_solve runs at most budget steps between its ends, and its
    report stands as returned.  Without a pair, Newton's report stands,
    unverified, so phi that skipped the test is never reported unsolvable.
    Newton's image (A w) survives only on the constant pair's path: the
    report drops it before build_supersolution's full-grid solve.
    """
    phi_max = float(np.max(prob.phi.values))
    phi_min = float(np.min(prob.phi.values))
    if not (phi_max <= 0.0 and phi_min < 0.0):
        nec = necessary_check(prob, lin)
        if not nec.positive:
            message = f"positivity test failed: min phi0 = {float(np.min(nec.phi0.values)):.3e}"
            return SolveReport.without_iterates(
                make_field(prob.spec, 0.0), "certified-unsolvable", "necessary", message
            )
        del nec  # phi0 would stay beside every later solve
    sub = float(build_subsolution(prob).values.flat[0])
    report = newton_solve(
        prob,
        initial_guess or _coarse_start(prob, tol, lin) or _averaged_start(prob),
        tol=tol,
        lin=lin,
    )

    def verified(report: SolveReport, lo: float, hi) -> bool:
        # a converged answer inside the pair [lo, hi] (hi a level or a
        # field), within tol (1 + sup|hi|), is the solution; its report
        # gets an empty min_step_trace, so trace.csv keeps the column
        slack = tol * (1.0 + float(np.max(np.abs(hi))))
        u = report.solution.values
        ok = report.converged and float(np.min(u)) >= lo - slack and bool(np.all(u <= hi + slack))
        if ok:
            report.min_step_trace = []
        return ok

    if phi_max < 0.0:
        hi = _supersolution_level(prob.c, phi_max)
        if verified(report, min(sub, hi - 0.1), hi):
            return report
    report.image = None  # not held beside the mean-zero solve
    try:
        w_plus = build_supersolution(prob, lin)
    except SolverError:
        w_plus = None
    if w_plus is None:
        return report
    low = min(sub, float(np.min(w_plus.values)) - 0.1)
    if verified(report, low, w_plus.values):
        return report
    del report  # the rejected answer would stay beside the monotone steps
    try:
        return monotone_solve(
            prob, make_field(prob.spec, low), w_plus, tol=tol, maxiter=budget, lin=lin
        )
    except SolverError as e:
        return SolveReport.without_iterates(w_plus, "not-certified", "monotone", str(e))


def _solve_zero_degree(prob: KWProblem, red, s, s_hat, *, tol: float,
                       lin: LinearOptions | None) -> tuple[ScalarField, SolveReport]:
    """u = w + g and the report, converged or not-certified, of a
    zero-degree solve (|c| <= C_ZERO_TOL, s_hat not identically zero).

    The discrete mean identity mean(A w) = 0 (alpha is co-closed) leaves
    every solution with mean(phi e^w) = c, about 0, which phi of one sign
    meets only as w escapes toward minus infinity: such phi runs no
    Newton, nor does phi without _oscillation_start.  Neither refusal is
    a certificate, since c need not vanish exactly.  Else newton_solve,
    on its scale-free merit, starts there.  A converged answer with
    |mean F| > sqrt(tol) mean(|phi| e^w) has shrunk phi e^w below the
    residual test, an escape toward minus infinity: not-certified too.
    """
    phi, phi_bar = prob.phi.values, mean(prob.phi)
    if float(np.min(phi)) >= 0.0 or float(np.max(phi)) <= 0.0:
        refusal = (f"phi {'>=' if phi_bar > 0.0 else '<='} 0 everywhere at zero degree: the mean "
                   f"identity mean(A w) = 0 gives mean(phi e^w) = c = {prob.c:.3e}, which "
                   "one-signed phi meets, if at all, only as w escapes toward -inf")
    else:
        try:
            start = _oscillation_start(prob, lin)
            refusal = "" if start is not None else (
                f"no zero-degree start: e^t = -mean(phi) / mean(phi v0) is not positive, with "
                f"mean(phi) = {phi_bar:.3e} (Kazdan-Warner's condition is mean(phi) < 0)")
        except SolverError as e:
            refusal = str(e)
    if refusal:
        w = make_field(prob.spec, 0.0)
        return recover_metric(w, red), SolveReport.without_iterates(
            w, "not-certified", "newton", refusal)
    report = newton_solve(prob, start, tol=tol, lin=lin)
    del start  # newton_solve dropped its own reference
    u, k = recover_metric(report.solution, red), red.setup.k_t
    if report.converged:
        # the escape test, with phi e^w = (2/k) s_hat e^u
        gap = abs(float(np.mean(_unreduced_defect(u.values, s, s_hat, prob.alpha, k))))
        size = float(np.mean((2.0 / k) * np.abs(s_hat.values) * np.exp(u.values)))
        if gap > np.sqrt(tol) * size:
            report.status = "not-certified"
            report.message = (f"escaped toward -inf: |mean F| = {gap:.3e}, mean(|phi| e^w)"
                              f" = {size:.3e}, max u = {float(np.max(u.values)):.3e}")
    return u, report


def solve_prescribed(
    s: ScalarField,
    s_hat: ScalarField,
    alpha: OneForm,
    setup: GeometrySetup,
    *,
    tol: float = DEFAULT_KW_TOL,
    maxiter: int = DEFAULT_KW_MAXITER,
    monotone_budget: int | None = None,
    lin: LinearOptions | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Full prescription pipeline from curvature data to the log factor u.

    Degenerate parameter values solve pointwise.  Otherwise the problem
    reduces to the exponential equation; negative c runs the positivity
    test where phi is positive somewhere or identically zero (failure is
    certified unsolvable), then the certificate-based solve.  Vanishing c
    with vanishing s_hat is the linear case.  The remaining regimes
    (c > 0, or c = 0 with s_hat not identically zero) have no general
    existence theory, and Newton alone solves them: at zero degree
    through _solve_zero_degree, for c > 0 from zero and, if that fails,
    from _averaged_start (unless that is zero too).  A failed report is
    the first run's, its message naming the second's status and reason.

    Every report's residual_sup is the unreduced residual of u.  Where g
    is the zero constant, as for every constant s, u = w + 0 has the A w
    that a verified or best-effort Newton report carries (its image), and
    that residual applies no stencil; the report drops the image.
    """
    if not tol > 0:
        raise ConfigError(f"kw tolerance must be positive, got {tol!r}")

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
    g = red.g.values
    # u = w + g is w up to the sign of its zeros: a report's image is A u
    zero_g = not any(g.strides) and float(g.flat[0]) == 0.0

    def finish(u: ScalarField, report: SolveReport) -> tuple[ScalarField, SolveReport]:
        image = report.image if zero_g else None
        report.image = None
        resid = _unreduced_residual(u.values, s, s_hat, alpha, k, image)
        report.solution = u
        report.residual_sup = resid
        return u, report

    prob = KWProblem(alpha, c, red.phi)
    if c < -C_ZERO_TOL:
        report = _solve_negative_c(
            prob,
            tol=tol,
            budget=maxiter if monotone_budget is None else min(maxiter, monotone_budget),
            lin=lin,
        )
        if report.status == "certified-unsolvable":
            return report.solution, report
        return finish(recover_metric(report.solution, red), report)

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

    if abs(c) <= C_ZERO_TOL:
        return finish(*_solve_zero_degree(prob, red, s, s_hat, tol=tol, lin=lin))

    # c > 0: best effort, from zero and then from the averaged constant
    report = newton_solve(prob, make_field(spec, 0.0), tol=tol, lin=lin)
    start = _averaged_start(prob)
    if not report.converged and start.values.flat[0] != 0.0:  # else the same run again
        report.image = None  # not held beside the second run
        second = newton_solve(prob, start, tol=tol, lin=lin)
        if second.converged:
            report = second
        else:
            reason = f" ({second.message})" if second.message else ""
            note = f"from the averaged start: {second.status}{reason}"
            report.message = "; ".join(filter(None, (report.message, note)))
    return finish(recover_metric(report.solution, red), report)
