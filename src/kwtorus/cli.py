"""Command-line front end.

Every command reads a flat ``key = value`` config file (``#`` comments)
with command-line flags overriding file keys.  Fields are defined either
by an expression (key ``s``) or a field file (key ``s_file``), never both.
Artifacts land in the output directory (flag ``--out``, else the
KW_OUTPUT_DIR environment variable, else the working directory):

* ``report.kv``      deterministic key = value summary
* ``<name>.kwf``     result fields in the binary field format
* ``<name>.csv``     iterate traces and tables
* ``<name>.pgm``     grayscale heatmap for every rank-2 field artifact

Exit codes: 0 success, 2 validation or precondition failure, 3 solver
non-convergence, 4 certified unsolvable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import fieldexpr
from .errors import ConfigError, GridError, KWTorusError, SolverError
from .geometry import (
    GeometrySetup,
    degenerate_solve,
    reduce_problem,
    transform_s,
    transform_s2,
)
from .grid import GridSpec, OneForm, ScalarField, read_field, write_field
from .kwsolver import (
    DEFAULT_KW_MAXITER,
    DEFAULT_KW_TOL,
    KWProblem,
    LinearOptions,
    SolveReport,
    asymptotic_suite,
    construct_unsolvable,
    critical_c_bracket,
    necessary_check,
    solve_prescribed,
    sufficient_check,
)
from .linsolve import estimate_gamma
from .operators import gauduchon_defect, mean

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNSOLVABLE = 4

FIELD_KEYS = ("s", "s_hat", "s2", "phi", "psi", "f", "u", "u_star")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class RunConfig:
    """Resolved key/value configuration with typed accessors."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw

    def has(self, key: str) -> bool:
        return key in self.raw

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.raw.get(key, default)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        if key not in self.raw:
            return default
        try:
            return float(self.raw[key])
        except ValueError:
            raise ConfigError(f"key {key} is not a number: {self.raw[key]!r}")

    def get_int(self, key: str, default: int | None = None) -> int | None:
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError:
            raise ConfigError(f"key {key} is not an integer: {self.raw[key]!r}")

    def get_bool(self, key: str, default: bool) -> bool:
        if key not in self.raw:
            return default
        val = self.raw[key].strip().lower()
        if val in ("1", "true", "yes", "on"):
            return True
        if val in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key {key} is not a boolean: {self.raw[key]!r}")

    def get_floats(self, key: str) -> list[float]:
        text = self.raw.get(key, "")
        if not text:
            return []
        try:
            return [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"key {key} is not a comma list of numbers: {text!r}")


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Field resolution
# ---------------------------------------------------------------------------

class FieldResolver:
    """Builds fields from expressions or files and keeps grids consistent."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        dims = cfg.get_str("dims")
        self.spec: GridSpec | None = None
        if dims:
            try:
                self.spec = GridSpec(tuple(int(tok) for tok in dims.split(",")))
            except ValueError:
                raise ConfigError(f"dims is not a comma list of integers: {dims!r}")

    def _adopt(self, spec: GridSpec):
        if self.spec is None:
            self.spec = spec
        elif self.spec != spec:
            raise ConfigError(
                f"field grid {spec.dims} conflicts with configured grid {self.spec.dims}"
            )

    def field(self, key: str, required: bool = True, default: str | None = None) -> ScalarField | None:
        expr = self.cfg.get_str(key)
        path = self.cfg.get_str(key + "_file")
        if expr is not None and path is not None:
            raise ConfigError(f"field {key}: give an expression or a file, not both")
        if path is not None:
            if not Path(path).exists():
                raise ConfigError(f"field {key}: file not found: {path}")
            fld = read_field(path)
            self._adopt(fld.spec)
            return fld
        if expr is None:
            if default is not None:
                expr = default
            elif required:
                raise ConfigError(f"missing required field {key} (or {key}_file)")
            else:
                return None
        if self.spec is None:
            raise ConfigError("dims must be set to evaluate field expressions")
        return fieldexpr.evaluate(fieldexpr.parse(expr), self.spec)

    def one_form(self) -> OneForm:
        if self.spec is None:
            raise ConfigError("dims must be set before building the one-form")
        comps = []
        for ax in range(self.spec.rank):
            comp = self.field(f"alpha{ax}", required=False, default="0")
            comps.append(comp)
        return OneForm(self.spec, tuple(comps))

    def setup(self) -> GeometrySetup:
        n = self.cfg.get_int("n")
        t = self.cfg.get_float("t")
        if n is None or t is None:
            raise ConfigError("commands using geometry need both n and t")
        return GeometrySetup(n=n, t=t)


def linear_options(cfg: RunConfig) -> LinearOptions:
    default = LinearOptions()
    return LinearOptions(
        tol=cfg.get_float("lin_tol", default.tol),
        maxiter=cfg.get_int("lin_maxiter", default.maxiter),
        restart=cfg.get_int("lin_restart", default.restart),
        precondition=cfg.get_bool("lin_precondition", default.precondition),
        allow_direct=cfg.get_bool("lin_direct", default.allow_direct),
    )


def solve_options(cfg: RunConfig) -> dict:
    """Keyword arguments of solve_prescribed, shared by solve and roundtrip."""
    return dict(
        strategy=cfg.get_str("strategy", "auto"),
        steps=cfg.get_int("steps", 10),
        tol=cfg.get_float("kw_tol", DEFAULT_KW_TOL),
        maxiter=cfg.get_int("kw_maxiter", DEFAULT_KW_MAXITER),
        monotone_budget=cfg.get_int("monotone_budget", None),
        lambda_override=cfg.get_float("kw_lambda_override", None),
        lin=linear_options(cfg),
    )


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

class Reporter:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.entries: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = format(value, ".17g")
        else:
            text = str(value)
        self.entries.append((key, text))

    def field_stats(self, name: str, f: ScalarField) -> None:
        self.add(f"{name}_min", float(np.min(f.values)))
        self.add(f"{name}_max", float(np.max(f.values)))
        self.add(f"{name}_mean", float(np.mean(f.values)))

    def save_field(self, name: str, f: ScalarField) -> None:
        write_field(f, self.outdir / f"{name}.kwf")
        if f.spec.rank == 2:
            lo, hi = write_pgm(f, self.outdir / f"{name}.pgm")
            self.add(f"{name}_pgm_min", lo)
            self.add(f"{name}_pgm_max", hi)

    def save_trace(self, name: str, report: SolveReport) -> None:
        path = self.outdir / f"{name}.csv"
        with open(path, "w") as fh:
            if report.min_step_trace is not None:
                fh.write("iteration,sup_w,min_step\n")
                for i, sup in enumerate(report.trace):
                    step = (
                        format(report.min_step_trace[i - 1], ".17g")
                        if 1 <= i <= len(report.min_step_trace)
                        else ""
                    )
                    fh.write(f"{i},{sup:.17g},{step}\n")
            else:
                fh.write("iteration,sup_w\n")
                for i, sup in enumerate(report.trace):
                    fh.write(f"{i},{sup:.17g}\n")

    def write(self) -> None:
        with open(self.outdir / "report.kv", "w") as fh:
            for key, text in self.entries:
                fh.write(f"{key} = {text}\n")


def write_pgm(f: ScalarField, path) -> tuple[float, float]:
    """8-bit grayscale heatmap of a rank-2 field, linear min-max scaling."""
    if f.spec.rank != 2:
        raise GridError("heatmaps need a rank-2 field")
    lo = float(np.min(f.values))
    hi = float(np.max(f.values))
    if hi > lo:
        scaled = np.round(255.0 * (f.values - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(f.spec.dims, dtype=np.uint8)
    n0, n1 = f.spec.dims
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n1} {n0}\n255\n".encode())
        fh.write(scaled.tobytes(order="C"))
    return lo, hi


def report_solve(rep: Reporter, report: SolveReport) -> None:
    rep.add("status", report.status)
    rep.add("method", report.method)
    rep.add("iterations", report.iterations)
    rep.add("residual_sup", report.residual_sup)
    if report.message:
        rep.add("message", report.message)


def solve_exit_code(report: SolveReport) -> int:
    if report.status == "converged":
        return EXIT_OK
    if report.status == "certified-unsolvable":
        return EXIT_UNSOLVABLE
    return EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig, rep: Reporter, extra_paths: list[str]) -> int:
    res = FieldResolver(cfg)
    code = EXIT_OK
    for key in FIELD_KEYS:
        if cfg.has(key) or cfg.has(key + "_file"):
            fld = res.field(key)
            rep.field_stats(key, fld)
    if res.spec is not None:
        alpha = res.one_form()
        defect = gauduchon_defect(alpha)
        tol = cfg.get_float("gauduchon_tol", 1e-8)
        scale = 1.0 + max(float(np.max(np.abs(c.values))) for c in alpha.components)
        ok = defect <= tol * scale
        rep.add("alpha_divergence_sup", defect)
        rep.add("alpha_gauduchon", ok)
        if not ok:
            code = EXIT_INVALID
    for path in extra_paths:
        name = Path(path).stem
        fld = read_field(path)
        rep.add(f"{name}_ok", True)
        rep.field_stats(name, fld)
    if res.spec is not None:
        rep.add("dims", ",".join(str(n) for n in res.spec.dims))
    return code


def cmd_transform(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    setup = res.setup()
    s = res.field("s")
    u = res.field("u")
    s2 = res.field("s2", required=False, default="0")
    alpha = res.one_form()
    s_hat = transform_s(s, u, alpha, setup)
    half = ScalarField(u.spec, 0.5 * u.values)
    s2_hat = transform_s2(s2, half, alpha, setup)
    rep.add("k_t", setup.k_t)
    rep.field_stats("s_hat", s_hat)
    rep.field_stats("s2_hat", s2_hat)
    rep.save_field("s_hat", s_hat)
    rep.save_field("s2_hat", s2_hat)
    return EXIT_OK


def cmd_reduce(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    setup = res.setup()
    s = res.field("s")
    s_hat = res.field("s_hat")
    alpha = res.one_form()
    red, stats = reduce_problem(s, s_hat, alpha, setup, linear_options(cfg))
    rep.add("k_t", setup.k_t)
    rep.add("c", red.c)
    rep.add("g_mean", mean(red.g))
    rep.add("g_residual_sup", stats.residual_sup)
    rep.field_stats("phi", red.phi)
    rep.save_field("g", red.g)
    rep.save_field("phi", red.phi)
    return EXIT_OK


def cmd_solve(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    setup = res.setup()
    s = res.field("s")
    s_hat = res.field("s_hat")
    alpha = res.one_form()
    u, report = solve_prescribed(s, s_hat, alpha, setup, **solve_options(cfg))
    rep.add("k_t", setup.k_t)
    report_solve(rep, report)
    rep.field_stats("u", u)
    rep.save_field("u", u)
    rep.save_trace("trace", report)
    return solve_exit_code(report)


def cmd_necessary(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    phi = res.field("phi")
    alpha = res.one_form()
    c = cfg.get_float("c")
    if c is None:
        raise ConfigError("necessary needs the constant c")
    prob = KWProblem(alpha, c, phi)
    nec = necessary_check(prob, linear_options(cfg))
    rep.add("c", c)
    rep.add("phi_mean", mean(phi))
    rep.add("mean_negative", nec.mean_negative)
    rep.add("phi0_min", float(np.min(nec.phi0.values)))
    rep.add("positive", nec.positive)
    rep.save_field("phi0", nec.phi0)
    return EXIT_OK if nec.positive else EXIT_UNSOLVABLE


def cmd_sufficient(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    phi = res.field("phi")
    alpha = res.one_form()
    c = cfg.get_float("c")
    if c is None:
        raise ConfigError("sufficient needs the constant c")
    p = cfg.get_float("p", float(phi.spec.rank + 1))
    gamma_hat = cfg.get_float("gamma_hat", None)
    if gamma_hat is None:
        samples = cfg.get_int("samples", 8)
        gamma_hat = estimate_gamma(alpha, c, p, samples, lin=linear_options(cfg))
        rep.add("gamma_source", "estimated")
    else:
        rep.add("gamma_source", "given")
    rep.add("gamma_is_heuristic", True)
    prob = KWProblem(alpha, c, phi)
    certified, alpha_star = sufficient_check(prob, gamma_hat, p)
    rep.add("c", c)
    rep.add("p", p)
    rep.add("gamma_hat", gamma_hat)
    rep.add("certified", certified)
    rep.add("alpha_star", alpha_star)
    return EXIT_OK


def cmd_critical_c(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    phi = res.field("phi")
    alpha = res.one_form()
    floor = cfg.get_float("search_floor", -1e6)
    bracket = critical_c_bracket(
        phi,
        alpha,
        floor,
        tol=cfg.get_float("kw_tol", DEFAULT_KW_TOL),
        maxiter=cfg.get_int("kw_maxiter", DEFAULT_KW_MAXITER),
        lin=linear_options(cfg),
    )
    rep.add("c_lo", bracket.c_lo)
    rep.add("c_hi", bracket.c_hi)
    rep.add("lo_evidence", bracket.lo_evidence)
    rep.add("hi_evidence", bracket.hi_evidence)
    rep.add("probes", len(bracket.probes))
    with open(rep.outdir / "probes.csv", "w") as fh:
        fh.write("c,outcome\n")
        for c, outcome in bracket.probes:
            fh.write(f"{c:.17g},{outcome}\n")
    return EXIT_OK


def cmd_asymptotic(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    f = res.field("f")
    alpha = res.one_form()
    c_list = cfg.get_floats("c_list")
    if not c_list:
        raise ConfigError("asymptotic needs c_list")
    rows = asymptotic_suite(f, alpha, c_list, linear_options(cfg))
    with open(rep.outdir / "asymptotic.csv", "w") as fh:
        fh.write("c,deviation\n")
        for c, dev in rows:
            fh.write(f"{c:.17g},{dev:.17g}\n")
    rep.add("entries", len(rows))
    rep.add("max_deviation", max(dev for _, dev in rows))
    return EXIT_OK


def cmd_construct_unsolvable(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    psi = res.field("psi")
    alpha = res.one_form()
    c = cfg.get_float("c")
    alpha_const = cfg.get_float("alpha_const")
    if c is None or alpha_const is None:
        raise ConfigError("construct-unsolvable needs c and alpha_const")
    phi = construct_unsolvable(psi, alpha_const, c, alpha)
    rep.add("c", c)
    rep.add("alpha_const", alpha_const)
    rep.field_stats("phi", phi)
    rep.save_field("phi", phi)
    return EXIT_OK


def cmd_roundtrip(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    setup = res.setup()
    s = res.field("s")
    u_star = res.field("u_star")
    alpha = res.one_form()
    s_hat = transform_s(s, u_star, alpha, setup)
    rep.save_field("s_hat", s_hat)
    u, report = solve_prescribed(s, s_hat, alpha, setup, **solve_options(cfg))
    report_solve(rep, report)
    sup_err = float(np.max(np.abs(u.values - u_star.values)))
    rep.add("sup_error", sup_err)
    rep.save_field("u", u)
    rep.save_trace("trace", report)
    return solve_exit_code(report)


def cmd_gamma_estimate(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    if res.spec is None:
        raise ConfigError("gamma-estimate needs dims")
    alpha = res.one_form()
    c = cfg.get_float("c")
    if c is None:
        raise ConfigError("gamma-estimate needs the constant c")
    p = cfg.get_float("p", float(res.spec.rank + 1))
    samples = cfg.get_int("samples", 8)
    gamma_hat = estimate_gamma(alpha, c, p, samples, lin=linear_options(cfg))
    rep.add("c", c)
    rep.add("p", p)
    rep.add("samples", samples)
    rep.add("gamma_hat", gamma_hat)
    rep.add("gamma_is_heuristic", True)
    return EXIT_OK


def cmd_degenerate_t(cfg: RunConfig, rep: Reporter) -> int:
    res = FieldResolver(cfg)
    s = res.field("s")
    s_hat = res.field("s_hat")
    u = degenerate_solve(s, s_hat)
    resid = float(np.max(np.abs(np.exp(u.values) * s_hat.values - s.values)))
    if cfg.has("n") and cfg.has("t"):
        setup = res.setup()
        rep.add("k_t", setup.k_t)
    rep.add("residual_sup", resid)
    rep.field_stats("u", u)
    rep.save_field("u", u)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "validate": cmd_validate,
    "transform": cmd_transform,
    "reduce": cmd_reduce,
    "solve": cmd_solve,
    "necessary": cmd_necessary,
    "sufficient": cmd_sufficient,
    "critical-c": cmd_critical_c,
    "asymptotic": cmd_asymptotic,
    "construct-unsolvable": cmd_construct_unsolvable,
    "roundtrip": cmd_roundtrip,
    "gamma-estimate": cmd_gamma_estimate,
    "degenerate-t": cmd_degenerate_t,
}

_FLAG_KEYS = [
    "dims", "n", "t",
    "s", "s_file", "s_hat", "s_hat_file", "s2", "s2_file",
    "phi", "phi_file", "psi", "psi_file", "f", "f_file",
    "u", "u_file", "u_star", "u_star_file",
    "alpha0", "alpha1", "alpha2", "alpha3",
    "alpha0_file", "alpha1_file", "alpha2_file", "alpha3_file",
    "c", "c_list", "alpha_const", "p", "samples", "gamma_hat",
    "search_floor", "steps", "strategy",
    "lin_tol", "lin_maxiter", "lin_restart", "lin_precondition", "lin_direct",
    "kw_tol", "kw_maxiter", "kw_lambda_override", "monotone_budget",
    "gauduchon_tol",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwtorus",
        description="Prescribed-curvature solver on flat periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default KW_OUTPUT_DIR or .)")
        for key in _FLAG_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)
        if name == "validate":
            p.add_argument("paths", nargs="*", help="extra field files to validate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw.update(parse_config_file(args.config))
        for key in _FLAG_KEYS:
            val = getattr(args, key, None)
            if val is not None:
                raw[key] = val
        cfg = RunConfig(raw)
        outdir = Path(args.out or os.environ.get("KW_OUTPUT_DIR") or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        rep = Reporter(outdir)
        rep.add("command", args.command)
        command = COMMANDS[args.command]
        try:
            if "paths" in args:
                code = command(cfg, rep, args.paths)
            else:
                code = command(cfg, rep)
        finally:
            rep.write()
        return code
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except KWTorusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
