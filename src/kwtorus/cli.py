"""Command-line front end.

Every command reads a flat ``key = value`` config file (``#`` comments)
with command-line flags overriding file keys.  A file key must be one of
the flag keys (``_FLAG_KEYS``); any other key is rejected (exit 2), as an
unknown flag is.  Fields are defined either by an expression (key ``s``)
or a field file (key ``s_file``), never both.  Numeric keys must hold
finite numbers.
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
import functools
import math
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
from .grid import MAX_RANK, GridSpec, OneForm, ScalarField, read_field, write_field
from .kwsolver import (
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
from .operators import DEFAULT_GAUDUCHON_TOL, gauduchon_defect, gauduchon_scale, mean

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNSOLVABLE = 4
# exit code of a solve's status; every other status is a solver failure
SOLVE_EXITS = {"converged": EXIT_OK, "certified-unsolvable": EXIT_UNSOLVABLE}

FIELD_KEYS = ("s", "s_hat", "s2", "phi", "psi", "f", "u", "u_star")
# probes of estimate_gamma when the samples key is unset
GAMMA_SAMPLES = 8

# config key -> (keyword, kind) of the library calls; an unset key passes
# nothing, so the library's own default holds
LINEAR_KEYS = {"lin_tol": ("tol", float), "lin_maxiter": ("maxiter", int)}
KW_KEYS = {"kw_tol": ("tol", float), "kw_maxiter": ("maxiter", int)}
SOLVE_KEYS = {**KW_KEYS, "monotone_budget": ("monotone_budget", int)}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _finite_list(text: str) -> list[float]:
    values = [_finite(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(text)
    return values


# kind of RunConfig.get -> (what its text must be, parser raising ValueError)
_KINDS = {
    str: ("a string", str),
    float: ("a finite number", _finite),
    int: ("an integer", int),
    list: ("a comma list of finite numbers", _finite_list),
}


class RunConfig:
    """Resolved key/value configuration: typed values, the grid and the fields.

    paths lists the extra field files that validate checks.
    """

    def __init__(self, raw: dict[str, str], paths: list[str] = ()):
        self.raw = raw
        self.paths = list(paths)
        dims = raw.get("dims")
        self.spec: GridSpec | None = None
        if dims:
            try:
                counts = tuple(int(tok) for tok in dims.split(","))
            except ValueError:
                raise ConfigError(f"dims is not a comma list of integers: {dims!r}")
            self.spec = GridSpec(counts)

    def get(self, key: str, default=None, kind=str):
        """Value of key parsed as kind (str, float, int or list, a list of
        floats), or default when the key is unset."""
        if key not in self.raw:
            return default
        what, parse = _KINDS[kind]
        try:
            return parse(self.raw[key])
        except ValueError:
            raise ConfigError(f"key {key} is not {what}: {self.raw[key]!r}")

    def given(self, keys: dict) -> dict:
        """{keyword: value} for the keys of keys (config key -> (keyword,
        kind)) that are set."""
        return {
            kw: self.get(key, kind=kind) for key, (kw, kind) in keys.items() if key in self.raw
        }

    def need(self, key: str, kind=float):
        """Value of a key the command cannot run without."""
        if key not in self.raw:
            raise ConfigError(f"missing required key {key}")
        return self.get(key, kind=kind)

    def _adopt(self, spec: GridSpec):
        if self.spec is None:
            self.spec = spec
        elif self.spec != spec:
            raise ConfigError(
                f"field grid {spec.dims} conflicts with configured grid {self.spec.dims}"
            )

    def field(self, key: str, default: str | None = None) -> ScalarField:
        """Field from key's expression or key_file; default is an expression."""
        expr = self.get(key)
        path = self.get(key + "_file")
        if expr is not None and path is not None:
            raise ConfigError(f"field {key}: give an expression or a file, not both")
        if path is not None:
            fld = read_field_file(path, f"field {key}")
            self._adopt(fld.spec)
            return fld
        if expr is None:
            if default is None:
                raise ConfigError(f"missing required field {key} (or {key}_file)")
            expr = default
        if self.spec is None:
            raise ConfigError("dims must be set to evaluate field expressions")
        return fieldexpr.evaluate(fieldexpr.parse(expr), self.spec)

    def one_form(self) -> OneForm:
        if self.spec is None:
            raise ConfigError("dims must be set before building the one-form")
        comps = [self.field(f"alpha{ax}", default="0") for ax in range(self.spec.rank)]
        return OneForm(self.spec, tuple(comps))

    def setup(self) -> GeometrySetup:
        return GeometrySetup(n=self.need("n", int), t=self.need("t"))

    def exponent(self) -> float:
        """The Lebesgue exponent p: by default rank + 1, the least integer
        above the rank that estimate_gamma accepts."""
        return self.get("p", float(self.spec.rank + 1), float)


def read_field_file(path, what: str) -> ScalarField:
    """Field file at path; what names it in the error when it cannot be opened."""
    try:
        return read_field(path)
    except FileNotFoundError:
        raise ConfigError(f"{what}: file not found: {path}")
    except OSError as e:
        raise ConfigError(f"{what}: cannot read {path}: {e.strerror}")


def parse_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError(f"config file {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text")
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def linear_options(cfg: RunConfig) -> LinearOptions:
    return LinearOptions(**cfg.given(LINEAR_KEYS))


def solve_options(cfg: RunConfig) -> dict:
    """Keyword arguments of solve_prescribed, shared by solve and roundtrip."""
    return dict(cfg.given(SOLVE_KEYS), lin=linear_options(cfg))


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """Text of a report or CSV value; floats keep all 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


class Reporter:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.entries: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.entries.append((key, _text(value)))

    def field_stats(self, name: str, f: ScalarField) -> None:
        self.add(f"{name}_min", float(np.min(f.values)))
        self.add(f"{name}_max", float(np.max(f.values)))
        self.add(f"{name}_mean", mean(f))

    def save_field(self, name: str, f: ScalarField) -> None:
        write_field(f, self.outdir / f"{name}.kwf")
        if f.spec.rank == 2:
            lo, hi = write_pgm(f, self.outdir / f"{name}.pgm")
            self.add(f"{name}_pgm_min", lo)
            self.add(f"{name}_pgm_max", hi)

    def save_csv(self, name: str, header, rows) -> None:
        with open(self.outdir / f"{name}.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_text(cell) for cell in row) + "\n")

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


def finish_solve(rep: Reporter, u: ScalarField, report: SolveReport) -> int:
    """Save u and the iterate trace; return the exit code of the solve."""
    rep.save_field("u", u)
    header, rows = ["iteration", "sup_w"], list(enumerate(report.trace))
    if report.min_step_trace is not None:
        # min_step_trace[i - 1] is the smallest update into iterate i
        steps = ["", *report.min_step_trace]
        header.append("min_step")
        rows = [(i, sup, steps[i] if i < len(steps) else "") for i, sup in rows]
    rep.save_csv("trace", header, rows)
    return SOLVE_EXITS.get(report.status, EXIT_NO_CONVERGENCE)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig, rep: Reporter) -> int:
    code = EXIT_OK
    for key in FIELD_KEYS:
        if key in cfg.raw or key + "_file" in cfg.raw:
            rep.field_stats(key, cfg.field(key))
    if cfg.spec is not None:
        alpha = cfg.one_form()
        defect = gauduchon_defect(alpha)
        ok = defect <= DEFAULT_GAUDUCHON_TOL * gauduchon_scale(alpha)
        rep.add("alpha_divergence_sup", defect)
        rep.add("alpha_gauduchon", ok)
        if not ok:
            code = EXIT_INVALID
    for path in cfg.paths:
        name = Path(path).stem
        fld = read_field_file(path, "validate")
        rep.add(f"{name}_ok", True)
        rep.field_stats(name, fld)
    if cfg.spec is not None:
        rep.add("dims", ",".join(str(n) for n in cfg.spec.dims))
    return code


def cmd_transform(cfg: RunConfig, rep: Reporter) -> int:
    setup = cfg.setup()
    s = cfg.field("s")
    u = cfg.field("u")
    s2 = cfg.field("s2", default="0")
    alpha = cfg.one_form()
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
    setup = cfg.setup()
    s = cfg.field("s")
    s_hat = cfg.field("s_hat")
    alpha = cfg.one_form()
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
    setup = cfg.setup()
    s = cfg.field("s")
    s_hat = cfg.field("s_hat")
    alpha = cfg.one_form()
    u, report = solve_prescribed(s, s_hat, alpha, setup, **solve_options(cfg))
    rep.add("k_t", setup.k_t)
    report_solve(rep, report)
    rep.field_stats("u", u)
    return finish_solve(rep, u, report)


def cmd_necessary(cfg: RunConfig, rep: Reporter) -> int:
    phi = cfg.field("phi")
    alpha = cfg.one_form()
    c = cfg.need("c")
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
    phi = cfg.field("phi")
    alpha = cfg.one_form()
    c = cfg.need("c")
    p = cfg.exponent()
    gamma_hat = cfg.get("gamma_hat", None, float)
    if gamma_hat is None:
        samples = cfg.get("samples", GAMMA_SAMPLES, int)
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
    phi = cfg.field("phi")
    alpha = cfg.one_form()
    keys = {"search_floor": ("search_floor", float), **KW_KEYS}
    bracket = critical_c_bracket(phi, alpha, **cfg.given(keys), lin=linear_options(cfg))
    rep.add("c_lo", bracket.c_lo)
    rep.add("c_hi", bracket.c_hi)
    rep.add("lo_evidence", bracket.lo_evidence)
    rep.add("hi_evidence", bracket.hi_evidence)
    rep.add("probes", len(bracket.probes))
    if bracket.lo_message:
        rep.add("lo_message", bracket.lo_message)
    rep.save_csv("probes", ("c", "outcome"), bracket.probes)
    return EXIT_OK


def cmd_asymptotic(cfg: RunConfig, rep: Reporter) -> int:
    f = cfg.field("f")
    alpha = cfg.one_form()
    rows = asymptotic_suite(f, alpha, cfg.need("c_list", list), linear_options(cfg))
    rep.save_csv("asymptotic", ("c", "deviation"), rows)
    rep.add("entries", len(rows))
    rep.add("max_deviation", max(dev for _, dev in rows))
    return EXIT_OK


def cmd_construct_unsolvable(cfg: RunConfig, rep: Reporter) -> int:
    psi = cfg.field("psi")
    alpha = cfg.one_form()
    c = cfg.need("c")
    alpha_const = cfg.need("alpha_const")
    phi = construct_unsolvable(psi, alpha_const, c, alpha)
    rep.add("c", c)
    rep.add("alpha_const", alpha_const)
    rep.field_stats("phi", phi)
    rep.save_field("phi", phi)
    return EXIT_OK


def cmd_roundtrip(cfg: RunConfig, rep: Reporter) -> int:
    """Transform s by a known u*, solve for the transformed curvature, and
    report how far the solution lies from u*.  u* is not held through the
    solve: it is evaluated (or read) again after it, before s_hat.kwf is
    written, so a u_star_file naming this command's own s_hat.kwf still
    reads u*.  The artifacts and report keys come in the order of a
    write before the solve."""
    setup = cfg.setup()
    s = cfg.field("s")
    alpha = cfg.one_form()
    s_hat = transform_s(s, cfg.field("u_star"), alpha, setup)
    u, report = solve_prescribed(s, s_hat, alpha, setup, **solve_options(cfg))
    sup_error = float(np.max(np.abs(u.values - cfg.field("u_star").values)))
    rep.save_field("s_hat", s_hat)
    report_solve(rep, report)
    rep.add("sup_error", sup_error)
    return finish_solve(rep, u, report)


def cmd_gamma_estimate(cfg: RunConfig, rep: Reporter) -> int:
    alpha = cfg.one_form()
    c = cfg.need("c")
    p = cfg.exponent()
    samples = cfg.get("samples", GAMMA_SAMPLES, int)
    gamma_hat = estimate_gamma(alpha, c, p, samples, lin=linear_options(cfg))
    rep.add("c", c)
    rep.add("p", p)
    rep.add("samples", samples)
    rep.add("gamma_hat", gamma_hat)
    rep.add("gamma_is_heuristic", True)
    return EXIT_OK


def cmd_degenerate_t(cfg: RunConfig, rep: Reporter) -> int:
    s = cfg.field("s")
    s_hat = cfg.field("s_hat")
    u = degenerate_solve(s, s_hat)
    resid = float(np.max(np.abs(np.exp(u.values) * s_hat.values - s.values)))
    if "n" in cfg.raw and "t" in cfg.raw:
        rep.add("k_t", cfg.setup().k_t)
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
    *(key + suffix
      for key in (*FIELD_KEYS, *(f"alpha{ax}" for ax in range(MAX_RANK)))
      for suffix in ("", "_file")),
    "c", "c_list", "alpha_const", "p", "samples", "gamma_hat", "search_floor",
    "lin_tol", "lin_maxiter",
    "kw_tol", "kw_maxiter", "monotone_budget",
]


@functools.cache  # parse_args keeps no state, so every main call shares one
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
            for key in raw:
                if key not in _FLAG_KEYS:
                    raise ConfigError(f"config file {args.config}: unknown key {key}")
        for key in _FLAG_KEYS:
            val = getattr(args, key)
            if val is not None:
                raw[key] = val
        outdir = Path(args.out or os.environ.get("KW_OUTPUT_DIR") or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"output directory {outdir}: {e.strerror}")
        rep = Reporter(outdir)
        rep.add("command", args.command)
        try:
            cfg = RunConfig(raw, getattr(args, "paths", []))
            return COMMANDS[args.command](cfg, rep)
        finally:
            rep.write()
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except KWTorusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
