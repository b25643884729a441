"""The benchmark's workloads: seeded CLI inputs and their answer checks.

A seed chooses phases only, never grid sizes or amplitudes, so the work
stays comparable across seeds.  Every check recomputes what it can from
the written artifacts with this file's own NumPy code (field files are
parsed here, not by kwtorus.grid), so a solver that reports success on a
wrong field is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KW_TOL = 1e-9  # the CLI's default kw_tol, which these workloads keep
TWO_PI = 2.0 * math.pi

# outcomes that carry no nonexistence certificate; "fold" is the
# continuation engine's planned evidence for the lower end of a bracket
NON_CERTIFICATE = ("solver-failed", "fold")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  Ops with equal keys get the same input, so
    their report.kv bytes must be equal."""

    key: tuple
    argv: list[str]
    expect: int
    check: Callable[[Path], list[str]]


def phases(seed: int, k: int, count: int) -> list[float]:
    """Phases of instance k, rounded so the CLI text and the checks agree."""
    rng = np.random.default_rng((seed, k))
    return [float(f"{t:.6f}") for t in rng.uniform(0.0, TWO_PI, size=count)]


def num(x: float) -> str:
    return f"{x:.6f}"


def dims_arg(dims) -> str:
    return ",".join(str(n) for n in dims)


# ---------------------------------------------------------------------------
# Reference arithmetic, independent of the package
# ---------------------------------------------------------------------------

def read_kwf(path: Path) -> np.ndarray:
    """Field file: b"KWF1", u32le rank, rank x u32le dims, f64le values."""
    data = path.read_bytes()
    if data[:4] != b"KWF1":
        raise ValueError(f"{path.name}: bad magic")
    rank = int(np.frombuffer(data, "<u4", 1, 4)[0])
    dims = tuple(int(n) for n in np.frombuffer(data, "<u4", rank, 8))
    values = np.frombuffer(data, "<f8", offset=8 + 4 * rank)
    if values.size != math.prod(dims):
        raise ValueError(f"{path.name}: payload does not match dims {dims}")
    return values.reshape(dims)


def coords(dims) -> list[np.ndarray]:
    out = []
    for ax, n in enumerate(dims):
        shape = [1] * len(dims)
        shape[ax] = n
        out.append((TWO_PI * np.arange(n) / n).reshape(shape))
    return out


def derivative(u: np.ndarray, ax: int) -> np.ndarray:
    h = TWO_PI / u.shape[ax]
    near = np.roll(u, -1, ax) - np.roll(u, 1, ax)
    far = np.roll(u, -2, ax) - np.roll(u, 2, ax)
    return (8.0 * near - far) / (12.0 * h)


def laplacian(u: np.ndarray) -> np.ndarray:
    """4th-order stencil, positive spectrum (minus the sum of d2/dx2)."""
    out = np.zeros_like(u)
    for ax in range(u.ndim):
        h = TWO_PI / u.shape[ax]
        near = np.roll(u, 1, ax) + np.roll(u, -1, ax) - 2.0 * u
        far = np.roll(u, 2, ax) + np.roll(u, -2, ax) - 2.0 * u
        out -= (16.0 * near - far) / (12.0 * h * h)
    return out


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _status(rep: dict[str, str]) -> list[str]:
    if rep.get("status") != "converged":
        return [f"status {rep.get('status')!r}, expected 'converged'"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Bracket1D:
    """critical-c on phi = construct-unsolvable(sin(x0 + th), 0.1, c = -1).

    The near-fold regime: bisection probes fall back to Newton, whose
    GMRES solves run to their iteration cap, on a grid so small that call
    overhead, not bandwidth, sets the stencil cost.  Near the fold the
    Krylov count of an op swings by +-15 % with the phase, chaotically:
    exact cyclic shifts of one phi spread as widely.  So a run needs many
    ops.  A 64-point op takes 20-28 s, and one op per run spread 28 % over
    five seeds; 32 points (6-7 s) still spread 24 % over ten.  At 16
    points an op takes about 2 s with the same 11 probes and bracket.

    Not listed in BENCHMARK.json, only run by hand: its ops are all
    interpreter and call overhead, which other tenants of a shared host
    slow the most, and whole runs fell into such slow spells (the fastest
    op of five seeds spread 41 %).
    """

    name = "bracket-1d"
    dims = (16,)
    warmup_dims = (8,)

    def op(self, seed: int, k: int, dims, workdir: Path, main) -> Op:
        (th,) = phases(seed, k, 1)
        gen = workdir / "input"
        rc = main([
            "construct-unsolvable", "--dims", dims_arg(dims),
            "--psi", f"sin(x0 + {num(th)})", "--alpha-const", "0.1", "--c=-1",
            "--out", str(gen),
        ])
        if rc != 0:
            raise RuntimeError(f"construct-unsolvable exited {rc}")
        return Op(
            key=(self.name, tuple(dims), th),
            argv=["critical-c", "--phi-file", str(gen / "phi.kwf")],
            expect=0,
            check=check_bracket,
        )


def check_bracket(out: Path) -> list[str]:
    rep = read_report(out / "report.kv")
    c_lo, c_hi = float(rep["c_lo"]), float(rep["c_hi"])
    problems = []
    if c_lo < -1.0:
        problems.append(f"c_lo {c_lo} below -1, where phi is unsolvable by construction")
    if not c_lo <= c_hi < 0.0:
        problems.append(f"bracket [{c_lo}, {c_hi}] is not ordered below 0")
    if abs(c_hi - c_lo) > 0.011 * abs(c_hi):
        problems.append(f"bracket [{c_lo}, {c_hi}] wider than 1.1 %")
    if rep["hi_evidence"] != "solved":
        problems.append(f"hi_evidence {rep['hi_evidence']!r}, expected 'solved'")
    if rep["lo_evidence"] not in NON_CERTIFICATE:
        problems.append(f"lo_evidence {rep['lo_evidence']!r} is not one of {NON_CERTIFICATE}")
    rows = (out / "probes.csv").read_text().splitlines()[1:]
    probes = [(float(c), outcome) for c, outcome in (r.split(",") for r in rows)]
    if len(probes) != int(rep["probes"]):
        problems.append(f"probes.csv has {len(probes)} rows, report says {rep['probes']}")
    if (c_hi, "solved") not in probes or (c_lo, rep["lo_evidence"]) not in probes:
        problems.append("bracket ends are not among the recorded probes")
    return problems


class Drift2D:
    """solve with variable drift alpha = (0.2 sin(x1+th1), 0.2 cos(x0+th2)).

    The production variable-drift path: every linear solve is
    preconditioned GMRES and converges (42 monotone steps, 354 Krylov
    iterations per op at every seed tried).  96^2 keeps the 74 KB fields
    in L2 and the GMRES vectors under 10^4 points, where OpenBLAS runs
    dot and axpy on one thread.  At 192^2 two spinning OpenBLAS threads
    made the same work spread 4 % to 31 % between ten-seed sets on a
    shared 2-vCPU machine.  At 208^2 and above the supersolution's
    mean-zero solve stalls GMRES for more than 120 s (153.7 s at 256^2),
    too long to repeat per run.
    """

    name = "drift-2d"
    dims = (96, 96)
    warmup_dims = dims  # cheap enough to warm up on the timed input itself

    def op(self, seed: int, k: int, dims, workdir: Path, main) -> Op:
        th = phases(seed, k, 3)
        argv = [
            "solve", "--dims", dims_arg(dims), "--n", "1", "--t", "1", "--s=-1",
            f"--s-hat=-1 - 0.3*cos(x0 + {num(th[0])})",
            f"--alpha0=0.2*sin(x1 + {num(th[1])})",
            f"--alpha1=0.2*cos(x0 + {num(th[2])})",
        ]
        return Op((self.name, tuple(dims), *th), argv, 0, lambda out: check_drift(out, th))


def check_drift(out: Path, th) -> list[str]:
    rep = read_report(out / "report.kv")
    problems = _status(rep)
    u = read_kwf(out / "u.kwf")
    x0, x1 = coords(u.shape)
    k = 1.0  # n t - t + 1 at n = 1, t = 1
    s = -1.0
    s_hat = -1.0 - 0.3 * np.cos(x0 + th[0])
    alpha = (0.2 * np.sin(x1 + th[1]), 0.2 * np.cos(x0 + th[2]))
    e_u = s_hat * np.exp(u)
    resid = laplacian(u) + alpha[0] * derivative(u, 0) + alpha[1] * derivative(u, 1)
    resid += (2.0 / k) * (s - e_u)
    scale = 1.0 + (2.0 / k) * (abs(s) + float(np.max(np.abs(e_u))))
    bound = 10.0 * KW_TOL * scale
    sup = float(np.max(np.abs(resid)))
    if sup > bound:
        problems.append(f"recomputed residual {sup:.3e} above {bound:.3e}")
    if float(rep["residual_sup"]) > bound:
        problems.append(f"reported residual {rep['residual_sup']} above {bound:.3e}")
    return problems


class Roundtrip4D:
    """roundtrip on 24^4: manufactured u*, transform, solve, compare.

    Each field is 2.6 MB, larger than a core's 2 MB L2, so the stencils
    stream from L3; the monotone phase takes the FFT direct path and
    GMRES runs only in the Newton polish.  24^4, not 32^4: a 32^4 op takes
    20-25 s, one op per run, and two identical-work runs differed by 18 %;
    at 24^4 (about 8 s) several ops fit in a run.
    """

    name = "roundtrip-4d"
    dims = (24, 24, 24, 24)
    warmup_dims = (8, 8, 8, 8)

    def op(self, seed: int, k: int, dims, workdir: Path, main) -> Op:
        th = phases(seed, k, 2)
        argv = [
            "roundtrip", "--dims", dims_arg(dims), "--n", "2", "--t", "0", "--s=-1",
            "--alpha0=0.1", "--alpha2=0.05",
            f"--u-star=0.4*sin(x0 + {num(th[0])}) + 0.2*cos(2*(x0 + {num(th[0])})) "
            f"+ 0.3*sin(x2 + {num(th[1])})",
            "--monotone-budget", "40", "--kw-maxiter", "3000",
        ]
        return Op((self.name, tuple(dims), *th), argv, 0, lambda out: check_roundtrip(out, th))


def check_roundtrip(out: Path, th) -> list[str]:
    rep = read_report(out / "report.kv")
    problems = _status(rep)
    u = read_kwf(out / "u.kwf")
    x = coords(u.shape)
    u_star = (0.4 * np.sin(x[0] + th[0]) + 0.2 * np.cos(2 * (x[0] + th[0]))
              + 0.3 * np.sin(x[2] + th[1]))
    bound = 10.0 * KW_TOL
    err = float(np.max(np.abs(u - u_star)))
    if err > bound:
        problems.append(f"recomputed sup error {err:.3e} above {bound:.1e}")
    if float(rep["sup_error"]) > bound:
        problems.append(f"reported sup_error {rep['sup_error']} above {bound:.1e}")
    return problems


WORKLOADS = {w.name: w for w in (Bracket1D(), Drift2D(), Roundtrip4D())}
