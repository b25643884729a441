"""Set-up, the timed closed loop, answer checks and metrics of one run.

A run is one workload at one seed.  It sets up SETUPS times (seeded input
generation plus one untimed warm-up op on the workload's warm-up grid) and
then runs ops one after another, each starting when the previous one has
finished (closed loop, one client), until the requested seconds have
passed.  Every op goes through ``kwtorus.cli.main(argv)`` in this process
and is checked: exit code, the workload's answer check, and byte-equal
report.kv for ops that share an input.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

import numpy as np
import scipy

from tracer import CLI_MAIN, Tracer, layer_metrics
from workloads import Op

SETUPS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class OpRecord:
    k: int
    timed: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    warnings: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Run:
    workload: object
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    dims: tuple
    warmup_dims: tuple
    import_s: float
    main: object = None
    tracer: Tracer | None = None
    ops: list[OpRecord] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    reports: dict = field(default_factory=dict)
    first_op_at: float = 0.0

    def execute(self, rec: OpRecord, make_op) -> None:
        """Generate an op's input (untimed), run it, check it."""
        opdir = self.workdir / f"op{len(self.ops)}"
        self.ops.append(rec)
        try:
            op: Op = make_op(opdir)
            out = opdir / "out"
            argv = op.argv + ["--out", str(out)]
            if self.tracer is not None:
                self.tracer.op_id = rec.k if rec.timed else -1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = self.main(argv)
                finally:
                    rec.wall_s = time.perf_counter() - t0
                    rec.cpu_s = time.process_time() - c0
                    if self.tracer is not None:
                        self.tracer.op_id = -1
            rec.warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            if rc != op.expect:
                rec.problems.append(f"exit code {rc}, expected {op.expect}")
            else:
                rec.problems += op.check(out)
                report = (out / "report.kv").read_bytes()
                if self.reports.setdefault(op.key, report) != report:
                    rec.problems.append("report.kv differs from an earlier op with the same input")
        except (Exception, SystemExit):
            rec.problems.append(traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc()
        finally:
            shutil.rmtree(opdir, ignore_errors=True)

    def set_up(self) -> None:
        for _ in range(SETUPS):
            t = time.perf_counter()
            self.execute(
                OpRecord(k=0, timed=False),
                lambda d: self.workload.op(self.seed, 0, self.warmup_dims, d, self.main),
            )
            self.setup_times.append(time.perf_counter() - t)

    def measure(self) -> None:
        start = self.first_op_at = time.perf_counter()
        k = 0
        while True:
            self.execute(
                OpRecord(k=k, timed=True),
                lambda d, k=k: self.workload.op(self.seed, k, self.dims, d, self.main),
            )
            k += 1
            if time.perf_counter() - start >= self.seconds:
                break

    @property
    def timed(self) -> list[OpRecord]:
        return [r for r in self.ops if r.timed]

    @property
    def failed(self) -> int:
        return sum(bool(r.problems) for r in self.ops)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        timed = self.timed
        return {
            "setup_s": (self.import_s + statistics.median(self.setup_times), "s"),
            # the fastest op: on a shared host the slower ones also time
            # other tenants, who slow every op of a run by up to a third
            "solve_s": (min(r.wall_s for r in timed), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Layer metrics of timed op 0, whose input the seed fixes, so its
        counts repeat exactly whatever number of ops the run holds."""
        first = self.timed[0]
        out = layer_metrics(self.tracer, first.wall_s)
        out["kwsolver.warnings_escaped"] = (float(first.warnings), "count")
        out["process.wall_s"] = (first.wall_s, "s")
        out["process.cpu_s"] = (first.cpu_s, "s")
        out["trace.overhead_s"] = (out["trace.spans"][0] * self.tracer.span_cost(), "s")
        out["failed_ratio"] = (self.failed / len(self.ops), "fraction")
        return out


def start(workload, seed: int, seconds: float, trace: bool, workdir: Path,
          import_s: float, dims=None, warmup_dims=None) -> Run:
    """Set up and measure one run; the caller reads metrics off the result."""
    from kwtorus import cli

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workload, seed, seconds, trace, workdir,
              tuple(dims or workload.dims), tuple(warmup_dims or workload.warmup_dims),
              import_s)
    run.main = cli.main
    if trace:
        run.tracer = Tracer().install()
        run.main = run.tracer.wrap(cli.main, CLI_MAIN, "cli")
    try:
        run.set_up()
        run.measure()
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    return run


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git."""
    h = sha256()
    for path in sorted((root / "src" / "kwtorus").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(run: Run, root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "run_seconds": run.seconds,
        "trace": run.trace,
        "dims": list(run.dims),
        "warmup_dims": list(run.warmup_dims),
        "setups": SETUPS,
        "ops_timed": len(run.timed),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
