"""kwtorus benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload drift-2d --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
last line of standard output is the JSON result with the end-to-end
metrics; with ``--trace 1`` the same run is traced and the metrics are the
per-layer ones.  The line before it records the environment, and a human
summary goes to standard error.  Artifacts go to ``.perfbench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def import_package() -> float:
    """Import kwtorus.cli from ROOT/src; return the import's wall time."""
    src = ROOT / "src"
    if not (src / "kwtorus" / "cli.py").is_file():
        sys.exit(f"error: no kwtorus sources under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import kwtorus.cli

    import_s = time.perf_counter() - t
    if Path(kwtorus.cli.__file__).resolve().parent != src / "kwtorus":
        sys.exit(f"error: kwtorus imported from {kwtorus.cli.__file__}, not {src}")
    return import_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # the package import is timed first, before this directory's modules
    # pull in numpy
    import_s = import_package()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = harness.start(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), workdir, import_s)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    env = harness.environment(run, ROOT)
    env["process_to_first_timed_op_s"] = run.first_op_at - T_START
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if run.tracer is not None:
        run.tracer.write(workdir / "spans.csv")
    (workdir / "result.json").write_text(json.dumps(
        {"env": env, "result": result,
         "ops": [vars(r) for r in run.ops]}, indent=1))

    for r in run.ops:
        tag = "timed" if r.timed else "setup"
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(f"{tag} op {r.k}: {r.wall_s:.3f} s, {r.warnings} warnings, {status}",
              file=sys.stderr)
    print(f"failed_ratio = {run.failed / len(run.ops):.4g} fraction", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
