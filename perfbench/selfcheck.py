"""Fast self-check of the benchmark harness on tiny grids.

    python3 perfbench/selfcheck.py

For every workload it makes one untraced and one traced run on tiny grids
and shows that each emits exactly the metrics BENCHMARK.json names, and
prints the end-to-end metrics with their units.  Then it shows that the
answer checks reject wrong answers: a perturbed solution field, a wrong
status, a bracket reaching below c = -1, too wide or ending on certificate
evidence, a wrong exit code and a report that differs for equal inputs.
Exits 1 on the first disagreement.
"""

import json
import shutil
import struct
import sys
from dataclasses import replace

import run as bench

TINY = {"bracket-1d": (8,), "drift-2d": (16, 16), "roundtrip-4d": (8, 8, 8, 8)}
WORK = bench.OUT / "selfcheck"


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def expect_rejected(what: str, problems: list[str], needle: str) -> None:
    if not any(needle in p for p in problems):
        fail(f"{what}: check did not reject it (problems: {problems})")
    print(f"ok   rejects {what}")


def edit_report(path, **changes) -> None:
    lines = []
    for line in path.read_text().splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {changes[key]}" if key in changes else line)
    path.write_text("\n".join(lines) + "\n")


def perturb_field(path, delta: float) -> None:
    data = bytearray(path.read_bytes())
    (rank,) = struct.unpack_from("<I", data, 4)
    offset = 8 + 4 * rank
    (v,) = struct.unpack_from("<d", data, offset)
    struct.pack_into("<d", data, offset, v + delta)
    path.write_bytes(bytes(data))


def check_metrics(harness, workloads, spec, import_s) -> None:
    for name, dims in TINY.items():
        for trace in (0, 1):
            run = harness.start(workloads.WORKLOADS[name], 1, 0.0, bool(trace),
                                WORK / f"{name}-trace{trace}", import_s, dims, dims)
            if run.failed:
                fail(f"{name} trace {trace}: {[r.problems for r in run.ops]}")
            metrics = run.per_layer() if trace else run.end_to_end()
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(metrics) != wanted:
                fail(f"{name} trace {trace}: missing {sorted(wanted - set(metrics))}, "
                     f"unlisted {sorted(set(metrics) - wanted)}")
            if not trace:
                metrics["failed_ratio"] = (run.failed / len(run.ops), "fraction")
                shown = ", ".join(f"{k} = {v:.4g} {u}" for k, (v, u) in metrics.items())
                print(f"ok   {name} {dims}: {shown}")
        print(f"ok   {name}: every listed metric emitted in both modes")


def check_rejections(harness, workloads, import_s) -> None:
    from kwtorus.cli import main

    for name, dims in TINY.items():
        wl = workloads.WORKLOADS[name]
        opdir = WORK / f"{name}-reject"
        shutil.rmtree(opdir, ignore_errors=True)
        op = wl.op(1, 0, dims, opdir, main)
        out = opdir / "out"
        rc = main(op.argv + ["--out", str(out)])
        if rc != op.expect or op.check(out):
            fail(f"{name}: correct answer not accepted ({rc}, {op.check(out)})")
        report = (out / "report.kv").read_text()
        if name == "bracket-1d":
            rep = workloads.read_report(out / "report.kv")
            c_hi = float(rep["c_hi"])
            for what, changes, needle in [
                ("c_lo below -1", {"c_lo": "-1.5"}, "below -1"),
                ("a bracket wider than 1.1 %", {"c_lo": repr(1.05 * c_hi)}, "wider"),
                ("certificate evidence at c_lo", {"lo_evidence": "necessary-failed"},
                 "lo_evidence"),
                ("hi_evidence other than solved", {"hi_evidence": "solver-failed"},
                 "hi_evidence"),
            ]:
                edit_report(out / "report.kv", **changes)
                expect_rejected(f"{name}: {what}", op.check(out), needle)
                (out / "report.kv").write_text(report)
        else:
            field = out / "u.kwf"
            saved = field.read_bytes()
            perturb_field(field, 1e-6)
            expect_rejected(f"{name}: u perturbed by 1e-6 at one point", op.check(out),
                            "recomputed")
            field.write_bytes(saved)
            edit_report(out / "report.kv", status="max-iter")
            expect_rejected(f"{name}: status max-iter", op.check(out), "status")
            (out / "report.kv").write_text(report)
        if op.check(out):
            fail(f"{name}: restored artifacts not accepted")

        run = harness.Run(wl, 1, 0.0, False, opdir / "run", dims, dims, import_s, main=main)
        run.execute(harness.OpRecord(0, True), lambda d: replace(op, expect=3))
        expect_rejected(f"{name}: exit code 0 where 3 was expected",
                        run.ops[-1].problems, "exit code")
        run.reports[op.key] = b"command = other\n"
        run.execute(harness.OpRecord(1, True), lambda d: op)
        expect_rejected(f"{name}: report.kv differing for equal inputs",
                        run.ops[-1].problems, "differs")
        shutil.rmtree(opdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    import_s = bench.import_package()
    import harness
    import workloads

    check_metrics(harness, workloads, spec, import_s)
    check_rejections(harness, workloads, import_s)
    shutil.rmtree(WORK, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
