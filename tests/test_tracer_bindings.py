"""The benchmark's tracer must find every module-level name it rebinds.

perfbench/tracer.py wraps kwtorus functions at the names through which
the package calls them; a renamed or inlined function breaks the traced
benchmark, so its install and uninstall run here on the current package.
"""

import importlib.util
from pathlib import Path

import numpy as np

from helpers import escaping_newton, field_from
from kwtorus import GridSpec, KWProblem, OneForm, kwsolver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
    finally:
        tracer.uninstall()
    expected = sum(len(bindings) for _, bindings, _ in tracer_mod.TARGETS.values())
    assert len(saved) == expected
    for module, attr, fn in saved:
        assert getattr(module, attr) is fn


def test_tracer_sees_the_monotone_fallback_steps(monkeypatch):
    # _solve_negative_c calls monotone_solve through its module name, so a
    # fallback's steps land in a traced monotone_solve span
    spec = GridSpec((64,))
    phi = field_from(spec, lambda x: -1.0 - 0.3 * np.cos(x))
    prob = KWProblem(OneForm.zero(spec), -1.0, phi)
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        monkeypatch.setattr(kwsolver, "newton_solve", escaping_newton)
        rep = kwsolver._solve_negative_c(prob)
    finally:
        monkeypatch.undo()  # puts the traced binding back for uninstall
        tracer.uninstall()
    assert (rep.status, rep.method) == ("converged", "monotone") and rep.iterations > 0
    spans = tracer.arrays()
    mono = spans["sid"] == tracer.names.index("kwsolver.monotone_solve")
    assert mono.sum() == 1 and spans["a"][mono][0] == rep.iterations
