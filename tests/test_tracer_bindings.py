"""The benchmark's tracer must find every module-level name it rebinds.

perfbench/tracer.py wraps kwtorus functions at the names through which
the package calls them; a renamed or inlined function breaks the traced
benchmark, so its install and uninstall run here on the current package.
"""

import importlib.util
from pathlib import Path

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
