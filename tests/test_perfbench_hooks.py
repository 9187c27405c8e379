"""The traced benchmark wraps library functions by name; each name must exist.

perfbench/tracing.py skips a name it cannot find, so a renamed function
would only show as a layer metric stuck at 0.  This test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, cls, attr, layer, _ in tracing.PATCHES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (module, cls, attr, layer)
