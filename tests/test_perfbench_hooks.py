"""The traced benchmark wraps library functions by name; each name must exist,
and its reference probe must run through the wrappers.

perfbench/tracing.py skips a name it cannot find, so a renamed function
would only show as a layer metric stuck at 0, and a changed signature
would break only the traced benchmark.  These tests fail instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_traced_probe_runs_through_the_wrappers():
    # In a subprocess: install() rebinds library attributes for good.
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(TRACING.parent)!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(tracing.probe(tracer, 7)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["ok"] and result["checks"] == 1000, result
