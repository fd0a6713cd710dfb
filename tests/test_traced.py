import importlib
import importlib.util
import sys
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_name_exists(monkeypatch):
    # Tracer.install() looks each name up when the traced benchmark starts,
    # so a deleted or renamed function would otherwise show only there
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, traced)  # its dataclasses look it up
    spec.loader.exec_module(traced)
    missing = [
        f"magiclattice.{layer}.{name}"
        for layer, names in traced.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"magiclattice.{layer}"), name, None))
    ]
    assert traced.TRACED and missing == []
