import importlib


def test_every_traced_name_exists(traced):
    # Tracer.install() looks each name up when the traced benchmark starts,
    # so a deleted or renamed function would otherwise show only there
    missing = [
        f"magiclattice.{layer}.{name}"
        for layer, names in traced.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"magiclattice.{layer}"), name, None))
    ]
    assert traced.TRACED and missing == []
