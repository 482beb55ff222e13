"""Every public name, and every name the benchmark's tracer wraps,
resolves."""
import importlib
import importlib.util
import pathlib

import bridgesim

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    missing = [name for name in bridgesim.__all__
               if not hasattr(bridgesim, name)]
    assert not missing
    assert len(set(bridgesim.__all__)) == len(bridgesim.__all__)


def test_every_traced_name_resolves():
    """``perfbench/spans.py`` wraps module-level names by (module, name);
    a refactor that deletes or moves one would otherwise show only in
    the benchmark's slow smoke test."""
    spec = importlib.util.spec_from_file_location("_traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    missing = [(module, name) for module, name, _ in spans.HOOKS
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
