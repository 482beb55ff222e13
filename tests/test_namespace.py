"""Every public name, and every name the benchmark's tracer wraps,
resolves; no module keeps an import it does not use; no BLAS product
lies on the way from the kernel to an estimate; importing the package
and a one-process run load numpy and the standard library only."""
import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import bridgesim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "bridgesim"


def traced_hooks():
    """``HOOKS`` of ``perfbench/spans.py``: (module, name, layer)."""
    spec = importlib.util.spec_from_file_location("_traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_every_exported_name_resolves():
    missing = [name for name in bridgesim.__all__
               if not hasattr(bridgesim, name)]
    assert not missing
    assert len(set(bridgesim.__all__)) == len(bridgesim.__all__)


def test_every_traced_name_resolves():
    """``perfbench/spans.py`` wraps module-level names by (module, name);
    a refactor that deletes or moves one would otherwise show only in
    the benchmark's slow smoke test."""
    hooks = traced_hooks()
    assert hooks
    missing = [(module, name) for module, name, _ in hooks
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_every_imported_name_is_used():
    """A module other than the package's ``__init__`` uses each name it
    imports, unless the tracer wraps that name there; a deletion must
    not leave dead imports behind."""
    hooked = {(module, name) for module, name, _ in traced_hooks()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                imported |= {alias.asname or alias.name.split(".")[0]
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        module = f"bridgesim.{path.stem}"
        unused += [(module, name) for name in sorted(imported - used)
                   if (module, name) not in hooked]
    assert not unused


BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _blas_products(tree: ast.AST) -> list[int]:
    """Lines of ``@`` operators and ``np.<BLAS_CALLS>`` calls."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy") \
                and node.func.attr in BLAS_CALLS:
            lines.append(node.lineno)
    return lines


def test_no_blas_product_on_the_result_path():
    """A BLAS product rounds by thread count and operand layout, so the
    package sums every product in a fixed order instead.  Exempt are the
    Gaussian reference in ``oracle.py`` and the orthonormality check of
    ``observations.validate``, which feed no simulated estimate."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "observations.py":
            validate = next(node for node in tree.body
                            if isinstance(node, ast.FunctionDef)
                            and node.name == "validate")
            exempt = set(_blas_products(validate))
        found += [f"{path.name}:{line}" for line in _blas_products(tree)
                  if line not in exempt]
    assert not found


def test_no_module_imports_scipy():
    """numpy is the one runtime dependency."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_import_and_one_process_run_stay_light():
    """``import bridgesim, bridgesim.cli`` and a one-thread run over
    several chunks load neither scipy nor the process-pool modules,
    which only a run that forks workers imports."""
    script = """
import sys
import numpy as np
import bridgesim as bs
import bridgesim.cli
from bridgesim import estimator
estimator.CHUNK_SIZE = 2048
assert estimator._chunk_rows(2 * 2048 + 1, 1) == 2048
obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.5])], dim=1)
grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
ens = bs.run_ensemble(bs.brownian(dim=1).spec, obs, grid, np.zeros(1),
                      2 * 2048 + 1, seed=3)
bs.estimate(ens, bs.coordinate_at(0.5, 0))
print(" ".join(name for name in ("scipy", "multiprocessing",
                                 "concurrent.futures")
               if name in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
