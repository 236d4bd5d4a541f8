"""The public API as documented: README examples run, every exported
name exists, no module imports a name it does not use, and importing the
package loads no scipy module beyond ``scipy.special``."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logistic_kle

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = ("cli", "density", "distributions", "kle", "mc_oracle",
           "quadrature", "stats")


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_all_names_resolve(module):
    mod = logistic_kle if module is None else \
        importlib.import_module(f"logistic_kle.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing: {missing}"


def _unused_imports(path):
    """Top-level imported names of a module that it never references; names
    listed in its ``__all__`` count as used."""
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used | exported]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "logistic_kle").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    unused = [hit for path in paths for hit in _unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_import_loads_only_scipy_special():
    # scipy.integrate alone costs more start-up than a preset's whole job list
    code = ("import sys, logistic_kle, logistic_kle.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]", out.stdout


def test_no_deferred_scipy_imports():
    # nor imported inside a function, where it would still cost a run that time
    heavy = ("scipy.integrate", "scipy.optimize")
    hits = []
    for path in sorted((ROOT / "src" / "logistic_kle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.startswith(heavy)]
    assert not hits, f"heavy scipy imports in the package: {hits}"


def _private_names(tree):
    """Module-level private functions, classes and constants of a module,
    and the private methods of its classes; dunder names are not private."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in names if private(name)]


def test_no_unused_private_names():
    # a deleted code path must take its helpers and constants with it
    paths = sorted((ROOT / "src" / "logistic_kle").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees.items()
              for name, line in _private_names(tree) if name not in used]
    assert not unused, f"private names nothing references: {unused}"
