"""The public API as documented: README examples run, and every exported
name exists."""

import importlib
import re
from pathlib import Path

import pytest

import logistic_kle

README = Path(__file__).resolve().parent.parent / "README.md"
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
