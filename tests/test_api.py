import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import cdspool

MODULES = sorted(m.name for m in pkgutil.iter_modules(cdspool.__path__))


@pytest.mark.parametrize("module", ["cdspool"] + [f"cdspool.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is removed fails here
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_readme_library_example_runs():
    # the README's one python block runs as written, so the example cannot go stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("module", [f"cdspool.{m}" for m in MODULES])
def test_no_function_takes_the_jump_size_rates_as_parameters(module):
    # the finite-name jump law travels as one value: the fields of a Pool or
    # of a LimitConfig, never as loose gamma1/gamma2 parameters of a function
    mod = importlib.import_module(module)
    loose = [name for name, fn in inspect.getmembers(mod, inspect.isfunction)
             if fn.__module__ == module
             and {"gamma1", "gamma2"} & set(inspect.signature(fn).parameters)]
    assert loose == []
