import importlib
import pkgutil

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
