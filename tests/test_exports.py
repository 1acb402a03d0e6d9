"""Every name in a cycledual module's __all__ resolves, so ``from cycledual
import *`` and tools that walk the exports never meet a stale name."""

import importlib
import pkgutil

import pytest

import cycledual

MODULES = ["cycledual"] + [
    f"cycledual.{info.name}" for info in pkgutil.iter_modules(cycledual.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
