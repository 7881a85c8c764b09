"""Every exported name resolves, so retiring a function cannot leave a dangling export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tunnelkit

MODULES = ["tunnelkit"] + [
    f"tunnelkit.{info.name}"
    for info in pkgutil.iter_modules(tunnelkit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
