"""Every exported name resolves, once: the package's and each module's ``__all__``."""

import importlib
import pkgutil
from collections import Counter

import pytest

import mixquant

MODULES = sorted(info.name for info in pkgutil.iter_modules(mixquant.__path__))


def assert_exports_resolve(module):
    duplicates = [name for name, count in Counter(module.__all__).items() if count > 1]
    assert not duplicates, f"{module.__name__}.__all__ repeats {duplicates}"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_the_package_exports_resolve():
    assert_exports_resolve(mixquant)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    assert_exports_resolve(importlib.import_module(f"mixquant.{name}"))
