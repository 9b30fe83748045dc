"""Run every module's doctests under pytest (src layout breaks `-m doctest`)."""

import doctest
import importlib
import pkgutil

import pytest

import braidchar

MODULES = [braidchar] + [
    importlib.import_module(f"braidchar.{info.name}")
    for info in pkgutil.iter_modules(braidchar.__path__)
]


def test_every_module_found():
    assert len({m.__name__ for m in MODULES}) >= 11


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_doctests_exist_somewhere():
    total = sum(doctest.testmod(m).attempted for m in MODULES)
    assert total >= 10
