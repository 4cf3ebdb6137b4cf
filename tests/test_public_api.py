"""Each bardina module lists in __all__ exactly the public functions and
classes it defines, so its surface cannot grow or shrink unnoticed."""
import importlib
import inspect
import pkgutil

import pytest

import bardina

MODULES = ["bardina"] + [f"bardina.{m.name}" for m in pkgutil.iter_modules(bardina.__path__)]


def _public_definitions(module):
    """Names of the public functions and classes whose __module__ is module;
    a cached function (lru_cache) counts as a function."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    assert sorted(getattr(module, "__all__", [])) == sorted(_public_definitions(module))
