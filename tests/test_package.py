"""Package-wide properties that no single module's tests cover."""

import importlib
import pkgutil

import numpy as np
import pytest

import squeezesim

MODULES = ["squeezesim"] + [f"squeezesim.{m.name}" for m in pkgutil.iter_modules(squeezesim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_mutable_state(name):
    # a mutable global is state shared by every run in the process
    module = importlib.import_module(name)
    mutable = [
        key for key, value in vars(module).items()
        if not key.startswith("__")
        and (isinstance(value, (list, dict, set, bytearray))
             or isinstance(value, np.ndarray) and value.flags.writeable)
    ]
    assert mutable == [], name
