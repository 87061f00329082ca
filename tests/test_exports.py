import inspect

import pytest

import specmp
from specmp import linear_process, simulator, stieltjes, toeplitz_lsd

MODULES = (linear_process, simulator, stieltjes, toeplitz_lsd)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_names_are_the_package_names(module):
    for name in module.__all__:
        assert getattr(specmp, name) is getattr(module, name), name


def test_package_exports_only_module_names():
    exported = {name for name, value in vars(specmp).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for module in MODULES for name in module.__all__}


def test_removed_names_stay_removed():
    assert not hasattr(specmp, "histogram") and not hasattr(simulator, "histogram")
    assert "innovations" not in inspect.signature(specmp.simulate_matrix).parameters
    assert not hasattr(specmp.AtomicLSD, "atoms") and not hasattr(specmp.AtomicLSD, "support")
    assert not hasattr(specmp.AbsContinuousLSD, "cdf")
