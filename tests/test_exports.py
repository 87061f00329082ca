import dataclasses
import inspect
import tokenize
from pathlib import Path

import pytest

import specmp
from specmp import linear_process, simulator, stieltjes, toeplitz_lsd

MODULES = (linear_process, simulator, stieltjes, toeplitz_lsd)
ROOT = Path(__file__).resolve().parents[1]


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
    for attr in ("cdf", "support", "density"):
        assert not hasattr(specmp.AbsContinuousLSD, attr), attr
        assert attr not in inspect.signature(specmp.AbsContinuousLSD).parameters, attr
    # FARIMA is ARMAModel with d != 0, and gamma_lsd builds SpectralDensity itself
    for name in ("FARIMAModel", "spectral_density"):
        assert not hasattr(specmp, name) and not hasattr(linear_process, name), name
    assert [f.name for f in dataclasses.fields(specmp.ARMAModel)] == ["ar", "ma", "d"]
    # test-only oracles, in tests/oracles.py
    for name in ("gamma_cdf", "arma11_support", "arma11_gamma_density", "autocovariances"):
        assert not any(hasattr(module, name) for module in (specmp, *MODULES)), name


def test_every_export_is_used_by_the_runtime_or_the_benchmark():
    # the names the package and the benchmark read, without the tests: NAME
    # tokens, so no docstring, comment or export list counts, and no name
    # where a def or class defines it
    sources = [p for p in sorted((ROOT / "src" / "specmp").glob("*.py")) if p.name != "__init__.py"]
    sources += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    used = set()
    for path in sources:
        with path.open("rb") as src:
            prev = None
            for tok in tokenize.tokenize(src.readline):
                if tok.type == tokenize.NAME and prev not in ("def", "class"):
                    used.add(tok.string)
                prev = tok.string
    unused = [name for module in MODULES for name in module.__all__ if name not in used]
    assert unused == []
