import dataclasses
import inspect
import re
import tokenize
from pathlib import Path

import numpy as np
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


ONE_ATOM = specmp.AtomicLSD([1.0], [1.0])
PLAN = {"p": 4, "y": 1.0, "model": specmp.ARMAModel()}

# every public scalar input, as a call that passes it, and the start of its refusal
SCALAR_INPUTS = {
    "solve_fixed_point-y": (lambda v: specmp.solve_fixed_point(ONE_ATOM, v, 1j), "aspect ratio y"),
    "mp_support-y": (lambda v: specmp.mp_support(v), "aspect ratio y"),
    "mp_stieltjes-y": (lambda v: specmp.mp_stieltjes(v, 1j), "aspect ratio y"),
    "estimate_support_upper-y": (lambda v: specmp.estimate_support_upper(ONE_ATOM, v), "aspect ratio y"),
    "invert_to_density-y": (lambda v: specmp.invert_to_density(ONE_ATOM, v, grid=[1.0, 2.0]), "aspect ratio y"),
    "SimulationPlan-y": (lambda v: specmp.SimulationPlan(**{**PLAN, "y": v}), "aspect ratio y"),
    "solve_fixed_point-z": (lambda v: specmp.solve_fixed_point(ONE_ATOM, 0.5, v), "z"),
    "mp_stieltjes-z": (lambda v: specmp.mp_stieltjes(0.5, v), "z"),
    "initial": (lambda v: specmp.solve_fixed_point(ONE_ATOM, 0.5, 1j, initial=v), "initial"),
    "mu": (lambda v: specmp.SimulationPlan(**PLAN, mu=v), "mu"),
    "p": (lambda v: specmp.SimulationPlan(**{**PLAN, "p": v}), "p"),
    "seed": (lambda v: specmp.SimulationPlan(**PLAN, seed=v), "seed"),
    "replicates": (lambda v: specmp.SimulationPlan(**PLAN, replicates=v), "replicates"),
    "replicate": (lambda v: specmp.simulate_matrix(specmp.SimulationPlan(**PLAN), v), "replicate"),
    "horizon": (lambda v: specmp.ma_coefficients(specmp.ARMAModel(), v), "horizon"),
    "size": (lambda v: specmp.default_grid(ONE_ATOM, 0.5, size=v), "grid size"),
    "arma11": (lambda v: specmp.ARMAModel.arma11(v, 0.5), "(phi, theta)"),
}
# each count also receives a fraction that int() would cut to an accepted count, and each real a complex
# number that float() would cut to its real part
FRACTIONS = {"p": 2.5, "seed": 2.5, "replicates": 2.5, "replicate": 2.5, "horizon": 2.5, "size": 16.9}
REALS = ("solve_fixed_point-y", "mp_support-y", "mp_stieltjes-y", "estimate_support_upper-y", "invert_to_density-y",
         "SimulationPlan-y", "mu", "arma11")
REFUSALS = ([(entry, value) for entry in SCALAR_INPUTS for value in (True, np.True_, "0.5", "1j")]
            + list(FRACTIONS.items()) + [(entry, np.complex128(0.5 + 0.5j)) for entry in REALS])


@pytest.mark.parametrize("entry, value", REFUSALS, ids=lambda v: v if v in SCALAR_INPUTS else repr(v))
def test_scalar_inputs_refuse_booleans_text_and_fractional_counts(entry, value):
    # float(), complex() and operator.index would read True as 1 and complex() "1j" as 1j, and int() would cut
    # 2.5 to 2; each input is a number of its kind, refused otherwise with a ValueError that names it
    call, name = SCALAR_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


def test_numpy_scalars_read_as_python_numbers():
    # the readers take NumPy numbers as the Python numbers they equal, and every result is the same
    sol = specmp.solve_fixed_point(ONE_ATOM, np.float64(0.5), np.complex128(1j), initial=np.complex128(0.5j))
    assert sol == specmp.solve_fixed_point(ONE_ATOM, 0.5, 1j, initial=0.5j)
    assert type(sol.m) is complex and type(sol.z) is complex
    assert specmp.mp_stieltjes(np.float32(0.5), 1 + 1j) == specmp.mp_stieltjes(float(np.float32(0.5)), 1 + 1j)
    assert np.array_equal(specmp.default_grid(ONE_ATOM, 3, size=np.int64(20)), specmp.default_grid(ONE_ATOM, 3.0, 20))
    plan = specmp.SimulationPlan(p=np.int64(4), y=2, model=specmp.ARMAModel(), mu=np.float64(1.5), seed=np.int32(3))
    assert (plan.y, type(plan.y), plan.n) == (2, int, 8)
    same = specmp.SimulationPlan(4, 2.0, plan.model, mu=1.5, seed=3)
    assert np.array_equal(specmp.simulate_matrix(plan), specmp.simulate_matrix(same))
