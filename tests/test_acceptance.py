"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import specmp as sp
from oracles import arma11_gamma_density, autocovariance_toeplitz, gamma_cdf, total_mass

MP_ATOM = sp.AtomicLSD(levels=np.array([1.0]), weights=np.array([1.0]))
ARMA11 = sp.ARMAModel.arma11(0.5, 1.0)  # X_t = X_{t-1}/2 + Z_t + Z_{t-1}


def report(num, name, detail):
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({detail})")


def esd_cdf(spectrum, x):
    return np.searchsorted(spectrum.eigenvalues, x, side="right") / spectrum.p


def mp_pdf(y, x):
    lo, hi = (1.0 - math.sqrt(y)) ** 2, (1.0 + math.sqrt(y)) ** 2
    if not lo < x < hi:
        return 0.0
    return math.sqrt((hi - x) * (x - lo)) / (2.0 * math.pi * x)


@pytest.fixture(scope="module")
def arma11_lsd():
    return sp.gamma_lsd(ARMA11)


@pytest.fixture(scope="module")
def arma11_density(arma11_lsd):
    cache = {}

    def get(y):
        if y not in cache:
            cache[y] = sp.invert_to_density(arma11_lsd, y)
        return cache[y]

    return get


def test_01_mp_oracle_equivalence():
    worst = 0.0
    start = time.perf_counter()
    for y in (0.5, 1.0, 3.0):
        for v in (1.0, 0.1, 0.01):
            for x in np.linspace(-1.0, 6.0, 100):
                z = complex(x, v)
                m = sp.solve_fixed_point(MP_ATOM, y, z).m
                roots = np.roots([z, z + 1.0 - y, 1.0])
                oracle = roots[roots.imag > 0]
                assert oracle.size == 1
                worst = max(worst, abs(m - complex(oracle[0])))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(1, "MP oracle equivalence", f"max |dm| = {worst:.2e}, {elapsed:.2f}s for 900 points")


def test_02_mp_density_reproduction():
    start = time.perf_counter()
    xs = np.linspace(0.1, 3.9, 200)
    dens = sp.invert_to_density(MP_ATOM, 1.0, grid=xs)
    err = np.max(np.abs(dens.values - np.array([mp_pdf(1.0, float(x)) for x in xs])))
    assert err <= 1e-3
    half = sp.invert_to_density(MP_ATOM, 0.5, grid=np.linspace(0.05, 3.2, 64))
    assert abs(half.mass_at_zero - 0.5) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "MP density reproduction", f"max |dp| = {err:.2e}, mass_at_zero = {half.mass_at_zero}, {elapsed:.1f}s")


def test_03_gamma_lsd_normalization_and_closed_form():
    values = (-0.8, -0.4, 0.0, 0.4, 0.8)
    worst_mass = 0.0
    worst_sup = 0.0
    n_atomic = 0
    for phi in values:
        for theta in values:
            model = sp.ARMAModel.arma11(phi, theta)
            lsd = sp.gamma_lsd(model)
            if isinstance(lsd, sp.AtomicLSD):
                # theta = -phi collapses to white noise: atomic, exact weights
                assert phi + theta == 0.0
                assert lsd.weights.sum() == 1.0
                n_atomic += 1
                continue
            worst_mass = max(worst_mass, abs(total_mass(lsd) - 1.0))
            lo, hi = sp.support_bounds(lsd.f)
            lam = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 21)
            closed = np.array([arma11_gamma_density(phi, theta, L) for L in lam])
            worst_sup = max(worst_sup, float(np.max(np.abs(sp.gamma_density(lsd.f, lam) - closed))))
    assert worst_mass <= 1e-6
    assert worst_sup <= 1e-8
    report(
        3,
        "Toeplitz LSD normalization",
        f"max |mass-1| = {worst_mass:.2e}, sup |g - closed| = {worst_sup:.2e}, {n_atomic} atomic",
    )


def test_04_arma11_quartic_cross_validation(arma11_lsd):
    worst = 0.0
    for y in (1.0, 3.0, 5.0):
        xs = np.linspace(0.3, 60.0, 25)
        for v in (0.01, 0.5):
            for x in xs:
                z = complex(x, v)
                m = sp.solve_fixed_point(arma11_lsd, y, z).m
                worst = max(worst, abs(sp.arma11_residual(0.5, 1.0, y, z, m)))
    assert worst <= 1e-6
    report(4, "ARMA(1,1) quartic cross-validation", f"max |residual| = {worst:.2e} over 150 points")


def test_05_figure3_reproduction(arma11_density):
    medians = {}
    for y in (1.0, 3.0, 5.0):
        dens = arma11_density(y)
        cdf = lambda x: sp.lsd_cdf(dens, x)
        ks_values = []
        for seed in range(5):
            start = time.perf_counter()
            plan = sp.SimulationPlan(p=1000, y=y, model=ARMA11, seed=seed)
            spectrum = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
            ks = sp.ks_distance(spectrum, cdf)
            elapsed = time.perf_counter() - start
            assert ks <= 0.05
            assert elapsed <= 120.0
            ks_values.append(ks)
        medians[y] = float(np.median(ks_values))
        assert medians[y] <= 0.03
    report(
        5,
        "spectral histogram reproduction",
        "KS medians " + ", ".join(f"y={y}: {m:.4f}" for y, m in medians.items()),
    )


def test_06_universality(arma11_density):
    dens = arma11_density(1.0)
    cdf = lambda x: sp.lsd_cdf(dens, x)
    worst = {}
    for law in ("rademacher", "uniform"):
        ks_values = []
        for seed in range(5):
            plan = sp.SimulationPlan(p=1000, y=1.0, model=ARMA11, seed=seed, law=law)
            spectrum = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
            ks_values.append(sp.ks_distance(spectrum, cdf))
        worst[law] = max(ks_values)
        assert worst[law] <= 0.05
    report(6, "universality across innovation laws", ", ".join(f"{k}: max KS {v:.4f}" for k, v in worst.items()))


def test_07_centering_invariance():
    model = sp.ARMAModel(ma=[1.0])
    shifted = sp.SimulationPlan(p=1000, y=1.0, model=model, seed=17, mu=5.0, center=True)
    plain = sp.SimulationPlan(p=1000, y=1.0, model=model, seed=17, mu=0.0, center=False)
    sa = sp.sample_cov_eigenvalues(sp.simulate_matrix(shifted), center=True)
    sb = sp.sample_cov_eigenvalues(sp.simulate_matrix(plain), center=False)
    grid = np.union1d(sa.eigenvalues, sb.eigenvalues)
    ks = float(np.max(np.abs(esd_cdf(sa, grid) - esd_cdf(sb, grid))))
    assert ks <= 0.02
    report(7, "centering invariance", f"two-sample KS = {ks:.4f}")


def test_08_farima_coefficient_envelope():
    d = -0.25
    coeffs = sp.ma_coefficients(sp.ARMAModel(d=d), 10_000)
    j = np.arange(1, 10_001, dtype=float)
    ratio = np.abs(coeffs[1:]) * (j + 1.0) ** (1.0 - d)
    spread = float(ratio.max() / ratio.min())
    assert np.all(np.isfinite(ratio)) and ratio.min() > 0.0
    assert spread <= 10.0
    report(8, "FARIMA coefficient envelope", f"K2/K1 = {spread:.3f} over j <= 1e4")


def test_09_szego_finite_size():
    model = sp.ARMAModel(ma=[0.5])
    coeffs = sp.ma_coefficients(model, 600)
    G = autocovariance_toeplitz(coeffs, 512)
    eig = np.sort(np.linalg.eigvalsh(G))
    f = sp.SpectralDensity(model)
    theory = np.array([gamma_cdf(f, lam) for lam in eig])
    k = np.arange(1, eig.size + 1) / eig.size
    ks = float(max(np.max(k - theory), np.max(theory - (k - 1.0 / eig.size))))
    assert ks <= 0.05
    report(9, "finite-size Toeplitz CDF check", f"KS = {ks:.4f} at n = 512")


def test_10_property_suite(arma11_lsd):
    violations = []

    # upper-half-plane preservation on a z grid
    for y in (0.5, 1.0, 3.0):
        for x in np.linspace(-0.5, 8.0, 9):
            for v in (1.0, 0.01):
                if sp.solve_fixed_point(MP_ATOM, y, complex(x, v)).m.imag <= 0:
                    violations.append(("C+ preservation", y, x, v))

    # trace identity and rank bound
    plan = sp.SimulationPlan(p=400, y=0.5, model=ARMA11, seed=6)
    X = sp.simulate_matrix(plan)
    spectrum = sp.sample_cov_eigenvalues(X)
    trace = float(np.sum(X * X)) / plan.p
    if abs(trace - spectrum.eigenvalues.sum()) / trace > 1e-6:
        violations.append(("trace identity",))
    if int((spectrum.eigenvalues > 1e-9).sum()) > min(plan.n, plan.p):
        violations.append(("rank bound",))

    # seed determinism, bit for bit
    again = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
    if not np.array_equal(spectrum.eigenvalues, again.eigenvalues):
        violations.append(("seed determinism",))

    # evenness of the spectral density
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 2.0 * math.pi, 1000)
    for model in (ARMA11, sp.ARMAModel(d=-0.25)):
        f = sp.SpectralDensity(model)
        if np.max(np.abs(f(w) - f(2.0 * math.pi - w))) > 1e-12:
            violations.append(("evenness", model))

    # derivative versus central differences
    w = rng.uniform(0.1, 2.0 * math.pi - 0.1, 100)
    f = sp.SpectralDensity(ARMA11)
    fd = (f(w + 1e-6) - f(w - 1e-6)) / 2e-6
    if np.max(np.abs(f.derivative(w) - fd)) > 1e-5:
        violations.append(("derivative",))

    assert violations == []
    report(10, "always-on property suite", "0 violations")


def test_11_monte_carlo_every_model_class():
    # every simulable class the paper covers, at y < 1 (the atom at zero) and
    # y > 1: the law's CDF against one p = 1000 matrix
    models = {
        "white noise": sp.ARMAModel(),
        "ARMA(1,1)": ARMA11,
        "ARMA(2,3)": sp.ARMAModel(ar=[0.6, -0.3], ma=[0.4, 0.2, -0.1]),
        "FARIMA": sp.ARMAModel(d=-0.25),
        "FARIMA+AR": sp.ARMAModel(ar=[-0.3], d=-0.25),
    }
    worst = {}
    for name, model in models.items():
        lsd = sp.gamma_lsd(model)
        for y in (0.5, 3.0):
            dens = sp.invert_to_density(lsd, y)
            plan = sp.SimulationPlan(p=1000, y=y, model=model, seed=0)
            spectrum = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
            ks = sp.ks_distance(spectrum, lambda x: sp.lsd_cdf(dens, x))
            assert ks <= 0.02, (name, y, ks)
            worst[name] = max(worst.get(name, 0.0), ks)
    report(11, "Monte Carlo against every model class", ", ".join(f"{k}: {v:.4f}" for k, v in worst.items()))
