import numpy as np
import pytest
from oracle import fitted_slope

from stheat.presets import manufactured_design, manufactured_state
from stheat.problem import MaterialModel, ProblemSpec
from stheat.verification import (
    convergence_study,
    energy_estimate_sides,
    mms_source,
    monotone_with_plateau,
    operator_suite_report,
)

LINEAR = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)


def test_mms_source_constant_state():
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=4, nx=3, nt=3, material=LINEAR
    )
    zero = lambda x, t: np.zeros_like(np.asarray(x, float))
    const = lambda x, t: np.full_like(np.asarray(x, float), 3.0)
    f = mms_source(const, zero, zero, zero, np.full(4, 0.5), spec)
    x = np.linspace(0, 1, 7)
    np.testing.assert_allclose(f(x, x), 0.0, atol=0)


def test_mms_source_hand_computed():
    # u = x(1-x) exp(-t), kappa = 1: f = -x(1-x) e^-t + 2 e^-t
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=3, nt=3, material=LINEAR
    )
    u = lambda x, t: x * (1 - x) * np.exp(-t)
    u_t = lambda x, t: -x * (1 - x) * np.exp(-t)
    u_x = lambda x, t: (1 - 2 * x) * np.exp(-t)
    u_xx = lambda x, t: -2.0 * np.exp(-t) * np.ones_like(x)
    f = mms_source(u, u_t, u_x, u_xx, np.ones(2), spec)
    xs = np.array([0.2, 0.7])
    ts = np.array([0.1, 0.5])
    np.testing.assert_allclose(
        f(xs, ts), -xs * (1 - xs) * np.exp(-ts) + 2 * np.exp(-ts), atol=1e-12
    )


def test_mms_source_rejects_inconsistent_derivatives():
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=3, nt=3, material=LINEAR
    )
    u = lambda x, t: np.sin(x) * np.exp(-t)
    u_t = lambda x, t: -np.sin(x) * np.exp(-t)
    u_x_wrong = lambda x, t: 2.0 * np.cos(x) * np.exp(-t)
    u_xx = lambda x, t: -np.sin(x) * np.exp(-t)
    with pytest.raises(ValueError):
        mms_source(u, u_t, u_x_wrong, u_xx, np.ones(2), spec)


def test_mms_source_element_sided_at_interface():
    material = MaterialModel(0.1, 1.0, 3.0)
    spec = ProblemSpec(
        domain=(-2.0, 1.0), horizon=1.0, n_elements=10, nx=4, nt=4, material=material
    )
    rho = manufactured_design(10)
    u, u_t, u_x, u_xx = manufactured_state()
    f = mms_source(u, u_t, u_x, u_xx, rho, spec)
    assert f.element_aware
    # at the mid-domain interface the two adjacent elements see different kappa
    left = f(np.array([-0.5]), np.array([0.3]), element=4)
    right = f(np.array([-0.5]), np.array([0.3]), element=5)
    assert abs(left - right) > 1e-6
    # the rhs calls it once for the whole grid, with one element index per node
    both = f(np.array([-0.5, -0.5]), np.array([0.3, 0.3]), element=np.array([4, 5]))
    np.testing.assert_array_equal(both, np.concatenate([left, right]))


def test_forward_convergence_is_spectral_and_plateaus():
    points = convergence_study(range(4, 21, 2))
    errs = [p.state_error for p in points]
    assert monotone_with_plateau(errs)
    assert min(errs) <= 1e-10
    j_errs = [p.objective_error for p in points]
    assert min(j_errs) <= 1e-11
    # spectral: consecutive pre-plateau errors drop fast
    assert errs[2] <= 1e-2 * errs[0]


def test_objective_error_superconverges_in_study():
    points = convergence_study(range(4, 13, 2))
    ns = [p.n for p in points]
    s_state = fitted_slope(ns, [p.state_error for p in points], floor=1e-12)
    s_obj = fitted_slope(ns, [p.objective_error for p in points], floor=1e-12)
    assert s_obj >= s_state + 1.0


def test_energy_estimate_sides():
    material = MaterialModel(0.05, 1.0, 2.0)
    spec = ProblemSpec(
        domain=(0.0, 1.0), horizon=0.5, n_elements=2, nx=6, nt=6, material=material,
        q=lambda x: np.cos(2 * np.pi * np.asarray(x, float)),
    )
    lhs, bound = energy_estimate_sides(spec, np.array([0.3, 0.9]))
    assert 0 <= lhs <= bound


def test_operator_suite_report_tight():
    checks = operator_suite_report()
    assert [(name, tol) for name, _, tol in checks] == [
        ("sbp_identity", 1e-13), ("monomial_accuracy", 1e-11),
        ("quadrature_positivity", 0.0), ("integration_by_parts", 1e-12),
    ]
    assert all(value <= tol for _, value, tol in checks)


def test_fitted_slope_recovers_known_order():
    ns = [4, 8, 16, 32]
    errs = [10.0 * n ** (-3.0) for n in ns]
    assert fitted_slope(ns, errs, floor=0) == pytest.approx(3.0, abs=1e-10)
    assert fitted_slope(ns, [1e-12] * 4, floor=1e-8) == np.inf
