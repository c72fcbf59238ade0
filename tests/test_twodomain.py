import numpy as np
import pytest

from stheat.twodomain import (
    _eigencondition,
    eigencondition_residual,
    steady_coefficients,
    transient_eigenvalue,
    two_domain_solution,
)


def test_steady_homogeneous_no_source_is_linear():
    a1, a2, b2 = steady_coefficients(0.7, 0.7, 0.5, source=0.0, u_right=2.0)
    assert a1 == pytest.approx(2.0)
    assert a2 == pytest.approx(2.0)
    assert b2 == pytest.approx(0.0)


def test_steady_parabolic_profile():
    # kappa = 1, f = 2, u_R = 0: u_s = -x^2 + x
    a1, a2, b2 = steady_coefficients(1.0, 1.0, 0.5, source=2.0, u_right=0.0)
    assert a1 == pytest.approx(1.0)
    x = np.linspace(0, 1, 11)
    sol = two_domain_solution(1.0, 1.0, 0.5, source=2.0, u_right=0.0)
    np.testing.assert_allclose(sol.steady(x), -(x**2) + x, atol=1e-13)


@pytest.mark.parametrize(
    "k1,k2,xi,f,ur",
    [(1.0, 1.0, 0.5, 2.0, 0.0), (4.0, 1.0, 0.5, 1.0, 1.0), (0.4, 0.35, 0.3, 3.0, -0.5)],
)
def test_steady_invariants(k1, k2, xi, f, ur):
    sol = two_domain_solution(k1, k2, xi, source=f, u_right=ur)
    # ODE residual in each subdomain: kappa u_s'' + f = 0
    h = 1e-5
    for kap, xs in (
        (k1, np.linspace(0.01, xi - 3 * h, 7)),
        (k2, np.linspace(xi + 3 * h, 0.99, 7)),
    ):
        upp = (sol.steady(xs + h) - 2 * sol.steady(xs) + sol.steady(xs - h)) / h**2
        np.testing.assert_allclose(kap * upp + f, 0.0, atol=1e-4)
    assert sol.steady(0.0) == pytest.approx(0.0, abs=1e-11)
    assert sol.steady(1.0) == pytest.approx(ur, abs=1e-11)
    # one-sided limits straddling the branch switch by one ulp
    left, right = np.nextafter(xi, 0.0), np.nextafter(xi, 1.0)
    assert abs(sol.steady(left) - sol.steady(right)) <= 1e-11
    assert abs(sol.steady_flux(left) - sol.steady_flux(right)) <= 1e-10


@pytest.mark.parametrize("k1,k2,xi", [(9703.46, 4.83e-4, 0.00219), (8994.89, 4.20e-4, 0.00895)])
def test_eigenvalue_root_inside_the_pad_below_the_pole(k1, k2, xi):
    # a thin stiff left cell puts the root within 1e-9 (relative) of the right
    # cell's pole, where the first padded bracket has g > 0 at both ends
    lam = transient_eigenvalue(k1, k2, xi)
    pole = k2 * (np.pi / (1.0 - xi)) ** 2
    assert 0 < pole - lam < 1e-9 * pole
    g = [_eigencondition(lam * (1.0 + e), k1, k2, xi) for e in (-1e-14, 1e-14)]
    assert g[0] > 0 > g[1]


def test_homogeneous_eigenvalue_is_pi_squared():
    lam = transient_eigenvalue(1.0, 1.0, 0.5)
    assert lam == pytest.approx(np.pi**2, rel=1e-12)


@pytest.mark.parametrize("kap", [0.25, 0.375, 2.0])
def test_homogeneous_eigenvalue_scales_with_kappa(kap):
    lam = transient_eigenvalue(kap, kap, 0.5)
    assert lam == pytest.approx(np.pi**2 * kap, rel=1e-12)


def test_heterogeneous_eigenvalue_selfconsistent():
    sol = two_domain_solution(4.0, 1.0, 0.5)
    assert eigencondition_residual(sol) <= 1e-12
    # flux continuity of the transient mode at the interface
    xi = sol.interface
    left, right = np.nextafter(xi, 0.0), np.nextafter(xi, 1.0)
    assert abs(sol.mode_flux(left) - sol.mode_flux(right)) <= 1e-10
    assert abs(sol.mode(left) - sol.mode(right)) <= 1e-12


def test_transient_satisfies_heat_equation_pointwise():
    sol = two_domain_solution(1.7, 0.6, 0.45)
    rng = np.random.default_rng(8)
    h = 1e-4
    for _ in range(50):
        x = rng.uniform(0.02, 0.98)
        t = rng.uniform(0.0, 1.0)
        if abs(x - sol.interface) < 2 * h:
            continue
        kap = sol.kappa_1 if x <= sol.interface else sol.kappa_2
        v = lambda xx: np.exp(-sol.lam * t) * sol.mode(xx)
        v_t = sol.time_derivative(x, t)
        v_xx = (v(x + h) - 2 * v(x) + v(x - h)) / h**2
        assert abs(v_t - kap * v_xx) <= 1e-9 * max(1.0, abs(v_t)) + 5e-7


def test_solution_boundary_and_longtime():
    sol = two_domain_solution(0.9, 0.3, 0.5, source=1.0, u_right=1.0)
    t = np.array([0.0, 0.3, 2.0])
    np.testing.assert_allclose(sol(np.zeros(3), t), 0.0, atol=1e-12)
    np.testing.assert_allclose(sol(np.ones(3), t), 1.0, atol=1e-12)
    x = np.linspace(0, 1, 9)
    np.testing.assert_allclose(sol(x, 80.0), sol.steady(x), atol=1e-12)


def test_interface_jump_of_full_solution():
    sol = two_domain_solution(2.5, 0.8, 0.6, source=2.0, u_right=0.5)
    xi = sol.interface
    left, right = np.nextafter(xi, 0.0), np.nextafter(xi, 1.0)
    for t in (0.0, 0.4):
        assert abs(sol(left, t) - sol(right, t)) <= 1e-12
        decay = np.exp(-sol.lam * t)
        flux_minus = sol.steady_flux(left) + decay * sol.mode_flux(left)
        flux_plus = sol.steady_flux(right) + decay * sol.mode_flux(right)
        assert abs(flux_minus - flux_plus) <= 1e-10


def test_bad_arguments():
    with pytest.raises(ValueError):
        steady_coefficients(-1.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        transient_eigenvalue(1.0, 1.0, 1.5)
