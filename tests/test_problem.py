import numpy as np
import pytest

from stheat.problem import (
    MaterialModel,
    ProblemSpec,
    choose_sat_coefficients,
    dkappa_drho,
    kappa,
)
from stheat.sbp import build_sbp_elements


def test_kappa_endpoints():
    m = MaterialModel(kappa_min=0.2, kappa_max=1.4, p=3.0)
    assert kappa(0.0, m) == pytest.approx(0.2)
    assert kappa(1.0, m) == pytest.approx(1.4)


def test_kappa_cubic_midpoint():
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=3.0)
    assert kappa(0.5, m) == pytest.approx(0.125)


def test_kappa_linear_interpolation():
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    assert kappa(0.5, m) == pytest.approx(0.5)


def test_kappa_monotone_and_clamping():
    m = MaterialModel(kappa_min=0.1, kappa_max=2.0, p=2.0)
    rho = np.linspace(0, 1, 20)
    assert np.all(np.diff(kappa(rho, m)) >= 0)
    assert kappa(1.0 + 5e-13, m) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        kappa(1.1, m)


CLAMPED = MaterialModel(kappa_min=0.1, kappa_max=2.0, p=2.0)
TWO_CELLS = ProblemSpec(domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=1, nt=1,
                        material=CLAMPED)


@pytest.mark.parametrize("rho", [1.0 + 1e-9, -1e-9])
def test_design_value_just_outside_the_box_refused(rho):
    # the clamp forgives 1e-12 of roundoff, and nothing as large as 1e-9
    for call in (lambda: kappa(rho, CLAMPED), lambda: dkappa_drho(rho, CLAMPED),
                 lambda: TWO_CELLS.kappa(np.array([0.5, rho]))):
        with pytest.raises(ValueError, match=r"design value outside \[0, 1\]"):
            call()


@pytest.mark.parametrize("rho, clamped", [(1.0 + 5e-13, 1.0), (-5e-13, 0.0)])
def test_design_value_within_roundoff_of_the_box_clamped(rho, clamped):
    assert kappa(rho, CLAMPED) == kappa(clamped, CLAMPED)
    assert dkappa_drho(rho, CLAMPED) == dkappa_drho(clamped, CLAMPED)
    np.testing.assert_array_equal(TWO_CELLS.kappa(np.array([0.5, rho])),
                                  TWO_CELLS.kappa(np.array([0.5, clamped])))


def test_dkappa_values():
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=3.0)
    assert dkappa_drho(1.0, m) == pytest.approx(3.0)
    assert dkappa_drho(0.0, m) == pytest.approx(0.0)
    assert dkappa_drho(0.5, m) == pytest.approx(0.75)
    lin = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    assert dkappa_drho(0.0, lin) == pytest.approx(1.0)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialModel(kappa_min=1.0, kappa_max=0.5)
    with pytest.raises(ValueError):
        MaterialModel(kappa_min=0.0, kappa_max=1.0, p=0.5)


def test_sat_lower_bound_example():
    # 3 mapped LGL nodes on [0, 1]: endpoint weight (1/3) * (1/2) = 1/6
    op = build_sbp_elements(3, (0.0, 1.0))
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    sat = choose_sat_coefficients(op, m, safety=1.0)
    assert sat.sigma_w == pytest.approx(3.0)
    assert sat.sigma_e == pytest.approx(3.0)


def test_sat_boundary_penalties_sized_on_their_own_elements():
    # a wide first and a narrow last element: each Dirichlet penalty takes
    # the endpoint weight of the element it acts on, the interface penalty
    # the width of element 0
    op = build_sbp_elements(3, (0.0, 0.6, 0.95, 1.0))
    m = MaterialModel(kappa_min=0.0, kappa_max=2.0, p=1.0)
    sat = choose_sat_coefficients(op, m, safety=1.5)
    assert sat.sigma_w == 1.5 * 2.0 / (2.0 * op.weights[0][0]) == pytest.approx(15.0)
    assert sat.sigma_e == 1.5 * 2.0 / (2.0 * op.weights[2][-1]) == pytest.approx(180.0)
    assert sat.sigma_1 == pytest.approx(2.0 / 0.6)


def test_sat_family_relations():
    op = build_sbp_elements(4, (0.0, 1.0))
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    sat = choose_sat_coefficients(op, m, s=1.0)
    assert (sat.sigma_2, sat.sigma_4, sat.tau_1, sat.tau_2) == (1.0, 2.0, -2.0, -1.0)
    assert sat.sigma_1 == sat.sigma_3 > 0


def test_sat_rejects_bad_parameters():
    op = build_sbp_elements(4, (0.0, 1.0))
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    with pytest.raises(ValueError):
        choose_sat_coefficients(op, m, s=-1.0)
    with pytest.raises(ValueError):
        choose_sat_coefficients(op, m, safety=0.5)


def test_problem_spec_partition():
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    spec = ProblemSpec(
        domain=(-2.0, 1.0), horizon=1.0, n_elements=10, nx=4, nt=4, material=m
    )
    edges = spec.element_edges
    assert edges[0] == -2.0 and edges[-1] == 1.0
    np.testing.assert_allclose(np.diff(edges), 0.3)
    np.testing.assert_allclose(spec.element_volumes.sum(), 3.0)


def test_problem_spec_validation():
    m = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(domain=(1.0, 0.0), horizon=1.0, n_elements=2, nx=3, nt=3, material=m)
    with pytest.raises(ValueError):
        ProblemSpec(
            domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=3, nt=3, material=m,
            bc_left="robin",
        )
    with pytest.raises(ValueError):
        ProblemSpec(
            domain=(0.0, 1.0), horizon=1.0, n_elements=2, nx=3, nt=3, material=m,
            breakpoints=(0.0, 0.8, 0.5, 1.0),
        )
