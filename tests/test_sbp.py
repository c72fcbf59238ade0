from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stheat import sbp
from stheat.assembly import Discretization
from stheat.errors import ResourceLimitError
from stheat.presets import cooling_benchmark, two_design_benchmark
from stheat.problem import MaterialModel, ProblemSpec
from stheat.sbp import MAX_OPERATOR_NODES, build_sbp_1d, build_sbp_elements, lgl_rule, verify_sbp


def poly_integral(coeffs, a, b):
    # exact integral of sum c_s x^s, used as the quadrature oracle
    return sum(c / (s + 1) * (b ** (s + 1) - a ** (s + 1)) for s, c in enumerate(coeffs))


def test_two_point_rule_is_trapezoid():
    rule = lgl_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=0)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=0)


def test_three_point_rule_hand_derived():
    # roots of (1-x^2) P2'(x) = (1-x^2) 3x and w = 2/(6 P2(x)^2)
    rule = lgl_rule(3)
    np.testing.assert_allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_five_point_nodes_closed_form():
    # (1-x^2) P4'(x) = 0  =>  x in {0, +-sqrt(3/7), +-1}
    rule = lgl_rule(5)
    r = np.sqrt(3 / 7)
    np.testing.assert_allclose(rule.nodes, [-1.0, -r, 0.0, r, 1.0], atol=1e-15)


def test_rule_rejects_single_node():
    with pytest.raises(ValueError):
        lgl_rule(1)


def test_rule_is_shared_and_read_only():
    rule = lgl_rule(7)
    assert lgl_rule(7) is rule
    with pytest.raises(ValueError):
        rule.nodes[3] = 0.5
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0


def test_discretization_solves_each_rule_once():
    # the cooling preset has 50 six-node elements and a 16-node time rule
    lgl_rule.cache_clear()
    Discretization(cooling_benchmark()[0])
    assert lgl_rule.cache_info().misses <= 2


def test_discretization_forms_one_reference_d_per_node_count():
    # 50 spatial operators of six nodes share one reference D; the time rule has its own
    with mock.patch("stheat.sbp._barycentric_diff", wraps=sbp._barycentric_diff) as diff:
        Discretization(cooling_benchmark()[0])
    assert diff.call_count == 2


def per_element_operator(n, a, b):
    """The operator of one interval, formed alone with scalar end points."""
    rule = lgl_rule(n)
    scale = 0.5 * (b - a)
    weights = scale * rule.weights
    D = sbp._barycentric_diff(2.0 * rule.nodes) / (0.5 * scale)
    return a + scale * (rule.nodes + 1.0), weights, D, weights[:, None] * D


def assert_element_operators_bitwise_alone(spec):
    disc = Discretization(spec)
    edges = spec.element_edges
    op = disc.op_x
    assert op.D.shape == (spec.n_elements, disc.n_x, disc.n_x)
    for k in range(spec.n_elements):
        a, b = float(edges[k]), float(edges[k + 1])
        alone = build_sbp_1d(disc.n_x, (a, b))
        assert (op.interval[0][k], op.interval[1][k]) == alone.interval == (a, b)
        assert op.degree == alone.degree == disc.n_x - 1
        for name, want in zip(("nodes", "weights", "D", "Q"), per_element_operator(disc.n_x, a, b)):
            assert getattr(op, name)[k].tobytes() == want.tobytes() == getattr(alone, name).tobytes()


@pytest.mark.parametrize("spec", [cooling_benchmark()[0], two_design_benchmark()[0]],
                         ids=["cooling", "two-design"])
def test_element_operators_are_bitwise_the_per_element_ones(spec):
    assert_element_operators_bitwise_alone(spec)


@settings(max_examples=40)
@given(
    nx=st.integers(1, 12),
    start=st.floats(-1e3, 1e3),
    widths=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
)
def test_element_operators_on_drawn_breakpoints_are_bitwise_the_per_element_ones(nx, start, widths):
    edges = start + np.cumsum([0.0, *widths])
    spec = ProblemSpec(domain=(edges[0], edges[-1]), horizon=1.0, n_elements=len(widths),
                       nx=nx, nt=2, material=MaterialModel(0.0, 1.0), breakpoints=tuple(edges))
    assert_element_operators_bitwise_alone(spec)


def test_stacked_operator_properties_are_the_per_element_ones():
    # P and E of a stacked operator carry its element axis, not a wrong shape
    op = build_sbp_elements(4, (0.0, 0.3, 1.0))
    assert op.n_nodes == 4
    for k, interval in enumerate(((0.0, 0.3), (0.3, 1.0))):
        alone = build_sbp_1d(4, interval)
        assert op.P[k].tobytes() == alone.P.tobytes() == np.diag(alone.weights).tobytes()
        assert op.E[k].tobytes() == alone.E.tobytes()


@settings(max_examples=60)
@given(
    n=st.integers(2, 40),
    a=st.floats(-1e6, 1e6),
    width=st.floats(1e-6, 1e6),
)
def test_operator_from_cached_rule_is_bitwise_uncached(n, a, width):
    interval = (a, a + width)
    op = build_sbp_1d(n, interval)
    with mock.patch("stheat.sbp.lgl_rule", lgl_rule.__wrapped__):
        fresh = build_sbp_1d(n, interval)
    for name in ("nodes", "weights", "D", "Q"):
        assert getattr(op, name).tobytes() == getattr(fresh, name).tobytes()


@pytest.mark.parametrize("n", range(2, 17))
def test_rule_invariants(n):
    rule = lgl_rule(n)
    assert abs(rule.weights.sum() - 2.0) <= 1e-13
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-13
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # quadrature exact to degree 2n - 3 on random polynomials
    rng = np.random.default_rng(n)
    for _ in range(5):
        coeffs = rng.standard_normal(2 * n - 2)  # degrees 0 .. 2n-3
        u = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        quad = rule.weights @ u
        exact = poly_integral(coeffs, -1.0, 1.0)
        assert abs(quad - exact) <= 1e-12 * max(1.0, np.linalg.norm(u))


@pytest.mark.parametrize(
    "interval",
    [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan), (1.0, 1.0), (-1e308, 1e308),
     # a < b, but too narrow to hold three distinct nodes: the half width
     # rounds to 0, or every node rounds to 1
     (0.0, 5e-324), (1.0, 1.0 + 2.3e-16)],
)
def test_build_rejects_bad_interval(interval):
    with pytest.raises(ValueError, match="interval"):
        build_sbp_1d(3, interval)


def test_diff_matrix_three_nodes_reference():
    # hand-differentiated Lagrange basis on {-1, 0, 1}
    op = build_sbp_1d(3, (-1.0, 1.0))
    expected = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])
    np.testing.assert_allclose(op.D, expected, atol=1e-14)


def test_diff_matrix_unit_interval_doubles():
    ref = build_sbp_1d(3, (-1.0, 1.0))
    op = build_sbp_1d(3, (0.0, 1.0))
    np.testing.assert_allclose(op.D, 2.0 * ref.D, atol=1e-14)
    np.testing.assert_allclose(op.weights, 0.5 * ref.weights, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_constants_differentiate_to_zero(n):
    op = build_sbp_1d(n, (0.3, 1.9))
    assert np.max(np.abs(op.D @ np.ones(n))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 17))
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 1.0), (-2.0, 1.0), (0.25, 0.55)])
def test_operator_invariants(n, interval):
    op = build_sbp_1d(n, interval)
    assert np.max(np.abs(op.Q + op.Q.T - op.E)) <= 1e-13
    x = op.nodes
    for s in range(n):
        exact = np.zeros_like(x) if s == 0 else s * x ** (s - 1)
        scale = max(1.0, np.max(np.abs(x)) ** s)
        assert np.max(np.abs(op.D @ x**s - exact)) <= 1e-11 * scale
    assert np.all(op.weights > 0)


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_affine_covariance(n):
    ref = build_sbp_1d(n, (-1.0, 1.0))
    a, b = -0.7, 1.8
    op = build_sbp_1d(n, (a, b))
    np.testing.assert_allclose(op.D, ref.D * (2.0 / (b - a)), atol=1e-13)
    np.testing.assert_allclose(op.weights, ref.weights * ((b - a) / 2.0), atol=1e-13)


def test_verify_sbp_clean_operator():
    report = verify_sbp(build_sbp_1d(5, (0.0, 1.0)))
    assert report["sbp_identity"] <= 1e-12
    assert report["accuracy"] <= 1e-12
    assert report["spd"] == 0.0


def test_verify_sbp_detects_corrupted_q():
    op = build_sbp_1d(5, (0.0, 1.0))
    op.Q[2, 3] += 1e-3
    report = verify_sbp(op)
    assert report["sbp_identity"] == pytest.approx(1e-3, rel=1e-6)


def test_verify_sbp_two_point_linear_exactness():
    report = verify_sbp(build_sbp_1d(2, (-1.0, 1.0)))
    assert report["accuracy"] <= 1e-14


@pytest.mark.parametrize("n", [800, MAX_OPERATOR_NODES])
def test_operator_keeps_its_invariants_up_to_the_node_cap(n):
    # formed on [-1, 1], the node-difference products would underflow here:
    # Q + Q^T - E of 4.5e-4 at 800 nodes and a NaN D at 1000
    report = verify_sbp(build_sbp_1d(n, (-1.0, 1.0)))
    # accuracy relative to the largest monomial derivative, n - 1
    assert report["sbp_identity"] <= 1e-10 and report["accuracy"] <= 1e-10 * n


def test_operator_past_the_node_cap_raises():
    with pytest.raises(ResourceLimitError, match="2000 nodes"):
        build_sbp_1d(2000, (0.0, 1.0))
