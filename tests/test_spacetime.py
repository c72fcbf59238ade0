import numpy as np
import pytest

from stheat.errors import ResourceLimitError
from stheat.sbp import build_sbp_1d
from stheat.spacetime import build_element_ops, restrict


def make_ops(nx_nodes=5, nt_nodes=5, interval=(0.0, 1.0), horizon=1.0):
    return build_element_ops(
        build_sbp_1d(nx_nodes, interval), build_sbp_1d(nt_nodes, (0.0, horizon))
    )


def test_minimal_element_constants():
    ops = make_ops(2, 2)
    assert ops.n == 4
    c = np.full(4, 3.7)
    assert np.max(np.abs(ops.D_t @ c)) <= 1e-13
    assert np.max(np.abs(ops.D_x @ c)) <= 1e-13


def test_dx_of_coordinate_is_one():
    ops = make_ops(4, 3, interval=(-0.5, 2.0))
    X, _ = ops.layout.coordinates()
    np.testing.assert_allclose(ops.D_x @ X, np.ones(ops.n), atol=1e-12)


def test_dt_of_time_coordinate_is_one():
    ops = make_ops(3, 6, horizon=2.5)
    _, T = ops.layout.coordinates()
    np.testing.assert_allclose(ops.D_t @ T, np.ones(ops.n), atol=1e-12)


def test_kronecker_reconstruction():
    ops = make_ops(4, 6, interval=(0.25, 1.5), horizon=0.8)
    np.testing.assert_allclose(ops.P, np.kron(ops.op_t.P, ops.op_x.P), atol=1e-13)
    np.testing.assert_allclose(ops.Q_x, np.kron(ops.op_t.P, ops.op_x.Q), atol=1e-13)
    np.testing.assert_allclose(ops.Q_t, np.kron(ops.op_t.Q, ops.op_x.P), atol=1e-13)
    np.testing.assert_allclose(ops.P @ ops.D_x, ops.Q_x, atol=1e-13)
    np.testing.assert_allclose(ops.P @ ops.D_t, ops.Q_t, atol=1e-13)


def test_surface_operator_identities():
    ops = make_ops(5, 4)
    pt, px = ops.op_t.P, ops.op_x.P
    r_w, r_e = ops.restriction("west"), ops.restriction("east")
    r_s, r_n = ops.restriction("south"), ops.restriction("north")
    np.testing.assert_allclose(ops.E_x, r_e.T @ pt @ r_e - r_w.T @ pt @ r_w, atol=1e-13)
    np.testing.assert_allclose(ops.E_t, r_n.T @ px @ r_n - r_s.T @ px @ r_s, atol=1e-13)


@pytest.mark.parametrize("direction", ["x", "t"])
def test_discrete_integration_by_parts(direction):
    ops = make_ops(5, 5, interval=(0.0, 0.4))
    rng = np.random.default_rng(11)
    Q = ops.Q_x if direction == "x" else ops.Q_t
    E = ops.E_x if direction == "x" else ops.E_t
    for _ in range(100):
        u = rng.standard_normal(ops.n)
        v = rng.standard_normal(ops.n)
        lhs = u @ (Q + Q.T) @ v
        rhs = u @ E @ v
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_quadrature_measures_element_area():
    ops = make_ops(6, 4, interval=(0.3, 1.1), horizon=2.0)
    one = np.ones(ops.n)
    assert abs(one @ (ops.p_vec * one) - 0.8 * 2.0) <= 1e-12


def test_restrict_south_of_time_field_is_zero():
    ops = make_ops(4, 5)
    _, T = ops.layout.coordinates()
    np.testing.assert_allclose(restrict("south", ops, T), np.zeros(4), atol=0)


def test_restrict_west_of_coordinate_field_is_left_end():
    ops = make_ops(4, 5, interval=(0.7, 1.9))
    X, _ = ops.layout.coordinates()
    np.testing.assert_allclose(restrict("west", ops, X), np.full(5, 0.7), atol=1e-15)


def test_restrict_north_is_last_block():
    ops = make_ops(6, 3)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(ops.n)
    np.testing.assert_allclose(restrict("north", ops, u), u[-6:], atol=0)


def test_restrict_matches_dense_matrices():
    ops = make_ops(5, 4)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(ops.n)
    for face in ("west", "east", "south", "north"):
        np.testing.assert_allclose(
            restrict(face, ops, u), ops.restriction(face) @ u, atol=1e-14
        )


def test_restrict_rejects_bad_length():
    ops = make_ops(3, 3)
    with pytest.raises(ValueError):
        restrict("west", ops, np.zeros(7))


def test_trace_inequality():
    # boundary-restricted norms are bounded by the volume norm with the
    # endpoint quadrature weight as constant
    ops = make_ops(6, 5, interval=(0.0, 0.35))
    rng = np.random.default_rng(23)
    wt = ops.op_t.weights
    for _ in range(200):
        z = rng.standard_normal(ops.n)
        vol = z @ (ops.p_vec * z)
        west = restrict("west", ops, z)
        east = restrict("east", ops, z)
        assert west @ (wt * west) <= vol / ops.p_hat_w + 1e-13
        assert east @ (wt * east) <= vol / ops.p_hat_e + 1e-13


def test_layout_index_bijection():
    ops = make_ops(4, 3)
    seen = {ops.layout.index(i, j) for j in range(3) for i in range(4)}
    assert seen == set(range(12))


def test_node_cap_enforced():
    with pytest.raises(ResourceLimitError):
        build_element_ops(build_sbp_1d(400, (0, 1)), build_sbp_1d(300, (0, 1)))
