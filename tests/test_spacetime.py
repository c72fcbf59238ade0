"""The space-time tensor-product layout of ``Discretization``.

Element k is the tensor product of the time operator ``op_t`` and its
spatial operator, element k of the stacked ``op_x``.  States are stacked time-major: entry
j*n_s + s is spatial node s = k*n_x + i at time level j.
"""

from unittest import mock

import numpy as np
import pytest

from stheat import assembly
from stheat.assembly import Discretization, assemble_global, north_trace, residual
from stheat.errors import ResourceLimitError
from stheat.problem import MaterialModel, ProblemSpec

LINEAR = MaterialModel(kappa_min=0.0, kappa_max=1.0, p=1.0)


def make_disc(nx_nodes=5, nt_nodes=5, interval=(0.0, 1.0), horizon=1.0, n_elements=1,
              breakpoints=None, **data):
    return Discretization(ProblemSpec(
        domain=interval, horizon=horizon, n_elements=n_elements, nx=nx_nodes - 1,
        nt=nt_nodes - 1, material=LINEAR, breakpoints=breakpoints, **data,
    ))


def test_minimal_element_constants():
    # two nodes per direction: the scheme still reproduces a constant state
    c = 3.7
    const_t = lambda t: np.full_like(np.asarray(t, float), c)
    disc = make_disc(2, 2, h=const_t, g=const_t, q=lambda x: np.full_like(np.asarray(x, float), c))
    assert disc.block_size == 4
    system = assemble_global(disc, np.array([0.6]))
    assert np.max(np.abs(residual(np.full(4, c), system))) <= 1e-13 * np.abs(system.rhs).max()


def test_dx_of_coordinate_is_one():
    disc = make_disc(4, 3, interval=(-0.5, 2.0), n_elements=2, breakpoints=(-0.5, 0.1, 2.0))
    X, _ = disc.coordinates()
    grid = X.reshape(disc.op_t.n_nodes, 2, disc.n_x)
    for k, D in enumerate(disc.op_x.D):
        np.testing.assert_allclose(grid[:, k] @ D.T, 1.0, atol=1e-12)


def test_dt_of_time_coordinate_is_one():
    disc = make_disc(3, 6, horizon=2.5, n_elements=2)
    _, T = disc.coordinates()
    grid = T.reshape(disc.op_t.n_nodes, -1)
    np.testing.assert_allclose(disc.op_t.D @ grid, 1.0, atol=1e-12)


def test_kronecker_reconstruction():
    # element k of global_p is the diagonal of P_t (x) P_x^k
    disc = make_disc(4, 6, interval=(0.25, 1.5), horizon=0.8, n_elements=3,
                     breakpoints=(0.25, 0.4, 1.1, 1.5))
    p = disc.global_p().reshape(disc.op_t.n_nodes, 3, disc.n_x)
    for k, w in enumerate(disc.op_x.weights):
        np.testing.assert_array_equal(p[:, k].ravel(), np.kron(disc.op_t.weights, w))
    np.testing.assert_array_equal(disc.W, np.concatenate(list(disc.op_x.weights)))


def test_surface_operator_identities():
    # T + T^T = E_t + 2 sigma_0 e_s e_s^T: the time boundary terms of the energy estimate
    disc = make_disc(5, 4)
    expected = np.diag([2 * disc.sat.sigma_0 - 1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(disc.T + disc.T.T, expected, atol=1e-13)


@pytest.mark.parametrize("direction", ["x", "t"])
def test_discrete_integration_by_parts(direction):
    disc = make_disc(5, 5, interval=(0.0, 0.4))
    op_t, op_x = disc.op_t, disc.op_x
    if direction == "x":
        Q, E = np.kron(op_t.P, op_x.Q[0]), np.kron(op_t.P, op_x.E[0])
    else:
        Q, E = np.kron(op_t.Q, op_x.P[0]), np.kron(op_t.E, op_x.P[0])
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal(disc.block_size)
        v = rng.standard_normal(disc.block_size)
        gap = abs(u @ (Q + Q.T) @ v - u @ E @ v)
        assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_quadrature_measures_element_area():
    for breakpoints in (None, (0.3, 0.35, 0.9, 1.1)):
        disc = make_disc(6, 4, interval=(0.3, 1.1), horizon=2.0, n_elements=3,
                         breakpoints=breakpoints)
        assert abs(disc.global_p().sum() - 0.8 * 2.0) <= 1e-12


def test_restrict_south_of_time_field_is_zero():
    disc = make_disc(4, 5, n_elements=2)
    _, T = disc.coordinates()
    np.testing.assert_array_equal(T.reshape(disc.op_t.n_nodes, -1)[0], 0.0)


def test_restrict_west_of_coordinate_field_is_left_end():
    disc = make_disc(4, 5, interval=(0.7, 1.9), n_elements=2, breakpoints=(0.7, 1.0, 1.9))
    X, _ = disc.coordinates()
    grid = X.reshape(disc.op_t.n_nodes, 2, disc.n_x)
    for k, left in enumerate((0.7, 1.0)):
        np.testing.assert_allclose(grid[:, k, 0], left, atol=1e-15)


def test_restrict_north_is_last_block():
    disc = make_disc(6, 3, n_elements=2)
    u = np.random.default_rng(5).standard_normal(disc.n_unknowns)
    last_level = u[-disc.W.size:]
    for block, trace in zip(last_level.reshape(2, -1), north_trace(disc, u)):
        np.testing.assert_array_equal(trace, block)


def test_restrict_matches_dense_matrices():
    # the four faces of each element, sliced from the (level, node) view,
    # against dense restrictions of its space-fastest block
    disc = make_disc(5, 4, n_elements=3)
    n_x, n_t = disc.n_x, disc.op_t.n_nodes
    u = np.random.default_rng(17).standard_normal(disc.n_unknowns)
    U = u.reshape(n_t, -1)
    blocks = U.reshape(n_t, 3, n_x).transpose(1, 0, 2).reshape(3, -1)
    e_x, e_t = np.eye(n_x), np.eye(n_t)
    for k in range(3):
        faces = {
            "west": (U[:, k * n_x], np.kron(e_t, e_x[:1])),
            "east": (U[:, (k + 1) * n_x - 1], np.kron(e_t, e_x[-1:])),
            "south": (U[0, k * n_x:(k + 1) * n_x], np.kron(e_t[:1], e_x)),
            "north": (U[-1, k * n_x:(k + 1) * n_x], np.kron(e_t[-1:], e_x)),
        }
        for face, (sliced, R) in faces.items():
            np.testing.assert_array_equal(sliced, R @ blocks[k], err_msg=face)


def test_restrict_rejects_bad_length():
    disc = make_disc(3, 3)
    with pytest.raises(ValueError):
        north_trace(disc, np.zeros(7))


def test_trace_inequality():
    # boundary-restricted norms are bounded by the volume norm with the
    # endpoint quadrature weight as constant
    disc = make_disc(6, 5, interval=(0.0, 0.35))
    w = disc.op_x.weights[0]
    wt = disc.op_t.weights
    p = disc.global_p()
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = rng.standard_normal(disc.n_unknowns)
        vol = z @ (p * z)
        Z = z.reshape(disc.op_t.n_nodes, -1)
        west, east = Z[:, 0], Z[:, -1]
        assert west @ (wt * west) <= vol / w[0] + 1e-13
        assert east @ (wt * east) <= vol / w[-1] + 1e-13


def test_layout_index_bijection():
    # entry j*n_s + s is spatial node s at time level j: the (level, node)
    # view is a reshape without a copy, and coordinates() follows it
    disc = make_disc(4, 3, interval=(0.2, 1.4), n_elements=3, breakpoints=(0.2, 0.5, 0.6, 1.4))
    idx = np.arange(disc.n_unknowns)
    U = idx.reshape(disc.op_t.n_nodes, -1)
    assert U.shape == (3, 12) and np.shares_memory(U, idx)
    X, T = (c.reshape(U.shape) for c in disc.coordinates())
    np.testing.assert_array_equal(X, np.tile(np.concatenate(list(disc.op_x.nodes)), (3, 1)))
    np.testing.assert_array_equal(T, np.repeat(disc.op_t.nodes[:, None], 12, axis=1))


def test_node_cap_enforced():
    with pytest.raises(ResourceLimitError, match="above the cap of 100000"):
        make_disc(400, 300)


@pytest.mark.parametrize(
    "n_elements, nx_nodes, nt_nodes, values",
    [(10**9, 6, 16, 96 * 10**9), (2000, 1000, 2, 2 * 10**9), (5000, 6, 40, 1_200_000)],
    ids=["elements", "operators", "state"],
)
def test_run_size_cap_refuses_before_building_anything(n_elements, nx_nodes, nt_nodes, values):
    # each element is within NODE_CAP; the run's states or element operators are not
    refuse = mock.Mock(side_effect=AssertionError("built before the size check"))
    with mock.patch.object(ProblemSpec, "element_edges", new_callable=mock.PropertyMock,
                           side_effect=refuse), \
            mock.patch.object(assembly, "build_sbp_1d", refuse), \
            mock.patch.object(assembly, "build_sbp_elements", refuse), \
            pytest.raises(ResourceLimitError, match=f"{values} values .* above the cap of 1000000"):
        make_disc(nx_nodes, nt_nodes, n_elements=n_elements)
