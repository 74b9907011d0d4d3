import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrns import polyspaces as ps
from ddrns import quadrature as quad
from conftest import get_mesh, pentagon_prism_mesh

import oracles


@pytest.fixture(scope="module")
def cube_cell():
    m = get_mesh("cubic", 1)
    geom = oracles.cell_geometry(m, 0)
    rule = quad.cell_rule(m, 0, 10)
    return m, geom, rule


@pytest.fixture(scope="module")
def square_face():
    m = get_mesh("cubic", 1)
    return m, oracles.face_geometry(m, 0), quad.face_rule(m, 0, 10), 0


def test_scalar_basis_dims_and_gram(cube_cell, square_face):
    m, geom, rule = cube_cell
    _, fgeom, frule, _ = square_face
    e = oracles.edge_geometry(m, 0)
    erule = quad.edge_rule(m, 0, 8)
    b = oracles.scalar_basis(e, 0, erule)
    assert b.dim == 1
    vals = b.eval(erule.points)
    assert np.allclose(vals, vals[0])  # the constant, L2-normalised

    bf = oracles.scalar_basis(fgeom, 1, frule)
    assert bf.dim == 3

    bc = oracles.scalar_basis(geom, 2, rule)
    assert bc.dim == 10
    phi = bc.eval(rule.points)
    gram = phi.T @ (rule.weights[:, None] * phi)
    assert np.abs(gram - np.eye(10)).max() < 1e-10


def test_degree_minus_one_empty(cube_cell):
    _, geom, rule = cube_cell
    assert oracles.scalar_basis(geom, -1, rule).dim == 0
    assert ps.dim_poly(3, -1) == 0


def test_subspace_dims(cube_cell, square_face):
    _, geom, rule = cube_cell
    _, fgeom, frule, _ = square_face
    gram_f = oracles.scalar_monomial_gram(fgeom, 4, frule)
    gram_c = oracles.scalar_monomial_gram(geom, 4, rule)

    assert oracles.subspace(fgeom, "R", -1, gram_f).dim == 0
    rc1 = oracles.subspace(geom, "Rc", 1, gram_c)
    assert rc1.dim == 1  # (x - x_T) P^0(T): numeric rank of the family
    g0 = oracles.subspace(geom, "G", 0, gram_c)
    assert g0.dim == 3   # gradients of linears

    for sel in ("G", "Gc", "R", "Rc"):
        for l in range(-1, 4):
            assert oracles.subspace(geom, sel, l, gram_c).dim \
                == ps.subspace_dim(3, sel, l)
            assert oracles.subspace(fgeom, sel, l, gram_f).dim \
                == ps.subspace_dim(2, sel, l)


def test_direct_decomposition_ranks(cube_cell, square_face):
    _, geom, rule = cube_cell
    _, fgeom, frule, _ = square_face
    parent_f = ps.tensor_vector_basis(oracles.scalar_basis(fgeom, 4, frule), 2)
    gram_f = oracles.scalar_monomial_gram(fgeom, 4, frule)
    parent_c = ps.tensor_vector_basis(oracles.scalar_basis(geom, 4, rule), 3)
    gram_c = oracles.scalar_monomial_gram(geom, 4, rule)
    for l in range(0, 5):
        for im, co in (("G", "Gc"), ("R", "Rc")):
            a = oracles.subspace(geom, im, l, gram_c)
            b = oracles.subspace(geom, co, l, gram_c)
            stack = np.vstack([ps.vector_inner(gram_c, s.coeff, parent_c.coeff)
                               for s in (a, b)])
            assert np.linalg.matrix_rank(stack, tol=1e-10) == 3 * ps.dim_poly(3, l)
            if l <= 4 - 1:
                a2 = oracles.subspace(fgeom, im, l, gram_f)
                b2 = oracles.subspace(fgeom, co, l, gram_f)
                stack = np.vstack([ps.vector_inner(gram_f, s.coeff, parent_f.coeff)
                                   for s in (a2, b2)])
                assert np.linalg.matrix_rank(stack, tol=1e-10) \
                    == 2 * ps.dim_poly(2, l)


def test_rot_basis_tangency(square_face):
    m, fgeom, frule, f = square_face
    gram = oracles.scalar_monomial_gram(fgeom, 3, frule)
    rb = oracles.subspace(fgeom, "R", 2, gram)
    vals3 = oracles.eval3d(rb, frule.points)
    assert np.abs(vals3 @ m.face_normal[f]).max() < 1e-12


def test_pentagon_face_subspaces():
    m = pentagon_prism_mesh()
    f = int(np.flatnonzero(m.face_loops.lengths == 5)[0])
    geom = oracles.face_geometry(m, f)
    rule = quad.face_rule(m, f, 8)
    gram = oracles.scalar_monomial_gram(geom, 3, rule)
    for sel in ("G", "Gc", "R", "Rc"):
        sub = oracles.subspace(geom, sel, 2, gram)
        assert sub.dim == ps.subspace_dim(2, sel, 2)
        vals = sub.eval(rule.points)
        g = np.einsum("pbc,pdc->bd", vals * rule.weights[:, None, None], vals)
        assert np.abs(g - np.eye(sub.dim)).max() < 1e-10


def test_projection_constant_and_idempotence(cube_cell):
    _, geom, rule = cube_cell
    b0 = oracles.scalar_basis(geom, 0, rule)
    coef = oracles.project_scalar(b0, rule, np.ones(rule.weights.shape[-1]))
    recon = b0.eval(rule.points) @ coef
    assert np.abs(recon - 1.0).max() < 1e-13


def test_projection_roly_identity(square_face):
    _, fgeom, frule, _ = square_face
    gram = oracles.scalar_monomial_gram(fgeom, 2, frule)
    rk = oracles.subspace(fgeom, "R", 2, gram)
    rng = np.random.default_rng(0)
    coefs = rng.standard_normal(rk.dim)
    vals = np.einsum("pbc,b->pc", rk.eval(frule.points), coefs)
    proj = oracles.project_vector(rk, frule, vals)
    assert np.abs(proj - coefs).max() < 1e-11


def test_projection_vs_normal_equations(cube_cell):
    m, geom, rule = cube_cell
    b1 = oracles.scalar_basis(geom, 1, rule)
    vals = rule.points[:, 0] ** 2
    coef = oracles.project_scalar(b1, rule, vals)
    recon = b1.eval(rule.points) @ coef
    design = ps.mono_eval(ps.monomial_exponents(3, 1),
                          geom.local_coords(rule.points))
    a = oracles.projection_normal_equations(rule.points, rule.weights, vals,
                                            design)
    assert np.abs(recon - design @ a).max() < 1e-12


def test_projector_contraction(cube_cell):
    _, geom, rule = cube_cell
    b2 = oracles.scalar_basis(geom, 2, rule)
    rng = np.random.default_rng(1)
    for _ in range(10):
        vals = rng.standard_normal(rule.weights.shape[-1])
        coef = oracles.project_scalar(b2, rule, vals)
        norm_proj = np.linalg.norm(coef)
        norm_f = np.sqrt(np.sum(rule.weights * vals**2))
        assert norm_proj <= norm_f * (1 + 1e-12)
        # idempotence
        again = oracles.project_scalar(b2, rule, b2.eval(rule.points) @ coef)
        assert np.abs(again - coef).max() < 1e-11


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_projection_linearity(alpha, beta):
    m = get_mesh("cubic", 1)
    geom = oracles.cell_geometry(m, 0)
    rule = quad.cell_rule(m, 0, 6)
    b = oracles.scalar_basis(geom, 2, rule)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(rule.weights.shape[-1])
    g = rng.standard_normal(rule.weights.shape[-1])
    lhs = oracles.project_scalar(b, rule, alpha * f + beta * g)
    rhs = alpha * oracles.project_scalar(b, rule, f) + beta * oracles.project_scalar(b, rule, g)
    assert np.abs(lhs - rhs).max() < 1e-10 * (1 + abs(alpha) + abs(beta))


def test_gram_orthonormalisation_paths():
    # well-conditioned: Cholesky route reproduces an orthonormalising map
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    C = ps._orthonormalise_gram(g)
    assert np.abs(C @ g @ C.T - np.eye(2)).max() < 1e-13
    # ill-conditioned (beyond 1e12): eigen-whitening fallback; the residual
    # from identity is limited by eps * condition number
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    g2 = q @ np.diag([1.0, 1e-6, 4e-13]) @ q.T
    C2 = ps._orthonormalise_gram(0.5 * (g2 + g2.T))
    assert np.abs(C2 @ g2 @ C2.T - np.eye(3)).max() < 1e-2
    # numerically singular Gram is refused
    g3 = np.outer([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ps.BasisError):
        ps._orthonormalise_gram(g3)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("selector", ["G", "R", "Gc", "Rc"])
def test_unit_family_matches_member_by_member_reference(d, selector):
    # the two generators and the turn give the families of the defining
    # formulas entry for entry, member order included
    for degree in range(-1, 7):
        got = ps._unit_family(d, selector, degree)
        want = oracles.unit_family(d, selector, degree)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_turn_is_the_face_rot_and_the_cell_cross_products():
    v = np.random.default_rng(4).standard_normal((2, 5, 4, 3))
    # on a face: rotation by -pi/2, twice is minus the identity
    face = v[..., :2]
    assert np.array_equal(ps.turn(ps.turn(face)), -face)
    assert np.abs(np.sum(ps.turn(face) * face, axis=-1)).max() == 0.0
    # on a cell: v_i x e_a for a = x, y, z, member after member
    want = np.cross(v[:, :, None], np.eye(3)[:, None]).reshape(2, 15, 4, 3)
    assert np.array_equal(ps.turn(v), want)
