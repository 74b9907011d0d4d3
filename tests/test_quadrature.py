import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddrns import quadrature as quad
from ddrns.operators import DdrComplex
from conftest import (cube_frustum_mesh, get_mesh, jittered_kuhn_mesh,
                      pentagon_prism_mesh, prism_mesh, random_hex_mesh)

import oracles


def test_edge_cubic_exact(cube1):
    r = oracles.rule_for(cube1, "edge", 0, 3)
    a = cube1.vertex_coords[cube1.edge_vertices[0, 0]]
    s = (r.points - a) @ cube1.edge_tangent[0]
    assert oracles.integrate(r, s**3) == pytest.approx(0.25, abs=1e-15)
    assert len(r.weights) == 2  # ceil((3+1)/2) Gauss points


def test_unit_square_face(cube1):
    f = np.flatnonzero((np.abs(cube1.face_normal[:, 2]) > 0.5)
                       & (np.abs(cube1.face_anchor[:, 2]) < 1e-12))[0]
    r = oracles.rule_for(cube1, "face", f, 4)
    v = r.points[:, 0]**2 * r.points[:, 1]**2
    assert oracles.integrate(r, v) == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_unit_cube_cell(cube1):
    r = oracles.rule_for(cube1, "cell", 0, 6)
    v = r.points[:, 0]**2 * r.points[:, 1]**2 * r.points[:, 2]**2
    expected = oracles.integrate_monomial(cube1, "cell", 0, (2, 2, 2))
    assert expected == pytest.approx(1.0 / 27.0, rel=1e-14)
    assert oracles.integrate(r, v) == pytest.approx(expected, abs=1e-13)


def test_weights_sum_to_measure(cube2, tet1):
    meshes = [cube2, tet1, prism_mesh(), random_hex_mesh()]
    for m in meshes:
        for e in range(m.n_edges):
            r = quad.edge_rule(m, e, 4)
            assert r.weights.sum() == pytest.approx(m.edge_length[e], rel=1e-13)
        for f in range(m.n_faces):
            r = quad.face_rule(m, f, 4)
            assert r.weights.sum() == pytest.approx(m.face_area[f], rel=1e-12)
        for c in range(m.n_cells):
            r = quad.cell_rule(m, c, 4)
            assert r.weights.sum() == pytest.approx(m.cell_volume[c], rel=1e-12)


# family -> mesh of size n; the prisms are single meshes (n = 1)
EXACTNESS_MESHES = {
    "cubic": lambda n: get_mesh("cubic", n),
    "tet": lambda n: get_mesh("tet", n),
    "jittered_kuhn": lambda n: jittered_kuhn_mesh(n),
    "prism": lambda n: prism_mesh(),
    "pentagon_prism": lambda n: pentagon_prism_mesh(),
    "random_hex": lambda n: random_hex_mesh(),
}


@pytest.mark.parametrize("family,n", [("cubic", 2), ("tet", 1),
                                      ("jittered_kuhn", 2), ("prism", 1),
                                      ("pentagon_prism", 1),
                                      ("random_hex", 1)])
@pytest.mark.parametrize("degree", [0, 1, 3, 5, 7, 9, 11, 12])
def test_monomial_exactness_vs_oracle(family, n, degree):
    # invariant: every monomial up to the requested degree integrates to the
    # closed-form simplex-decomposition value, on every entity; degree 12 is
    # the cell rule degree at k=3
    m = EXACTNESS_MESHES[family](n)
    powers = np.array(list(oracles.all_powers(degree)))
    for kind, count in (("edge", m.n_edges), ("face", m.n_faces),
                        ("cell", m.n_cells)):
        for idx in range(count):
            r = oracles.rule_for(m, kind, idx, degree)
            val = oracles.integrate(
                r, np.prod(r.points[:, None, :] ** powers, axis=2))
            ref = oracles.monomial_moments(m, kind, idx, degree)[
                tuple(powers.T)]
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-13), (kind, idx)


@pytest.mark.parametrize("degree", range(13))
def test_rules_take_the_fewest_points(degree):
    # (degree + 2) // 2 points per direction of each simplex; a triangle and
    # a tetrahedron are their own simplex, a cube takes the tensor rule as
    # one, a square is fanned into 4 triangles, the random hexahedron coned
    # into 24 tetrahedra and a prism into 14
    n = (degree + 2) // 2
    tet, cube, prism = get_mesh("tet", 1), get_mesh("cubic", 1), prism_mesh()
    for mesh, cells, faces in ((tet, 1, 1), (cube, 1, 4), (prism, 14, 1),
                               (random_hex_mesh(), 24, 4)):
        cell = quad.cell_rule(mesh, 0, degree)
        face = quad.face_rule(mesh, 1, degree)
        assert (cell.n_simplices, len(cell.weights)) == (cells, cells * n ** 3)
        assert (face.n_simplices, len(face.weights)) == (faces, faces * n ** 2)


def test_a_cube_and_a_frustum_take_their_own_rules():
    # a cube and a non-affine hexahedron sharing a face: the cube takes the
    # tensor rule, the frustum its cone, in two cell groups of one rule size
    m = cube_frustum_mesh()
    cube, frustum = quad.cell_rule(m, 0, 4), quad.cell_rule(m, 1, 4)
    assert (cube.n_simplices, len(cube.weights)) == (1, 27)
    assert (frustum.n_simplices, len(frustum.weights)) == (24, 24 * 27)
    cx = DdrComplex(m, 0)
    assert len(cx.cell_groups) == 2
    assert cx.cells[0].group is not cx.cells[1].group
    for degree in range(13):
        powers = np.array(list(oracles.all_powers(degree)))
        for c in (0, 1):
            r = quad.cell_rule(m, c, degree)
            val = oracles.integrate(
                r, np.prod(r.points[:, None, :] ** powers, axis=2))
            # integrate_monomial of every power at once
            ref = oracles.monomial_moments(m, "cell", c, degree)[
                tuple(powers.T)]
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-13), (c, degree)


def test_high_degree_prism_and_hex():
    for m in (prism_mesh(), random_hex_mesh()):
        r = quad.cell_rule(m, 0, 9)
        for p in [(4, 3, 2), (0, 0, 9), (3, 3, 3)]:
            ref = oracles.integrate_monomial(m, "cell", 0, p)
            val = oracles.integrate(r, r.points[:, 0]**p[0]
                                    * r.points[:, 1]**p[1]
                                    * r.points[:, 2]**p[2])
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-14)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_cell_monomials_hypothesis(a, b, c):
    m = get_mesh("cubic", 1)
    r = quad.cell_rule(m, 0, a + b + c)
    ref = oracles.integrate_monomial(m, "cell", 0, (a, b, c))
    val = oracles.integrate(
        r, r.points[:, 0]**a * r.points[:, 1]**b * r.points[:, 2]**c)
    assert val == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_degenerate_simplex_error():
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])  # collinear
    with pytest.raises(quad.DegenerateSimplexError):
        quad.triangle_rule(tri, 2)
    tet = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
    with pytest.raises(quad.DegenerateSimplexError):
        quad.tet_rule(tet, 2)

