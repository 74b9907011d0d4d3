"""Every rejection branch of the mesh builder, its validator and the
entity quadrature rules, each reached by a small crafted mesh.

Tables that no valid mesh can produce (a failed closure sum, an edge longer
than its face) are reached by building a sound mesh with ``validate=False``
and corrupting one stored field before calling the validator.  Each test
pins the message of the check it targets, so that dropping that check makes
the test fail even when a later check would still reject the mesh.
"""

import numpy as np
import pytest

from ddrns import mesh as msh
from ddrns import quadrature as quad

import oracles
from conftest import cube_frustum_mesh, prism_mesh, random_hex_mesh


def cube_tables():
    """Vertex, face and cell tables of the unit cube, as the cubic generator
    lays them out (faces 0, 2, 4 lie in the planes x, y, z = 0)."""
    m = msh.generate_cubic_mesh(1)
    return m.vertex_coords.copy(), m.face_loops.tolist(), m.cell_faces.tolist()


def tet_tables(pts):
    return np.asarray(pts, dtype=float), [[0, 1, 2], [0, 1, 3], [1, 2, 3],
                                          [0, 2, 3]], [[0, 1, 2, 3]]


def prism_tables(outline, height=1.0, bottoms=None):
    """Right prism over a planar outline (counter-clockwise (x, y) list).
    `bottoms` splits the bottom and top into several loops of outline
    indices; by default each is the whole outline."""
    n = len(outline)
    bot = np.array([[x, y, 0.0] for x, y in outline])
    coords = np.vstack([bot, bot + [0.0, 0.0, height]])
    caps = bottoms or [list(range(n))]
    faces = [loop[::-1] for loop in caps] + [[v + n for v in loop] for loop in caps]
    faces += [[i, (i + 1) % n, (i + 1) % n + n, i + n] for i in range(n)]
    return coords, faces, [list(range(len(faces)))]


# an L-shaped outline with thin arms: its centroid lies outside it
L_OUTLINE = [(0, 0), (1, 0), (1, 0.2), (0.2, 0.2), (0.2, 1), (0, 1)]
# the same outline with a vertex at (0, 0.2), so that each cap splits into
# two rectangles: every face is convex, the cell is not
L_SPLIT_OUTLINE = L_OUTLINE + [(0, 0.2)]
L_SPLIT_CAPS = [[0, 1, 2, 3, 6], [6, 3, 4, 5]]


def built(tables):
    return msh.build_mesh(*tables, validate=False)


def assert_rejected(match, *tables):
    """build_mesh refuses the tables with a MeshError that matches match."""
    with pytest.raises(msh.MeshError, match=match):
        msh.build_mesh(*tables)


# ---------------------------------------------------------------------------
# tables rejected before any geometry


def test_coordinate_shape_rejected():
    coords, loops, cells = cube_tables()
    assert_rejected(r"shape \(nV, 3\)", coords[:, :2], loops, cells)


@pytest.mark.parametrize("bad", [8, 100, -1])
def test_vertex_id_out_of_range_rejected(bad):
    # -1 would index the last vertex; the loop must not be read that way
    coords, loops, cells = cube_tables()
    loops[3][1] = bad
    assert_rejected(f"face 3: vertex id {bad} out of range", coords, loops, cells)


def test_negative_vertex_id_rejected_on_a_coplanar_wrap():
    # -6 wraps to vertex 2; vertices 0, 1 and 2 lie in the plane z = 0, so
    # the wrapped loop would be a sound triangle
    coords, loops, cells = cube_tables()
    loops.append([0, 1, -6])
    assert_rejected("face 6: vertex id -6 out of range", coords, loops, cells)


@pytest.mark.parametrize("bad", [6, -1])
def test_face_id_out_of_range_rejected(bad):
    coords, loops, cells = cube_tables()
    cells[0][2] = bad
    assert_rejected(f"cell 0: face id {bad} out of range", coords, loops, cells)


def test_short_loop_rejected():
    coords, loops, cells = cube_tables()
    loops[1] = loops[1][:2]
    assert_rejected("face 1: fewer than 3 vertices", coords, loops, cells)


def test_repeated_vertex_in_loop_rejected():
    coords, loops, cells = cube_tables()
    loops[2] = loops[2] + [loops[2][1]]
    assert_rejected("face 2: vertex .* repeated", coords, loops, cells)


def test_non_integer_ids_rejected():
    coords, loops, cells = cube_tables()
    loops[0][1] = 2.0
    assert_rejected("vertex ids must be integers", coords, loops, cells)


def test_empty_cell_rejected():
    coords, loops, cells = cube_tables()
    assert_rejected("cell 1: no faces", coords, loops, cells + [[]])


def test_repeated_face_in_cell_rejected():
    coords, loops, cells = cube_tables()
    cells[0].append(cells[0][3])
    assert_rejected("cell 0: face 3 repeated", coords, loops, cells)


# ---------------------------------------------------------------------------
# build_mesh: edges and faces


def test_non_finite_coordinates_rejected():
    coords, loops, cells = cube_tables()
    coords[5, 1] = np.nan
    assert_rejected("non-finite", coords, loops, cells)


def test_zero_length_edge_rejected():
    coords, loops, cells = cube_tables()
    coords[1] = coords[0]
    assert_rejected("zero-length edge", coords, loops, cells)


def test_zero_newell_normal_rejected():
    # face 0 runs along one straight line
    tables = tet_tables([[0, 0, 0], [1, 1, 0], [3, 3, 0], [0, 0, 1]])
    assert_rejected("zero Newell normal", *tables)


def test_non_positive_area_rejected():
    # face 0 runs along one straight line off the origin; round-off leaves
    # its Newell normal nonzero, and the fan area against that normal is <= 0
    p0, d = np.array([0.1, 0.2, 0.3]), np.array([0.1, 1.0, 0.3])
    tables = tet_tables([p0, p0 + d, p0 + 3 * d, [1, 0, 0]])
    assert_rejected("non-positive face area", *tables)


# ---------------------------------------------------------------------------
# _build_cells


def test_open_cell_boundary_rejected():
    coords, loops, cells = cube_tables()
    cells[0] = cells[0][:-1]
    assert_rejected("boundary not closed", coords, loops, cells)


def test_non_orientable_cell_boundary_rejected():
    # the six-vertex triangulation of the projective plane: every edge is on
    # two triangles, but no choice of face signs orients them all
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1, 1, size=(6, 3))
    loops = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
             [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3]]
    assert_rejected("non-orientable", coords, loops, [list(range(10))])


def test_disconnected_cell_boundary_rejected():
    # one cell bounded by two separate tetrahedra
    coords, loops, _ = tet_tables([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    coords = np.vstack([coords, coords + 5.0])
    loops = loops + [[v + 4 for v in loop] for loop in loops]
    assert_rejected("boundary not connected", coords, loops, [list(range(8))])


def test_zero_volume_cell_rejected():
    # a triangle and its reverse close up a flat cell
    coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert_rejected("non-positive volume", coords, [[0, 1, 2], [0, 2, 1]], [[0, 1]])


def test_face_on_no_cell_rejected():
    coords, loops, cells = cube_tables()
    loops.append([0, 1, 3])
    assert_rejected("face 6 not on the boundary of any cell", coords, loops, cells)


def test_face_on_three_cells_rejected():
    coords, loops, cells = cube_tables()
    assert_rejected("face 0 incident to 3 cells", coords, loops, cells * 3)


# ---------------------------------------------------------------------------
# _validate


def test_coplanarity_rejected():
    coords, loops, cells = cube_tables()
    coords[7, 2] += 0.1
    assert_rejected("not coplanar", coords, loops, cells)


def test_non_unit_tangent_rejected():
    m = built(cube_tables())
    m.edge_tangent[4] *= 2.0
    with pytest.raises(msh.MeshError, match="edge 4: tangent not unit"):
        msh._validate(m)


def test_face_anchor_outside_rejected():
    assert_rejected(r"face 0: anchor not strictly inside", *prism_tables(L_OUTLINE))


def test_face_closure_rejected():
    m = built(cube_tables())
    m.face_edge_signs[3][1] *= -1
    with pytest.raises(msh.MeshError, match="face 3: 2D divergence closure failed"):
        msh._validate(m)


def test_edge_longer_than_face_rejected():
    m = built(cube_tables())
    m.face_diameter[5] *= 0.5
    with pytest.raises(msh.MeshError, match="face 5: edge .* longer than face diameter"):
        msh._validate(m)


def test_cell_closure_rejected():
    m = built(cube_tables())
    m.cell_volume[0] *= 2.0
    with pytest.raises(msh.MeshError, match="cell 0: divergence closure failed"):
        msh._validate(m)


def test_boundary_not_a_two_cycle_rejected():
    # face 0 lies in x = 0, so flipping its sign leaves the closure sum
    # sum_F omega_TF (x_F . n_F)|F| unchanged; only the 2-cycle test sees it
    m = built(cube_tables())
    m.cell_face_signs[0][0] *= -1
    with pytest.raises(msh.MeshError, match="cell 0: boundary orientation is not a 2-cycle"):
        msh._validate(m)


def test_cell_anchor_outside_rejected():
    tables = prism_tables(L_SPLIT_OUTLINE, bottoms=L_SPLIT_CAPS)
    assert_rejected(r"cell 0: anchor not strictly inside", *tables)


def test_orientation_point_test_rejected():
    # a slab thinner than the 1e-6 h_T displacement of the point test
    tables = prism_tables([(0, 0), (1, 0), (1, 1), (0, 1)], height=1e-8)
    assert_rejected("omega_TF point test failed", *tables)


def test_face_wider_than_cell_rejected():
    m = built(cube_tables())
    m.cell_diameter[0] *= 0.5
    with pytest.raises(msh.MeshError, match="cell 0: face .* diameter exceeds h_T"):
        msh._validate(m)


def test_interior_face_sign_parity_rejected():
    # the same cube twice: each copy is a sound cell, but every face is then
    # interior with the same omega_TF on both sides
    coords, loops, cells = cube_tables()
    assert_rejected("interior face 0: incident cells do not", coords, loops, cells * 2)


def test_flipped_stored_sign_rejected_by_validation():
    # the point test of orientation_sign builds the boundary from the stored
    # signs, so it agrees with a flipped one; the validator must not
    m = built(cube_tables())
    m.cell_face_signs[0][3] *= -1
    assert oracles.orientation_sign(m, 0, 3) == m.cell_face_signs[0][3]
    with pytest.raises(msh.MeshError, match="cell 0: "):
        msh._validate(m)


def test_orientation_sign_disagreement_rejected():
    # the slab of the point test above, re-derived one face at a time
    m = built(prism_tables([(0, 0), (1, 0), (1, 1), (0, 1)], height=1e-8))
    with pytest.raises(msh.MeshError, match="orientation ambiguity"):
        oracles.orientation_sign(m, 0, 1)


# ---------------------------------------------------------------------------
# quadrature rules


def test_edge_rule_length_check():
    m = built(cube_tables())
    m.edge_length[2] = 0.0
    with pytest.raises(quad.DegenerateSimplexError, match="edge 2 has zero length"):
        quad.edge_rule(m, 2, 2)


def test_face_rule_area_check():
    # the fan from an anchor outside the L covers some of it twice
    m = built(prism_tables(L_OUTLINE))
    with pytest.raises(quad.DegenerateSimplexError,
                       match="face 0: fan decomposition does not recover the area"):
        quad.face_rule(m, 0, 2)


def test_cell_rule_volume_check():
    m = built(prism_tables(L_SPLIT_OUTLINE, bottoms=L_SPLIT_CAPS))
    quad.face_rule(m, 0, 2)  # convex faces: their fans are sound
    with pytest.raises(quad.DegenerateSimplexError,
                       match="cell 0: cone decomposition does not recover the volume"):
        quad.cell_rule(m, 0, 2)


def test_degenerate_triangle_names_face_and_segment():
    m = built(cube_tables())
    m.face_anchor[3] = m.vertex_coords[m.face_loops[3][2]]
    with pytest.raises(quad.DegenerateSimplexError,
                       match=r"^face 3: zero-area triangle \(segment 1\)$"):
        quad.face_rule(m, 3, 2)


def test_degenerate_tetrahedron_names_cell_face_and_segment():
    # a coned hexahedron (a cube takes the tensor rule)
    m = random_hex_mesh()
    f = m.cell_faces[0][2]
    m.cell_anchor[0] = m.face_anchor[f]
    with pytest.raises(quad.DegenerateSimplexError,
                       match=rf"^cell 0: zero-volume tetrahedron \(face {f}, segment 0\)$"):
        quad.cell_rule(m, 0, 2)


def test_flat_parallelepiped_names_its_cell():
    # the top of the cube pressed onto its bottom: the corners still match
    # x_0 + A xi, with a zero column
    m = built(cube_tables())
    m.vertex_coords[4:] = m.vertex_coords[:4]
    with pytest.raises(quad.DegenerateSimplexError,
                       match="^cell 0: zero-volume parallelepiped$"):
        quad.cell_rule(m, 0, 2)


# a group of two entities whose second member is at fault: the stacked rule
# names that member, in the messages pinned above


def test_edge_group_names_its_zero_length_member():
    m = built(cube_tables())
    m.edge_length[2] = 0.0
    with pytest.raises(quad.DegenerateSimplexError, match="^edge 2 has zero length$"):
        quad.edge_rule(m, [1, 2], 2)


def test_face_group_names_its_degenerate_member_and_segment():
    m = built(cube_tables())
    m.face_anchor[3] = m.vertex_coords[m.face_loops[3][2]]
    with pytest.raises(quad.DegenerateSimplexError,
                       match=r"^face 3: zero-area triangle \(segment 1\)$"):
        quad.face_rule(m, [2, 3], 2)


def test_face_group_checks_the_area_of_every_member():
    m = built(cube_tables())
    m.face_area[3] = 2.0
    with pytest.raises(quad.DegenerateSimplexError,
                       match="^face 3: fan decomposition does not recover the area$"):
        quad.face_rule(m, [2, 3], 2)


def test_cell_group_names_its_degenerate_member_face_and_segment():
    m = prism_mesh()
    f = m.cell_faces[1][2]
    m.cell_anchor[1] = m.face_anchor[f]
    with pytest.raises(quad.DegenerateSimplexError,
                       match=rf"^cell 1: zero-volume tetrahedron \(face {f}, segment 0\)$"):
        quad.cell_rule(m, [0, 1], 2)


def test_cell_group_checks_the_volume_of_every_member():
    m = prism_mesh()
    m.cell_volume[1] *= 2.0
    with pytest.raises(quad.DegenerateSimplexError,
                       match="^cell 1: cone decomposition does not recover the volume$"):
        quad.cell_rule(m, [0, 1], 2)


def test_parallelepiped_group_checks_the_volume_of_every_member():
    m = msh.generate_cubic_mesh(2)
    m.cell_volume[1] *= 2.0
    with pytest.raises(quad.DegenerateSimplexError,
                       match="^cell 1: tensor rule does not recover the volume$"):
        quad.cell_rule(m, [0, 1], 2)


def test_a_cube_and_a_coned_hexahedron_cannot_share_a_group():
    m = cube_frustum_mesh()
    with pytest.raises(ValueError, match="same number of simplices"):
        quad.cell_rule(m, [0, 1], 2)


def test_a_group_of_unlike_entities_is_rejected():
    # an L cap (6 segments) and a side quad cannot share one stack
    m = built(prism_tables(L_OUTLINE))
    with pytest.raises(ValueError, match="same number of simplices"):
        quad.face_rule(m, [0, 2], 2)
