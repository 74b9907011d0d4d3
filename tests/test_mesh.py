import numpy as np
import pytest

from ddrns import mesh as msh
from conftest import prism_mesh, random_hex_mesh, random_tet_mesh

import oracles


def closure_sum(m, c):
    """sum_F omega_TF (x_F . n_F) |F| over the faces F of cell c."""
    return sum(s * np.dot(m.face_anchor[f], m.face_normal[f]) * m.face_area[f]
               for f, s in zip(m.cell_faces[c], m.cell_face_signs[c]))


def test_cube_counts_n1(cube1):
    assert (cube1.n_cells, cube1.n_faces, cube1.n_edges, cube1.n_vertices) \
        == (1, 6, 12, 8)
    assert cube1.h == pytest.approx(np.sqrt(3.0))


def test_cube_counts_n2(cube2):
    assert (cube2.n_cells, cube2.n_faces, cube2.n_edges, cube2.n_vertices) \
        == (8, 36, 54, 27)


def test_cube_h_scaling():
    m = msh.generate_cubic_mesh(4)
    assert m.h == pytest.approx(np.sqrt(3.0) / 4)
    assert m.n_cells == 64


def test_divergence_closure_oracle_n4():
    # direct volume integration oracle: sum_F w_TF int_F x.n = 3|T|
    m = msh.generate_cubic_mesh(4)
    for c in range(m.n_cells):
        vol = oracles.integrate_monomial(m, "cell", c, (0, 0, 0))
        assert closure_sum(m, c) == pytest.approx(3.0 * vol, rel=1e-12)
        assert m.cell_volume[c] == pytest.approx(vol, rel=1e-12)


def test_tet_counts_and_volumes(tet1):
    assert tet1.n_cells == 6
    assert msh.generate_tet_mesh(2).n_cells == 48
    for vol in tet1.cell_volume:
        assert vol == pytest.approx(1.0 / 6.0, rel=1e-13)
    m3 = msh.generate_tet_mesh(3)
    for vol in m3.cell_volume:
        assert vol == pytest.approx(1.0 / (6 * 27), rel=1e-12)


def test_orientation_signs_unit_cube(cube1):
    top = np.flatnonzero((np.abs(cube1.face_normal[:, 2]) > 0.5)
                         & (np.abs(cube1.face_anchor[:, 2] - 1.0) < 1e-12))[0]
    sgn = cube1.cell_face_signs[0][cube1.cell_faces[0] == top][0]
    # the generated loop gives n_F = +e_z, pointing out of the cell below
    assert cube1.face_normal[top, 2] == pytest.approx(1.0)
    assert sgn == 1
    assert oracles.orientation_sign(cube1, 0, top) == 1


def test_orientation_two_sided(cube2):
    for f, (c0, c1) in enumerate(cube2.face_cells.tolist()):
        if c1 >= 0:
            s0 = oracles.orientation_sign(cube2, c0, f)
            s1 = oracles.orientation_sign(cube2, c1, f)
            assert s0 + s1 == 0


def test_kuhn_tet_closure_oracle(tet1):
    for c in range(tet1.n_cells):
        vol = oracles.integrate_monomial(tet1, "cell", c, (0, 0, 0))
        assert closure_sum(tet1, c) == pytest.approx(3 * vol, rel=1e-12)


def test_face_2d_closure(cube2, tet1):
    for m in (cube2, tet1):
        for f in range(m.n_faces):
            acc = 0.0
            for e, sgn, nfe in zip(m.face_edges[f], m.face_edge_signs[f],
                                   m.face_edge_normals[f]):
                acc += (sgn * np.dot(m.edge_midpoint[e] - m.face_anchor[f], nfe)
                        * m.edge_length[e])
            assert acc == pytest.approx(2 * m.face_area[f], rel=1e-12)


def test_edge_normals_right_handed(cube2):
    for f in range(cube2.n_faces):
        for eid, nfe in zip(cube2.face_edges[f], cube2.face_edge_normals[f]):
            t = cube2.edge_tangent[eid]
            assert np.cross(t, nfe) @ cube2.face_normal[f] == pytest.approx(1.0)


def test_size_ordering_and_regularity(cube2, tet1):
    for m in (cube2, tet1):
        for c in range(m.n_cells):
            for fid in m.cell_faces[c]:
                assert m.face_diameter[fid] <= m.cell_diameter[c] * (1 + 1e-12)
                for eid in m.face_edges[fid]:
                    assert m.edge_length[eid] <= m.face_diameter[fid] * (1 + 1e-12)
        ratio = m.regularity_ratio()  # reported, never asserted
        assert np.isfinite(ratio)


def test_boundary_flags(cube2):
    assert len(cube2.boundary_faces()) == 24
    on_boundary = np.isin(np.arange(cube2.n_faces), cube2.boundary_faces())
    for cells, b in zip(cube2.face_cells, on_boundary):
        assert np.sum(cells >= 0) == (1 if b else 2)


def test_poly3_roundtrip_cube(tmp_path, cube1):
    path = tmp_path / "cube.poly3"
    msh.write_poly3(cube1, path)
    m = msh.read_mesh(path)
    assert (m.n_cells, m.n_faces, m.n_edges, m.n_vertices) == (1, 6, 12, 8)
    assert m.cell_volume[0] == pytest.approx(1.0)
    assert m.h == pytest.approx(cube1.h)
    assert sorted(map(tuple, m.vertex_coords.tolist())) \
        == sorted(map(tuple, cube1.vertex_coords.tolist()))


def test_poly3_nonplanar_face_rejected(tmp_path):
    content = """POLY3 1
8 6 1
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 0.6
4 0 3 2 1
4 4 5 6 7
4 0 1 5 4
4 1 2 6 5
4 2 3 7 6
4 3 0 4 7
6 0 1 2 3 4 5
"""
    path = tmp_path / "bad.poly3"
    path.write_text(content)
    with pytest.raises(msh.MeshError, match="coplanar"):
        msh.read_mesh(path)


def test_poly3_parse_error_line_number(tmp_path):
    path = tmp_path / "broken.poly3"
    path.write_text("POLY3 1\n2 0 0\n0 0 0\n1 0 oops\n")
    with pytest.raises(msh.Poly3ParseError) as err:
        msh.read_mesh(path)
    assert err.value.lineno == 4


def test_poly3_bad_header(tmp_path):
    path = tmp_path / "h.poly3"
    path.write_text("POLY2 1\n0 0 0\n")
    with pytest.raises(msh.Poly3ParseError):
        msh.read_mesh(path)


def test_prism_interior_face(tmp_path):
    m = prism_mesh()
    assert m.n_cells == 2 and m.n_faces == 9
    shared = np.flatnonzero(m.face_cells[:, 1] >= 0)
    assert len(shared) == 1
    f = shared[0]
    signs = []
    for cid in m.face_cells[f]:
        signs.append(m.cell_face_signs[cid][m.cell_faces[cid] == f][0])
    assert sorted(signs) == [-1, 1]
    # survives a file round trip
    path = tmp_path / "prism.poly3"
    msh.write_poly3(m, path)
    m2 = msh.read_mesh(path)
    assert m2.n_cells == 2
    assert sum(m2.cell_volume) == pytest.approx(1.0)


def test_random_cells_validate():
    for m in (random_tet_mesh(), random_hex_mesh()):
        assert m.n_cells == 1
        assert closure_sum(m, 0) == pytest.approx(3 * m.cell_volume[0], rel=1e-10)


def test_corrupted_orientation_detected(cube1):
    coords = cube1.vertex_coords.copy()
    loops = cube1.face_loops.tolist()
    cells = cube1.cell_faces.tolist()
    m = msh.build_mesh(coords, loops, cells, validate=False)
    m.cell_face_signs[0][0] *= -1
    with pytest.raises(msh.MeshError):
        msh._validate(m)


def test_orientation_sign_requires_incidence(cube2):
    with pytest.raises(msh.MeshError, match="not on boundary"):
        other = [f for f in range(cube2.n_faces) if f not in cube2.cell_faces[0]][0]
        oracles.orientation_sign(cube2, 0, other)


def test_poly3_comments_and_whitespace(tmp_path, cube1):
    base = tmp_path / "c.poly3"
    msh.write_poly3(cube1, base)
    text = base.read_text().splitlines()
    decorated = ["# unit cube fixture", text[0] + "  # header"] + [
        ("   " + line + ("   # data" if i % 2 else "")) for i, line in
        enumerate(text[1:])]
    deco = tmp_path / "deco.poly3"
    deco.write_text("\n".join(decorated) + "\n\n")
    m = msh.read_mesh(deco)
    assert m.n_cells == 1 and m.cell_volume[0] == pytest.approx(1.0)
