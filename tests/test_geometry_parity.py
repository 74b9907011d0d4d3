"""The batched mesh geometry and quadrature rules against the per-entity
references of `oracles`: ids, loops, signs and incidence exactly equal,
float fields within 1e-15 relative, rule points and weights bit-identical.
The mesh arrays are read entity by entity through `oracles` records."""

import numpy as np
import pytest

from ddrns import mesh as msh
from ddrns import quadrature as quad
from ddrns.operators import _cell_keys, _face_keys
from conftest import (get_mesh, jittered_kuhn_mesh, pentagon_prism_mesh,
                      prism_mesh, random_hex_mesh, random_tet_mesh)

import oracles

FLOAT_RTOL = 1e-15


MESHES = {
    "cubic2": lambda: get_mesh("cubic", 2),
    "kuhn2": lambda: get_mesh("tet", 2),
    "prism": prism_mesh,
    "pentagon_prism": pentagon_prism_mesh,
    "random_hex": random_hex_mesh,
    "random_tet": random_tet_mesh,
    "jittered_kuhn2": jittered_kuhn_mesh,
}


def assert_close(a, b, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape, what
    scale = np.max(np.abs(b))
    assert np.max(np.abs(a - b)) <= FLOAT_RTOL * scale, what


@pytest.mark.parametrize("name", MESHES)
def test_geometry_matches_per_entity_reference(name):
    m = MESHES[name]()
    edges, faces, cells = oracles.reference_geometry(
        m.vertex_coords, m.face_loops.tolist(), m.cell_faces.tolist())
    assert len(edges) == m.n_edges
    rec = oracles.records(m)
    for e, r in zip(rec.edges, edges):
        assert (e.id, tuple(e.vertices)) == (r.id, r.vertices)
        for field in ("tangent", "length", "midpoint"):
            assert_close(getattr(e, field), getattr(r, field), f"edge {e.id} {field}")
    for f, r in zip(rec.faces, faces):
        assert (f.id, f.vertex_loop, f.edges, f.edge_signs, f.cells, f.on_boundary) \
            == (r.id, r.vertex_loop, r.edges, r.edge_signs, r.cells, r.on_boundary)
        for field in ("edge_normals", "normal", "anchor", "diameter", "area", "frame"):
            assert_close(getattr(f, field), getattr(r, field), f"face {f.id} {field}")
    for c, r in zip(rec.cells, cells):
        assert (c.id, c.faces, c.face_signs, c.edge_ids, c.vertex_ids) \
            == (r.id, r.faces, r.face_signs, r.edge_ids, r.vertex_ids)
        for field in ("anchor", "diameter", "volume"):
            assert_close(getattr(c, field), getattr(r, field), f"cell {c.id} {field}")


@pytest.mark.parametrize("name", MESHES)
def test_rules_bit_identical_to_per_simplex_reference(name):
    m = MESHES[name]()
    for degree in range(10):
        for kind, n in (("face", m.n_faces), ("cell", m.n_cells)):
            for i in range(n):
                rule = oracles.rule_for(m, kind, i, degree)
                pts, w = oracles.reference_rule(m, kind, i, degree)
                assert np.array_equal(rule.points, pts), (kind, i, degree)
                assert np.array_equal(rule.weights, w), (kind, i, degree)


def test_stacked_simplices_match_one_at_a_time():
    rng = np.random.default_rng(2)
    tris, tets = rng.uniform(-1, 1, (5, 3, 3)), rng.uniform(-1, 1, (5, 4, 3))
    for degree in (0, 3, 8):
        pts, w = quad.triangle_rule(tris, degree)
        ref = [oracles.reference_triangle_rule(t, degree) for t in tris]
        assert np.array_equal(pts, np.concatenate([p for p, _ in ref]))
        assert np.array_equal(w, np.concatenate([x for _, x in ref]))
        pts, w = quad.tet_rule(tets, degree)
        ref = [oracles.reference_tet_rule(t, degree) for t in tets]
        assert np.array_equal(pts, np.concatenate([p for p, _ in ref]))
        assert np.array_equal(w, np.concatenate([x for _, x in ref]))


@pytest.mark.parametrize("name", MESHES)
def test_regularity_ratio_matches_per_cell_reference(name):
    m = MESHES[name]()
    assert m.regularity_ratio() == oracles.regularity_ratio(m)


def test_cubic_n8_translation_classes():
    m = msh.generate_cubic_mesh(8)
    face_keys = _face_keys(m, range(m.n_faces))
    cell_keys = _cell_keys(m, range(m.n_cells))
    assert (len(np.unique(face_keys, axis=0)),
            len(np.unique(cell_keys, axis=0))) == (5, 4)
