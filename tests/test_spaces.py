import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from ddrns import polyspaces as ps
from ddrns.spaces import (BoundaryClassification, DofLayout, DofVector,
                          SpaceKind, boundary_subspace_mask)
from conftest import get_complex, get_mesh, prism_mesh

import oracles


def dim_grad(mesh, k):
    return (mesh.n_vertices + mesh.n_edges * k
            + mesh.n_faces * ps.dim_poly(2, k - 1)
            + mesh.n_cells * ps.dim_poly(3, k - 1))


def dim_curl(mesh, k):
    face = ps.subspace_dim(2, "R", k - 1) + ps.dim_poly(2, k - 1)
    cell = ps.subspace_dim(3, "R", k - 1) + ps.dim_poly(3, k - 1)
    return mesh.n_edges * (k + 1) + mesh.n_faces * face + mesh.n_cells * cell


def dim_div(mesh, k):
    cell = ps.subspace_dim(3, "G", k - 1) + ps.subspace_dim(3, "Gc", k)
    return mesh.n_faces * ps.dim_poly(2, k) + mesh.n_cells * cell


@pytest.mark.parametrize("family,n", [("cubic", 1), ("cubic", 2), ("tet", 1)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dof_counts(family, n, k):
    mesh = get_mesh(family, n)
    for kind, ref in ((SpaceKind.GRAD, dim_grad), (SpaceKind.CURL, dim_curl),
                      (SpaceKind.DIV, dim_div)):
        lay = DofLayout(mesh, kind, k)
        assert lay.total_dim == ref(mesh, k)


def test_k0_special_shapes(cube1):
    # lowest order: GRAD = vertices, CURL = edges, DIV = faces
    assert DofLayout(cube1, SpaceKind.GRAD, 0).total_dim == 8
    assert DofLayout(cube1, SpaceKind.CURL, 0).total_dim == 12
    assert DofLayout(cube1, SpaceKind.DIV, 0).total_dim == 6


def test_restrict_roundtrip(cube2):
    rng = np.random.default_rng(0)
    for kind in SpaceKind:
        lay = DofLayout(cube2, kind, 1)
        vec = DofVector(lay, rng.standard_normal(lay.total_dim))
        seen = np.zeros(lay.total_dim, dtype=bool)
        # the cubes have alike faces: one table holds every cell's row
        table = lay.cell_table(np.arange(cube2.n_cells))
        for c in range(cube2.n_cells):
            idx = lay.cell_indices(c)
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_array_equal(vec.values[table[c]],
                                          vec.values[idx])
            seen[idx] = True
        assert seen.all()  # every DoF attached to some cell


def test_dofs_of_no_entities(cube1):
    # an empty id list, as the essential entities under natural conditions,
    # takes no DoFs and still indexes
    for kind in SpaceKind:
        lay = DofLayout(cube1, kind, 1)
        for dim, block in enumerate((lay.vertex_block, lay.edge_block,
                                     lay.face_block, lay.cell_block)):
            idx = lay.dofs(dim, [])
            assert idx.dtype.kind == "i" and idx.shape == (0, block)
            assert np.zeros(lay.total_dim)[idx].shape == (0, block)


def test_shared_blocks_two_cells():
    m = prism_mesh()
    lay = DofLayout(m, SpaceKind.CURL, 1)
    shared_face = np.flatnonzero(m.face_cells[:, 1] >= 0)[0]
    i0 = set(lay.cell_indices(0))
    i1 = set(lay.cell_indices(1))
    shared = i0 & i1
    assert set(lay.dofs(2, shared_face)) <= shared
    # shared edges contribute too
    es = set(m.face_edges[shared_face].tolist())
    for e in es:
        assert set(lay.dofs(1, e)) <= shared


# [vertex_block, edge_block, face_subsizes, cell_subsizes] of each kind at
# k = 0..3 on the cubic mesh n=1 in DDR mode, which a new way of numbering
# the DoF blocks must keep
PINNED_BLOCKS = {
    SpaceKind.GRAD: [[1, 0, [0], [0]], [1, 1, [1], [1]], [1, 2, [3], [4]],
                     [1, 3, [6], [10]]],
    SpaceKind.CURL: [[0, 1, [0, 0], [0, 0]], [0, 2, [2, 1], [3, 1]],
                     [0, 3, [5, 3], [11, 4]], [0, 4, [9, 6], [26, 10]]],
    SpaceKind.DIV: [[0, 0, [1], [0, 0]], [0, 0, [3], [3, 3]],
                    [0, 0, [6], [9, 11]], [0, 0, [10], [19, 26]]]}


@pytest.mark.parametrize("kind", list(SpaceKind))
def test_block_sizes_are_pinned(cube1, kind):
    layouts = [DofLayout(cube1, kind, k) for k in range(4)]
    assert [[lay.vertex_block, lay.edge_block, lay.face_subsizes,
             lay.cell_subsizes] for lay in layouts] == PINNED_BLOCKS[kind]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_sizes_are_the_dimensions_of_the_moment_bases(k):
    # DofLayout.spaces names the space of each block; every group builds
    # that space's basis, whose dimension is the block size
    cx = get_complex("tet", 1, k)
    for kind, lay in cx.layouts.items():
        for dim, groups, sizes in ((1, cx.edge_groups, [lay.edge_block]),
                                   (2, cx.face_groups, lay.face_subsizes),
                                   (3, cx.cell_groups, lay.cell_subsizes)):
            for g in groups:
                dims = [g.sca[l].dim if sel == "P" else g.sub[sel, l].dim
                        for sel, l in lay.spaces[dim]]
                assert (sum(dims) == sizes[0] if dim == 1 else dims == sizes)


def test_boundary_masks_cube(cube1):
    cls = BoundaryClassification.of_tags(cube1, range(6), ["natural"] * 6)
    for kind in SpaceKind:
        mask = boundary_subspace_mask(DofLayout(cube1, kind, 0), cls)
        assert mask.sum() == 0

    cls = BoundaryClassification.of_tags(cube1, range(6), ["essential"] * 6)
    assert boundary_subspace_mask(DofLayout(cube1, SpaceKind.GRAD, 0),
                                  cls).sum() == 8
    assert boundary_subspace_mask(DofLayout(cube1, SpaceKind.CURL, 0),
                                  cls).sum() == 12
    assert boundary_subspace_mask(DofLayout(cube1, SpaceKind.DIV, 0),
                                  cls).sum() == 0


def test_boundary_mask_mixed_counts():
    # the pressure-patch region of the mixed test on the n=4 Cartesian mesh:
    # one boundary face, its 4 edges, its 4 vertices (hand count)
    mesh = get_mesh("cubic", 4)
    fids = mesh.boundary_faces().tolist()
    cls = BoundaryClassification.of_tags(mesh, fids, [
        "essential" if abs(a[0]) < 1e-12 and a[1] < 0.25 and a[2] < 0.25
        else "natural" for a in mesh.face_anchor[fids]])
    assert len(cls.essential_faces) == 1
    assert len(cls.essential_edges) == 4
    assert len(cls.essential_vertices) == 4
    k = 1
    g = boundary_subspace_mask(DofLayout(mesh, SpaceKind.GRAD, k), cls)
    assert g.sum() == 4 + 4 * k + ps.dim_poly(2, k - 1)
    c = boundary_subspace_mask(DofLayout(mesh, SpaceKind.CURL, k), cls)
    assert c.sum() == 4 * (k + 1) + ps.subspace_dim(2, "R", k - 1) \
        + ps.dim_poly(2, k - 1)


def test_bad_layout_args(cube1):
    with pytest.raises(ValueError):
        DofLayout(cube1, SpaceKind.GRAD, -1)
    lay = DofLayout(cube1, SpaceKind.GRAD, 0)
    with pytest.raises(ValueError):
        DofVector(lay, np.zeros(3))


# -- interpolators (live on the complex) -------------------------------------

def test_interpolate_constant_grad():
    cx = get_complex("cubic", 1, 1)
    iq = cx.interpolate_grad(lambda pts: np.ones(len(pts)))
    assert np.allclose(iq.values[:8], 1.0)
    # moment blocks carry the projections of 1: reconstructing on an edge
    ectx = oracles.views(cx).edges[0]
    lay = cx.layouts[SpaceKind.GRAD]
    vals = ectx.sca[0].eval(ectx.rule.points) @ iq.values[lay.dofs(1, 0)]
    assert np.allclose(vals, 1.0)


def test_interpolate_linear_k0(cube1):
    cx = get_complex("cubic", 1, 0)
    iq = cx.interpolate_grad(lambda pts: pts[:, 0] + 2 * pts[:, 1])
    assert iq.layout.total_dim == 8  # vertex values only at k = 0
    ref = cube1.vertex_coords[:, 0] + 2 * cube1.vertex_coords[:, 1]
    np.testing.assert_allclose(iq.values, ref)


def test_interpolate_edge_moments_vs_quad_oracle():
    cx = get_complex("cubic", 1, 1)
    fun = lambda pts: np.sin(2 * np.pi * pts[:, 0])
    iq = cx.interpolate_grad(fun)
    lay = cx.layouts[SpaceKind.GRAD]
    # pick an edge along x: moment vs adaptive 1D quadrature oracle
    eid = np.flatnonzero(np.abs(cx.mesh.edge_tangent[:, 0]) > 0.9)[0]
    tangent, length = cx.mesh.edge_tangent[eid], cx.mesh.edge_length[eid]
    a = cx.mesh.vertex_coords[cx.mesh.edge_vertices[eid, 0]]
    ectx = oracles.views(cx).edges[eid]
    phi0 = ectx.sca[0]

    def integrand(s):
        p = a + s * tangent
        return np.sin(2 * np.pi * p[0]) * phi0.eval(p[None, :])[0, 0]

    ref, _ = scipy_quad(integrand, 0.0, length, epsabs=1e-13)
    assert iq.values[lay.dofs(1, eid)][0] == pytest.approx(ref, abs=1e-9)


def test_interpolate_curl_constant(cube1):
    cx = get_complex("cubic", 1, 0)
    cvec = np.array([0.3, -0.2, 0.9])
    iv = cx.interpolate_curl(lambda pts: np.tile(cvec, (len(pts), 1)))
    lay = cx.layouts[SpaceKind.CURL]
    for e, ectx in enumerate(oracles.views(cx).edges):
        vals = ectx.sca[0].eval(ectx.rule.points) @ iv.values[lay.dofs(1, e)]
        np.testing.assert_allclose(vals, cvec @ ectx.edge.tangent, atol=1e-14)


def test_interpolate_div_flux_oracle(cube1):
    cx = get_complex("cubic", 1, 0)
    iw = cx.interpolate_div(lambda pts: pts)  # w = (x, y, z)
    lay = cx.layouts[SpaceKind.DIV]
    for f, fctx in enumerate(oracles.views(cx).faces):
        vals = fctx.sca[0].eval(fctx.rule.points) @ iw.values[lay.dofs(2, f)]
        # mean of x.n on a planar face
        ref = cx.mesh.face_anchor[f] @ cx.mesh.face_normal[f]
        np.testing.assert_allclose(vals, ref, atol=1e-13)


def test_interpolate_div_sign_convention(cube1):
    cx = get_complex("cubic", 1, 0)
    lay = cx.layouts[SpaceKind.DIV]
    iw = cx.interpolate_div(lambda pts: np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
    for f, fctx in enumerate(oracles.views(cx).faces):
        vals = fctx.sca[0].eval(fctx.rule.points) @ iw.values[lay.dofs(2, f)]
        np.testing.assert_allclose(vals, cx.mesh.face_normal[f, 2], atol=1e-14)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_interpolation_linearity(alpha, beta):
    cx = get_complex("cubic", 1, 1)
    f = lambda pts: np.sin(pts[:, 0]) + pts[:, 1] ** 2
    g = lambda pts: np.cos(pts[:, 2]) * pts[:, 0]
    lhs = cx.interpolate_grad(lambda pts: alpha * f(pts) + beta * g(pts))
    rhs = alpha * cx.interpolate_grad(f).values + beta * cx.interpolate_grad(g).values
    scale = 1 + abs(alpha) + abs(beta)
    assert np.abs(lhs.values - rhs).max() < 1e-12 * scale
