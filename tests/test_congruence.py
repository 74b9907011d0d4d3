"""Translation classes of DdrComplex.

Faces and cells that are translates of each other, with the same local
numbering and orientations, share the operators and basis coefficients of
one context built from scratch.  A complex built that way must agree with
one whose every context is built from scratch.  At k >= 1 the DoFs are
coefficients in SVD-chosen bases, which differ between the two builds, so
the comparison reads quantities that do not depend on the basis: norms,
potentials at quadrature points and the errors of a solve.  At k = 0 every
basis is fixed and the operator arrays themselves must match.
"""

import copy

import numpy as np
import pytest

from conftest import pentagon_prism_mesh, prism_mesh, random_hex_mesh
from ddrns import operators, verify
from ddrns.mesh import build_mesh, generate_cubic_mesh, generate_tet_mesh
from ddrns.operators import CellContext, DdrComplex, FaceContext
from ddrns.solutions import TrigSolution
from ddrns.solver import NavierStokesSolver, ProblemSpec, natural_bc
from ddrns.spaces import SpaceKind

RTOL = 1e-12


def from_scratch(cx: DdrComplex) -> DdrComplex:
    """A copy of cx whose face and cell contexts are all built from scratch."""
    mesh, k = cx.mesh, cx.k
    ref = copy.copy(cx)
    face_degree = cx.faces[0].rule.exactness_degree
    ref.faces = [FaceContext(mesh, f, k, cx.faces[f].ell, face_degree, cx.edges)
                 for f in range(mesh.n_faces)]
    ref.cells = [CellContext(mesh, c, k, cx.cells[c].ell, cx.cell_degree,
                             cx.edges, ref.faces, cx.layouts)
                 for c in range(mesh.n_cells)]
    ref._gram_cache, ref._op_cache = {}, {}
    return ref


def n_built(contexts, attr):
    """Number of contexts built from scratch: distinct shared arrays."""
    return len({id(getattr(ctx, attr)) for ctx in contexts})


def jittered_kuhn_mesh(n=2, seed=5):
    """Kuhn tets with every coordinate strictly inside (0, 1) moved by up to
    0.15 / n, so no two faces or cells are translates."""
    base = generate_tet_mesh(n)
    rng = np.random.default_rng(seed)
    coords = base.vertex_coords.copy()
    free = (coords > 1e-12) & (coords < 1 - 1e-12)
    coords[free] += rng.uniform(-0.15 / n, 0.15 / n, size=int(free.sum()))
    return build_mesh(coords, [f.vertex_loop for f in base.faces],
                      [c.faces for c in base.cells])


def scalar_field(pts):
    x, y, z = pts.T
    return np.sin(1.3 * x + 0.4) * np.cos(0.7 * y) + z ** 3 - x * y * z


def vector_field(pts):
    x, y, z = pts.T
    return np.stack([np.sin(y + 0.3 * z), x * z ** 2 - np.cos(x),
                     np.exp(0.5 * x) * y], axis=-1)


def assert_close(a, b, rtol=RTOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    if b.size == 0:
        return
    scale = max(np.max(np.abs(b)), 1e-300)
    assert np.max(np.abs(a - b)) <= rtol * scale


def basis_free_values(cx: DdrComplex) -> dict:
    """Quantities of cx that do not depend on the choice of local bases."""
    qg = cx.interpolate_grad(scalar_field)
    vc = cx.interpolate_curl(vector_field)
    wd = cx.interpolate_div(vector_field)
    cl, dl = cx.layouts[SpaceKind.CURL], cx.layouts[SpaceKind.DIV]
    n = cx.mesh.n_cells
    return {
        "norm_grad": cx.norm(SpaceKind.GRAD, qg),
        "norm_curl": cx.norm(SpaceKind.CURL, vc),
        "norm_div": cx.norm(SpaceKind.DIV, wd),
        "norm_uG": cx.norm(SpaceKind.CURL, cx.global_gradient(qg)),
        "norm_uC": cx.norm(SpaceKind.DIV, cx.global_curl(vc)),
        "curl_potential": np.concatenate([
            cx.curl_potential_values(c, vc.values[cl.cell_indices(c)])
            for c in range(n)]),
        "div_potential": np.concatenate([
            cx.div_potential_values(c, wd.values[dl.cell_indices(c)])
            for c in range(n)]),
    }


def trig_solve(cx: DdrComplex):
    sol = TrigSolution()
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
    res = NavierStokesSolver(cx, spec).solve()
    rep = verify.compute_errors(cx, res.u, res.p, sol)
    return ([rep.err_u_discrete, rep.err_u_potential, rep.err_p_discrete,
             rep.err_p_potential], res.diagnostics.iterations)


@pytest.mark.parametrize("family,n,k", [("cubic", 3, 0), ("cubic", 3, 1),
                                        ("cubic", 3, 2), ("tet", 2, 1)])
def test_shared_complex_matches_from_scratch(family, n, k):
    mesh = generate_cubic_mesh(n) if family == "cubic" else generate_tet_mesh(n)
    cx = DdrComplex(mesh, k)
    ref = from_scratch(cx)
    assert n_built(cx.cells, "pot_curl") < mesh.n_cells
    assert n_built(ref.cells, "pot_curl") == mesh.n_cells

    got, want = basis_free_values(cx), basis_free_values(ref)
    for name in want:
        assert_close(got[name], want[name])

    errs, its = trig_solve(cx)
    ref_errs, ref_its = trig_solve(ref)
    assert its == ref_its
    assert_close(errs, ref_errs)


FACE_OPS = ("grad_mat", "trace_mat", "curl_mat", "ttrace_mat", "uG_face",
            "serendipity_grad")
CELL_OPS = ("pot_grad", "pot_curl", "pot_div", "uG", "uC", "convective_curl",
            "product_grad", "product_curl", "product_div", "phi_k",
            "tri_tensor")


def test_k0_operator_arrays_match_from_scratch():
    # at k = 0 every DoF basis is a Cholesky one, the same in both builds
    cx = DdrComplex(generate_cubic_mesh(3), 0)
    ref = from_scratch(cx)
    for got, want in zip(cx.faces, ref.faces):
        for name in FACE_OPS:
            assert_close(getattr(got, name), getattr(want, name), 1e-13)
    for got, want in zip(cx.cells, ref.cells):
        for name in CELL_OPS:
            assert_close(getattr(got, name), getattr(want, name), 1e-13)
        np.testing.assert_array_equal(got.rule.points, want.rule.points)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cubic_meshes_build_few_contexts(n):
    cx = DdrComplex(generate_cubic_mesh(n), 0)
    assert n_built(cx.faces, "grad_mat") <= 10
    assert n_built(cx.cells, "pot_curl") <= 4


def test_placed_context_binds_its_own_geometry():
    cx = DdrComplex(generate_cubic_mesh(2), 1)
    for ctxs, entity in ((cx.faces, "face"), (cx.cells, "cell")):
        for ctx in ctxs:
            ent = getattr(ctx, entity)
            np.testing.assert_array_equal(ctx.geom.origin, ent.anchor)
            for basis in (*ctx.sca.values(), ctx.vb, *ctx.sub.values()):
                assert basis.geom is ctx.geom


def test_cells_listing_faces_in_another_order():
    # a translate whose face list is permuted orders its quadrature points
    # differently; the placed context must evaluate on its own rule
    base = generate_cubic_mesh(2)
    rng = np.random.default_rng(2)
    mesh = build_mesh(base.vertex_coords, [f.vertex_loop for f in base.faces],
                      [list(rng.permutation(c.faces)) for c in base.cells])
    cx = DdrComplex(mesh, 1)
    assert n_built(cx.cells, "pot_curl") < mesh.n_cells
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name])


def test_cells_on_faces_of_split_classes_stay_apart(monkeypatch):
    # rounding can put two translated faces in different classes, whose
    # bases differ at k >= 2; cells on them must then not share operators.
    # Here the faces above z = 1/2 get classes of their own, so the cells
    # of the top layer differ from the others in the classes of their
    # faces only.
    face_key = operators._face_key
    monkeypatch.setattr(operators, "_face_key", lambda mesh, f: (
        face_key(mesh, f), mesh.faces[f].anchor[2] > 0.5))
    cx = DdrComplex(generate_cubic_mesh(3), 2)
    assert n_built(cx.cells, "pot_curl") < cx.mesh.n_cells
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name])


@pytest.mark.parametrize("make", [random_hex_mesh, pentagon_prism_mesh,
                                  jittered_kuhn_mesh])
def test_non_congruent_meshes_share_nothing(make):
    mesh = make()
    cx = DdrComplex(mesh, 1)
    assert n_built(cx.faces, "grad_mat") == mesh.n_faces
    assert n_built(cx.cells, "pot_curl") == mesh.n_cells


def test_prism_mesh_shares_only_translated_faces():
    # the two prisms are mirror images, not translates; the triangles at
    # z = 0 and z = 1 of each prism are translates with the same numbering
    mesh = prism_mesh()
    cx = DdrComplex(mesh, 1)
    assert n_built(cx.cells, "pot_curl") == 2
    owners = {}
    for f, fctx in enumerate(cx.faces):
        owners.setdefault(id(fctx.grad_mat), []).append(f)
    shared = sorted(fs for fs in owners.values() if len(fs) > 1)
    assert shared == [[1, 2], [5, 6]]
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name])
