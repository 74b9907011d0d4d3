"""Translation classes of DdrComplex.

Faces and cells that are translates of each other, with the same local
numbering and orientations, share the operators and basis coefficients of
one context built from scratch.  A complex built that way must agree with
one whose every context is built from scratch.  Every basis depends on
the geometry only through the entity's monomial Gram, and translates have
the same Gram to rounding, so the operator arrays themselves must match.
Quantities that do not depend on the basis are compared as well: norms,
potentials at quadrature points and the errors of a solve.  The
from-scratch complex is the per-entity reference assembly of oracles.py.
"""

import numpy as np
import pytest

import oracles
from conftest import (assert_close, jittered_kuhn_mesh, pentagon_prism_mesh,
                      prism_mesh, random_hex_mesh)
from ddrns import operators, verify
from ddrns.mesh import build_mesh, generate_cubic_mesh, generate_tet_mesh
from ddrns.operators import DdrComplex
from ddrns.solutions import TrigSolution
from ddrns.solver import NavierStokesSolver, ProblemSpec, natural_bc
from ddrns.spaces import SpaceKind

RTOL = 1e-12


def from_scratch(cx: DdrComplex) -> DdrComplex:
    """A copy of cx whose face and cell contexts are all built from scratch,
    one entity at a time, by the per-entity reference assembly."""
    return oracles.per_entity_complex(cx)


def n_built(contexts, attr):
    """Number of contexts built from scratch: distinct (group, row) pairs
    of the contexts whose attr is a stacked array (a view hands out a
    fresh slice of its row on each read, so array ids do not tell).  The
    contexts of DdrComplex are read through their views."""
    assert all(isinstance(getattr(ctx, attr), np.ndarray) for ctx in contexts)
    return len({(id(ctx.group), ctx.row) for ctx in contexts})


def scalar_field(pts):
    x, y, z = pts.T
    return np.sin(1.3 * x + 0.4) * np.cos(0.7 * y) + z ** 3 - x * y * z


def vector_field(pts):
    x, y, z = pts.T
    return np.stack([np.sin(y + 0.3 * z), x * z ** 2 - np.cos(x),
                     np.exp(0.5 * x) * y], axis=-1)


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
            cx.potential_values(SpaceKind.DIV, view.group, [view.index],
                                wd.values[dl.cell_indices(c)][None])[0]
            for c, view in enumerate(cx.cells)]),
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
    assert n_built(oracles.views(cx).cells, "pot_curl") < mesh.n_cells
    assert n_built(ref.cells, "pot_curl") == mesh.n_cells

    got, want = basis_free_values(cx), basis_free_values(ref)
    for name in want:
        assert_close(got[name], want[name], RTOL)

    errs, its = trig_solve(cx)
    ref_errs, ref_its = trig_solve(ref)
    assert its == ref_its
    assert_close(errs, ref_errs, RTOL)


FACE_OPS = ("grad_mat", "trace_mat", "curl_mat", "ttrace_mat", "uG_face",
            "serendipity_grad")
CELL_OPS = ("pot_grad", "pot_curl", "pot_div", "uG", "uC", "convective_curl",
            "product_grad", "product_curl", "product_div", "phi_k",
            "tri_tensor")


@pytest.mark.parametrize("family,n,k", [
    ("cubic", 3, 0), ("cubic", 3, 1), ("cubic", 3, 2),
    ("tet", 2, 0), ("tet", 2, 1), ("tet", 2, 2)])
def test_operator_arrays_match_from_scratch(family, n, k):
    # every DoF basis is a Cholesky one of a fixed family, the same in both
    # builds to rounding
    mesh = generate_cubic_mesh(n) if family == "cubic" else generate_tet_mesh(n)
    cx = DdrComplex(mesh, k)
    ref = from_scratch(cx)
    view = oracles.views(cx)
    assert n_built(view.cells, "pot_curl") < mesh.n_cells
    rtol = 1e-13 if k == 0 else 1e-12
    for got, want in zip(view.faces, ref.faces):
        for name in FACE_OPS:
            assert_close(getattr(got, name), getattr(want, name), rtol)
    for got, want in zip(view.cells, ref.cells):
        for name in CELL_OPS:
            assert_close(getattr(got, name), getattr(want, name), rtol)
        np.testing.assert_array_equal(got.rule.points, want.rule.points)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cubic_meshes_build_few_contexts(n):
    view = oracles.views(DdrComplex(generate_cubic_mesh(n), 0))
    assert n_built(view.faces, "grad_mat") <= 10
    assert n_built(view.cells, "pot_curl") <= 4


def test_placed_context_binds_its_own_geometry():
    view = oracles.views(DdrComplex(generate_cubic_mesh(2), 1))
    for ctxs, entity in ((view.faces, "face"), (view.cells, "cell")):
        for ctx in ctxs:
            ent = getattr(ctx, entity)
            np.testing.assert_array_equal(ctx.geom.origin, ent.anchor)
            for basis in (*ctx.sca.values(), ctx.vb, *ctx.sub.values()):
                assert basis.geom is ctx.geom


def test_translates_read_the_row_of_their_class():
    # a translate holds no copy: its arrays are its class's row of the
    # group's stacks, the one its first member reads
    view = oracles.views(DdrComplex(generate_cubic_mesh(2), 1))
    translates = 0
    for ctxs, name in ((view.faces, "grad_mat"), (view.cells, "pot_curl")):
        for ctx in ctxs:
            first = ctxs[ctx.group.ids[ctx.group.rep[ctx.row]]]
            translates += first is not ctx
            assert np.shares_memory(getattr(ctx, name), getattr(first, name))
            assert np.shares_memory(getattr(ctx, name),
                                    getattr(ctx.group, name)[ctx.row])
    assert translates > 0


def test_cells_listing_faces_in_another_order():
    # a translate whose face list is permuted orders its quadrature points
    # differently; the placed context must evaluate on its own rule
    base = generate_cubic_mesh(2)
    rng = np.random.default_rng(2)
    mesh = build_mesh(base.vertex_coords, base.face_loops.tolist(),
                      [list(rng.permutation(c)) for c in base.cell_faces.tolist()])
    cx = DdrComplex(mesh, 1)
    assert n_built(oracles.views(cx).cells, "pot_curl") < mesh.n_cells
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name], RTOL)


def test_cells_on_faces_of_split_classes_still_share(monkeypatch):
    # rounding can put two translated faces in different classes; their
    # bases agree to rounding, so cells on them may share operators.  Here
    # the faces above z = 1/2 get classes of their own, and the cells of
    # the top layer, which differ from the others only in the classes of
    # their faces, are still placed from one built cell.
    face_keys = operators._face_keys
    monkeypatch.setattr(operators, "_face_keys", lambda mesh, fids: (
        np.column_stack([face_keys(mesh, fids),
                         mesh.face_anchor[fids, 2] > 0.5])))
    cx = DdrComplex(generate_cubic_mesh(3), 2)
    cells = oracles.views(cx).cells
    assert n_built(cells, "pot_curl") < cx.mesh.n_cells
    lower = [c for c in cells if c.cell.anchor[2] < 2 / 3]
    assert n_built(cells, "pot_curl") == n_built(lower, "pot_curl")
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name], RTOL)


@pytest.mark.parametrize("make", [random_hex_mesh, pentagon_prism_mesh,
                                  jittered_kuhn_mesh])
def test_non_congruent_meshes_share_nothing(make):
    mesh = make()
    view = oracles.views(DdrComplex(mesh, 1))
    assert n_built(view.faces, "grad_mat") == mesh.n_faces
    assert n_built(view.cells, "pot_curl") == mesh.n_cells


def test_prism_mesh_shares_only_translated_faces():
    # the two prisms are mirror images, not translates; the triangles at
    # z = 0 and z = 1 of each prism are translates with the same numbering
    mesh = prism_mesh()
    cx = DdrComplex(mesh, 1)
    view = oracles.views(cx)
    assert n_built(view.cells, "pot_curl") == 2
    owners = {}
    for f, fctx in enumerate(view.faces):
        owners.setdefault((id(fctx.group), fctx.row), []).append(f)
    shared = sorted(fs for fs in owners.values() if len(fs) > 1)
    assert shared == [[1, 2], [5, 6]]
    got, want = basis_free_values(cx), basis_free_values(from_scratch(cx))
    for name in want:
        assert_close(got[name], want[name], RTOL)
