"""Stacked set-up of DdrComplex against the per-entity reference assembly.

Faces and cells are built by groups of alike entities, each array a stack
along a leading entity axis.  Every operator array of every face and cell
built in a group must agree with the per-entity assembly of oracles.py to
1e-13 relative; translates placed from a built entity are compared in
test_congruence.py.  The stacked orthonormalisation sends only the Grams
that fail its conditioning check to the eigen fallback, and a singular
Gram names its entity.
"""

import numpy as np
import pytest

import oracles
from conftest import (assert_close, cube_pyramid_mesh, get_mesh,
                      jittered_kuhn_mesh, pentagon_prism_mesh)
from ddrns import operators, quadrature
from ddrns import polyspaces as ps
from ddrns.mesh import generate_cubic_mesh
from ddrns.operators import DdrComplex
from ddrns.spaces import DofVector, SpaceKind

FACE_OPS = ("grad_mat", "trace_mat", "curl_mat", "ttrace_mat", "uG_face",
            "serendipity_grad", "serendipity_curl", "gram")
CELL_OPS = ("grad_mat", "pot_grad", "curl_op", "pot_curl", "div_op",
            "pot_div", "uG", "uC", "convective_curl", "product_grad",
            "product_curl", "product_div", "phi_k", "tri_tensor",
            "serendipity_grad", "serendipity_curl", "gram")

MESHES = {"cubic": lambda: get_mesh("cubic", 2),
          "kuhn": lambda: get_mesh("tet", 1),
          "jittered_kuhn": jittered_kuhn_mesh,
          "pentagon_prism": pentagon_prism_mesh,
          "cube_pyramid": cube_pyramid_mesh}


def built(ctxs):
    """The contexts built in a group: the first member of each (group,
    row) pair, which the row's stacks were built from."""
    return [(i, ctx) for i, ctx in enumerate(ctxs)
            if ctx.group.ids[ctx.group.rep[ctx.row]] == i]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", list(MESHES))
def test_stacked_operators_match_per_entity_assembly(mesh, k):
    cx = DdrComplex(MESHES[mesh](), k)
    ref = oracles.per_entity_complex(cx)
    view = oracles.views(cx)
    for ctxs, refs, names in ((view.faces, ref.faces, FACE_OPS),
                              (view.cells, ref.cells, CELL_OPS)):
        for i, ctx in built(ctxs):
            for name in names:
                assert_close(getattr(ctx, name), getattr(refs[i], name))
            for l, basis in ctx.sca.items():
                assert_close(basis.coeff, refs[i].sca[l].coeff)
            for key, basis in ctx.sub.items():
                assert_close(basis.coeff, refs[i].sub[key].coeff)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", ["cubic", "kuhn", "pentagon_prism",
                                  "cube_pyramid"])
def test_global_matrices_match_per_entity_assembly(mesh, k):
    # each matrix scatters one stacked block per group; the reference
    # complex scatters one block per entity, each a group of one
    cx = DdrComplex(MESHES[mesh](), k)
    ref = oracles.per_entity_complex(cx)
    for build in (DdrComplex.gradient_matrix, DdrComplex.curl_matrix,
                  *[lambda c, kind=kind: c.gram_matrix(kind)
                    for kind in SpaceKind]):
        got, want = build(cx).tocsr(), build(ref).tocsr()
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert_close(got.data, want.data, 1e-14)


def potentials_by_cell(cx, kind, x):
    """The kind potential of the global DoFs x on each cell, by cell id,
    from the chunks of the global kernel, and the number of chunks."""
    out, chunks = [None] * cx.mesh.n_cells, 0
    for g, members, vals in cx.potential_chunks(kind, x):
        chunks += 1
        for c, v in zip(g.ids[members], vals):
            out[c] = v
    return out, chunks


@pytest.mark.parametrize("mesh,k", [
    *[(mesh, k) for mesh in MESHES for k in (0, 1, 2)],
    # 512 cells of 64 rule points: one group spans several chunks
    ("cubic8", 1)])
def test_potential_kernel_matches_per_entity_assembly(mesh, k):
    cx = DdrComplex(get_mesh("cubic", 8) if mesh == "cubic8"
                    else MESHES[mesh](), k)
    ref = oracles.per_entity_complex(cx)
    rng = np.random.default_rng(k)
    for kind in SpaceKind:
        lay = cx.layouts[kind]
        x = rng.standard_normal(lay.total_dim)
        (got, chunks), (want, _) = (potentials_by_cell(c, kind, x)
                                    for c in (cx, ref))
        if mesh == "cubic8":
            assert chunks > len(cx.cell_groups)
        for c in range(cx.mesh.n_cells):
            assert_close(got[c], want[c])
            if kind is SpaceKind.CURL:
                assert_close(cx.curl_potential_values(
                    c, x[lay.cell_indices(c)]), got[c])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", ["cubic", "jittered_kuhn", "pentagon_prism",
                                  "cube_pyramid"])
def test_appendix_norms_match_per_entity_reference(mesh, k):
    # the group pieces of every face and cell against the hand-written
    # per-entity norms, at random local vectors: each member alone, and
    # all members of a group in one call
    cx = DdrComplex(MESHES[mesh](), k)
    ref = oracles.per_entity_complex(cx)
    rng = np.random.default_rng(k)
    view = oracles.views(cx)
    for entities, groups, kind in ((view.faces, cx.face_groups, "face"),
                                   (view.cells, cx.cell_groups, "cell")):
        vs = [rng.standard_normal(e.n_curl) for e in entities]
        for s in (2.0, 4.0):
            for norm in ("component", "potential"):
                group_norms = getattr(cx, f"{norm}_norms")
                want = [getattr(oracles, f"{norm}_norm_{kind}")(ref, s, i, v)
                        for i, v in enumerate(vs)]
                for i, v in enumerate(vs):
                    assert oracles.member_norm(
                        group_norms, entities[i], s, v) == pytest.approx(
                            want[i], rel=1e-12)
                for g in groups:
                    got = group_norms(s, g, np.arange(len(g.ids)),
                                      np.array([vs[i] for i in g.ids]))
                    assert got == pytest.approx([want[i] for i in g.ids],
                                                rel=1e-12)


def _recording_pieces(monkeypatch, cx, calls):
    """Record the members and rule points of every pieces build of cx."""
    for name in ("_component_pieces", "_potential_pieces"):
        def recorded(g, members, build=getattr(cx, name)):
            pieces = build(g, members)
            calls.append((list(members), sum(w.size for _, w, _ in pieces)))
            return pieces
        monkeypatch.setattr(cx, name, recorded)


def test_group_norms_build_each_distinct_member_once(monkeypatch):
    cx = DdrComplex(get_mesh("cubic", 2), 1)
    g = cx.cell_groups[0]
    members = [0, 3, 0, 0, 5, 3]
    x = np.random.default_rng(4).standard_normal((len(members), g.n_curl))
    for norm in ("component", "potential"):
        calls = []
        _recording_pieces(monkeypatch, cx, calls)
        got = getattr(cx, f"{norm}_norms")(2.0, g, members, x)
        assert [m for c, _ in calls for m in c] == [0, 3, 5]
        want = [oracles.member_norm(getattr(cx, f"{norm}_norms"),
                                    cx.cells[g.ids[m]], 2.0, v)
                for m, v in zip(members, x)]
        assert got == pytest.approx(want, rel=1e-13)


def test_norm_chunks_count_the_slot_points(monkeypatch):
    # the boundary slots hold most of the points of a cell's pieces: each
    # build of pieces stays within CHUNK_POINTS, or holds one member
    cx = DdrComplex(get_mesh("cubic", 4), 1)
    calls = []
    _recording_pieces(monkeypatch, cx, calls)
    v = np.random.default_rng(5).standard_normal(
        cx.layouts[SpaceKind.CURL].total_dim)
    oracles.ls_curl_norm(cx, 2.0, DofVector(cx.layouts[SpaceKind.CURL], v))
    oracles.component_norm(cx, 2.0, DofVector(cx.layouts[SpaceKind.CURL], v))
    assert len(calls) > 2 * len(cx.cell_groups)
    for members, points in calls:
        assert points <= operators.CHUNK_POINTS or len(members) == 1


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", ["kuhn", "pentagon_prism"])
def test_stacked_edges_match_per_edge_build(mesh, k):
    cx = DdrComplex(MESHES[mesh](), k)
    for e, ectx in enumerate(oracles.views(cx).edges):
        ref = oracles.ReferenceEdge(cx.mesh, e, k, ectx.rule.exactness_degree)
        for name in ("gram", "skeleton", "deriv"):
            assert_close(getattr(ectx, name), getattr(ref, name))
        for l, basis in ectx.sca.items():
            assert_close(basis.coeff, ref.sca[l].coeff)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", list(MESHES))
def test_rule_stacks_match_one_id_rules(mesh, k):
    cx = DdrComplex(MESHES[mesh](), k)
    for kind in ("edge", "face", "cell"):
        for g in getattr(cx, f"{kind}_groups"):
            for i, e in enumerate(g.ids.tolist()):
                one = oracles.rule_for(cx.mesh, kind, e,
                                       g.rule.exactness_degree)
                assert np.array_equal(g.points[i], one.points), (kind, e)
                assert np.array_equal(g.weights[i], one.weights), (kind, e)


@pytest.mark.parametrize("family, n, k", [("cubic", 4, 0), ("tet", 2, 1)])
def test_each_rule_function_is_called_once_per_group(monkeypatch, family,
                                                     n, k):
    calls = dict.fromkeys(("edge", "face", "cell"), 0)
    for kind in calls:
        def counted(*args, kind=kind, rule=getattr(operators, f"{kind}_rule")):
            calls[kind] += 1
            return rule(*args)
        monkeypatch.setattr(operators, f"{kind}_rule", counted)
    cx = DdrComplex(get_mesh(family, n), k)
    assert calls == {kind: len(getattr(cx, f"{kind}_groups")) for kind in calls}


def test_a_complex_detects_parallelepipeds_once(monkeypatch):
    # the cell group keys detect them, and the cell rules reuse the corners
    calls = []
    detect = quadrature.parallelepipeds

    def counted(*args):
        calls.append(args)
        return detect(*args)

    for module in (operators, quadrature):
        monkeypatch.setattr(module, "parallelepipeds", counted)
    DdrComplex(generate_cubic_mesh(2), 0)
    assert len(calls) == 1


def test_jittered_tets_build_one_group_each():
    cx = DdrComplex(jittered_kuhn_mesh(), 1)
    view = oracles.views(cx)
    assert len({id(e.group) for e in view.edges}) == 1
    assert len({id(f.group) for f in view.faces}) == 1
    assert len({id(c.group) for c in cx.cells}) == 1
    assert [c.row for c in cx.cells] == list(range(cx.mesh.n_cells))


def test_cell_groups_follow_face_loop_lengths():
    cx = DdrComplex(cube_pyramid_mesh(), 1)
    faces = oracles.views(cx).faces
    assert len({id(f.group) for f in faces}) == 2     # quads, triangles
    assert cx.cells[0].group is not cx.cells[1].group


def _grams(n=5, size=4, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        A = rng.standard_normal((size, size))
        out.append(A @ A.T + size * np.eye(size))
    return np.array(out)


def test_only_the_ill_conditioned_gram_takes_the_fallback(monkeypatch):
    calls, eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(a.copy())
        return eigh(a, *args, **kwargs)

    grams = _grams()
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    grams[2] = q @ np.diag([1.0, 1e-3, 1e-6, 4e-13]) @ q.T
    grams[2] = 0.5 * (grams[2] + grams[2].T)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    C = ps._orthonormalise_gram(grams)
    assert len(calls) == 1 and np.array_equal(calls[0], grams[2])
    for i, g in enumerate(grams):
        tol = 1e-2 if i == 2 else 1e-13
        assert np.abs(C[i] @ g @ C[i].T - np.eye(4)).max() < tol
        if i != 2:
            # the others keep their Cholesky basis, as when alone
            np.testing.assert_allclose(C[i], ps._orthonormalise_gram(g),
                                       rtol=0, atol=1e-14)


def test_a_gram_without_a_factor_takes_the_fallback_alone(monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: (
        calls.append(a.shape), eigh(a, *args, **kwargs))[1])
    grams = _grams()
    grams[1] = np.diag([1.0, 1.0, 1.0, -1e-14])      # no Cholesky factor
    with pytest.raises(ps.BasisError) as err:
        ps._orthonormalise_gram(grams)
    assert err.value.index == 1
    assert calls == [(4, 4)]


def test_singular_gram_names_its_entity(monkeypatch):
    # a singular Gram in a group of faces raises with the face's id
    build = ps.build_subspace

    def failing(dim, selector, degree, gram):
        # a stack of more than 3 members: a face group of the mesh
        if selector == "Rc" and gram.ndim == 3 and len(gram) > 3:
            gram = gram.copy()
            gram[3] = 0.0
        return build(dim, selector, degree, gram)

    monkeypatch.setattr(operators.ps, "build_subspace", failing)
    mesh = jittered_kuhn_mesh()
    with pytest.raises(ps.BasisError, match=r"^face 3: Gram matrix"):
        DdrComplex(mesh, 1)


def test_cell_gram_summed_by_simplex_matches_one_product():
    # a group sums each cell's Gram block by block of its rule, so that the
    # monomials of one block per cell are held at a time (a jittered tet is
    # one tetrahedron, the pentagon prism 30, a cube one tensor block)
    for mesh in (jittered_kuhn_mesh(), pentagon_prism_mesh(),
                 get_mesh("cubic", 2)):
        cx = DdrComplex(mesh, 2)
        for c in oracles.views(cx).cells:
            assert_close(c.gram,
                         oracles.scalar_monomial_gram(c.geom, 4, c.rule),
                         1e-14)
