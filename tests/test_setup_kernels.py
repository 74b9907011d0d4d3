"""The set-up kernels of DdrComplex against their references in oracles.py.

The inner products and moment tensors are reshaped matmuls; they must
agree with one optimised ``np.einsum`` to rounding, also on blocks with no
rows (empty subspaces at k = 0).  Every subspace basis must be
L2-orthonormal and span its generating family.  The interpolators call
the field once per entity kind and must agree with the per-entity loops.
"""

import numpy as np
import pytest

import oracles
from conftest import (assert_close, get_mesh, jittered_kuhn_mesh,
                      pentagon_prism_mesh, random_tet_mesh)
from ddrns import polyspaces as ps
from ddrns.operators import DdrComplex, _triple_moments
from ddrns.solutions import TrigSolution
from ddrns.spaces import SpaceKind

RNG_SEED = 20261018


@pytest.mark.parametrize("ncomp", [2, 3])
def test_vector_inner_matches_einsum(ncomp):
    rng = np.random.default_rng(RNG_SEED + ncomp)
    for _ in range(40):
        na, nb = rng.integers(0, 8, size=2)
        ma, mb = rng.integers(1, 12, size=2)
        M = rng.standard_normal((12, 12))
        gram = M @ M.T
        A = rng.standard_normal((na, ma, ncomp))
        B = rng.standard_normal((nb, mb, ncomp))
        ref = oracles.einsum_vector_inner(gram, A, B)
        assert_close(ps.vector_inner(gram, A, B), ref)


def test_vector_inner_on_empty_blocks():
    rng = np.random.default_rng(RNG_SEED)
    gram = np.eye(10)
    for A, B in [(np.zeros((0, 6, 2)), rng.standard_normal((4, 10, 2))),
                 (rng.standard_normal((3, 6, 3)), np.zeros((0, 10, 3))),
                 (np.zeros((0, 1, 3)), np.zeros((0, 4, 3)))]:
        out = ps.vector_inner(gram, A, B)
        assert out.shape == (len(A), len(B))
        assert not out.any()


def test_triple_moments_match_einsum():
    rng = np.random.default_rng(RNG_SEED)
    for npts, n in [(1, 1), (7, 4), (40, 10), (5, 0), (960, 4)]:
        phi = rng.standard_normal((npts, n))
        w = rng.uniform(0.1, 1.0, npts)
        assert_close(_triple_moments(w, phi),
                     oracles.einsum_triple_moments(w, phi))


def test_sampler_matches_eval():
    mesh = pentagon_prism_mesh()
    view = oracles.views(DdrComplex(mesh, 2))
    cctx = view.cells[0]
    sample = oracles.Sampler(cctx.geom, 4)
    for fctx in view.faces:
        for basis in (cctx.sca[1], cctx.sca[3], cctx.vb, cctx.sub["R", 2]):
            assert_close(sample(basis, fctx.rule),
                         basis.eval(fctx.rule.points), 1e-14)
    # a view hands out a fresh rule on each read; the sampler caches by rule
    rule = view.faces[0].rule
    assert sample.monomials(rule) is sample.monomials(rule)


SUBSPACE_MESHES = {"cubic1": lambda: get_mesh("cubic", 1),
                   "kuhn1": lambda: get_mesh("tet", 1),
                   "pentagon_prism": pentagon_prism_mesh,
                   "random_tet": random_tet_mesh}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", list(SUBSPACE_MESHES))
def test_subspace_bases_are_orthonormal_and_span_their_family(mesh, k):
    """Every subspace basis of every face and cell, sampled at the entity's
    rule points: L2-orthonormal, and its L2 projection reproduces each
    member of the unit generating family."""
    view = oracles.views(DdrComplex(SUBSPACE_MESHES[mesh](), k))
    for ctx in (*view.faces, *view.cells):
        w = ctx.rule.weights
        mono = oracles.Sampler(ctx.geom, k + 2).monomials(ctx.rule)
        for (selector, degree), sub in ctx.sub.items():
            unit = ps._unit_family(ctx.geom.dim, selector, degree)
            assert sub.dim == ps.subspace_dim(ctx.geom.dim, selector, degree)
            if not len(unit):
                assert sub.dim == 0
                continue
            phi = sub.values(mono)
            gram = np.einsum("p,pbc,pdc->bd", w, phi, phi)
            assert np.abs(gram - np.eye(sub.dim)).max() <= 1e-10
            fam = ps.VectorBasis(max(degree, 0), ctx.geom.dim,
                                 unit).values(mono)
            coords = np.einsum("p,pfc,pbc->fb", w, fam, phi)
            resid = fam - np.einsum("fb,pbc->pfc", coords, phi)
            # squared L2 norms: the residual is at most 1e-10 of the member
            assert np.all(np.einsum("p,pfc,pfc->f", w, resid, resid)
                          <= 1e-20 * np.einsum("p,pfc,pfc->f", w, fam, fam))


def test_no_gram_takes_the_eigen_fallback_at_k3(monkeypatch):
    """Every basis of the jittered tets at k = 3 is orthonormalised by a
    Cholesky factor: no Gram is past GRAM_COND_LIMIT, where the
    eigen-whitening fallback (the only np.linalg.eigh call) takes over."""
    calls, eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    ps._orthonormalise_gram(np.diag([1.0, 1e-13]))
    assert calls == [(2, 2)]
    calls.clear()
    DdrComplex(jittered_kuhn_mesh(), 3)
    assert calls == []


def test_a_build_makes_no_per_entity_chart(monkeypatch):
    """Stacked bases take the dimension of their charts: DdrComplex makes
    no EntityGeometry until a view asks for its chart."""
    made, init = [], oracles.EntityGeometry.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(oracles.EntityGeometry, "__init__", counted)
    cx = DdrComplex(get_mesh("cubic", 2), 1)
    assert made == []
    assert oracles.views(cx).cells[0].geom.dim == 3 and made


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolators_call_fun_once_per_kind(k):
    cx = DdrComplex(get_mesh("tet", 1), k)
    sol = TrigSolution(nu=1.0, lam=3.0)
    for kind, fun in ((SpaceKind.GRAD, sol.pressure),
                      (SpaceKind.CURL, sol.forcing),
                      (SpaceKind.DIV, sol.velocity)):
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return fun(pts)

        got = getattr(cx, f"interpolate_{kind.value}")(counted)
        ref = oracles.interpolate_per_entity(cx, kind, fun)
        assert len(calls) <= 4      # vertices, edges, faces, cells
        assert_close(got.values, ref.values, 1e-15)
