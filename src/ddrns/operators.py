"""Discrete gradient/curl/divergence operators, potentials and L2 products.

The local operators are dense matrices acting on entity-local DoF vectors
(``LocalOperator`` style), with moment systems solved in entity-local
orthonormal bases.  Edges, faces and cells are built by groups of alike
entities: all edges in one group, faces by loop length, cells by the loop
lengths of their faces.  A group (:class:`EdgeContext`,
:class:`FaceContext`, :class:`CellContext`) samples its monomials once at
the stacked rule points of its entities and forms their Grams, bases,
boundary terms, moment systems, potentials and products as stacked arrays,
each with one batched matmul, Cholesky factor or solve.  A group holds one
member of each class of faces or cells that are translates of one another;
the other members of a class share its arrays.  ``cx.edges[e]``,
``cx.faces[f]`` and ``cx.cells[c]`` are per-entity views
(:class:`EdgeView`, :class:`FaceView`, :class:`CellView`) whose arrays are
views into the stacks of their group.

Every face and cell operator comes from integration by parts against the
traces on the entity's boundary, and the stabilisation penalises the gap
between the cell potentials and those same traces: one trace table per
boundary slot of a group feeds both its moment systems and its
stabilisation.  The module exposes a :class:`DdrComplex` tying together one
mesh and one polynomial degree: interpolators onto the three spaces, the
global discrete gradient and curl, the stabilised L2 products of the three
spaces and the derived norms.

The serendipity reduction runs in "DDR mode" only (eta_Y = 2, so
ell_Y = k - 1): the complement-space moments that close the gradient and
tangential-trace systems are supplied by explicit integration-by-parts
formulas on faces and cells, and by the directly-available complement
components for the curl space.
"""

from __future__ import annotations

import copy
import itertools
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import polyspaces as ps
from .mesh import Mesh
from .quadrature import cell_rule, edge_rule, face_rule
from .spaces import DofLayout, DofVector, SpaceKind


# ---------------------------------------------------------------------------
# coefficient algebra; every helper takes an optional leading stack axis


def _inner_scalar(gram, A, B):
    """<a_i, b_j> for scalar polynomials given by monomial coefficient rows."""
    return A @ gram[..., :A.shape[-1], :B.shape[-1]] @ np.swapaxes(B, -1, -2)


def _triple_moments(weights, phi):
    """int phi_i phi_j phi_l from samples phi ([G,] npts, n) -> ([G,] n, n,
    n), one l at a time so that no (npts, n*n) product is held."""
    n = phi.shape[-1]
    wphi = np.swapaxes(weights[..., None] * phi, -1, -2)
    out = np.empty(phi.shape[:-2] + (n, n, n))
    for l in range(n):
        out[..., l] = wphi @ (phi * phi[..., l:l + 1])
    return out


def _per_scale(h):
    """Entity scales h ([G]) shaped to divide ([G,] n, nm) coefficients."""
    return np.asarray(h)[..., None, None]


def _grad_coeffs(C, dim, h):
    """Physical gradient of scalar coefficient rows; same exponent table."""
    deg = ps._deg_of(dim, C.shape[-1])
    return np.stack([C @ ps.deriv_matrix(dim, deg, a).T / _per_scale(h)
                     for a in range(dim)], axis=-1)


def _div_coeffs(V, dim, h):
    deg = ps._deg_of(dim, V.shape[-2])
    return sum(V[..., a] @ ps.deriv_matrix(dim, deg, a).T / _per_scale(h)
               for a in range(dim))


def _rot2_of_scalar(C, h):
    """Vector rot on a face: (d2 m, -d1 m) in frame components."""
    deg = ps._deg_of(2, C.shape[-1])
    d1 = C @ ps.deriv_matrix(2, deg, 0).T / _per_scale(h)
    d2 = C @ ps.deriv_matrix(2, deg, 1).T / _per_scale(h)
    return np.stack([d2, -d1], axis=-1)


def _curl3_coeffs(V, h):
    deg = ps._deg_of(3, V.shape[-2])
    D = [ps.deriv_matrix(3, deg, a).T / _per_scale(h) for a in range(3)]
    cx = V[..., 2] @ D[1] - V[..., 1] @ D[2]
    cy = V[..., 0] @ D[2] - V[..., 2] @ D[0]
    cz = V[..., 1] @ D[0] - V[..., 0] @ D[1]
    return np.stack([cx, cy, cz], axis=-1)


def _lsnorm(weights, vals, s):
    """L^s norm of sampled scalar/vector values (vector: Euclidean pointwise)."""
    mag = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=-1)
    return float(np.sum(weights * mag**s)) ** (1.0 / s)


def _rot_components(ctx, v, slices):
    """Frame components, at the rule points of a face or cell context, of
    the R^{k-1} (+) Rc^{ell+1} field whose two coefficient blocks are
    v[slices[0]] and v[slices[1]]."""
    comp = np.zeros((ctx.rule.n_points, ctx.geom.dim))
    for key, sl in zip((("R", ctx.k - 1), ("Rc", ctx.ell + 1)), slices):
        if ctx.sub[key].dim:
            comp += np.einsum("pbc,b->pc", ctx.sub[key].eval(ctx.rule.points),
                              v[sl])
    return comp


# ---------------------------------------------------------------------------
# stacked blocks: a leading axis runs over the entities of a group


def _add_cols(out, cols, X):
    """out[g][..., cols[g]] += X[g] for each entity g of a stack; the
    columns cols[g] of one entity are distinct."""
    np.moveaxis(out, -1, 1)[np.arange(len(out))[:, None], cols] += \
        np.moveaxis(X, -1, 1)


def _set_block(out, rows, cols, B):
    """out[g][rows[g], cols[g]] = B[g] for each entity g of a stack."""
    out[np.arange(len(out))[:, None, None], rows[:, :, None],
        cols[:, None, :]] = B


def _flatten_points(vals, w):
    """Sampled values (G, npts[, ncomp], n) and their weights (G, npts) as
    (G, rows, n) and (G, rows, 1): the rows are points, or (point,
    component) pairs that share the point's weight."""
    shape = (len(vals), int(np.prod(vals.shape[1:-1])))
    wb = np.broadcast_to(w.reshape(w.shape + (1,) * (vals.ndim - 3)),
                         vals.shape[:-1])
    return vals.reshape(shape + vals.shape[-1:]), wb.reshape(shape + (1,))


def _add_flux(out, slot, kind, test):
    """out += omega_b int_b test . (kind trace on b) on the boundary slot b
    of a group, in local columns: test (G, npts[, ncomp], n_rows) is
    sampled where the slot's trace values slot.traces[kind][0] (G,
    npts[, ncomp], nt) are; their local columns are slot.traces[kind][1]
    (G, nt)."""
    vals, cols = slot.traces[kind]
    t, _ = _flatten_points(test, slot.w)
    trial, w = _flatten_points(vals, slot.w)
    # the trial side has the fewer columns, so it takes the weights
    _add_cols(out, cols,
              slot.sign[:, None, None] * (np.swapaxes(t, 1, 2) @ (trial * w)))


def _trace_diff(kind, pot, basis, slot):
    """The h-weight and the sampled difference between the kind potential
    pot (G, nb, nloc) of a group of cells and the kind trace on one of
    their boundary slots; basis is the P^{k+1} scalar basis for GRAD and
    the P^k vector basis otherwise.

    The difference maps local DoFs to (G, npts, 2, nloc) CURL tangential
    components on a face and (G, npts, nloc) values otherwise.  The
    h-weights are h_F and h_E^2 as in the stabilisation.
    """
    # the trace of a P^k field is its normal component on a face (DIV),
    # its tangential components on a face (CURL) and along an edge
    on_face = hasattr(slot, "normal")
    if kind is SpaceKind.GRAD:
        A = basis.values(slot.mono) @ pot
    elif kind is SpaceKind.CURL and on_face:
        # (p, c, b) along the rows of the face frame
        A = (slot.axes[:, None] @ np.swapaxes(basis.values(slot.mono), -1, -2)
             @ pot[:, None])
    else:
        frame = slot.normal if on_face else slot.tangent
        A = (basis.values(slot.mono) @ frame[:, None, :, None])[..., 0] @ pot
    vals, cols = slot.traces[kind]
    _add_cols(A, cols, -vals)
    return (slot.h if on_face else slot.h ** 2), A


class _Chart:
    """The local charts of a group's entities, stacked: origins (G, 3),
    scales (G,) and frames (G, d, 3)."""

    def __init__(self, geoms):
        self.geoms = tuple(geoms)
        self.origin = np.array([g.origin for g in geoms])
        self.scale = np.array([g.scale for g in geoms])
        self.axes = np.array([g.axes for g in geoms])
        self.dim = self.axes.shape[1]

    def monomials(self, points, degree):
        """Scaled monomials of degree <= degree of each chart at its own
        points (G, npts, 3) -> (G, npts, nm)."""
        xi = ((points - self.origin[:, None]) @ np.swapaxes(self.axes, 1, 2)
              / self.scale[:, None, None])
        return ps.mono_eval(ps.monomial_exponents(self.dim, degree), xi)

    def gram(self, blocks, degree):
        """Monomial Grams (G, nm, nm) summed over the blocks of rule points
        from :func:`_rule_blocks`."""
        return sum(ps.monomial_gram(self.monomials(p, degree), w)
                   for _, p, w in blocks)


def _rule_blocks(views, parts):
    """The rule points and weights of a group's entities in parts equal
    blocks (the simplices of a cell rule), stacked block by block so that
    one block only is held at a time: (slice of the rule, points (G, m,
    3), weights (G, m))."""
    m = views[0].rule.n_points // parts
    for i in range(parts):
        sl = slice(i * m, (i + 1) * m)
        yield (sl, np.array([v.rule.points[sl] for v in views]),
               np.array([v.rule.weights[sl] for v in views]))


def _edge_ends(views, mesh, eids):
    """Local GRAD positions (G, 2) of the two vertices of edge eids[g] in
    view g."""
    return np.array([[v.grad_vert_pos[x] for x in mesh.edges[e].vertices]
                     for v, e in zip(views, eids)])


def _face_edge_slots(views, mesh, edges, chart, degree):
    """The edges of a group of faces, slot i holding edge_ids[i] of each:
    omega_FE, n_FE in frame components, the rule weights, the face
    monomials at the edge rule points, and the GRAD and CURL traces in
    face-local columns.  edges is the EdgeContext of all edges, whose
    stacks are indexed by edge id."""
    k, nv = views[0].k, len(views[0].verts)
    E = np.array([v.edge_ids for v in views])
    G, ne = E.shape
    slots = []
    for i in range(ne):
        e = E[:, i]
        nfe = np.array([v.edge_nfe[x] for v, x in zip(views, e)])
        moments = np.broadcast_to(nv + i * k + np.arange(k), (G, k))
        slots.append(SimpleNamespace(
            sign=np.array([v.edge_sign[x] for v, x in zip(views, e)], float),
            w=edges.weights[e], mono=chart.monomials(edges.points[e], degree),
            nfe=(chart.axes @ nfe[..., None])[..., 0],
            traces={SpaceKind.GRAD: (edges.trace_grad[e], np.hstack(
                        [_edge_ends(views, mesh, e), moments])),
                    SpaceKind.CURL: (edges.phi_k[e], np.broadcast_to(
                        i * (k + 1) + np.arange(k + 1), (G, k + 1)))}))
    return slots


def _face_slots(views, faces, chart, degree):
    """The faces of a group of cells, one slot at a time; each cell's faces
    are ordered by loop length and then id, so that slot j holds faces of
    one loop length.  See :func:`_face_slot`."""
    order = np.array([sorted(v.face_ids, key=lambda f: (
        len(faces[f].face.vertex_loop), f)) for v in views])
    for fids in order.T:
        yield _face_slot(views, [faces[f] for f in fids], fids, chart, degree)


def _face_slot(views, fv, fids, chart, degree):
    """The face fids[g] of each cell views[g], whose view is fv[g]: omega_TF,
    the face rule weights, normals, frames and diameters, the cell
    monomials at the face rule points, the face traces in cell-local
    columns (GRAD trace, CURL tangential trace in frame components and the
    P^k basis of the DIV normal component), and the face blocks of the
    global gradient and curl with their cell-local rows."""
    k = views[0].k
    pts = np.array([x.rule.points for x in fv])
    fmono = _Chart([x.geom for x in fv]).monomials(pts, k + 1)

    def stack(name):
        return np.array([getattr(x, name) for x in fv])

    def cols(name):
        return np.array([getattr(v, name)[f] for v, f in zip(views, fids)])

    sca = {l: ps.ScalarBasis(None, l, np.array([x.sca[l].coeff for x in fv]))
           for l in (k, k + 1)}
    vb = ps.VectorBasis(None, k, 2, np.array([x.vb.coeff for x in fv]))
    return SimpleNamespace(
        sign=np.array([v.face_sign[f] for v, f in zip(views, fids)], float),
        w=np.array([x.rule.weights for x in fv]),
        mono=chart.monomials(pts, degree),
        normal=np.array([x.face.normal for x in fv]),
        axes=np.array([x.geom.axes for x in fv]),
        h=np.array([x.face.diameter for x in fv]),
        traces={
            SpaceKind.GRAD: (sca[k + 1].values(fmono) @ stack("trace_mat"),
                             cols("grad_face_map")),
            SpaceKind.CURL: (np.swapaxes(vb.values(fmono), -1, -2)
                             @ stack("ttrace_mat")[:, None],
                             cols("curl_face_map")),
            SpaceKind.DIV: (sca[k].values(fmono), cols("div_face_map"))},
        faceblock=cols("curl_faceblock_map"), uG_face=stack("uG_face"),
        curl_mat=stack("curl_mat"))


def _cell_edge_slots(views, mesh, edges, chart, degree):
    """The edges of a group of cells, slot i holding edge_ids[i] of each:
    the rule weights, tangents and lengths, the cell monomials at the edge
    rule points, the GRAD skeleton and CURL tangential traces in
    cell-local columns, and the derivative of the skeleton.  edges is the
    EdgeContext of all edges, whose stacks are indexed by edge id."""
    E = np.array([v.edge_ids for v in views])
    slots = []
    for e in E.T:
        grad_cols = np.hstack([_edge_ends(views, mesh, e), np.array(
            [v.grad_edge_map[x] for v, x in zip(views, e)]).reshape(len(e), -1)])
        curl_cols = np.array([v.curl_edge_map[x] for v, x in zip(views, e)])
        slots.append(SimpleNamespace(
            sign=np.ones(len(e)), w=edges.weights[e],
            mono=chart.monomials(edges.points[e], degree),
            tangent=edges.tangent[e], h=edges.length[e],
            deriv=edges.deriv_skeleton[e],
            traces={SpaceKind.GRAD: (edges.trace_grad[e], grad_cols),
                    SpaceKind.CURL: (edges.phi_k[e], curl_cols)}))
    return slots


# ---------------------------------------------------------------------------
# groups of edges, faces and cells, built as stacks


class _Group:
    """What groups share: the hand-out of the stacks to the per-entity
    views, the naming of a failing entity and, for faces and cells, the
    stacked bases and the gradient.

    The local operators of an entity depend only on its shape, local
    numbering and orientations; within a group every entity has the same
    local sizes, so each array is one stack with a leading entity axis.
    """

    @contextmanager
    def _naming_errors(self):
        """Re-raise a BasisError of a stack naming the entity it arose on."""
        try:
            yield
        except ps.BasisError as err:
            if err.index is None:
                raise
            raise ps.BasisError(f"{self.kind} {self.ids[err.index]}: {err}",
                                index=err.index) from None

    def _bases(self, gram, extra=()):
        """Monomial Grams, scalar bases, P^k vector bases and the split
        subspaces R^{k-1}, Rc^{ell+1}, R^k, Rc^k, Rc^{k+2} and extra; every
        scalar basis is a leading block of the Gram at degree k + 2."""
        k, ell, geoms = self.k, self.ell, self.chart.geoms
        self.gram = gram
        with self._naming_errors():
            self.sca = {l: ps.build_scalar_basis(geoms, l, gram)
                        for l in {k - 1, k, k + 1, ell}}
            # Rc^{ell+1} is Rc^k in DDR mode (ell = k - 1): each key is
            # built once
            self.sub = {
                (sel, l): ps.build_subspace(geoms, sel, l, gram)
                for sel, l in dict.fromkeys([("R", k - 1), ("Rc", ell + 1),
                                             ("R", k), ("Rc", k),
                                             ("Rc", k + 2), *extra])}
        self.vb = ps.tensor_vector_basis(self.sca[k], self.chart.dim)

    def _gradient(self, flux, own_cols):
        """Serendipity moments, gradient and P^{k+1} potential of the local
        GRAD DoFs.

        flux[key] is the boundary term sum_b omega_b int_b (w . n_b) q_b for
        w in the basis sub[key], against the boundary traces q_b, for the
        keys R^k, Rc^k and Rc^{k+2}; own_cols are the columns of the
        entity's own P^ell moments q_Y.
        """
        k, gram, vb = self.k, self.gram, self.vb
        d, h = self.chart.dim, self.chart.scale
        Rk, Rck = self.sub["R", k], self.sub["Rc", k]
        cRk2 = self.sub["Rc", k + 2]
        # int G q . tau = -int q_Y div tau + boundary term, tau in Rc^k
        sg = flux["Rc", k]
        if Rck.dim:
            sg[..., own_cols] -= _inner_scalar(
                gram, _div_coeffs(Rck.coeff, d, h), self.sca[self.ell].coeff)
        M = np.concatenate([Rk.coords_in(vb, gram), Rck.coords_in(vb, gram)],
                           axis=-2)
        grad = np.linalg.solve(M, np.concatenate([flux["R", k], sg], axis=-2))
        # int P q div w = -int G q . w + boundary term, w in Rc^{k+2}
        D = _inner_scalar(gram, _div_coeffs(cRk2.coeff, d, h),
                          self.sca[k + 1].coeff)
        rhs = flux["Rc", k + 2] - cRk2.coords_in(vb, gram) @ grad
        return sg, grad, np.linalg.solve(D, rhs)

    def _share(self, names):
        """Hand each view its slices of the stacks names (arrays, stacked
        bases or dicts of them), and the stacks themselves as view.stacks,
        where the view's entry is view.slot.  The views hold no reference to
        the group, so that no cycle keeps a dropped complex alive."""
        self.stacks = SimpleNamespace(
            ids=self.ids, **{name: getattr(self, name) for name in names})
        for i, v in enumerate(self.views):
            v.stacks, v.slot = self.stacks, i
            for name in names:
                val = getattr(self, name)
                setattr(v, name, {key: b[i] for key, b in val.items()}
                        if isinstance(val, dict) else val[i])


class EdgeContext(_Group):
    """The local operators of edges ids, as stacks along a leading edge
    axis; views[i] is the :class:`EdgeView` of edge ids[i].

    Every edge rule has the same size, so a mesh builds its edges in one
    group.  Besides the bases, the skeleton reconstruction and the
    derivative, the group keeps stacked what faces and cells read off their
    edges: the rule points and weights, the GRAD skeleton trace (the
    P^{k+1} basis times the skeleton reconstruction) and the P^k basis at
    the rule points, the derivative of the skeleton, tangents and lengths.
    """

    kind = "edge"

    def __init__(self, mesh: Mesh, eids, k: int, rule_degree: int):
        self.k, self.ids = k, list(eids)
        self.views = [EdgeView(mesh, e, k, rule_degree) for e in eids]
        chart = _Chart([v.geom for v in self.views])
        self.points = np.array([v.rule.points for v in self.views])
        self.weights = np.array([v.rule.weights for v in self.views])
        mono = chart.monomials(self.points, k + 1)
        # every scalar basis orthonormalises a leading block of one Gram
        self.gram = ps.monomial_gram(mono, self.weights)
        with self._naming_errors():
            self.sca = {l: ps.build_scalar_basis(chart.geoms, l, self.gram)
                        for l in (k - 1, k, k + 1)}

        # skeleton reconstruction: [q(v_a), q(v_b), moments vs P^{k-1}] ->
        # coefficients in the P^{k+1}(E) orthonormal basis
        bkp1 = self.sca[k + 1]
        ends = mesh.vertex_coords[[v.edge.vertices for v in self.views]]
        A = np.concatenate([
            bkp1.values(chart.monomials(ends, k + 1)),
            _inner_scalar(self.gram, self.sca[k - 1].coeff, bkp1.coeff),
        ], axis=-2)
        self.skeleton = np.linalg.solve(A, np.eye(k + 2))

        # derivative along t_E: P^{k+1} coefficients -> P^k coefficients
        dmono = (bkp1.coeff @ ps.deriv_matrix(1, k + 1, 0).T
                 / _per_scale(chart.scale))
        self.deriv = _inner_scalar(self.gram, self.sca[k].coeff, dmono)

        self.trace_grad = bkp1.values(mono) @ self.skeleton
        self.phi_k = self.sca[k].values(mono)
        self.deriv_skeleton = self.deriv @ self.skeleton
        self.tangent = np.array([v.edge.tangent for v in self.views])
        self.length = chart.scale
        self._share(("gram", "sca", "skeleton", "deriv"))


class FaceContext(_Group):
    """The local operators of a group of faces with one loop length, faces
    ids, as stacks along a leading face axis; views[i] is the
    :class:`FaceView` of face ids[i]."""

    kind = "face"

    def __init__(self, mesh: Mesh, fids, k: int, ell: int, rule_degree: int,
                 edge_group: EdgeContext):
        self.k, self.ell, self.ids = k, ell, list(fids)
        self.views = [FaceView(mesh, f, k, ell, rule_degree) for f in fids]
        v0 = self.views[0]
        for name in ("n_grad", "n_curl", "grad_face_slice", "curl_R_slice",
                     "curl_Rc_slice"):
            setattr(self, name, getattr(v0, name))
        self.chart = _Chart([v.geom for v in self.views])
        self._bases(self.chart.gram(_rule_blocks(self.views, 1), k + 2))
        self._assemble(_face_edge_slots(self.views, mesh, edge_group,
                                        self.chart, k + 2))
        self._share(("gram", "sca", "vb", "sub", "serendipity_grad",
                     "grad_mat", "trace_mat", "curl_mat", "serendipity_curl",
                     "ttrace_mat", "uG_face"))

    def _assemble(self, edges):
        k, gram, vb, h = self.k, self.gram, self.vb, self.chart.scale
        Rck, Rkm = self.sub["Rc", k], self.sub["R", k - 1]
        Rcd = self.sub["Rc", self.ell + 1]
        pk = self.sca[k]

        nm = ps.dim_poly(2, k + 1)
        G = len(self.ids)
        # boundary terms against the edge traces: the normal fluxes of
        # R^k, Rc^k and Rc^{k+2}, and the P^k and monomial tangential ones
        flux = {key: np.zeros((G, self.sub[key].dim, self.n_grad))
                for key in (("R", k), ("Rc", k), ("Rc", k + 2))}
        tflux = np.zeros((G, pk.dim, self.n_curl))
        mflux = np.zeros((G, nm - 1, self.n_curl))
        for s in edges:
            n_fe = s.nfe[:, None, :, None]
            for key, out in flux.items():
                _add_flux(out, s, SpaceKind.GRAD,
                          (self.sub[key].values(s.mono) @ n_fe)[..., 0])
            _add_flux(tflux, s, SpaceKind.CURL, pk.values(s.mono))
            _add_flux(mflux, s, SpaceKind.CURL, s.mono[..., 1:nm])

        # --- gradient, serendipity gradient moments and scalar trace --------
        self.serendipity_grad, self.grad_mat, self.trace_mat = self._gradient(
            flux, self.grad_face_slice)

        # --- face curl --------------------------------------------------------
        cm = -tflux
        if Rkm.dim:
            cm[..., self.curl_R_slice] += ps.vector_inner(
                gram, _rot2_of_scalar(pk.coeff, h), Rkm.coeff)
        self.curl_mat = cm

        # --- serendipity curl moments: directly the Rc component -------------
        sc = np.zeros((G, Rck.dim, self.n_curl))
        sc[..., self.curl_Rc_slice] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- tangential trace -------------------------------------------------
        mono_test = np.eye(nm)[1:]                     # non-constant monomials
        M = np.concatenate([
            ps.coords_in_vector_basis(vb, _rot2_of_scalar(mono_test, h), gram),
            Rck.coords_in(vb, gram)], axis=-2)
        rhs = np.concatenate([
            _inner_scalar(gram, mono_test, pk.coeff) @ cm + mflux, sc], axis=-2)
        self.ttrace_mat = np.linalg.solve(M, rhs)

        # --- face blocks of the global gradient ------------------------------
        self.uG_face = np.concatenate([Rkm.coords_in(vb, gram) @ self.grad_mat,
                                       Rcd.coords_in(vb, gram) @ self.grad_mat],
                                      axis=-2)


class CellContext(_Group):
    """The local operators of a group of cells whose faces have the same
    loop lengths, cells ids, as stacks along a leading cell axis; views[i]
    is the :class:`CellView` of cell ids[i]."""

    kind = "cell"

    def __init__(self, mesh: Mesh, cids, k: int, ell: int, rule_degree: int,
                 edge_group: EdgeContext, faces, layouts):
        self.k, self.ell, self.ids = k, ell, list(cids)
        self.views = [CellView(mesh, c, k, ell, rule_degree, layouts)
                      for c in cids]
        v0 = self.views[0]
        for name in ("n_grad", "n_curl", "n_div", "grad_cell", "curl_R_cell",
                     "curl_Rc_cell", "div_G_cell", "div_Gc_cell"):
            setattr(self, name, getattr(v0, name))
        self.chart = _Chart([v.geom for v in self.views])
        # the cell rule runs tetrahedron by tetrahedron, one per face
        # segment, and is summed and sampled one tetrahedron at a time
        n_tets = sum(len(mesh.faces[f].vertex_loop) for f in v0.face_ids)
        self._bases(self.chart.gram(_rule_blocks(self.views, n_tets), k + 2),
                    [("G", k - 1), ("Gc", k), ("Gc", k + 1)])
        # evaluation caches kept small: scalar P^k basis at cell points, and
        # the moment tensor int phi_i phi_j phi_l for the convective term
        pk = self.sca[k]
        self.phi_k = np.empty((len(self.ids), v0.rule.n_points, pk.dim))
        self.tri_tensor = np.zeros((len(self.ids),) + (pk.dim,) * 3)
        for sl, p, w in _rule_blocks(self.views, n_tets):
            self.phi_k[:, sl] = pk.values(self.chart.monomials(p, k))
            self.tri_tensor += _triple_moments(w, self.phi_k[:, sl])
        # face slots are built one at a time, once for the boundary terms
        # and once for the stabilisation
        face_slots = lambda: _face_slots(self.views, faces, self.chart, k + 2)
        edges = _cell_edge_slots(self.views, mesh, edge_group, self.chart,
                                 k + 2)
        self._assemble(face_slots(), edges)
        self._products(itertools.chain(edges, face_slots()))
        self._share(("gram", "sca", "vb", "sub", "serendipity_grad",
                     "grad_mat", "pot_grad", "curl_op", "serendipity_curl",
                     "pot_curl", "div_op", "pot_div", "uG", "uC",
                     "convective_curl", "phi_k", "tri_tensor", "product_grad",
                     "product_curl", "product_div"))

    def _assemble(self, faces, edges):
        k, gram, vb, h = self.k, self.gram, self.vb, self.chart.scale
        G = len(self.ids)
        Rck, Rkm = self.sub["Rc", k], self.sub["R", k - 1]
        Rcd = self.sub["Rc", self.ell + 1]
        Gkm, Gck = self.sub["G", k - 1], self.sub["Gc", k]
        cGk1 = self.sub["Gc", k + 1]
        pk = self.sca[k]
        nm = ps.dim_poly(3, k + 1)

        # --- boundary terms, one face slot at a time -------------------------
        # normal fluxes of R^k, Rc^k and Rc^{k+2} against the GRAD traces;
        # int_F (w x n_F) . gamma_t for w in P^k and Gc^{k+1}, with w x n_F
        # in frame components: (w x n) . a = w . (n x a) for each frame axis
        # a; and the P^k and monomial moments of the DIV normal traces
        flux = {key: np.zeros((G, self.sub[key].dim, self.n_grad))
                for key in (("R", k), ("Rc", k), ("Rc", k + 2))}
        cross = {id(w): np.zeros((G, w.dim, self.n_curl)) for w in (vb, cGk1)}
        dm = np.zeros((G, pk.dim, self.n_div))
        mflux = np.zeros((G, nm - 1, self.n_div))
        uG = np.zeros((G, self.n_curl, self.n_grad))
        uC = np.zeros((G, self.n_div, self.n_curl))
        for s in faces:
            n_f = s.normal[:, None, :, None]
            for key, out in flux.items():
                _add_flux(out, s, SpaceKind.GRAD,
                          (self.sub[key].values(s.mono) @ n_f)[..., 0])
            nxa = np.cross(s.normal[:, None, :], s.axes)[:, None]
            for w in (vb, cGk1):
                _add_flux(cross[id(w)], s, SpaceKind.CURL,
                          nxa @ np.swapaxes(w.values(s.mono), -1, -2))
            _add_flux(dm, s, SpaceKind.DIV, pk.values(s.mono))
            _add_flux(mflux, s, SpaceKind.DIV, s.mono[..., 1:nm])
            _set_block(uG, s.faceblock, s.traces[SpaceKind.GRAD][1], s.uG_face)
            _set_block(uC, s.traces[SpaceKind.DIV][1],
                       s.traces[SpaceKind.CURL][1], s.curl_mat)
            del s       # before the next slot is built
        for s in edges:
            _set_block(uG, s.traces[SpaceKind.CURL][1],
                       s.traces[SpaceKind.GRAD][1], s.deriv)

        # --- element gradient, serendipity moments and gradient potential ----
        self.serendipity_grad, self.grad_mat, self.pot_grad = self._gradient(
            flux, self.grad_cell)

        # --- element curl -------------------------------------------------------
        cm = cross[id(vb)]
        if Rkm.dim:
            cm[..., self.curl_R_cell] += ps.vector_inner(
                gram, _curl3_coeffs(vb.coeff, h), Rkm.coeff)
        self.curl_op = cm

        # --- serendipity curl moments -------------------------------------------
        sc = np.zeros((G, Rck.dim, self.n_curl))
        sc[..., self.curl_Rc_cell] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- curl potential ------------------------------------------------------
        curlw = _curl3_coeffs(cGk1.coeff, h)
        M = np.concatenate([ps.coords_in_vector_basis(vb, curlw, gram),
                            Rck.coords_in(vb, gram)], axis=-2)
        rhs = np.concatenate([
            ps.vector_inner(gram, cGk1.coeff, vb.coeff) @ cm - cross[id(cGk1)],
            sc], axis=-2)
        self.pot_curl = np.linalg.solve(M, rhs)

        # --- divergence and its potential ----------------------------------------
        if Gkm.dim:
            dm[..., self.div_G_cell] -= ps.vector_inner(
                gram, _grad_coeffs(pk.coeff, 3, h), Gkm.coeff)
        self.div_op = dm

        mono_test = np.eye(nm)[1:]
        grad_test = _grad_coeffs(mono_test, 3, h)
        M = np.concatenate([ps.coords_in_vector_basis(vb, grad_test, gram),
                            Gck.coords_in(vb, gram)], axis=-2)
        rhs = np.zeros((G, vb.dim, self.n_div))
        rhs[:, :len(mono_test)] = mflux - _inner_scalar(gram, mono_test,
                                                        pk.coeff) @ dm
        rhs[:, len(mono_test):, self.div_Gc_cell] = np.eye(Gck.dim)
        self.pot_div = np.linalg.solve(M, rhs)

        # --- cell blocks of the global operators -----------------------------
        uG[:, self.curl_R_cell] = Rkm.coords_in(vb, gram) @ self.grad_mat
        uG[:, self.curl_Rc_cell] = Rcd.coords_in(vb, gram) @ self.grad_mat
        uC[:, self.div_G_cell] = Gkm.coords_in(vb, gram) @ cm
        uC[:, self.div_Gc_cell] = Gck.coords_in(vb, gram) @ cm
        self.uG, self.uC = uG, uC
        self.convective_curl = self.pot_div @ uC   # C_h = P_div o uC, cellwise

    # -- stabilised products ---------------------------------------------------
    def _products(self, slots):
        """Cell products P^T P + s_T over the boundary slots.  The
        stabilisation s_T vanishes on the interpolates of polynomials, so it
        needs no projection onto their complement."""
        pots = {kind: getattr(self, f"pot_{kind.value}") for kind in SpaceKind}
        S = {kind: np.swapaxes(pot, 1, 2) @ pot for kind, pot in pots.items()}
        for s in slots:
            for kind in s.traces:
                basis = (self.sca[self.k + 1] if kind is SpaceKind.GRAD
                         else self.vb)
                # s_T = sum_b h_b int_b A_b . A_b over the differences A_b
                hw, A = _trace_diff(kind, pots[kind], basis, s)
                A, w = _flatten_points(A, s.w)
                A *= np.sqrt(w)
                S[kind] += hw[:, None, None] * (np.swapaxes(A, 1, 2) @ A)
                del A   # before the next difference is sampled
            del s       # before the next slot is built
        for kind, prod in S.items():
            setattr(self, f"product_{kind.value}", prod)


# ---------------------------------------------------------------------------
# per-entity views


class _View:
    """What face and cell views share: their placement on a translate.

    A placed view shares the operator arrays and the basis coefficients of
    the one it is placed from; ``_place`` rebuilds what depends on
    position: the entity, its anchor and quadrature rule, and the maps
    keyed by global ids.
    """

    def placed_at(self, mesh: Mesh, index: int, *place_args):
        new = copy.copy(self)
        new._place(mesh, index, self.rule.exactness_degree, *place_args)
        new.sca = {l: replace(b, geom=new.geom) for l, b in self.sca.items()}
        new.vb = replace(self.vb, geom=new.geom)
        new.sub = {key: replace(b, geom=new.geom)
                   for key, b in self.sub.items()}
        return new


class EdgeView:
    """One edge: its rule and chart, and, once its group is built, its
    bases, skeleton reconstruction and derivative as views into the group's
    stacks (``stacks`` and ``slot`` locate them)."""

    def __init__(self, mesh: Mesh, eid: int, k: int, rule_degree: int):
        self.k = k
        self.edge = mesh.edges[eid]
        self.h = self.edge.length
        self.geom = ps.edge_geometry(mesh, self.edge)
        self.rule = edge_rule(mesh, eid, rule_degree)
        self._mono = None

    def basis_values(self, l: int, pts=None) -> np.ndarray:
        """P^l basis at pts; at the edge's own rule points by default, where
        the edge samples its monomials once."""
        if pts is not None:
            return self.sca[l].eval(pts)
        if self._mono is None:
            self._mono = ps.sample_monomials(self.geom, self.k + 1,
                                             self.rule.points)
        return self.sca[l].values(self._mono)

    def skeleton_map(self, vert_pos, moment_idx, n_grad: int) -> np.ndarray:
        """Matrix sending n_grad entity-local GRAD DoFs to P^{k+1}(E)
        coefficients; vert_pos maps vertex ids to local positions and
        moment_idx selects the k edge moments."""
        cols = np.zeros((2 + self.k, n_grad))
        va, vb = self.edge.vertices
        cols[0, vert_pos[va]] = 1.0
        cols[1, vert_pos[vb]] = 1.0
        cols[2:, moment_idx] = np.eye(self.k)
        return self.skeleton @ cols


class FaceView(_View):
    """One face: its placement and local numbering, and, once its group is
    built, its bases and operator arrays as views into the group's stacks
    (``stacks`` and ``slot`` locate them)."""

    def __init__(self, mesh: Mesh, fid: int, k: int, ell: int,
                 rule_degree: int):
        self.k = k
        self.ell = ell
        self._place(mesh, fid, rule_degree)
        nv, ne = len(self.verts), len(self.edge_ids)
        dRm, dRc = ps.subspace_dim(2, "R", k - 1), ps.subspace_dim(2, "Rc", ell + 1)
        self.n_grad = nv + ne * k + ps.dim_poly(2, ell)
        self.n_curl = ne * (k + 1) + dRm + dRc
        self.grad_face_slice = slice(nv + ne * k, self.n_grad)
        self.curl_R_slice = slice(ne * (k + 1), ne * (k + 1) + dRm)
        self.curl_Rc_slice = slice(ne * (k + 1) + dRm, self.n_curl)

    def _place(self, mesh, fid, rule_degree):
        k = self.k
        f = mesh.faces[fid]
        self.face = f
        self.h = f.diameter
        self.geom = ps.face_geometry(mesh, f)
        self.rule = face_rule(mesh, fid, rule_degree)
        self.edge_ids = sorted(f.edges)
        self.edge_sign = dict(zip(f.edges, f.edge_signs))
        self.edge_nfe = dict(zip(f.edges, f.edge_normals))

        # local orders (match DofLayout.face_indices)
        self.verts = sorted(f.vertex_loop)
        nv = len(self.verts)
        self.grad_edge_slices = {e: slice(nv + i * k, nv + (i + 1) * k)
                                 for i, e in enumerate(self.edge_ids)}
        self.grad_vert_pos = {v: i for i, v in enumerate(self.verts)}
        self.curl_edge_slices = {e: slice(i * (k + 1), (i + 1) * (k + 1))
                                 for i, e in enumerate(self.edge_ids)}

    def edge_skeleton_map(self, eid: int, ectx: EdgeView) -> np.ndarray:
        """Matrix sending face-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return ectx.skeleton_map(self.grad_vert_pos,
                                 self.grad_edge_slices[eid], self.n_grad)


class CellView(_View):
    """One cell: its placement and local index maps, and, once its group is
    built, its bases and operator arrays as views into the group's stacks
    (``stacks`` and ``slot`` locate them)."""

    def __init__(self, mesh: Mesh, cid: int, k: int, ell: int,
                 rule_degree: int, layouts):
        self.k = k
        self.ell = ell
        self._place(mesh, cid, rule_degree, layouts)

    def placed_at(self, mesh: Mesh, cid: int, layouts):
        new = super().placed_at(mesh, cid, layouts)
        # the rule of a translate may list its points in another order
        new.phi_k = new.sca[new.k].eval(new.rule.points)
        return new

    def _place(self, mesh, cid, rule_degree, layouts):
        c = mesh.cells[cid]
        self.cell = c
        self.h = c.diameter
        self.geom = ps.cell_geometry(mesh, c)
        self.rule = cell_rule(mesh, cid, rule_degree)
        self.face_ids = sorted(c.faces)
        self.face_sign = dict(zip(c.faces, c.face_signs))
        self.edge_ids = c.edge_ids
        self.vert_ids = c.vertex_ids
        self._index_maps(layouts)

    def _index_maps(self, layouts):
        cid = self.cell.id
        self.glob = {kind: layouts[kind].cell_indices(cid) for kind in SpaceKind}
        self.n_grad = len(self.glob[SpaceKind.GRAD])
        self.n_curl = len(self.glob[SpaceKind.CURL])
        self.n_div = len(self.glob[SpaceKind.DIV])

        def local_of(kind, glob_idx):
            return np.searchsorted(self.glob[kind], glob_idx)

        gl = layouts[SpaceKind.GRAD]
        cl = layouts[SpaceKind.CURL]
        dl = layouts[SpaceKind.DIV]
        self.grad_face_map = {f: local_of(SpaceKind.GRAD, gl.face_indices(f))
                              for f in self.face_ids}
        self.curl_face_map = {f: local_of(SpaceKind.CURL, cl.face_indices(f))
                              for f in self.face_ids}
        self.curl_faceblock_map = {f: local_of(SpaceKind.CURL, cl.face_dofs(f))
                                   for f in self.face_ids}
        self.grad_edge_map = {e: local_of(SpaceKind.GRAD, gl.edge_dofs(e))
                              for e in self.edge_ids}
        self.grad_vert_pos = {v: i for i, v in enumerate(self.vert_ids)}
        self.curl_edge_map = {e: local_of(SpaceKind.CURL, cl.edge_dofs(e))
                              for e in self.edge_ids}
        self.div_face_map = {f: local_of(SpaceKind.DIV, dl.face_dofs(f))
                             for f in self.face_ids}
        # trailing cell blocks
        self.grad_cell = slice(self.n_grad - gl.cell_block, self.n_grad)
        ccb = cl.cell_subsizes
        self.curl_R_cell = slice(self.n_curl - sum(ccb), self.n_curl - ccb[1])
        self.curl_Rc_cell = slice(self.n_curl - ccb[1], self.n_curl)
        dcb = dl.cell_subsizes
        self.div_G_cell = slice(self.n_div - sum(dcb), self.n_div - dcb[1])
        self.div_Gc_cell = slice(self.n_div - dcb[1], self.n_div)
        self.interior = {
            SpaceKind.GRAD: np.arange(self.n_grad)[self.grad_cell],
            SpaceKind.CURL: np.arange(self.n_curl)[self.n_curl - sum(ccb):],
            SpaceKind.DIV: np.arange(self.n_div)[self.n_div - sum(dcb):],
        }


# ---------------------------------------------------------------------------
# translation classes

# relative resolution, in units of the entity diameter, of the vertex
# positions in a translation key
KEY_RTOL = 1e-12


def _translation_key(mesh: Mesh, verts, anchor, h, loops, edges) -> tuple:
    """Hashable description of an entity up to translation.

    verts are the vertex ids in local DoF order; the key holds their
    coordinates relative to the anchor, rounded at KEY_RTOL * h, the face
    loops and the edge directions written in local vertex indices.
    """
    pos = {v: i for i, v in enumerate(verts)}
    rel = np.rint((mesh.vertex_coords[verts] - anchor) / (KEY_RTOL * h))
    return (rel.astype(np.int64).tobytes(),
            tuple(tuple(pos[v] for v in loop) for loop in loops),
            tuple(tuple(pos[v] for v in mesh.edges[e].vertices)
                  for e in edges))


def _face_key(mesh: Mesh, fid: int) -> tuple:
    f = mesh.faces[fid]
    return _translation_key(mesh, sorted(f.vertex_loop), f.anchor, f.diameter,
                            [f.vertex_loop], sorted(f.edges))


def _cell_key(mesh: Mesh, cid: int) -> tuple:
    """Cell key; omega_TF follows from the geometry of a valid mesh and is
    kept in the key as a guard."""
    c = mesh.cells[cid]
    faces = sorted(c.faces)
    sign = dict(zip(c.faces, c.face_signs))
    return (_translation_key(mesh, c.vertex_ids, c.anchor, c.diameter,
                             [mesh.faces[f].vertex_loop for f in faces],
                             c.edge_ids),
            tuple(sign[f] for f in faces))


# ---------------------------------------------------------------------------
# interpolation


def _moments(ctxs, points, vals, frame, bases) -> np.ndarray:
    """Moments of a field against the bases of each context, by groups of
    contexts with equal rule sizes.

    points and vals hold the rule points of the contexts, one context after
    another, and the field there as (npts, ncomp) rows; frame(ctx) is the
    (ncomp, nc) matrix taking the values to the nc components that the bases
    of ctx are written in, or None when they are written in the ncomp given;
    bases(ctx) lists those bases, scalar when nc is 1.  Returns the moments
    (len(ctxs), nmom), concatenated in the order of bases(ctx).

    A group samples its monomials and bases for len // nb contexts at a
    time, nb the largest basis size, so that they take no more room than
    the field values.  Each context's moments are those of its own basis
    values contracted with its own weighted values.
    """
    npts = np.array([ctx.rule.n_points for ctx in ctxs])
    start = np.cumsum(npts) - npts
    out = None
    for n in np.unique(npts):
        idx = np.flatnonzero(npts == n)
        sub = [ctxs[i] for i in idx]
        blist = [bases(ctx) for ctx in sub]
        coeffs = [np.array([b[q].coeff for b in blist])
                  for q in range(len(blist[0]))]
        frames = (None if frame(sub[0]) is None
                  else np.array([frame(ctx) for ctx in sub]))
        weights = np.array([ctx.rule.weights for ctx in sub])
        degree = max(b.degree for b in blist[0])
        rows = start[idx, None] + np.arange(n)
        mom = np.empty((len(sub), sum(C.shape[1] for C in coeffs)))
        step = max(1, len(sub) // max(C.shape[1] for C in coeffs))
        for i in range(0, len(sub), step):
            sl = slice(i, i + step)
            wv = vals[rows[sl]] if frames is None else vals[rows[sl]] @ frames[sl]
            wv *= weights[sl, :, None]
            mono = _Chart([ctx.geom for ctx in sub[sl]]).monomials(
                points[rows[sl]], degree)
            mom[sl] = np.concatenate(
                [_project(b0, C[sl], mono, wv)
                 for b0, C in zip(blist[0], coeffs)], axis=1)
        if out is None:
            out = np.empty((len(ctxs), mom.shape[1]))
        out[idx] = mom
    return out


def _project(basis, coeff, mono, wv) -> np.ndarray:
    """Moments (N, nb) of weighted values wv (N, npts, nc) against a stack
    of N bases like basis with coefficients coeff, whose monomials at the
    points are mono."""
    if coeff.ndim == 3:
        phi = ps.ScalarBasis(None, basis.degree, coeff).values(mono)
        return (np.swapaxes(phi, 1, 2) @ wv)[..., 0]
    phi = ps.VectorBasis(None, basis.degree, basis.ncomp, coeff).values(mono)
    return np.einsum("npbc,npc->nb", phi, wv)


# ---------------------------------------------------------------------------
# the assembled complex


def _loop_lengths(mesh: Mesh, c: int) -> tuple:
    return tuple(sorted(len(mesh.faces[f].vertex_loop)
                        for f in mesh.cells[c].faces))


class DdrComplex:
    """All discrete operators of one (mesh, degree) pair.

    Construction builds, by groups of alike entities, the local operators
    of every edge and of one member of each translation class of faces and
    cells; the object is immutable afterwards and safe to share between
    threads.  Views of one class share their operator arrays and basis
    coefficients.
    """

    def __init__(self, mesh: Mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.layouts = {kind: DofLayout(mesh, kind, k) for kind in SpaceKind}
        deg_bilin = 2 * k + 4
        self.cell_degree = max(2 * k + 4, 3 * k + 3)
        ell = k - 1     # DDR-mode face and cell moment degree
        # one group of all edges: the stacks are indexed by edge id
        self._edge_group = EdgeContext(mesh, range(mesh.n_edges), k, deg_bilin)
        self.edges = self._edge_group.views
        self.faces = self._build(
            mesh.n_faces, lambda f: _face_key(mesh, f),
            lambda f: len(mesh.faces[f].vertex_loop),
            lambda ids: FaceContext(mesh, ids, k, ell, deg_bilin,
                                    self._edge_group),
            lambda view, f: view.placed_at(mesh, f))
        self.cells = self._build(
            mesh.n_cells, lambda c: _cell_key(mesh, c),
            lambda c: _loop_lengths(mesh, c),
            lambda ids: CellContext(mesh, ids, k, ell, self.cell_degree,
                                    self._edge_group, self.faces, self.layouts),
            lambda view, c: view.placed_at(mesh, c, self.layouts))
        self._gram_cache = {}
        self._op_cache = {}

    @staticmethod
    def _build(n, key, group_key, build, place) -> list:
        """Views of n entities: the first member of each translation class
        (key) is built in the group (build) of its group_key, and placed on
        the other members."""
        reps, groups, rep_of = {}, {}, []
        for i in range(n):
            rep_of.append(reps.setdefault(key(i), i))
            if rep_of[i] == i:
                groups.setdefault(group_key(i), []).append(i)
        views = [None] * n
        for ids in groups.values():
            for i, view in zip(ids, build(ids).views):
                views[i] = view
        for i, r in enumerate(rep_of):
            if r != i:
                views[i] = place(views[r], i)
        return views

    def layout(self, kind) -> DofLayout:
        return self.layouts[SpaceKind(kind)]

    # -- interpolators ------------------------------------------------------
    # fun is called once per entity kind, on the rule points of all its
    # entities, and only when the kind's DoF block is not empty, so it is
    # never evaluated at points whose values would be discarded.
    def _interpolate(self, out, fun, entities):
        """Fill out with the moments of fun on each (contexts, block size,
        offset, frame, bases) of entities; see :func:`_moments`."""
        for ctxs, block, offset, frame, bases in entities:
            if block:
                points = np.concatenate([ctx.rule.points for ctx in ctxs])
                vals = fun(points).reshape(len(points), -1)
                out.values[offset:offset + len(ctxs) * block] = _moments(
                    ctxs, points, vals, frame, bases).ravel()
        return out

    def interpolate_grad(self, fun) -> DofVector:
        """I_grad: vertex values and P^{k-1}/P^{ell} moments of a scalar field.

        fun maps an (n, 3) array of points to (n,) values.
        """
        k = self.k
        lay = self.layouts[SpaceKind.GRAD]
        out = DofVector.zeros(lay)
        out.values[:self.mesh.n_vertices] = fun(self.mesh.vertex_coords)
        # edges, faces and cells alike: moments against P^{k-1} = P^{ell}
        return self._interpolate(out, fun, [
            (ctxs, block, offset, lambda ctx: np.ones((1, 1)),
             lambda ctx: [ctx.sca[k - 1]])
            for ctxs, block, offset in (
                (self.edges, lay.edge_block, lay.edge_offset),
                (self.faces, lay.face_block, lay.face_offset),
                (self.cells, lay.cell_block, lay.cell_offset))])

    def interpolate_curl(self, fun) -> DofVector:
        """I_curl of a vector field: edge tangential moments, face tangential
        R/Rc moments, cell R/Rc moments.  fun: (n, 3) points -> (n, 3)."""
        k = self.k
        lay = self.layouts[SpaceKind.CURL]
        rot = lambda ctx: [ctx.sub["R", k - 1], ctx.sub["Rc", ctx.ell + 1]]
        # frame components: tangential on a face, all three on a cell
        return self._interpolate(DofVector.zeros(lay), fun, [
            (self.edges, lay.edge_block, lay.edge_offset,
             lambda ctx: ctx.edge.tangent[:, None], lambda ctx: [ctx.sca[k]]),
            (self.faces, lay.face_block, lay.face_offset,
             lambda ctx: ctx.geom.axes.T, rot),
            (self.cells, lay.cell_block, lay.cell_offset,
             lambda ctx: None, rot)])

    def interpolate_div(self, fun) -> DofVector:
        """I_div of a vector field: face normal moments, cell G/Gc moments."""
        k = self.k
        lay = self.layouts[SpaceKind.DIV]
        return self._interpolate(DofVector.zeros(lay), fun, [
            (self.faces, lay.face_block, lay.face_offset,
             lambda ctx: ctx.face.normal[:, None], lambda ctx: [ctx.sca[k]]),
            (self.cells, lay.cell_block, lay.cell_offset, lambda ctx: None,
             lambda ctx: [ctx.sub["G", k - 1], ctx.sub["Gc", k]])])

    # -- global differential operators ---------------------------------------
    def global_gradient(self, q: DofVector) -> DofVector:
        return DofVector(self.layouts[SpaceKind.CURL],
                         self.gradient_matrix() @ q.values)

    def global_curl(self, v: DofVector) -> DofVector:
        return DofVector(self.layouts[SpaceKind.DIV],
                         self.curl_matrix() @ v.values)

    def _matrix_from(self, blocks, nrows, ncols) -> sp.csr_matrix:
        data, ri, ci = [], [], []
        for rows, cols, block in blocks:
            if block.size == 0:
                continue
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            ri.append(rr.ravel())
            ci.append(cc.ravel())
            data.append(block.ravel())
        if not data:
            return sp.csr_matrix((nrows, ncols))
        return sp.csr_matrix((np.concatenate(data),
                              (np.concatenate(ri), np.concatenate(ci))),
                             shape=(nrows, ncols))

    def gradient_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the global discrete gradient."""
        if "uG" not in self._op_cache:
            gl = self.layouts[SpaceKind.GRAD]
            cl = self.layouts[SpaceKind.CURL]

            def blocks():
                for e, ectx in enumerate(self.edges):
                    yield (cl.edge_dofs(e), gl.edge_indices(e),
                           ectx.deriv @ ectx.skeleton)
                for f, fctx in enumerate(self.faces):
                    yield cl.face_dofs(f), gl.face_indices(f), fctx.uG_face
                for c, cctx in enumerate(self.cells):
                    yield (cl.cell_dofs(c), gl.cell_indices(c),
                           cctx.uG[cctx.n_curl - cl.cell_block:])
            self._op_cache["uG"] = self._matrix_from(
                blocks(), cl.total_dim, gl.total_dim)
        return self._op_cache["uG"]

    def curl_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the global discrete curl."""
        if "uC" not in self._op_cache:
            cl = self.layouts[SpaceKind.CURL]
            dl = self.layouts[SpaceKind.DIV]

            def blocks():
                for f, fctx in enumerate(self.faces):
                    yield dl.face_dofs(f), cl.face_indices(f), fctx.curl_mat
                for c, cctx in enumerate(self.cells):
                    yield (dl.cell_dofs(c), cl.cell_indices(c),
                           cctx.uC[cctx.n_div - dl.cell_block:])
            self._op_cache["uC"] = self._matrix_from(
                blocks(), dl.total_dim, cl.total_dim)
        return self._op_cache["uC"]

    # -- discrete L2 products and norms ---------------------------------------
    def l2_product(self, kind, x: DofVector, y: DofVector) -> float:
        return float(x.values @ (self.gram_matrix(kind) @ y.values))

    def gram_matrix(self, kind) -> sp.csr_matrix:
        """Sparse matrix of the stabilised L2 product of a space."""
        kind = SpaceKind(kind)
        if kind not in self._gram_cache:
            lay = self.layouts[kind]
            self._gram_cache[kind] = self._matrix_from(
                ((lay.cell_indices(c), lay.cell_indices(c),
                  getattr(cctx, f"product_{kind.value}"))
                 for c, cctx in enumerate(self.cells)),
                lay.total_dim, lay.total_dim)
        return self._gram_cache[kind]

    def norm(self, kind, x: DofVector) -> float:
        return float(np.sqrt(max(self.l2_product(kind, x, x), 0.0)))

    def graph_norm(self, v: DofVector) -> float:
        """sqrt(|v|_CURL^2 + |uC v|_DIV^2) on the discrete curl space."""
        cv = self.global_curl(v)
        return float(np.sqrt(max(self.l2_product(SpaceKind.CURL, v, v), 0.0)
                             + max(self.l2_product(SpaceKind.DIV, cv, cv), 0.0)))

    # -- potentials at quadrature points ---------------------------------------
    def curl_potential_values(self, c: int, v_local: np.ndarray) -> np.ndarray:
        """Values (npts, 3) of the curl-space vector potential on cell c."""
        cctx = self.cells[c]
        coef = (cctx.pot_curl @ v_local).reshape(-1, 3)
        return cctx.phi_k @ coef

    def div_potential_values(self, c: int, w_local: np.ndarray) -> np.ndarray:
        cctx = self.cells[c]
        coef = (cctx.pot_div @ w_local).reshape(-1, 3)
        return cctx.phi_k @ coef

    def grad_potential_values(self, c: int, q_local: np.ndarray) -> np.ndarray:
        cctx = self.cells[c]
        phi = cctx.sca[self.k + 1].eval(cctx.rule.points)
        return phi @ (cctx.pot_grad @ q_local)

    # -- Ls-type norms ----------------------------------------------------------
    def cell_curl_diffs(self, c: int):
        """Sampled trace differences of the curl potential on cell c, as
        (where, h_weight, quad_weights, operator) per face and edge; the
        operator maps the cell-local CURL DoFs to the tangential components
        of the difference, (npts, 2, nloc) on a face and (npts, nloc) on an
        edge."""
        cctx = self.cells[c]
        chart = _Chart([cctx.geom])
        vb = ps.VectorBasis(None, self.k, 3, cctx.vb.coeff[None])
        out = []
        for s in [*_face_slots([cctx], self.faces, chart, self.k + 2),
                  *_cell_edge_slots([cctx], self.mesh, self._edge_group, chart,
                                    self.k + 2)]:
            hw, A = _trace_diff(SpaceKind.CURL, cctx.pot_curl[None], vb, s)
            out.append(("face" if hasattr(s, "normal") else "edge", hw[0],
                        s.w[0], A[0]))
        return out

    def ls_curl_norm(self, s: float, v: DofVector) -> float:
        """L^s-like norm on the curl space: cellwise potential plus h-weighted
        trace mismatches, all to the power s, summed and rooted."""
        lay = self.layouts[SpaceKind.CURL]
        total = 0.0
        for c, cctx in enumerate(self.cells):
            loc = v.values[lay.cell_indices(c)]
            pv = self.curl_potential_values(c, loc)
            total += _lsnorm(cctx.rule.weights, pv, s) ** s
            for _, hw, w, A in self.cell_curl_diffs(c):
                total += hw * _lsnorm(w, A @ loc, s) ** s
        return total ** (1.0 / s)

    # -- Appendix-style local component and potential norms ---------------------
    def component_norm_cell(self, s: float, c: int, v_local: np.ndarray) -> float:
        """Component L^s norm of a local CURL vector on cell c: the sum over
        the cell, its faces and its edges of h^{(3-d')/s}-weighted component
        L^s norms."""
        cctx = self.cells[c]
        comp = _rot_components(cctx, v_local,
                               (cctx.curl_R_cell, cctx.curl_Rc_cell))
        total = _lsnorm(cctx.rule.weights, comp, s)
        for f in cctx.face_ids:
            fctx = self.faces[f]
            comp = _rot_components(fctx, v_local[cctx.curl_face_map[f]],
                                   (fctx.curl_R_slice, fctx.curl_Rc_slice))
            total += fctx.face.diameter ** (1.0 / s) * _lsnorm(
                fctx.rule.weights, comp, s)
        for e in cctx.edge_ids:
            ectx = self.edges[e]
            vals = ectx.basis_values(self.k) @ v_local[cctx.curl_edge_map[e]]
            total += ectx.edge.length ** (2.0 / s) * _lsnorm(
                ectx.rule.weights, vals, s)
        return float(total)

    def potential_norm_cell(self, s: float, c: int, v_local: np.ndarray) -> float:
        """Potential-based L^s norm of a local CURL vector on cell c."""
        cctx = self.cells[c]
        pv = self.curl_potential_values(c, v_local)
        total = _lsnorm(cctx.rule.weights, pv, s)
        for _, hw, w, A in self.cell_curl_diffs(c):
            # hw is h_F or h_E^2; the component weight is hw^{1/s}
            total += hw ** (1.0 / s) * _lsnorm(w, A @ v_local, s)
        return float(total)

    def component_norm_face(self, s: float, f: int, v_face: np.ndarray) -> float:
        fctx = self.faces[f]
        comp = _rot_components(fctx, v_face,
                               (fctx.curl_R_slice, fctx.curl_Rc_slice))
        total = _lsnorm(fctx.rule.weights, comp, s)
        for e in fctx.edge_ids:
            ectx = self.edges[e]
            vals = ectx.basis_values(self.k) @ v_face[fctx.curl_edge_slices[e]]
            total += ectx.edge.length ** (1.0 / s) * _lsnorm(
                ectx.rule.weights, vals, s)
        return float(total)

    def potential_norm_face(self, s: float, f: int, v_face: np.ndarray) -> float:
        fctx = self.faces[f]
        gt = fctx.ttrace_mat @ v_face
        vals = np.einsum("pbc,b->pc", fctx.vb.eval(fctx.rule.points), gt)
        total = _lsnorm(fctx.rule.weights, vals, s)
        for e in fctx.edge_ids:
            ectx = self.edges[e]
            t2 = fctx.geom.axes @ ectx.edge.tangent
            gt_t = np.einsum("pbc,b,c->p", fctx.vb.eval(ectx.rule.points), gt, t2)
            ve = ectx.basis_values(self.k) @ v_face[fctx.curl_edge_slices[e]]
            total += ectx.edge.length ** (1.0 / s) * _lsnorm(
                ectx.rule.weights, gt_t - ve, s)
        return float(total)

    def _sum_cells(self, cell_norm, s: float, v: DofVector) -> float:
        """The local norms cell_norm(s, c, v_c) raised to s, summed over
        cells and rooted."""
        lay = self.layouts[SpaceKind.CURL]
        return sum(cell_norm(s, c, v.values[lay.cell_indices(c)]) ** s
                   for c in range(self.mesh.n_cells)) ** (1.0 / s)

    def component_norm(self, s: float, v: DofVector) -> float:
        """Global component L^s norm on the curl space."""
        return self._sum_cells(self.component_norm_cell, s, v)

    def potential_norm(self, s: float, v: DofVector) -> float:
        """Global potential-based L^s norm on the curl space."""
        return self._sum_cells(self.potential_norm_cell, s, v)
