"""Discrete gradient/curl/divergence operators, potentials and L2 products.

Everything is assembled per entity as dense matrices acting on entity-local
DoF vectors (``LocalOperator`` style): moment systems are solved in the
entity-local orthonormal bases, once for each class of faces or cells that
are translates of one another, and cached.  Every face and cell operator
comes from integration by parts against the traces on the entity's
boundary, and the stabilisation penalises the gap between the cell
potentials and those same traces: one trace table per cell
(:meth:`CellContext.traces`) feeds both its moment systems and its
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
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from . import polyspaces as ps
from .mesh import Mesh
from .quadrature import cell_rule, edge_rule, face_rule
from .spaces import DofLayout, DofVector, SpaceKind


def _inner_scalar(gram, A, B):
    """<a_i, b_j> for scalar polynomials given by monomial coefficient rows."""
    return A @ gram[:A.shape[1], :B.shape[1]] @ B.T


def _triple_moments(weights, phi):
    """int phi_i phi_j phi_l from samples phi (npts, n) -> (n, n, n)."""
    n = phi.shape[1]
    pairs = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), n * n)
    return ((weights[:, None] * phi).T @ pairs).reshape(n, n, n)


def _grad_coeffs(C, dim, h):
    """Physical gradient of scalar coefficient rows; same exponent table."""
    deg = ps._deg_of(dim, C.shape[1])
    return np.stack([C @ ps.deriv_matrix(dim, deg, a).T / h
                     for a in range(dim)], axis=-1)


def _div_coeffs(V, dim, h):
    deg = ps._deg_of(dim, V.shape[1])
    return sum(V[:, :, a] @ ps.deriv_matrix(dim, deg, a).T / h
               for a in range(dim))


def _rot2_of_scalar(C, h):
    """Vector rot on a face: (d2 m, -d1 m) in frame components."""
    deg = ps._deg_of(2, C.shape[1])
    d1 = C @ ps.deriv_matrix(2, deg, 0).T / h
    d2 = C @ ps.deriv_matrix(2, deg, 1).T / h
    return np.stack([d2, -d1], axis=-1)


def _curl3_coeffs(V, h):
    deg = ps._deg_of(3, V.shape[1])
    D = [ps.deriv_matrix(3, deg, a).T / h for a in range(3)]
    cx = V[:, :, 2] @ D[1] - V[:, :, 1] @ D[2]
    cy = V[:, :, 0] @ D[2] - V[:, :, 2] @ D[0]
    cz = V[:, :, 1] @ D[0] - V[:, :, 0] @ D[1]
    return np.stack([cx, cy, cz], axis=-1)


def _lsnorm(weights, vals, s):
    """L^s norm of sampled scalar/vector values (vector: Euclidean pointwise)."""
    mag = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=-1)
    return float(np.sum(weights * mag**s)) ** (1.0 / s)


def _boundary_term(n_rows, n_loc, pieces):
    """sum_b omega_b int_b test . trial over boundary pieces b.

    Each piece is (omega_b, quadrature weights, test, trial, cols): test is
    (npts[, ncomp], n_rows) and trial (npts[, ncomp], ncols), both sampled
    at the rule points of b, and cols are the n_loc local columns the trial
    acts on.
    """
    out = np.zeros((n_rows, n_loc))
    for sign, w, test, trial, cols in pieces:
        # the rows are points, or (point, component) pairs that share the
        # point's weight
        trial = trial.reshape(-1, trial.shape[-1])
        test = test.reshape(len(trial), n_rows)
        w = np.repeat(w, len(trial) // len(w))
        out[:, cols] += sign * (test * w[:, None]).T @ trial
    return out


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
# per-entity contexts


class EdgeContext:
    def __init__(self, mesh: Mesh, eid: int, k: int, rule_degree: int):
        self.k = k
        e = mesh.edges[eid]
        self.edge = e
        self.h = e.length
        self.geom = ps.edge_geometry(mesh, e)
        self.rule = edge_rule(mesh, eid, rule_degree)
        self.gram = ps.scalar_monomial_gram(self.geom, k + 1, self.rule)
        self.sca = {l: ps.build_scalar_basis(self.geom, l, self.rule)
                    for l in (k - 1, k, k + 1)}

        # skeleton reconstruction: [q(v_a), q(v_b), moments vs P^{k-1}] ->
        # coefficients in the P^{k+1}(E) orthonormal basis
        bkp1 = self.sca[k + 1]
        A = np.vstack([
            bkp1.eval(mesh.vertex_coords[list(e.vertices)]),
            _inner_scalar(self.gram, self.sca[k - 1].coeff, bkp1.coeff),
        ])
        self.skeleton = np.linalg.solve(A, np.eye(k + 2))

        # derivative along t_E: P^{k+1} coefficients -> P^k coefficients
        dmono = bkp1.coeff @ ps.deriv_matrix(1, k + 1, 0).T / self.h
        self.deriv = _inner_scalar(self.gram, self.sca[k].coeff, dmono)
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

    def traces(self, skeleton, curl_cols) -> dict:
        """GRAD and CURL traces of an entity's local DoFs at the edge rule
        points, as {kind: (values, local columns)}: skeleton maps the local
        GRAD DoFs to P^{k+1}(E) coefficients, and curl_cols are the local
        columns of the edge's CURL DoFs."""
        return {SpaceKind.GRAD: (self.basis_values(self.k + 1) @ skeleton,
                                 slice(None)),
                SpaceKind.CURL: (self.basis_values(self.k), curl_cols)}


class _EntityContext:
    """What faces and cells share: their bases, their gradient, and their
    placement on a translate of their entity.

    The local operators of an entity depend only on its shape, local
    numbering and orientations, so one context built from scratch serves
    every translate with the same local structure.  A placed context shares
    the operator arrays and the basis coefficients of the one it is placed
    from; ``_place`` rebuilds what depends on position: the entity, its
    anchor and quadrature rule, and the maps keyed by global ids.
    """

    def placed_at(self, mesh: Mesh, index: int, *place_args):
        new = copy.copy(self)
        new._place(mesh, index, self.rule.exactness_degree, *place_args)
        new.sca = {l: replace(b, geom=new.geom) for l, b in self.sca.items()}
        new.vb = replace(self.vb, geom=new.geom)
        new.sub = {key: replace(b, geom=new.geom)
                   for key, b in self.sub.items()}
        return new

    def _bases(self, extra=()):
        """Monomial Gram, scalar bases, P^k vector basis and the split
        subspaces R^{k-1}, Rc^{ell+1}, R^k, Rc^k, Rc^{k+2} and extra."""
        k, ell, g = self.k, self.ell, self.geom
        self.gram = ps.scalar_monomial_gram(g, k + 2, self.rule)
        self.sca = {l: ps.build_scalar_basis(g, l, self.rule)
                    for l in {k - 1, k, k + 1, ell}}
        self.vb = ps.tensor_vector_basis(self.sca[k], g.dim)
        # Rc^{ell+1} is Rc^k in DDR mode (ell = k - 1): each key is built once
        self.sub = {
            (sel, l): ps.build_subspace(g, sel, l, self.gram)
            for sel, l in dict.fromkeys([("R", k - 1), ("Rc", ell + 1),
                                         ("R", k), ("Rc", k), ("Rc", k + 2),
                                         *extra])}

    def _flux(self, pieces, kind, n_rows, test):
        """sum_b omega_b int_b test(b) . (kind trace on b) over the boundary
        pieces (omega_b, context of b, traces of b), in local columns."""
        n_loc = getattr(self, f"n_{kind.value}")
        return _boundary_term(n_rows, n_loc, [
            (sign, ctx.rule.weights, test(ctx), *tr[kind])
            for sign, ctx, tr in pieces])

    def _gradient(self, grad_flux, own_cols):
        """Serendipity moments, gradient and P^{k+1} potential of the local
        GRAD DoFs.

        grad_flux(sub) is the boundary term sum_b omega_b int_b (w . n_b) q_b
        for w in the basis sub, against the boundary traces q_b; own_cols are
        the columns of the entity's own P^ell moments q_Y.
        """
        k, g, gram, vb = self.k, self.geom, self.gram, self.vb
        Rk, Rck = self.sub["R", k], self.sub["Rc", k]
        cRk2 = self.sub["Rc", k + 2]
        # int G q . tau = -int q_Y div tau + boundary term, tau in Rc^k
        sg = grad_flux(Rck)
        if Rck.dim:
            sg[:, own_cols] -= _inner_scalar(
                gram, _div_coeffs(Rck.coeff, g.dim, g.scale),
                self.sca[self.ell].coeff)
        M = np.vstack([Rk.coords_in(vb, gram), Rck.coords_in(vb, gram)])
        grad = np.linalg.solve(M, np.vstack([grad_flux(Rk), sg]))
        # int P q div w = -int G q . w + boundary term, w in Rc^{k+2}
        D = _inner_scalar(gram, _div_coeffs(cRk2.coeff, g.dim, g.scale),
                          self.sca[k + 1].coeff)
        rhs = (grad_flux(cRk2)
               - ps.coords_in_vector_basis(vb, cRk2.coeff, gram) @ grad)
        return sg, grad, np.linalg.solve(D, rhs)


class FaceContext(_EntityContext):
    def __init__(self, mesh: Mesh, fid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx: list[EdgeContext]):
        self.k = k
        self.ell = ell
        self._place(mesh, fid, rule_degree)
        self._bases()

        nv, ne = len(self.verts), len(self.edge_ids)
        dRm, dRc = self.sub["R", k - 1].dim, self.sub["Rc", ell + 1].dim
        dPl = self.sca[ell].dim
        self.n_grad = nv + ne * k + dPl
        self.n_curl = ne * (k + 1) + dRm + dRc
        self.grad_face_slice = slice(nv + ne * k, self.n_grad)
        self.curl_R_slice = slice(ne * (k + 1), ne * (k + 1) + dRm)
        self.curl_Rc_slice = slice(ne * (k + 1) + dRm, self.n_curl)

        self._assemble(edge_ctx)

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

    # -- helpers ------------------------------------------------------------
    def edge_skeleton_map(self, eid: int, ectx: EdgeContext) -> np.ndarray:
        """Matrix sending face-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return ectx.skeleton_map(self.grad_vert_pos,
                                 self.grad_edge_slices[eid], self.n_grad)

    def trace_values(self) -> dict:
        """Traces of the face DoFs at the face's rule points: the GRAD trace
        (npts, n_grad), the CURL tangential trace in frame components
        (npts, 2, n_curl) and the P^k basis (npts, dim) that the DIV normal
        components are written in."""
        k, rule = self.k, self.rule
        sample = ps.Sampler(self.geom, k + 1)
        return {
            SpaceKind.GRAD: sample(self.sca[k + 1], rule) @ self.trace_mat,
            SpaceKind.CURL: sample(self.vb, rule).transpose(0, 2, 1)
                            @ self.ttrace_mat,
            SpaceKind.DIV: sample(self.sca[k], rule)}

    def _assemble(self, edge_ctx):
        k, g, gram, vb = self.k, self.geom, self.gram, self.vb
        Rck, Rkm = self.sub["Rc", k], self.sub["R", k - 1]
        Rcd = self.sub["Rc", self.ell + 1]
        sample = ps.Sampler(g, k + 2)
        edges = [(self.edge_sign[e], edge_ctx[e], edge_ctx[e].traces(
                      self.edge_skeleton_map(e, edge_ctx[e]),
                      self.curl_edge_slices[e]))
                 for e in self.edge_ids]

        # --- gradient, serendipity gradient moments and scalar trace --------
        def normal_flux(sub):
            # n_FE in frame components
            return self._flux(edges, SpaceKind.GRAD, sub.dim, lambda ectx: (
                sample(sub, ectx.rule) @ (g.axes @ self.edge_nfe[ectx.edge.id])))
        self.serendipity_grad, self.grad_mat, self.trace_mat = self._gradient(
            normal_flux, self.grad_face_slice)

        # --- face curl --------------------------------------------------------
        cm = -self._flux(edges, SpaceKind.CURL, self.sca[k].dim,
                         lambda ectx: sample(self.sca[k], ectx.rule))
        if Rkm.dim:
            cm[:, self.curl_R_slice] += ps.vector_inner(
                gram, _rot2_of_scalar(self.sca[k].coeff, g.scale), Rkm.coeff)
        self.curl_mat = cm

        # --- serendipity curl moments: directly the Rc component -------------
        sc = np.zeros((Rck.dim, self.n_curl))
        sc[:, self.curl_Rc_slice] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- tangential trace -------------------------------------------------
        nm = ps.dim_poly(2, k + 1)
        mono_test = np.eye(nm)[1:]                     # non-constant monomials
        rot_test = _rot2_of_scalar(mono_test, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, rot_test, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.vstack([
            _inner_scalar(gram, mono_test, self.sca[k].coeff) @ cm
            + self._flux(edges, SpaceKind.CURL, len(mono_test),
                         lambda ectx: sample.monomials(ectx.rule)[:, 1:nm]),
            sc])
        self.ttrace_mat = np.linalg.solve(M, rhs)

        # --- face blocks of the global gradient ------------------------------
        self.uG_face = np.vstack([Rkm.coords_in(vb, gram) @ self.grad_mat,
                                  Rcd.coords_in(vb, gram) @ self.grad_mat])


class CellContext(_EntityContext):
    def __init__(self, mesh: Mesh, cid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx, face_ctx, layouts):
        self.k = k
        self.ell = ell
        self._place(mesh, cid, rule_degree, layouts)
        self._bases([("G", k - 1), ("Gc", k), ("Gc", k + 1)])
        faces, edges = self.traces(edge_ctx, face_ctx)
        sample = ps.Sampler(self.geom, k + 2)
        self._assemble(faces, edges, sample)
        self._products(faces, edges, sample)

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

    # -- local index bookkeeping --------------------------------------------
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

    def _edge_skeleton(self, ectx: EdgeContext) -> np.ndarray:
        """Matrix sending cell-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return ectx.skeleton_map(self.grad_vert_pos,
                                 self.grad_edge_map[ectx.edge.id], self.n_grad)

    def traces(self, edge_ctx, face_ctx):
        """Boundary traces of the cell-local DoFs, sampled at the rule points
        of each face and edge of the cell.

        Returns (faces, edges).  faces lists (omega_TF, face context,
        traces) and edges lists (1, edge context, traces); traces maps each
        space to (values, cell-local columns).  On a face the values are
        the GRAD trace, the CURL tangential trace in frame components
        (npts, 2, ncols) and the DIV normal component; on an edge, the GRAD
        skeleton and the CURL tangential component.
        """
        faces = []
        for f in self.face_ids:
            vals = face_ctx[f].trace_values()
            faces.append((self.face_sign[f], face_ctx[f], {
                SpaceKind.GRAD: (vals[SpaceKind.GRAD], self.grad_face_map[f]),
                SpaceKind.CURL: (vals[SpaceKind.CURL], self.curl_face_map[f]),
                SpaceKind.DIV: (vals[SpaceKind.DIV], self.div_face_map[f])}))
        edges = [(1.0, edge_ctx[e], edge_ctx[e].traces(
                      self._edge_skeleton(edge_ctx[e]), self.curl_edge_map[e]))
                 for e in self.edge_ids]
        return faces, edges

    # -- operator assembly ----------------------------------------------------
    def _assemble(self, faces, edges, sample):
        k, g, gram, vb = self.k, self.geom, self.gram, self.vb
        Rck, Rkm = self.sub["Rc", k], self.sub["R", k - 1]
        Rcd = self.sub["Rc", self.ell + 1]
        Gkm, Gck = self.sub["G", k - 1], self.sub["Gc", k]
        cGk1 = self.sub["Gc", k + 1]

        # --- element gradient, serendipity moments and gradient potential ----
        def normal_flux(sub):
            return self._flux(faces, SpaceKind.GRAD, sub.dim, lambda fctx: (
                sample(sub, fctx.rule) @ fctx.face.normal))
        self.serendipity_grad, self.grad_mat, self.pot_grad = self._gradient(
            normal_flux, self.grad_cell)

        # --- element curl -------------------------------------------------------
        # int_F (w x n_F) . gamma_t, with w x n_F in frame components:
        # (w x n) . a = w . (n x a) for each frame axis a
        nxa = {fctx.face.id: np.cross(fctx.face.normal, fctx.geom.axes).T
               for _, fctx, _ in faces}

        def cross_flux(w):
            return self._flux(faces, SpaceKind.CURL, w.dim, lambda fctx: (
                (sample(w, fctx.rule) @ nxa[fctx.face.id]).transpose(0, 2, 1)))
        cm = cross_flux(vb)
        if Rkm.dim:
            cm[:, self.curl_R_cell] += ps.vector_inner(
                gram, _curl3_coeffs(vb.coeff, g.scale), Rkm.coeff)
        self.curl_op = cm

        # --- serendipity curl moments -------------------------------------------
        sc = np.zeros((Rck.dim, self.n_curl))
        sc[:, self.curl_Rc_cell] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- curl potential ------------------------------------------------------
        curlw = _curl3_coeffs(cGk1.coeff, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, curlw, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.vstack([
            ps.vector_inner(gram, cGk1.coeff, vb.coeff) @ cm - cross_flux(cGk1),
            sc])
        self.pot_curl = np.linalg.solve(M, rhs)

        # --- divergence and its potential ----------------------------------------
        dm = self._flux(faces, SpaceKind.DIV, self.sca[k].dim,
                        lambda fctx: sample(self.sca[k], fctx.rule))
        if Gkm.dim:
            dm[:, self.div_G_cell] -= ps.vector_inner(
                gram, _grad_coeffs(self.sca[k].coeff, 3, g.scale), Gkm.coeff)
        self.div_op = dm

        nm = ps.dim_poly(3, k + 1)
        mono_test = np.eye(nm)[1:]
        grad_test = _grad_coeffs(mono_test, 3, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, grad_test, gram),
                       Gck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_div))
        rhs[:len(mono_test)] = self._flux(
            faces, SpaceKind.DIV, len(mono_test),
            lambda fctx: sample.monomials(fctx.rule)[:, 1:nm]
        ) - _inner_scalar(gram, mono_test, self.sca[k].coeff) @ dm
        rhs[len(mono_test):, self.div_Gc_cell] = np.eye(Gck.dim)
        self.pot_div = np.linalg.solve(M, rhs)

        # --- cell blocks of the global operators -----------------------------
        uG = np.zeros((self.n_curl, self.n_grad))
        uC = np.zeros((self.n_div, self.n_curl))
        for _, ectx, _ in edges:
            uG[self.curl_edge_map[ectx.edge.id]] = \
                ectx.deriv @ self._edge_skeleton(ectx)
        for _, fctx, _ in faces:
            f = fctx.face.id
            uG[self.curl_faceblock_map[f][:, None],
               self.grad_face_map[f][None, :]] = fctx.uG_face
            uC[self.div_face_map[f][:, None], self.curl_face_map[f][None, :]] \
                = fctx.curl_mat
        uG[self.curl_R_cell] = Rkm.coords_in(vb, gram) @ self.grad_mat
        uG[self.curl_Rc_cell] = Rcd.coords_in(vb, gram) @ self.grad_mat
        uC[self.div_G_cell] = Gkm.coords_in(vb, gram) @ cm
        uC[self.div_Gc_cell] = Gck.coords_in(vb, gram) @ cm
        self.uG, self.uC = uG, uC
        self.convective_curl = self.pot_div @ uC   # C_h = P_div o uC, cellwise

        # evaluation caches kept small: scalar P^k basis at cell points
        self.phi_k = self.sca[k].eval(self.rule.points)
        # moment tensor int phi_i phi_j phi_l for the convective term
        self.tri_tensor = _triple_moments(self.rule.weights, self.phi_k)

    # -- stabilised products ---------------------------------------------------
    def _trace_diffs(self, kind, faces, edges, sample):
        """Sampled differences between the kind potential and the kind
        traces of the table (faces, edges) from :meth:`traces`; sample is
        a :class:`~ddrns.polyspaces.Sampler` of the cell.

        Returns (where, h_weight, quad_weights, operator) with the operator
        mapping local DoFs to sampled differences: (npts, 2, nloc) for the
        CURL tangential components on faces, (npts, nloc) otherwise.  The
        h-weights are h_F and h_E^2 as in the stabilisation; DIV has no
        edge terms.
        """
        pot = getattr(self, f"pot_{kind.value}")
        # the trace of a P^k field is its normal component on a face (DIV),
        # its tangential components on a face (CURL) and along an edge
        pieces = [("face", fctx.face.diameter, fctx, tr,
                   fctx.geom.axes if kind is SpaceKind.CURL else fctx.face.normal)
                  for _, fctx, tr in faces]
        pieces += [("edge", ectx.edge.length**2, ectx, tr, ectx.edge.tangent)
                   for _, ectx, tr in edges if kind in tr]
        out = []
        for where, hw, ctx, tr, frame in pieces:
            if kind is SpaceKind.GRAD:
                A = sample(self.sca[self.k + 1], ctx.rule) @ pot
            else:
                # (p, b) along a vector, (p, c, b) along the rows of a frame
                A = np.swapaxes(sample(self.vb, ctx.rule) @ frame.T, 1, -1) @ pot
            vals, cols = tr[kind]
            A[..., cols] -= vals
            out.append((where, hw, ctx.rule.weights, A))
        return out

    def curl_diffs(self, faces, edges):
        """Sampled trace differences of the curl potential on the trace table
        (faces, edges) from :meth:`traces`; see :meth:`_trace_diffs`."""
        return self._trace_diffs(SpaceKind.CURL, faces, edges,
                                 ps.Sampler(self.geom, self.k + 2))

    def _products(self, faces, edges, sample):
        """Cell products P^T P + s_T.  The stabilisation s_T vanishes on the
        interpolates of polynomials, so it needs no projection onto their
        complement."""
        for kind in SpaceKind:
            pot = getattr(self, f"pot_{kind.value}")
            n = pot.shape[1]
            # s_T = sum_b h_b int_b A_b . A_b over the trace differences A_b
            S = _boundary_term(n, n, [
                (hw, w, A, A, slice(None))
                for _, hw, w, A in self._trace_diffs(kind, faces, edges,
                                                     sample)])
            setattr(self, f"product_{kind.value}", pot.T @ pot + S)


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


def _at_rule_points(fun, ctxs) -> list:
    """fun at the rule points of every context, in one call, split per
    context."""
    if not ctxs:
        return []
    vals = fun(np.concatenate([ctx.rule.points for ctx in ctxs]))
    ends = np.cumsum([ctx.rule.n_points for ctx in ctxs])
    return list(zip(ctxs, np.split(vals, ends[:-1])))


def _sub_moments(ctx, vals, keys):
    """Moments of frame-component values (npts, ncomp) at the rule points of
    a face or cell context against its subspaces ctx.sub[key], key by key,
    concatenated.  The monomials are sampled once for all keys."""
    sample = ps.Sampler(ctx.geom, ctx.k + 2)
    return np.concatenate([
        ps.project_vector(ctx.sub[key], ctx.rule, vals,
                          sample(ctx.sub[key], ctx.rule)) for key in keys])


# ---------------------------------------------------------------------------
# the assembled complex


class DdrComplex:
    """All discrete operators of one (mesh, degree) pair.

    Construction assembles the local operators of each translation class
    of faces and cells once, and those of each edge; the object is immutable
    afterwards and safe to share between threads.  Contexts of one class
    share their operator arrays and basis coefficients.
    """

    def __init__(self, mesh: Mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.layouts = {kind: DofLayout(mesh, kind, k) for kind in SpaceKind}
        deg_bilin = 2 * k + 4
        self.cell_degree = max(2 * k + 4, 3 * k + 3)
        ell = k - 1     # DDR-mode face and cell moment degree
        self.edges = [EdgeContext(mesh, e, k, deg_bilin)
                      for e in range(mesh.n_edges)]
        # each translation class of faces and cells is built once, from its
        # first member, and placed on the others
        face_reps, cell_reps = {}, {}
        self.faces = []
        for f in range(mesh.n_faces):
            rep = face_reps.setdefault(_face_key(mesh, f), f)
            self.faces.append(
                FaceContext(mesh, f, k, ell, deg_bilin, self.edges)
                if rep == f else self.faces[rep].placed_at(mesh, f))
        self.cells = []
        for c in range(mesh.n_cells):
            rep = cell_reps.setdefault(_cell_key(mesh, c), c)
            self.cells.append(
                CellContext(mesh, c, k, ell, self.cell_degree,
                            self.edges, self.faces, self.layouts)
                if rep == c else self.cells[rep].placed_at(mesh, c,
                                                           self.layouts))
        self._gram_cache = {}
        self._op_cache = {}

    def layout(self, kind) -> DofLayout:
        return self.layouts[SpaceKind(kind)]

    # -- interpolators ------------------------------------------------------
    # fun is called once per entity kind, on the rule points of all its
    # entities, and only when the kind's DoF block is not empty, so it is
    # never evaluated at points whose values would be discarded.
    def interpolate_grad(self, fun) -> DofVector:
        """I_grad: vertex values and P^{k-1}/P^{ell} moments of a scalar field.

        fun maps an (n, 3) array of points to (n,) values.
        """
        k = self.k
        lay = self.layouts[SpaceKind.GRAD]
        out = DofVector.zeros(lay)
        out.values[:self.mesh.n_vertices] = fun(self.mesh.vertex_coords)
        if lay.edge_block:
            for e, (ectx, vals) in enumerate(_at_rule_points(fun, self.edges)):
                out.values[lay.edge_dofs(e)] = ps.project_scalar(
                    ectx.sca[k - 1], ectx.rule, vals, ectx.basis_values(k - 1))
        # faces and cells alike: moments against P^{k-1} = P^{ell}
        for ctxs, block, dofs in ((self.faces, lay.face_block, lay.face_dofs),
                                  (self.cells, lay.cell_block, lay.cell_dofs)):
            for i, (ctx, vals) in enumerate(
                    _at_rule_points(fun, ctxs) if block else []):
                out.values[dofs(i)] = ps.project_scalar(
                    ctx.sca[k - 1], ctx.rule, vals)
        return out

    def interpolate_curl(self, fun) -> DofVector:
        """I_curl of a vector field: edge tangential moments, face tangential
        R/Rc moments, cell R/Rc moments.  fun: (n, 3) points -> (n, 3)."""
        k = self.k
        lay = self.layouts[SpaceKind.CURL]
        out = DofVector.zeros(lay)
        for e, (ectx, vals) in enumerate(_at_rule_points(fun, self.edges)):
            out.values[lay.edge_dofs(e)] = ps.project_scalar(
                ectx.sca[k], ectx.rule, vals @ ectx.edge.tangent,
                ectx.basis_values(k))
        for ctxs, block, dofs in ((self.faces, lay.face_block, lay.face_dofs),
                                  (self.cells, lay.cell_block, lay.cell_dofs)):
            for i, (ctx, vals) in enumerate(
                    _at_rule_points(fun, ctxs) if block else []):
                # frame components: tangential on a face, all three on a cell
                out.values[dofs(i)] = _sub_moments(
                    ctx, vals @ ctx.geom.axes.T,
                    (("R", k - 1), ("Rc", ctx.ell + 1)))
        return out

    def interpolate_div(self, fun) -> DofVector:
        """I_div of a vector field: face normal moments, cell G/Gc moments."""
        k = self.k
        lay = self.layouts[SpaceKind.DIV]
        out = DofVector.zeros(lay)
        for f, (fctx, vals) in enumerate(_at_rule_points(fun, self.faces)):
            out.values[lay.face_dofs(f)] = ps.project_scalar(
                fctx.sca[k], fctx.rule, vals @ fctx.face.normal)
        for c, (cctx, vals) in enumerate(
                _at_rule_points(fun, self.cells) if lay.cell_block else []):
            out.values[lay.cell_dofs(c)] = _sub_moments(
                cctx, vals, (("G", k - 1), ("Gc", k)))
        return out

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
        """Sampled trace differences of the curl potential on cell c; see
        :meth:`CellContext.curl_diffs`."""
        cctx = self.cells[c]
        return cctx.curl_diffs(*cctx.traces(self.edges, self.faces))

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
