"""Discrete gradient/curl/divergence operators, potentials and L2 products.

Everything is assembled per entity as dense matrices acting on entity-local
DoF vectors (``LocalOperator`` style): moment systems are solved in the
entity-local orthonormal bases, once for each class of faces or cells that
are translates of one another, and cached.  The module exposes a
:class:`DdrComplex` tying together one mesh and one polynomial degree:
interpolators onto the three spaces, the global discrete gradient and curl,
the stabilised L2 products of the three spaces and the derived norms.

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


def _inner_vector(gram, A, B):
    """<a_i, b_j> for vector polynomials (rows, monomials, components)."""
    return np.einsum("imc,mn,jnc->ij", A, gram[:A.shape[1], :B.shape[1]], B,
                     optimize=True)


def _grad_coeffs(C, dim, h):
    """Physical gradient of scalar coefficient rows; same exponent table."""
    return np.stack([C @ ps.deriv_matrix(dim, _deg(dim, C.shape[1]), a).T / h
                     for a in range(dim)], axis=-1)


def _div_coeffs(V, dim, h):
    deg = _deg(dim, V.shape[1])
    return sum(V[:, :, a] @ ps.deriv_matrix(dim, deg, a).T / h
               for a in range(dim))


def _rot2_of_scalar(C, h):
    """Vector rot on a face: (d2 m, -d1 m) in frame components."""
    deg = _deg(2, C.shape[1])
    d1 = C @ ps.deriv_matrix(2, deg, 0).T / h
    d2 = C @ ps.deriv_matrix(2, deg, 1).T / h
    return np.stack([d2, -d1], axis=-1)


def _curl3_coeffs(V, h):
    deg = _deg(3, V.shape[1])
    D = [ps.deriv_matrix(3, deg, a).T / h for a in range(3)]
    cx = V[:, :, 2] @ D[1] - V[:, :, 1] @ D[2]
    cy = V[:, :, 0] @ D[2] - V[:, :, 2] @ D[0]
    cz = V[:, :, 1] @ D[0] - V[:, :, 0] @ D[1]
    return np.stack([cx, cy, cz], axis=-1)


def _deg(dim, nm):
    return ps._deg_of(dim, nm)


def _lsnorm(weights, vals, s):
    """L^s norm of sampled scalar/vector values (vector: Euclidean pointwise)."""
    mag = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=-1)
    return float(np.sum(weights * mag**s)) ** (1.0 / s)


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
        self.sca = {}
        for l in (k - 1, k, k + 1):
            self.sca[l] = ps.build_scalar_basis(self.geom, l, self.rule)

        # skeleton reconstruction: [q(v_a), q(v_b), moments vs P^{k-1}] ->
        # coefficients in the P^{k+1}(E) orthonormal basis
        pa = mesh.vertex_coords[e.vertices[0]][None, :]
        pb = mesh.vertex_coords[e.vertices[1]][None, :]
        bkp1 = self.sca[k + 1]
        A = np.vstack([
            bkp1.eval(pa), bkp1.eval(pb),
            _inner_scalar(self.gram, self.sca[k - 1].coeff, bkp1.coeff),
        ])
        self.skeleton = np.linalg.solve(A, np.eye(k + 2))

        # derivative along t_E: P^{k+1} coefficients -> P^k coefficients
        dmono = bkp1.coeff @ ps.deriv_matrix(1, k + 1, 0).T / self.h
        self.deriv = _inner_scalar(self.gram, self.sca[k].coeff, dmono)

    def basis_values(self, l: int, pts=None) -> np.ndarray:
        pts = self.rule.points if pts is None else pts
        return self.sca[l].eval(pts)

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


class _EntityContext:
    """Placement of a face or cell context on a translate of its entity.

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


class FaceContext(_EntityContext):
    def __init__(self, mesh: Mesh, fid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx: list[EdgeContext]):
        self.k = k
        self.ell = ell
        self._place(mesh, fid, rule_degree)
        g = self.geom
        self.gram = ps.scalar_monomial_gram(g, k + 2, self.rule)

        self.sca = {l: ps.build_scalar_basis(g, l, self.rule)
                    for l in {k - 1, k, k + 1, ell}}
        self.vb = ps.tensor_vector_basis(self.sca[k], 2)
        parent = ps.tensor_vector_basis(
            ps.build_scalar_basis(g, k + 2, self.rule), 2)
        self.sub = {}
        for sel, l in [("R", k - 1), ("Rc", ell + 1), ("R", k), ("Rc", k),
                       ("Rc", k + 2)]:
            self.sub[sel, l] = ps.build_subspace(g, sel, l, parent, self.gram)

        nv, ne = len(self.verts), len(self.edge_ids)
        dRm, dRc = self.sub["R", k - 1].dim, self.sub["Rc", ell + 1].dim
        dPl = self.sca[ell].dim
        self.n_grad = nv + ne * k + dPl
        self.n_curl = ne * (k + 1) + dRm + dRc
        self.grad_face_slice = slice(nv + ne * k, self.n_grad)
        self.curl_R_slice = slice(ne * (k + 1), ne * (k + 1) + dRm)
        self.curl_Rc_slice = slice(ne * (k + 1) + dRm, self.n_curl)

        self._assemble(mesh, edge_ctx)

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

    def _assemble(self, mesh, edge_ctx):
        k, ell, g = self.k, self.ell, self.geom
        vb, gram = self.vb, self.gram
        Rk = self.sub["R", k]
        Rck = self.sub["Rc", k]
        Rkm = self.sub["R", k - 1]
        Rcd = self.sub["Rc", ell + 1]
        cRk2 = self.sub["Rc", k + 2]

        # --- serendipity gradient moments (DDR mode): rows over cRoly^k ----
        # int_F S_GF q . tau = -int_F q_F div tau + sum_E w_FE int_E q_E (tau.n_FE)
        sg = np.zeros((Rck.dim, self.n_grad))
        if Rck.dim:
            divtau = _div_coeffs(Rck.coeff, 2, g.scale)
            sg[:, self.grad_face_slice] = -_inner_scalar(
                gram, divtau, self.sca[ell].coeff)
            for eid in self.edge_ids:
                ectx = edge_ctx[eid]
                tau3 = np.einsum("pbc,cx->pbx", Rck.eval(ectx.rule.points),
                                 g.axes)
                tn = tau3 @ self.edge_nfe[eid]          # (npts, dim Rc)
                phi_km1 = ectx.basis_values(k - 1)
                sg[:, self.grad_edge_slices[eid]] += self.edge_sign[eid] * (
                    tn * ectx.rule.weights[:, None]).T @ phi_km1
        self.serendipity_grad = sg

        # --- face gradient --------------------------------------------------
        M = np.vstack([Rk.coords_in(vb, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_grad))
        for j, eid in enumerate(self.edge_ids):
            ectx = edge_ctx[eid]
            sk = self.edge_skeleton_map(eid, ectx)
            w3 = np.einsum("pbc,cx->pbx", Rk.eval(ectx.rule.points), g.axes)
            wn = w3 @ self.edge_nfe[eid]
            qvals = ectx.basis_values(k + 1) @ sk      # (npts, n_grad)
            rhs[:Rk.dim] += self.edge_sign[eid] * (
                wn * ectx.rule.weights[:, None]).T @ qvals
        rhs[Rk.dim:] = sg
        self.grad_mat = np.linalg.solve(M, rhs)

        # --- scalar trace ----------------------------------------------------
        divw = _div_coeffs(cRk2.coeff, 2, g.scale)
        D = _inner_scalar(gram, divw, self.sca[k + 1].coeff)     # (ncR, nk+1)
        rhs = -ps.coords_in_vector_basis(vb, cRk2.coeff, gram) @ self.grad_mat
        for eid in self.edge_ids:
            ectx = edge_ctx[eid]
            sk = self.edge_skeleton_map(eid, ectx)
            w3 = np.einsum("pbc,cx->pbx", cRk2.eval(ectx.rule.points), g.axes)
            wn = w3 @ self.edge_nfe[eid]
            qvals = ectx.basis_values(k + 1) @ sk
            rhs += self.edge_sign[eid] * (
                wn * ectx.rule.weights[:, None]).T @ qvals
        self.trace_mat = np.linalg.solve(D, rhs)

        # --- face curl --------------------------------------------------------
        cm = np.zeros((self.sca[k].dim, self.n_curl))
        rotphi = _rot2_of_scalar(self.sca[k].coeff, g.scale)
        if Rkm.dim:
            cm[:, self.curl_R_slice] = _inner_vector(gram, rotphi, Rkm.coeff)
        for eid in self.edge_ids:
            ectx = edge_ctx[eid]
            phi_k_edge = ectx.basis_values(k)
            rvals = self.sca[k].eval(ectx.rule.points)
            cm[:, self.curl_edge_slices[eid]] -= self.edge_sign[eid] * (
                rvals * ectx.rule.weights[:, None]).T @ phi_k_edge
        self.curl_mat = cm

        # --- serendipity curl moments: directly the Rc component -------------
        sc = np.zeros((Rck.dim, self.n_curl))
        sc[:, self.curl_Rc_slice] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- tangential trace -------------------------------------------------
        nm1 = len(ps.monomial_exponents(2, k + 1))
        mono_test = np.eye(nm1)[1:]                    # non-constant monomials
        rot_test = _rot2_of_scalar(mono_test, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, rot_test, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_curl))
        rhs[:len(mono_test)] = _inner_scalar(
            gram, mono_test, self.sca[k].coeff) @ cm
        for eid in self.edge_ids:
            ectx = edge_ctx[eid]
            phi_k_edge = ectx.basis_values(k)
            xi = g.local_coords(ectx.rule.points)
            rvals = ps.mono_eval(ps.monomial_exponents(2, k + 1), xi)[:, 1:]
            rhs[:len(mono_test), self.curl_edge_slices[eid]] += \
                self.edge_sign[eid] * (
                    rvals * ectx.rule.weights[:, None]).T @ phi_k_edge
        rhs[len(mono_test):] = sc
        self.ttrace_mat = np.linalg.solve(M, rhs)

        # --- face blocks of the global gradient ------------------------------
        parts = []
        if Rkm.dim:
            parts.append(Rkm.coords_in(vb, gram) @ self.grad_mat)
        else:
            parts.append(np.zeros((0, self.n_grad)))
        if Rcd.dim:
            parts.append(Rcd.coords_in(vb, gram) @ self.grad_mat)
        else:
            parts.append(np.zeros((0, self.n_grad)))
        self.uG_face = np.vstack(parts)


class CellContext(_EntityContext):
    def __init__(self, mesh: Mesh, cid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx, face_ctx, layouts):
        self.k = k
        self.ell = ell
        self._place(mesh, cid, rule_degree, layouts)
        g = self.geom
        self.gram = ps.scalar_monomial_gram(g, k + 2, self.rule)

        self.sca = {l: ps.build_scalar_basis(g, l, self.rule)
                    for l in {k - 1, k, k + 1, ell}}
        self.vb = ps.tensor_vector_basis(self.sca[k], 3)
        parent = ps.tensor_vector_basis(
            ps.build_scalar_basis(g, k + 2, self.rule), 3)
        self.sub = {}
        for sel, l in [("R", k - 1), ("Rc", ell + 1), ("R", k), ("Rc", k),
                       ("Rc", k + 2), ("G", k - 1), ("Gc", k), ("Gc", k + 1)]:
            self.sub[sel, l] = ps.build_subspace(g, sel, l, parent, self.gram)

        self._assemble(mesh, edge_ctx, face_ctx)
        self._products(edge_ctx, face_ctx)

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

    # -- operator assembly ----------------------------------------------------
    def _assemble(self, mesh, edge_ctx, face_ctx):
        k, ell, g = self.k, self.ell, self.geom
        gram, vb = self.gram, self.vb
        Rk, Rck = self.sub["R", k], self.sub["Rc", k]
        Rkm, Rcd = self.sub["R", k - 1], self.sub["Rc", ell + 1]
        Gkm, Gck = self.sub["G", k - 1], self.sub["Gc", k]
        cGk1, cRk2 = self.sub["Gc", k + 1], self.sub["Rc", k + 2]

        # face data at face quadrature points, reused by several systems
        fdata = {}
        for f in self.face_ids:
            fctx = face_ctx[f]
            fr = fctx.rule
            phi_kp1_F = fctx.sca[k + 1].eval(fr.points)
            E3 = np.einsum("pbc,cx->pbx", fctx.vb.eval(fr.points),
                           fctx.geom.axes)
            fdata[f] = (fctx, fr, phi_kp1_F, E3)

        # --- serendipity gradient moments on the cell -----------------------
        sg = np.zeros((Rck.dim, self.n_grad))
        if Rck.dim:
            divtau = _div_coeffs(Rck.coeff, 3, g.scale)
            sg[:, self.grad_cell] = -_inner_scalar(gram, divtau,
                                                   self.sca[ell].coeff)
            for f in self.face_ids:
                fctx, fr, phi_kp1_F, _ = fdata[f]
                taun = Rck.eval(fr.points) @ fctx.face.normal
                sg[:, self.grad_face_map[f]] += self.face_sign[f] * (
                    (taun * fr.weights[:, None]).T @ phi_kp1_F) @ fctx.trace_mat
        self.serendipity_grad = sg

        # --- element gradient -------------------------------------------------
        M = np.vstack([Rk.coords_in(vb, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_grad))
        for f in self.face_ids:
            fctx, fr, phi_kp1_F, _ = fdata[f]
            wn = Rk.eval(fr.points) @ fctx.face.normal
            rhs[:Rk.dim, self.grad_face_map[f]] += self.face_sign[f] * (
                (wn * fr.weights[:, None]).T @ phi_kp1_F) @ fctx.trace_mat
        rhs[Rk.dim:] = sg
        self.grad_mat = np.linalg.solve(M, rhs)

        # --- gradient potential ------------------------------------------------
        divw = _div_coeffs(cRk2.coeff, 3, g.scale)
        D = _inner_scalar(gram, divw, self.sca[k + 1].coeff)
        rhs = -ps.coords_in_vector_basis(vb, cRk2.coeff, gram) @ self.grad_mat
        for f in self.face_ids:
            fctx, fr, phi_kp1_F, _ = fdata[f]
            wn = cRk2.eval(fr.points) @ fctx.face.normal
            rhs[:, self.grad_face_map[f]] += self.face_sign[f] * (
                (wn * fr.weights[:, None]).T @ phi_kp1_F) @ fctx.trace_mat
        self.pot_grad = np.linalg.solve(D, rhs)

        # --- element curl -------------------------------------------------------
        cm = np.zeros((vb.dim, self.n_curl))
        curlphi = _curl3_coeffs(vb.coeff, g.scale)
        if Rkm.dim:
            cm[:, self.curl_R_cell] = _inner_vector(gram, curlphi, Rkm.coeff)
        for f in self.face_ids:
            fctx, fr, _, E3 = fdata[f]
            wvals = vb.eval(fr.points)                       # (npts, nb, 3)
            wxn = np.cross(wvals, fctx.face.normal[None, None, :])
            T = np.einsum("ptx,pbx->tb", wxn * fr.weights[:, None, None], E3,
                          optimize=True)
            cm[:, self.curl_face_map[f]] += self.face_sign[f] * T @ fctx.ttrace_mat
        self.curl_op = cm

        # --- serendipity curl moments -------------------------------------------
        sc = np.zeros((Rck.dim, self.n_curl))
        sc[:, self.curl_Rc_cell] = np.eye(Rck.dim)
        self.serendipity_curl = sc

        # --- curl potential ------------------------------------------------------
        curlw = _curl3_coeffs(cGk1.coeff, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, curlw, gram),
                       Rck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_curl))
        rhs[:cGk1.dim] = _inner_vector(gram, cGk1.coeff, vb.coeff) @ cm
        for f in self.face_ids:
            fctx, fr, _, E3 = fdata[f]
            wvals = cGk1.eval(fr.points)
            wxn = np.cross(wvals, fctx.face.normal[None, None, :])
            T = np.einsum("ptx,pbx->tb", wxn * fr.weights[:, None, None], E3,
                          optimize=True)
            rhs[:cGk1.dim, self.curl_face_map[f]] -= self.face_sign[f] * (
                T @ fctx.ttrace_mat)
        rhs[cGk1.dim:] = sc
        self.pot_curl = np.linalg.solve(M, rhs)

        # --- divergence and its potential ----------------------------------------
        dm = np.zeros((self.sca[k].dim, self.n_div))
        gradphi = _grad_coeffs(self.sca[k].coeff, 3, g.scale)
        if Gkm.dim:
            dm[:, self.div_G_cell] = -_inner_vector(gram, gradphi, Gkm.coeff)
        for f in self.face_ids:
            fctx, fr, _, _ = fdata[f]
            rvals = self.sca[k].eval(fr.points)
            phi_k_F = fctx.sca[k].eval(fr.points)
            dm[:, self.div_face_map[f]] += self.face_sign[f] * (
                rvals * fr.weights[:, None]).T @ phi_k_F
        self.div_op = dm

        nm1 = len(ps.monomial_exponents(3, k + 1))
        mono_test = np.eye(nm1)[1:]
        grad_test = _grad_coeffs(mono_test, 3, g.scale)
        M = np.vstack([ps.coords_in_vector_basis(vb, grad_test, gram),
                       Gck.coords_in(vb, gram)])
        rhs = np.zeros((vb.dim, self.n_div))
        rhs[:len(mono_test)] = -_inner_scalar(
            gram, mono_test, self.sca[k].coeff) @ dm
        for f in self.face_ids:
            fctx, fr, _, _ = fdata[f]
            xi = g.local_coords(fr.points)
            rvals = ps.mono_eval(ps.monomial_exponents(3, k + 1), xi)[:, 1:]
            phi_k_F = fctx.sca[k].eval(fr.points)
            rhs[:len(mono_test), self.div_face_map[f]] += self.face_sign[f] * (
                rvals * fr.weights[:, None]).T @ phi_k_F
        rhs[len(mono_test):, self.div_Gc_cell] = np.eye(Gck.dim)
        self.pot_div = np.linalg.solve(M, rhs)

        # --- cell blocks of the global operators -----------------------------
        uG = np.zeros((self.n_curl, self.n_grad))
        for e in self.edge_ids:
            ectx = edge_ctx[e]
            uG[self.curl_edge_map[e]] = ectx.deriv @ self._edge_skeleton(ectx)
        for f in self.face_ids:
            fctx = face_ctx[f]
            if fctx.uG_face.shape[0]:
                uG[self.curl_faceblock_map[f][:, None],
                   self.grad_face_map[f][None, :]] = fctx.uG_face
        if Rkm.dim:
            uG[self.curl_R_cell] = Rkm.coords_in(vb, gram) @ self.grad_mat
        if Rcd.dim:
            uG[self.curl_Rc_cell] = Rcd.coords_in(vb, gram) @ self.grad_mat
        self.uG = uG

        uC = np.zeros((self.n_div, self.n_curl))
        for f in self.face_ids:
            uC[self.div_face_map[f][:, None], self.curl_face_map[f][None, :]] \
                = face_ctx[f].curl_mat
        if Gkm.dim:
            uC[self.div_G_cell] = Gkm.coords_in(vb, gram) @ cm
        if Gck.dim:
            uC[self.div_Gc_cell] = Gck.coords_in(vb, gram) @ cm
        self.uC = uC
        self.convective_curl = self.pot_div @ uC   # C_h = P_div o uC, cellwise

        # evaluation caches kept small: scalar P^k basis at cell points
        self.phi_k = self.sca[k].eval(self.rule.points)
        # moment tensor int phi_i phi_j phi_l for the convective term
        self.tri_tensor = np.einsum("p,pi,pj,pl->ijl", self.rule.weights,
                                    self.phi_k, self.phi_k, self.phi_k,
                                    optimize=True)

    # -- stabilised products ---------------------------------------------------
    def _edge_skeleton(self, ectx: EdgeContext) -> np.ndarray:
        """Matrix sending cell-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return ectx.skeleton_map(self.grad_vert_pos,
                                 self.grad_edge_map[ectx.edge.id], self.n_grad)

    def _stab_grad_ops(self, edge_ctx, face_ctx):
        """Per-face and per-edge sampled difference operators for s_GRAD."""
        k = self.k
        bs = self.sca[k + 1]
        ops = []
        for f in self.face_ids:
            fctx = face_ctx[f]
            A = bs.eval(fctx.rule.points) @ self.pot_grad
            A[:, self.grad_face_map[f]] -= (
                fctx.sca[k + 1].eval(fctx.rule.points) @ fctx.trace_mat)
            ops.append((fctx.face.diameter, fctx.rule.weights, A))
        for e in self.edge_ids:
            ectx = edge_ctx[e]
            A = bs.eval(ectx.rule.points) @ self.pot_grad
            A -= ectx.basis_values(k + 1) @ self._edge_skeleton(ectx)
            ops.append((ectx.edge.length**2, ectx.rule.weights, A))
        return ops

    def curl_diffs(self, edge_ctx, face_ctx):
        """Sampled trace differences of the curl potential.

        Returns (where, h_weight, quad_weights, operator) with the operator
        mapping local CURL DoFs to sampled differences: (npts, 2, nloc) on
        faces (tangent-frame components), (npts, nloc) on edges.  The
        h-weights are h_F and h_E^2 as in the stabilisation.
        """
        out = []
        for f in self.face_ids:
            fctx = face_ctx[f]
            vals3 = self.vb.eval(fctx.rule.points)           # (p, nb, 3)
            tang = np.einsum("pbx,cx->pbc", vals3, fctx.geom.axes)
            A = np.einsum("pbc,bn->pcn", tang, self.pot_curl)
            A[:, :, self.curl_face_map[f]] -= np.einsum(
                "pbc,bn->pcn", fctx.vb.eval(fctx.rule.points), fctx.ttrace_mat)
            out.append(("face", fctx.face.diameter, fctx.rule.weights, A))
        for e in self.edge_ids:
            ectx = edge_ctx[e]
            vals3 = self.vb.eval(ectx.rule.points)
            vt = np.einsum("pbx,x->pb", vals3, ectx.edge.tangent)
            A = vt @ self.pot_curl
            A[:, self.curl_edge_map[e]] -= ectx.basis_values(self.k)
            out.append(("edge", ectx.edge.length**2, ectx.rule.weights, A))
        return out

    def _stab_div_ops(self, face_ctx):
        k = self.k
        ops = []
        for f in self.face_ids:
            fctx = face_ctx[f]
            vals3 = self.vb.eval(fctx.rule.points)
            wn = np.einsum("pbx,x->pb", vals3, fctx.face.normal)
            A = wn @ self.pot_div
            A[:, self.div_face_map[f]] -= fctx.sca[k].eval(fctx.rule.points)
            ops.append((fctx.face.diameter, fctx.rule.weights, A))
        return ops

    def _products(self, edge_ctx, face_ctx):
        """Cell products P^T P + s_T.  The stabilisation s_T vanishes on the
        interpolates of polynomials, so it needs no projection onto their
        complement."""
        def stabilised(pot, ops):
            n = pot.shape[1]
            S = np.zeros((n, n))
            for hw, w, A in ops:
                # the rows of A are points, or (point, component) pairs that
                # share the point's weight
                A = A.reshape(-1, n)
                w = np.repeat(w, len(A) // len(w))
                S += hw * A.T @ (w[:, None] * A)
            return pot.T @ pot + S

        self.product_grad = stabilised(
            self.pot_grad, self._stab_grad_ops(edge_ctx, face_ctx))
        self.product_curl = stabilised(
            self.pot_curl,
            [op[1:] for op in self.curl_diffs(edge_ctx, face_ctx)])
        self.product_div = stabilised(self.pot_div,
                                      self._stab_div_ops(face_ctx))


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


def _cell_key(mesh: Mesh, cid: int, face_class) -> tuple:
    """Cell key; face_class[f] names the translation class of face f, whose
    basis the face DoFs of the cell are expressed in.  omega_TF follows from
    the geometry of a valid mesh and is kept in the key as a guard."""
    c = mesh.cells[cid]
    faces = sorted(c.faces)
    sign = dict(zip(c.faces, c.face_signs))
    return (_translation_key(mesh, c.vertex_ids, c.anchor, c.diameter,
                             [mesh.faces[f].vertex_loop for f in faces],
                             c.edge_ids),
            tuple((face_class[f], sign[f]) for f in faces))


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
        face_reps, cell_reps, face_class = {}, {}, []
        self.faces = []
        for f in range(mesh.n_faces):
            rep = face_reps.setdefault(_face_key(mesh, f), f)
            face_class.append(rep)
            self.faces.append(
                FaceContext(mesh, f, k, ell, deg_bilin, self.edges)
                if rep == f else self.faces[rep].placed_at(mesh, f))
        self.cells = []
        for c in range(mesh.n_cells):
            rep = cell_reps.setdefault(_cell_key(mesh, c, face_class), c)
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
    def interpolate_grad(self, fun) -> DofVector:
        """I_grad: vertex values and P^{k-1}/P^{ell} moments of a scalar field.

        fun maps an (n, 3) array of points to (n,) values.
        """
        k = self.k
        lay = self.layouts[SpaceKind.GRAD]
        out = DofVector.zeros(lay)
        out.values[:self.mesh.n_vertices] = fun(self.mesh.vertex_coords)
        for e, ectx in enumerate(self.edges):
            if lay.edge_block:
                vals = fun(ectx.rule.points)
                phi = ectx.basis_values(k - 1)
                out.values[lay.edge_dofs(e)] = phi.T @ (ectx.rule.weights * vals)
        for f, fctx in enumerate(self.faces):
            if lay.face_block:
                vals = fun(fctx.rule.points)
                phi = fctx.sca[fctx.ell].eval(fctx.rule.points)
                out.values[lay.face_dofs(f)] = phi.T @ (fctx.rule.weights * vals)
        for c, cctx in enumerate(self.cells):
            if lay.cell_block:
                vals = fun(cctx.rule.points)
                phi = cctx.sca[cctx.ell].eval(cctx.rule.points)
                out.values[lay.cell_dofs(c)] = phi.T @ (cctx.rule.weights * vals)
        return out

    def interpolate_curl(self, fun) -> DofVector:
        """I_curl of a vector field: edge tangential moments, face tangential
        R/Rc moments, cell R/Rc moments.  fun: (n, 3) points -> (n, 3)."""
        k = self.k
        lay = self.layouts[SpaceKind.CURL]
        out = DofVector.zeros(lay)
        for e, ectx in enumerate(self.edges):
            vals = fun(ectx.rule.points) @ ectx.edge.tangent
            phi = ectx.basis_values(k)
            out.values[lay.edge_dofs(e)] = phi.T @ (ectx.rule.weights * vals)
        for f, fctx in enumerate(self.faces):
            vals = fun(fctx.rule.points) @ fctx.geom.axes.T   # tangential comps
            for which, sub in ((0, fctx.sub["R", k - 1]),
                               (1, fctx.sub["Rc", fctx.ell + 1])):
                if sub.dim:
                    psi = sub.eval(fctx.rule.points)
                    out.values[lay.face_subblock(f, which)] = np.einsum(
                        "pbc,pc->b", psi * fctx.rule.weights[:, None, None], vals)
        for c, cctx in enumerate(self.cells):
            vals = fun(cctx.rule.points)
            for which, sub in ((0, cctx.sub["R", k - 1]),
                               (1, cctx.sub["Rc", cctx.ell + 1])):
                if sub.dim:
                    psi = sub.eval(cctx.rule.points)
                    out.values[lay.cell_subblock(c, which)] = np.einsum(
                        "pbc,pc->b", psi * cctx.rule.weights[:, None, None], vals)
        return out

    def interpolate_div(self, fun) -> DofVector:
        """I_div of a vector field: face normal moments, cell G/Gc moments."""
        k = self.k
        lay = self.layouts[SpaceKind.DIV]
        out = DofVector.zeros(lay)
        for f, fctx in enumerate(self.faces):
            vals = fun(fctx.rule.points) @ fctx.face.normal
            phi = fctx.sca[k].eval(fctx.rule.points)
            out.values[lay.face_dofs(f)] = phi.T @ (fctx.rule.weights * vals)
        for c, cctx in enumerate(self.cells):
            vals = fun(cctx.rule.points)
            for which, sub in ((0, cctx.sub["G", k - 1]),
                               (1, cctx.sub["Gc", k])):
                if sub.dim:
                    psi = sub.eval(cctx.rule.points)
                    out.values[lay.cell_subblock(c, which)] = np.einsum(
                        "pbc,pc->b", psi * cctx.rule.weights[:, None, None], vals)
        return out

    # -- global differential operators ---------------------------------------
    def global_gradient(self, q: DofVector) -> DofVector:
        gl = self.layouts[SpaceKind.GRAD]
        cl = self.layouts[SpaceKind.CURL]
        out = DofVector.zeros(cl)
        for e, ectx in enumerate(self.edges):
            out.values[cl.edge_dofs(e)] = ectx.deriv @ ectx.skeleton @ \
                q.values[gl.edge_indices(e)]
        for f, fctx in enumerate(self.faces):
            if fctx.uG_face.shape[0]:
                out.values[cl.face_dofs(f)] = fctx.uG_face @ \
                    q.values[gl.face_indices(f)]
        for c, cctx in enumerate(self.cells):
            if cl.cell_block:
                loc = q.values[gl.cell_indices(c)]
                out.values[cl.cell_dofs(c)] = cctx.uG[-cl.cell_block:] @ loc
        return out

    def global_curl(self, v: DofVector) -> DofVector:
        cl = self.layouts[SpaceKind.CURL]
        dl = self.layouts[SpaceKind.DIV]
        out = DofVector.zeros(dl)
        for f, fctx in enumerate(self.faces):
            out.values[dl.face_dofs(f)] = fctx.curl_mat @ \
                v.values[cl.face_indices(f)]
        for c, cctx in enumerate(self.cells):
            if dl.cell_block:
                loc = v.values[cl.cell_indices(c)]
                out.values[dl.cell_dofs(c)] = cctx.uC[-dl.cell_block:] @ loc
        return out

    def _matrix_from(self, rows_fn, nrows, ncols) -> sp.csr_matrix:
        data, ri, ci = [], [], []
        for rows, cols, block in rows_fn():
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
        if "uG" in self._op_cache:
            return self._op_cache["uG"]
        gl = self.layouts[SpaceKind.GRAD]
        cl = self.layouts[SpaceKind.CURL]

        def blocks():
            for e, ectx in enumerate(self.edges):
                yield cl.edge_dofs(e), gl.edge_indices(e), ectx.deriv @ ectx.skeleton
            for f, fctx in enumerate(self.faces):
                yield cl.face_dofs(f), gl.face_indices(f), fctx.uG_face
            for c, cctx in enumerate(self.cells):
                if cl.cell_block:
                    yield cl.cell_dofs(c), gl.cell_indices(c), \
                        cctx.uG[-cl.cell_block:]
        m = self._matrix_from(blocks, cl.total_dim, gl.total_dim)
        self._op_cache["uG"] = m
        return m

    def curl_matrix(self) -> sp.csr_matrix:
        if "uC" in self._op_cache:
            return self._op_cache["uC"]
        cl = self.layouts[SpaceKind.CURL]
        dl = self.layouts[SpaceKind.DIV]

        def blocks():
            for f, fctx in enumerate(self.faces):
                yield dl.face_dofs(f), cl.face_indices(f), fctx.curl_mat
            for c, cctx in enumerate(self.cells):
                if dl.cell_block:
                    yield dl.cell_dofs(c), cl.cell_indices(c), \
                        cctx.uC[-dl.cell_block:]
        m = self._matrix_from(blocks, dl.total_dim, cl.total_dim)
        self._op_cache["uC"] = m
        return m

    # -- discrete L2 products and norms ---------------------------------------
    def _cell_product(self, cctx, kind: SpaceKind) -> np.ndarray:
        return {SpaceKind.GRAD: cctx.product_grad,
                SpaceKind.CURL: cctx.product_curl,
                SpaceKind.DIV: cctx.product_div}[kind]

    def l2_product(self, kind, x: DofVector, y: DofVector) -> float:
        kind = SpaceKind(kind)
        lay = self.layouts[kind]
        acc = 0.0
        for c, cctx in enumerate(self.cells):
            idx = lay.cell_indices(c)
            acc += x.values[idx] @ self._cell_product(cctx, kind) @ y.values[idx]
        return float(acc)

    def gram_matrix(self, kind) -> sp.csr_matrix:
        kind = SpaceKind(kind)
        if kind in self._gram_cache:
            return self._gram_cache[kind]
        lay = self.layouts[kind]

        def blocks():
            for c, cctx in enumerate(self.cells):
                idx = lay.cell_indices(c)
                yield idx, idx, self._cell_product(cctx, kind)
        m = self._matrix_from(blocks, lay.total_dim, lay.total_dim)
        self._gram_cache[kind] = m
        return m

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
        return self.cells[c].curl_diffs(self.edges, self.faces)

    def ls_curl_norm(self, s: float, v: DofVector) -> float:
        """L^s-like norm on the curl space: cellwise potential plus h-weighted
        trace mismatches, all to the power s, summed and rooted."""
        lay = self.layouts[SpaceKind.CURL]
        total = 0.0
        for c, cctx in enumerate(self.cells):
            loc = v.values[lay.cell_indices(c)]
            pv = self.curl_potential_values(c, loc)
            total += _lsnorm(cctx.rule.weights, pv, s) ** s
            for where, hw, w, A in self.cell_curl_diffs(c):
                if where == "face":
                    diff = np.einsum("pcn,n->pc", A, loc)
                else:
                    diff = A @ loc
                total += hw * _lsnorm(w, diff, s) ** s
        return total ** (1.0 / s)

    # -- Appendix-style local component and potential norms ---------------------
    def component_norm_cell(self, s: float, c: int, v_local: np.ndarray) -> float:
        """Component L^s norm of a local CURL vector on cell c: the sum over
        the cell, its faces and its edges of h^{(3-d')/s}-weighted component
        L^s norms."""
        cctx = self.cells[c]
        k = self.k
        lay = self.layouts[SpaceKind.CURL]
        total = 0.0
        comp = np.zeros((len(cctx.rule.points), 3))
        for sub, sl in ((cctx.sub["R", k - 1], cctx.curl_R_cell),
                        (cctx.sub["Rc", cctx.ell + 1], cctx.curl_Rc_cell)):
            if sub.dim:
                comp += np.einsum("pbx,b->px", sub.eval3d(cctx.rule.points),
                                  v_local[sl])
        total += _lsnorm(cctx.rule.weights, comp, s)
        for f in cctx.face_ids:
            fctx = self.faces[f]
            comp = np.zeros((len(fctx.rule.points), 2))
            for sub, sl in ((fctx.sub["R", k - 1], fctx.curl_R_slice),
                            (fctx.sub["Rc", fctx.ell + 1], fctx.curl_Rc_slice)):
                if sub.dim:
                    comp += np.einsum("pbc,b->pc", sub.eval(fctx.rule.points),
                                      v_local[cctx.curl_face_map[f][sl]])
            total += fctx.face.diameter ** (1.0 / s) * _lsnorm(
                fctx.rule.weights, comp, s)
        for e in cctx.edge_ids:
            ectx = self.edges[e]
            vals = ectx.basis_values(k) @ v_local[cctx.curl_edge_map[e]]
            total += ectx.edge.length ** (2.0 / s) * _lsnorm(
                ectx.rule.weights, vals, s)
        return float(total)

    def potential_norm_cell(self, s: float, c: int, v_local: np.ndarray) -> float:
        """Potential-based L^s norm of a local CURL vector on cell c."""
        cctx = self.cells[c]
        pv = self.curl_potential_values(c, v_local)
        total = _lsnorm(cctx.rule.weights, pv, s)
        for where, hw, w, A in self.cell_curl_diffs(c):
            if where == "face":
                diff = np.einsum("pcn,n->pc", A, v_local)
                total += hw ** (1.0 / s) * _lsnorm(w, diff, s)
            else:
                # hw is h_E^2; the component weight is h_E^{2/s}
                total += hw ** (1.0 / s) * _lsnorm(w, A @ v_local, s)
        return float(total)

    def component_norm_face(self, s: float, f: int, v_face: np.ndarray) -> float:
        fctx = self.faces[f]
        k = self.k
        comp = np.zeros((len(fctx.rule.points), 2))
        for sub, sl in ((fctx.sub["R", k - 1], fctx.curl_R_slice),
                        (fctx.sub["Rc", fctx.ell + 1], fctx.curl_Rc_slice)):
            if sub.dim:
                comp += np.einsum("pbc,b->pc", sub.eval(fctx.rule.points),
                                  v_face[sl])
        total = _lsnorm(fctx.rule.weights, comp, s)
        for e in fctx.edge_ids:
            ectx = self.edges[e]
            vals = ectx.basis_values(k) @ v_face[fctx.curl_edge_slices[e]]
            total += ectx.edge.length ** (1.0 / s) * _lsnorm(
                ectx.rule.weights, vals, s)
        return float(total)

    def potential_norm_face(self, s: float, f: int, v_face: np.ndarray) -> float:
        fctx = self.faces[f]
        k = self.k
        gt = fctx.ttrace_mat @ v_face
        vals = np.einsum("pbc,b->pc", fctx.vb.eval(fctx.rule.points), gt)
        total = _lsnorm(fctx.rule.weights, vals, s)
        for e in fctx.edge_ids:
            ectx = self.edges[e]
            t2 = fctx.geom.axes @ ectx.edge.tangent
            gt_t = np.einsum("pbc,b,c->p", fctx.vb.eval(ectx.rule.points), gt, t2)
            ve = ectx.basis_values(k) @ v_face[fctx.curl_edge_slices[e]]
            total += ectx.edge.length ** (1.0 / s) * _lsnorm(
                ectx.rule.weights, gt_t - ve, s)
        return float(total)

    def component_norm(self, s: float, v: DofVector) -> float:
        """Global component L^s norm on the curl space: the cellwise local
        norms raised to s, summed over cells and rooted."""
        lay = self.layouts[SpaceKind.CURL]
        total = 0.0
        for c in range(self.mesh.n_cells):
            total += self.component_norm_cell(
                s, c, v.values[lay.cell_indices(c)]) ** s
        return total ** (1.0 / s)

    def potential_norm(self, s: float, v: DofVector) -> float:
        """Global potential-based L^s norm on the curl space."""
        lay = self.layouts[SpaceKind.CURL]
        total = 0.0
        for c in range(self.mesh.n_cells):
            total += self.potential_norm_cell(
                s, c, v.values[lay.cell_indices(c)]) ** s
        return total ** (1.0 / s)
