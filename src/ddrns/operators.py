"""Discrete gradient/curl/divergence operators, potentials and L2 products.

The local operators are dense matrices acting on entity-local DoF vectors
(``LocalOperator`` style), with moment systems solved in entity-local
orthonormal bases.  Edges, faces and cells are built by groups of alike
entities: all edges in one group, faces by loop length, cells by the loop
lengths of their faces and whether they are parallelepipeds, whose rule is
one tensor block.  A group (:class:`EdgeContext`,
:class:`FaceContext`, :class:`CellContext`) owns every member: the ids, the
chart of each, the stack of their quadrature rules, placed by one call of
the rule function, and ``row``, the stack row of each.  Faces or cells that
are translates of one another, with the same local numbering, share a row:
each candidate group writes its members' translation keys as the rows of
one integer array, and ``np.unique`` over those rows gives ``row``.  A
group samples its monomials once at the stacked rule points of one member
per row and forms their Grams, bases, boundary terms, moment systems,
potentials and products as stacked arrays, each with one batched matmul,
Cholesky factor or solve.  The interpolators, the global
matrices, the solver and the Appendix norms read the groups, and so does
every caller: an operator of an entity is its row of its group's stack.
``cx.cells[c]`` only names the group, member index, row and rule of cell c
(:class:`EntityView`).

Every face and cell operator comes from integration by parts against the
traces on the entity's boundary, and the stabilisation penalises the gap
between the cell potentials and those same traces: one trace table per
boundary slot of a group feeds both its moment systems and its
stabilisation and the trace mismatches of the Appendix norms.  One kernel
samples the potentials on selected members of a cell group, and of a
global vector chunk by chunk (:meth:`DdrComplex.potential_chunks`).  The
module exposes a :class:`DdrComplex` tying together one mesh and one
polynomial degree: interpolators onto the three spaces, the global
discrete gradient and curl, the stabilised L2 products of the three spaces
and the derived norms.

The serendipity reduction runs in "DDR mode" only (eta_Y = 2, so
ell_Y = k - 1).  The groups read ell, and the moment space of every DoF
block, from the layouts (``DofLayout.spaces``); no degree of a DoF block is
set here.  The complement-space moments that close the gradient and
tangential-trace systems are supplied by explicit integration-by-parts
formulas on faces and cells, and by the directly-available complement
components for the curl space, whose Rc^{ell+1} block is Rc^k in this mode.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import polyspaces as ps
from .mesh import Mesh, _first_appearance
from .quadrature import (QuadratureRule, cell_rule, edge_rule, face_rule,
                         parallelepipeds)
from .spaces import DofLayout, DofVector, SpaceKind

# rule points per chunk of cells of the global potential kernel, and of the
# norm pieces counted over each member and its boundary slots, so that their
# samples stay a few MiB on any mesh
CHUNK_POINTS = 16384

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


def _curl3_coeffs(V, h):
    deg = ps._deg_of(3, V.shape[-2])
    D = [ps.deriv_matrix(3, deg, a).T / _per_scale(h) for a in range(3)]
    cx = V[..., 2] @ D[1] - V[..., 1] @ D[2]
    cy = V[..., 0] @ D[2] - V[..., 2] @ D[0]
    cz = V[..., 1] @ D[0] - V[..., 0] @ D[1]
    return np.stack([cx, cy, cz], axis=-1)


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


def _positions(table, idx):
    """Positions of the entries of idx (N, ...) in the rows of table (N,
    n), each row sorted: the local columns of global DoFs in the local
    numberings of N entities."""
    n = len(table)
    shift = np.arange(n)[:, None] * (int(table.max(initial=0)) + 1)
    pos = np.searchsorted((table + shift).ravel(), idx.reshape(n, -1) + shift)
    return (pos - np.arange(n)[:, None] * table.shape[1]).reshape(idx.shape)


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
    pot (G, nb, nloc) of a group of cells, or the CURL tangential trace of
    a group of faces, and the kind trace on one of their boundary slots;
    basis is the scalar P^{k+1} basis for GRAD and the scalar P^k basis
    otherwise, whose products with the unit vectors (component-minor) are
    the P^k vector basis of the potential.

    The difference maps local DoFs to (G, npts, 2, nloc) CURL tangential
    components on a face and (G, npts, nloc) values otherwise.  The
    h-weight is h^codim of the slot: h_F and h_E^2 on cells, as in the
    stabilisation, and h_E on faces.
    """
    # the trace of a P^k field is its normal component on a face (DIV),
    # its tangential components on a face (CURL) and along an edge
    on_face = hasattr(slot, "normal")
    phi = basis.values(slot.mono)
    if kind is SpaceKind.GRAD:
        A = phi @ pot
    else:
        # the components of the potential along the frame vectors first:
        # (G, nb, m, nloc) for m frame vectors, then the scalar values
        curl_face = on_face and kind is SpaceKind.CURL
        frame = (slot.axes if curl_face else
                 (slot.normal if on_face else slot.tangent)[:, None])
        G, nb = phi.shape[0], phi.shape[-1]
        Q = frame[:, None] @ pot.reshape(G, nb, frame.shape[-1], -1)
        A = phi @ Q.reshape(G, nb, -1)
        A = A.reshape(A.shape[:2] + ((len(frame[0]), -1) if curl_face
                                     else (-1,)))
    vals, cols = slot.traces[kind]
    _add_cols(A, cols, -vals)
    return slot.hw, A


def _at_points(g, members, basis):
    """Values of a stacked basis of a group, at the rows and rule points of
    its members: (m, npts, nb[, ncomp])."""
    return replace(basis, coeff=basis.coeff[g.row[members]]).values(
        g.chart[members].monomials(g.points[members], basis.degree))


def _sampled(phi, pot, x):
    """Values of fields with coefficients pot @ x in bases whose values are
    phi (m, npts, nb), for m stacked members: pot (m, nb * d, nloc) maps
    the local DoFs x (m, nloc, ...) to coefficients, of scalars when d is 1
    and of d-vectors (component-minor) otherwise -> (m, npts[, d], ...)."""
    m, npts, nb = phi.shape
    coef = pot @ x.reshape(m, x.shape[1], -1)
    d = coef.shape[1] // nb
    vals = phi @ coef.reshape(m, nb, -1)
    return vals.reshape((m, npts) + (d,) * (d > 1) + x.shape[2:])


def _moment_bases(g, blocks) -> list:
    """The bases of the built members of a group g that the DoF blocks
    [(selector, degree)] of a row of DofLayout.spaces are moments against."""
    return [g.sca[l] if sel == "P" else g.sub[sel, l] for sel, l in blocks]


def _own_fields(g, members):
    """The fields of the own CURL DoFs, the trailing blocks, of members of a
    face or cell group, in frame components at their rule points: (m, npts,
    d, nown)."""
    return np.concatenate([np.swapaxes(_at_points(g, members, b), -1, -2)
                           for b in g.dof_bases[SpaceKind.CURL]], axis=-1)


def _piece_norms(pieces, s, x, owner) -> np.ndarray:
    """The norms hw^{1/s} |A x|_{L^s(w)} (n, npieces) of n vectors x (n,
    nloc), vector j on member owner[j] of pieces (h-weights hw (m,), rule
    weights w (m, npts), operator A (m, npts[, d], nloc) of m members),
    vectors measured pointwise in the Euclidean norm; an Appendix norm sums
    them, hw = h^codim.  The vectors of a member are the columns of one
    product with its A."""
    count = np.bincount(owner, minlength=len(pieces[0][0]))
    order = np.argsort(owner, kind="stable")
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    X = np.zeros((len(count), x.shape[1], max(count.max(), 1)))
    X[owner[order], :, rank] = x[order]
    out = np.empty((len(owner), len(pieces)))
    for i, (hw, w, A) in enumerate(pieces):
        vals = (A.reshape(len(A), -1, A.shape[-1]) @ X).reshape(
            A.shape[:-1] + X.shape[-1:])
        mag = np.abs(vals) if vals.ndim == 3 else np.linalg.norm(vals, axis=2)
        norms = (hw[:, None] * np.sum(w[..., None] * mag ** s, axis=1)) ** (
            1.0 / s)
        out[order, i] = norms[owner[order], rank]
    return out


class _Chart:
    """The local charts of a group's entities, stacked: origins (G, 3),
    scales (G,), frames (G, d, 3) and measures (G,)."""

    def __init__(self, origin, scale, axes, measure):
        self.origin, self.scale, self.axes, self.measure = (
            origin, scale, axes, measure)
        self.dim = axes.shape[1]

    def __getitem__(self, sel) -> "_Chart":
        return _Chart(self.origin[sel], self.scale[sel], self.axes[sel],
                      self.measure[sel])

    def monomials(self, points, degree):
        """Scaled monomials of degree <= degree of each chart at its own
        points (G, npts, 3) -> (G, npts, nm)."""
        xi = ((points - self.origin[:, None]) @ np.swapaxes(self.axes, 1, 2)
              / self.scale[:, None, None])
        return ps.mono_eval(ps.monomial_exponents(self.dim, degree), xi)

    def gram(self, blocks, degree):
        """Monomial Grams (G, nm, nm) summed over the blocks of rule points
        from :meth:`_Group._rule_blocks`."""
        return sum(ps.monomial_gram(self.monomials(p, degree), w)
                   for _, p, w in blocks)


def _cell_tables(mesh, layouts, cids):
    """The local numbering of cells cids of one group: the global indices
    of their local DoFs for each space (rows of DofLayout.cell_table), their
    faces ordered by loop length and then id, with the loop lengths and
    omega_TF, and their edges."""
    faces = mesh.cell_faces.rows(cids)
    loops = mesh.face_loops.lengths[faces]
    order = np.lexsort((faces, loops), axis=1)
    return SimpleNamespace(
        layouts=layouts,
        glob={kind: layouts[kind].cell_table(cids) for kind in SpaceKind},
        faces=np.take_along_axis(faces, order, 1),
        loops=np.take_along_axis(loops, order, 1),
        sign=np.take_along_axis(mesh.cell_face_signs.rows(cids).astype(float),
                                order, 1),
        edges=mesh.cell_edges.rows(cids))


def _face_slots(t, face_groups, chart, degree, kinds=tuple(SpaceKind)):
    """The faces of a group of cells with the local numbering t (see
    :func:`_cell_tables`), one slot at a time: slot j holds the j-th face of
    each cell, all of one loop length and so of one face group
    (face_groups[loop length]); see :func:`_face_slot`."""
    for j in range(t.faces.shape[1]):
        yield _face_slot(t, j, face_groups[t.loops[0, j]], chart, degree,
                         kinds)


def _face_slot(t, j, fg, chart, degree, kinds):
    """Face slot j of a group of cells, its faces in the face group fg:
    omega_TF, the face rule weights, normals, frames and diameters, the cell
    monomials of the given degree at the face rule points (None for no
    degree), the face traces of the given kinds in cell-local columns (GRAD
    trace, CURL tangential trace in frame components and the P^k basis of
    the DIV normal component), the face blocks of the global gradient and
    curl with their cell-local rows, and face: fg and the faces' indices in
    it."""
    fids = t.faces[:, j]
    m = np.searchsorted(fg.ids, fids)
    r = fg.row[m]
    k = fg.k
    pts = fg.points[m]
    fmono = (fg.chart[m].monomials(pts, k + 1 if SpaceKind.GRAD in kinds
                                   else k) if kinds else None)

    def trace(kind):
        """The trace values at the face rule points and their columns."""
        lay = t.layouts[kind]
        if kind is SpaceKind.GRAD:
            sca = ps.ScalarBasis(k + 1, fg.sca[k + 1].coeff[r])
            vals = sca.values(fmono) @ fg.trace_mat[r]
        elif kind is SpaceKind.CURL:
            vb = ps.VectorBasis(k, 2, fg.vb.coeff[r])
            vals = (np.swapaxes(vb.values(fmono), -1, -2)
                    @ fg.ttrace_mat[r][:, None])
        else:
            return (ps.ScalarBasis(k, fg.sca[k].coeff[r]).values(fmono),
                    _positions(t.glob[kind], lay.dofs(2, fids)))
        return vals, _positions(t.glob[kind], lay.face_table(fids))

    return SimpleNamespace(
        sign=t.sign[:, j], w=fg.weights[m],
        mono=None if degree is None else chart.monomials(pts, degree),
        normal=fg.normal[m], axes=fg.chart.axes[m], hw=fg.chart.scale[m],
        traces={kind: trace(kind) for kind in kinds},
        faceblock=_positions(t.glob[SpaceKind.CURL], t.layouts[
            SpaceKind.CURL].dofs(2, fids)),
        face=(fg, m),
        uG_face=fg.uG_face[r], curl_mat=fg.curl_mat[r])


def _edge_slots(E, glob, layouts, edges, chart, degree):
    """The edges E (G, ne) of a group of faces or cells whose local DoFs
    are glob[kind] (G, nloc), slot i holding edge E[:, i] of each: the rule
    weights, tangents and h-weights h_E^codim, the entity monomials at the
    edge rule points, the GRAD skeleton and CURL tangential traces in local
    columns, and the derivative of the skeleton.  edges is the EdgeContext
    of all edges, whose stacks are indexed by edge id."""
    gl, cl = layouts[SpaceKind.GRAD], layouts[SpaceKind.CURL]
    slots = []
    for e in E.T:
        # the GRAD skeleton reads the two vertex values and the k moments
        grad = np.hstack([gl.dofs(0, edges.vertices[e])[..., 0],
                          gl.dofs(1, e)])
        slots.append(SimpleNamespace(
            sign=np.ones(len(e)), w=edges.weights[e],
            mono=(None if degree is None
                  else chart.monomials(edges.points[e], degree)),
            tangent=edges.tangent[e],
            hw=edges.chart.scale[e] ** (chart.dim - 1),
            deriv=edges.deriv_skeleton[e],
            traces={SpaceKind.GRAD: (edges.trace_grad[e],
                                     _positions(glob[SpaceKind.GRAD], grad)),
                    SpaceKind.CURL: (edges.phi_k[e], _positions(
                        glob[SpaceKind.CURL], cl.dofs(1, e)))}))
    return slots


def _face_edges(mesh, fids, layouts, edges, chart, degree):
    """The edges by id of the faces fids (see :func:`_edge_slots`), each
    slot with omega_FE, and n_FE and the tangent in frame components."""
    glob = {kind: layouts[kind].face_table(fids)
            for kind in (SpaceKind.GRAD, SpaceKind.CURL)}
    loop = mesh.face_edges.rows(fids)
    order = np.argsort(loop, axis=1)
    sign = np.take_along_axis(mesh.face_edge_signs.rows(fids).astype(float),
                              order, 1)
    nfe = np.take_along_axis(mesh.face_edge_normals.rows(fids),
                             order[..., None], 1)
    slots = _edge_slots(np.take_along_axis(loop, order, 1), glob, layouts,
                        edges, chart, degree)
    for i, s in enumerate(slots):
        s.sign = sign[:, i]
        s.nfe, s.tangent = ((chart.axes @ a[..., None])[..., 0]
                            for a in (nfe[:, i], s.tangent))
    return slots


# ---------------------------------------------------------------------------
# groups of edges, faces and cells, built as stacks


class _Group:
    """What groups share: their members, the naming of a failing entity
    and, for faces and cells, the stacked bases and the gradient.

    A group owns every member: ids (N,), the chart of each (``chart``), the
    stack of their rules (``rule``, one call of the rule function per
    group) with its points (N, npts, 3) and weights (N, npts), and row
    (N,), the stack row of each member.  Translates share a row; rep lists
    the member built for each row.  The local operators of an entity depend
    only on its shape, local numbering and orientations; within a group
    every entity has the same local sizes, so each operator is one stack
    with a leading row axis.
    """

    def _members(self, ids, row, chart, rule):
        self.ids, self.row = np.asarray(ids), np.asarray(row)
        self.rep = np.unique(self.row, return_index=True)[1]
        self.chart = chart
        self.rule, self.points, self.weights = rule, rule.points, rule.weights

    def _rule_blocks(self):
        """The rule points and weights of the built members simplex by
        simplex of their rule, so that one block only is held at a time:
        (slice of the rule, points (G, m, 3), weights (G, m)).  A Duffy
        simplex is one block; so is the whole tensor rule of a
        parallelepiped."""
        parts = self.rule.n_simplices
        m = self.points.shape[1] // parts
        for i in range(parts):
            sl = slice(i * m, (i + 1) * m)
            yield sl, self.points[self.rep, sl], self.weights[self.rep, sl]

    @contextmanager
    def _naming_errors(self):
        """Re-raise a BasisError of a stack naming the entity it arose on."""
        try:
            yield
        except ps.BasisError as err:
            if err.index is None:
                raise
            raise ps.BasisError(
                f"{self.kind} {self.ids[self.rep[err.index]]}: {err}",
                index=err.index) from None

    def _bases(self, chart, gram, layouts, extra=()):
        """Monomial Grams and the bases of the built members, whose charts
        are chart: the spaces of their DoF blocks of each kind, from the
        rows of DofLayout.spaces (``dof_bases[kind]``, block after block),
        the scalar P^k and P^{k+1}, the P^k vector basis, and the split
        subspaces R^k, Rc^k, Rc^{k+2} and extra; every scalar basis is a
        leading block of the Gram at degree k + 2."""
        k, dim = self.k, chart.dim
        self.gram = gram
        blocks = [b for lay in layouts.values() for b in lay.spaces[dim]]
        with self._naming_errors():
            self.sca = {l: ps.build_scalar_basis(dim, l, gram) for l in
                        {k, k + 1, *(d for sel, d in blocks if sel == "P")}}
            # a key named twice (Rc^{ell+1} is Rc^k in DDR mode) is built
            # once
            self.sub = {
                (sel, l): ps.build_subspace(dim, sel, l, gram)
                for sel, l in dict.fromkeys([
                    *(b for b in blocks if b[0] != "P"), ("R", k), ("Rc", k),
                    ("Rc", k + 2), *extra])}
        self.vb = ps.tensor_vector_basis(self.sca[k], chart.dim)
        self.dof_bases = {kind: _moment_bases(self, lay.spaces[dim])
                          for kind, lay in layouts.items()}

    def _gradient(self, chart, flux):
        """Serendipity moments, gradient and P^{k+1} potential of the local
        GRAD DoFs.

        flux[key] is the boundary term sum_b omega_b int_b (w . n_b) q_b for
        w in the basis sub[key], against the boundary traces q_b, for the
        keys R^k, Rc^k and Rc^{k+2}; the entity's own moments q_Y are its
        GRAD DoF block.
        """
        k, gram, vb = self.k, self.gram, self.vb
        pl, = self.dof_bases[SpaceKind.GRAD]
        d, h = chart.dim, chart.scale
        Rk, Rck = self.sub["R", k], self.sub["Rc", k]
        cRk2 = self.sub["Rc", k + 2]
        # int G q . tau = -int q_Y div tau + boundary term, tau in Rc^k
        sg = flux["Rc", k]
        if Rck.dim:
            sg[..., self.own[SpaceKind.GRAD][0]] -= _inner_scalar(
                gram, _div_coeffs(Rck.coeff, d, h), pl.coeff)
        M = np.concatenate([ps.vector_inner(gram, b.coeff, vb.coeff)
                            for b in (Rk, Rck)], axis=-2)
        grad = np.linalg.solve(M, np.concatenate([flux["R", k], sg], axis=-2))
        # int P q div w = -int G q . w + boundary term, w in Rc^{k+2}
        D = _inner_scalar(gram, _div_coeffs(cRk2.coeff, d, h),
                          self.sca[k + 1].coeff)
        rhs = (flux["Rc", k + 2]
               - ps.vector_inner(gram, cRk2.coeff, vb.coeff) @ grad)
        return sg, grad, np.linalg.solve(D, rhs)

    def _sizes(self, glob):
        """The local sizes n_<kind> of the local DoFs glob[kind] (G, n)
        and, for each kind, the columns of the own DoF blocks, which end
        the local numbering: each block's as a slice (``own[kind]``), all
        of them as one index array (``interior[kind]``)."""
        self.own, self.interior = {}, {}
        for kind, g in glob.items():
            n = g.shape[1]
            setattr(self, f"n_{kind.value}", n)
            sizes = [b.dim for b in self.dof_bases[kind]]
            ends = n - sum(sizes) + np.cumsum([0, *sizes])
            self.own[kind] = [slice(int(a), int(b))
                              for a, b in zip(ends[:-1], ends[1:])]
            self.interior[kind] = np.arange(ends[0], n)

    def _by_parts(self, flux, kind, image):
        """A curl or divergence of local DoFs by integration by parts,
        against P^k test functions whose rot, curl or minus gradient is
        image: the boundary term flux plus the moments of image against the
        first own kind DoF block (R^{k-1} or G^{k-1})."""
        first = self.dof_bases[kind][0]
        if first.dim:
            flux[..., self.own[kind][0]] += ps.vector_inner(
                self.gram, image, first.coeff)
        return flux

    def _potential(self, images, rhs, kind):
        """The P^k vector potential P of local kind DoFs from the system
        [images of the tests; complement] P = [rhs; E]: rhs are the moments
        of P against the vector polynomials images, and E reads its moments
        against the space of the second own kind DoF block (Rc^{ell+1} =
        Rc^k, or Gc^k) off that block.  Returns P and E."""
        vb, gram = self.vb, self.gram
        comp = self.dof_bases[kind][1]
        E = np.zeros((len(self.rep), comp.dim, rhs.shape[-1]))
        E[..., self.own[kind][1]] = np.eye(comp.dim)
        M = np.concatenate([ps.vector_inner(gram, images, vb.coeff),
                            ps.vector_inner(gram, comp.coeff, vb.coeff)],
                           axis=-2)
        return np.linalg.solve(M, np.concatenate([rhs, E], axis=-2)), E

    def _split(self, kind, image):
        """The moments of P^k vector fields (coefficients image in vb)
        against the spaces of the own kind DoF blocks, block after block:
        the rows of a global operator that land on the members' own
        DoFs."""
        return np.concatenate(
            [ps.vector_inner(self.gram, b.coeff, self.vb.coeff) @ image
             for b in self.dof_bases[kind]], axis=-2)


class EdgeContext(_Group):
    """The local operators of edges eids, as stacks along a leading edge
    axis; every edge is built, so rows are members.

    Every edge rule has the same size, so a mesh builds its edges in one
    group.  Besides the bases, the skeleton reconstruction and the
    derivative, the group keeps stacked what faces and cells read off their
    edges: the rule points and weights, the GRAD skeleton trace (the
    P^{k+1} basis times the skeleton reconstruction) and the P^k basis at
    the rule points, the derivative of the skeleton, the tangents and the
    vertices.
    """

    kind = "edge"

    def __init__(self, mesh: Mesh, eids, k: int, rule_degree: int):
        self.k = k
        eids = np.asarray(eids)
        self.tangent = mesh.edge_tangent[eids]
        length = mesh.edge_length[eids]
        self._members(eids, np.arange(len(eids)),
                      _Chart(mesh.edge_midpoint[eids], length,
                             self.tangent[:, None], length),
                      edge_rule(mesh, eids, rule_degree))
        chart = self.chart
        mono = chart.monomials(self.points, k + 1)
        # every scalar basis orthonormalises a leading block of one Gram
        self.gram = ps.monomial_gram(mono, self.weights)
        with self._naming_errors():
            self.sca = {l: ps.build_scalar_basis(chart.dim, l, self.gram)
                        for l in (k - 1, k, k + 1)}

        # skeleton reconstruction: [q(v_a), q(v_b), moments vs P^{k-1}] ->
        # coefficients in the P^{k+1}(E) orthonormal basis
        bkp1 = self.sca[k + 1]
        self.vertices = mesh.edge_vertices[eids]
        A = np.concatenate([
            bkp1.values(chart.monomials(mesh.vertex_coords[self.vertices],
                                        k + 1)),
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


class FaceContext(_Group):
    """The local operators of a group of faces fids (ascending) with one
    loop length, as stacks along a leading row axis; row[i] is the stack
    row of face fids[i]."""

    kind = "face"

    def __init__(self, mesh: Mesh, fids, row, k: int, rule_degree: int,
                 edge_group: EdgeContext, layouts):
        self.k = k
        self._members(fids, row, _Chart(
            mesh.face_anchor[fids], mesh.face_diameter[fids],
            mesh.face_frame[fids], mesh.face_area[fids]),
                      face_rule(mesh, fids, rule_degree))
        self.normal = mesh.face_normal[fids]
        self.loop_length = int(mesh.face_loops.lengths[fids[0]])
        chart = self.chart[self.rep]
        self._bases(chart, chart.gram(self._rule_blocks(), k + 2), layouts)
        self._sizes({kind: layouts[kind].face_table(self.ids[:1])
                     for kind in (SpaceKind.GRAD, SpaceKind.CURL)})
        self._assemble(chart, _face_edges(mesh, self.ids[self.rep], layouts,
                                          edge_group, chart, k + 2))

    def _assemble(self, chart, edges):
        k, gram, h = self.k, self.gram, chart.scale
        pk = self.sca[k]

        nm = ps.dim_poly(2, k + 1)
        G = len(self.rep)
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
            chart, flux)

        # --- face curl --------------------------------------------------------
        self.curl_mat = cm = self._by_parts(
            -tflux, SpaceKind.CURL, ps.turn(_grad_coeffs(pk.coeff, 2, h)))

        # --- tangential trace; serendipity curl moments: the Rc block -------
        mono_test = np.eye(nm)[1:]                     # non-constant monomials
        self.ttrace_mat, self.serendipity_curl = self._potential(
            ps.turn(_grad_coeffs(mono_test, 2, h)),
            _inner_scalar(gram, mono_test, pk.coeff) @ cm + mflux,
            SpaceKind.CURL)

        # --- face blocks of the global gradient ------------------------------
        self.uG_face = self._split(SpaceKind.CURL, self.grad_mat)


class CellContext(_Group):
    """The local operators of a group of cells cids whose faces have the
    same loop lengths, all parallelepipeds or none, as stacks along a
    leading row axis; row[i] is the stack row of cell cids[i] and
    corners[i] its row of :func:`parallelepipeds`.  phi_k, the P^k basis at
    the rule points, is kept for every member, since a translate may list
    its rule points in another order."""

    kind = "cell"

    def __init__(self, mesh: Mesh, cids, row, corners, k: int,
                 rule_degree: int, edge_group: EdgeContext, face_groups,
                 layouts):
        self.k = k
        cids = np.asarray(cids)
        self._members(cids, row, _Chart(
            mesh.cell_anchor[cids], mesh.cell_diameter[cids],
            np.broadcast_to(np.eye(3), (len(cids), 3, 3)),
            mesh.cell_volume[cids]),
                      cell_rule(mesh, cids, rule_degree, corners))
        chart = self.chart[self.rep]
        # the cell rule is summed and sampled one block at a time: a
        # tetrahedron of a cone, or the whole rule of a parallelepiped
        self._bases(chart, chart.gram(self._rule_blocks(), k + 2), layouts,
                    [("Gc", k + 1)])
        t = _cell_tables(mesh, layouts, self.ids[self.rep])
        self._sizes(t.glob)
        # evaluation caches kept small: scalar P^k basis at the rule points
        # of every member, each in the basis of its row, and the moment
        # tensor int phi_i phi_j phi_l of each row for the convective term
        pk = self.sca[k]
        members = ps.ScalarBasis(k, pk.coeff[self.row])
        self.phi_k = np.empty(self.weights.shape + (pk.dim,))
        self.tri_tensor = np.zeros((len(self.rep),) + (pk.dim,) * 3)
        for sl, _, w in self._rule_blocks():
            phi = self.phi_k[:, sl] = members.values(
                self.chart.monomials(self.points[:, sl], k))
            self.tri_tensor += _triple_moments(w, phi[self.rep])
        # face slots are built one at a time, once for the boundary terms
        # and once for the stabilisation
        face_slots = lambda: _face_slots(t, face_groups, chart, k + 2)
        edges = _edge_slots(t.edges, t.glob, layouts, edge_group, chart,
                            k + 2)
        self._assemble(chart, face_slots(), edges)
        self._products(itertools.chain(edges, face_slots()))

    def _assemble(self, chart, faces, edges):
        k, gram, vb, h = self.k, self.gram, self.vb, chart.scale
        G = len(self.rep)
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
        cross_vb = np.zeros((G, vb.dim, self.n_curl))
        cross_g = np.zeros((G, cGk1.dim, self.n_curl))
        dm = np.zeros((G, pk.dim, self.n_div))
        mflux = np.zeros((G, nm - 1, self.n_div))
        uG = np.zeros((G, self.n_curl, self.n_grad))
        uC = np.zeros((G, self.n_div, self.n_curl))
        for s in faces:
            n_f = s.normal[:, None, :, None]
            for key, out in flux.items():
                _add_flux(out, s, SpaceKind.GRAD,
                          (self.sub[key].values(s.mono) @ n_f)[..., 0])
            nxa = np.cross(s.normal[:, None, :], s.axes)
            phi = pk.values(s.mono)
            # vb is P^k times the unit vectors (component-minor), so its
            # n x a components are the scalar values times those of n x a
            _add_flux(cross_vb, s, SpaceKind.CURL,
                      (nxa[:, None, :, None] * phi[:, :, None, :, None]
                       ).reshape(phi.shape[:2] + (2, vb.dim)))
            _add_flux(cross_g, s, SpaceKind.CURL,
                      nxa[:, None] @ np.swapaxes(cGk1.values(s.mono), -1, -2))
            _add_flux(dm, s, SpaceKind.DIV, phi)
            _add_flux(mflux, s, SpaceKind.DIV, s.mono[..., 1:nm])
            _set_block(uG, s.faceblock, s.traces[SpaceKind.GRAD][1], s.uG_face)
            _set_block(uC, s.traces[SpaceKind.DIV][1],
                       s.traces[SpaceKind.CURL][1], s.curl_mat)
            del s, phi  # before the next slot is built
        for s in edges:
            _set_block(uG, s.traces[SpaceKind.CURL][1],
                       s.traces[SpaceKind.GRAD][1], s.deriv)

        # --- element gradient, serendipity moments and gradient potential ----
        self.serendipity_grad, self.grad_mat, self.pot_grad = self._gradient(
            chart, flux)

        # --- element curl, serendipity curl moments and curl potential -------
        self.curl_op = cm = self._by_parts(cross_vb, SpaceKind.CURL,
                                           _curl3_coeffs(vb.coeff, h))
        self.pot_curl, self.serendipity_curl = self._potential(
            _curl3_coeffs(cGk1.coeff, h),
            ps.vector_inner(gram, cGk1.coeff, vb.coeff) @ cm - cross_g,
            SpaceKind.CURL)

        # --- divergence and its potential ----------------------------------------
        self.div_op = self._by_parts(dm, SpaceKind.DIV,
                                     -_grad_coeffs(pk.coeff, 3, h))
        mono_test = np.eye(nm)[1:]
        self.pot_div, _ = self._potential(
            _grad_coeffs(mono_test, 3, h),
            mflux - _inner_scalar(gram, mono_test, pk.coeff) @ dm,
            SpaceKind.DIV)

        # --- cell blocks of the global operators -----------------------------
        uG[:, self.interior[SpaceKind.CURL]] = self._split(SpaceKind.CURL,
                                                           self.grad_mat)
        uC[:, self.interior[SpaceKind.DIV]] = self._split(SpaceKind.DIV, cm)
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
                basis = self.sca[self.k + 1 if kind is SpaceKind.GRAD
                                 else self.k]
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
# views


class EntityView:
    """One member of a group: the group, the member's index in it, its id,
    its stack row and its rule."""

    __slots__ = ("group", "index")

    def __init__(self, group: _Group, index: int):
        self.group, self.index = group, index

    @property
    def row(self) -> int:
        return int(self.group.row[self.index])

    @property
    def id(self) -> int:
        return int(self.group.ids[self.index])

    @property
    def rule(self) -> QuadratureRule:
        return self.group.rule[self.index]


def _views(n, groups) -> list:
    """The views of n entities, each of the member of its group."""
    views = [None] * n
    for g in groups:
        for i, e in enumerate(g.ids.tolist()):
            views[e] = EntityView(g, i)
    return views


# ---------------------------------------------------------------------------
# translation classes

# relative resolution, in units of the entity diameter, of the vertex
# positions in a translation key
KEY_RTOL = 1e-12


def _translation_keys(mesh: Mesh, verts, anchor, h, loops,
                      edges) -> np.ndarray:
    """Descriptions of N entities up to translation, one int64 row each;
    two entities of a group are translates with the same local numbering
    when their rows are equal.

    verts (N, nv) are the vertex ids in local DoF order, each row sorted;
    the row holds their coordinates relative to the anchors (N, 3), rounded
    at KEY_RTOL * h (N,), then the face loops (N, nl) and the vertices of
    the edges (N, ne, 2) written in local vertex indices.
    """
    rel = np.rint((mesh.vertex_coords[verts] - anchor[:, None])
                  / (KEY_RTOL * h)[:, None, None])
    return np.hstack([rel.astype(np.int64).reshape(len(verts), -1),
                      _positions(verts, loops),
                      _positions(verts, edges).reshape(len(verts), -1)])


def _face_keys(mesh: Mesh, fids) -> np.ndarray:
    """Translation keys of faces fids of one loop length."""
    loops = mesh.face_loops.rows(fids)
    return _translation_keys(
        mesh, np.sort(loops, axis=1), mesh.face_anchor[fids],
        mesh.face_diameter[fids], loops,
        mesh.edge_vertices[np.sort(mesh.face_edges.rows(fids), axis=1)])


def _cell_keys(mesh: Mesh, cids) -> np.ndarray:
    """Translation keys of cells cids with the same face loop lengths: the
    loops of their faces in id order, with the loop lengths and omega_TF,
    which follows from the geometry of a valid mesh and is kept as a
    guard."""
    cids = np.asarray(cids, dtype=np.int64)
    faces = mesh.cell_faces.rows(cids)
    order = np.argsort(faces, axis=1)
    faces = np.take_along_axis(faces, order, 1)
    # a cell of another genus, with fewer vertices, repeats its last one;
    # its loops never name the repeats, so its row differs from the others
    t = mesh.cell_vertices
    nv = t.lengths[cids]
    verts = t.values[t.offsets[cids, None]
                     + np.minimum(np.arange(nv.max()), nv[:, None] - 1)]
    keys = _translation_keys(
        mesh, verts, mesh.cell_anchor[cids], mesh.cell_diameter[cids],
        mesh.face_loops.concat(faces.ravel()).reshape(len(cids), -1),
        mesh.edge_vertices[mesh.cell_edges.rows(cids)])
    return np.hstack([keys, mesh.face_loops.lengths[faces], np.take_along_axis(
        mesh.cell_face_signs.rows(cids), order, 1)])


def _classes(group_keys, keys) -> list:
    """Groups of entities by their group_keys (one per entity), as (ids,
    row): row maps each member to the row of its translation class in the
    group, the distinct rows of keys(ids), numbered in the order of their
    first members."""
    groups = {}
    for i, key in enumerate(group_keys):
        groups.setdefault(key, []).append(i)
    return [(ids, _first_appearance(keys(ids))[0]) for ids in groups.values()]


# ---------------------------------------------------------------------------
# interpolation


def _moments(group, vals, frame, bases) -> np.ndarray:
    """Moments (N, nmom) of a field against the bases of each of the N
    members of a group, concatenated in the order of bases.

    vals holds the field at the rule points of the members, one member
    after another, as (npts, ncomp) rows; frame is None when the bases are
    written in those ncomp components, else (N, ncomp, nc) taking the
    values to the nc components of the bases; bases are stacks by row,
    scalar when nc is 1.  The monomials and bases are sampled for N // nb
    members at a time, nb the largest basis size, so that they take no more
    room than the field values.
    """
    N, npts = group.weights.shape
    vals = vals.reshape(N, npts, -1)
    coeffs = [b.coeff[group.row] for b in bases]
    degree = max(b.degree for b in bases)
    mom = np.empty((N, sum(C.shape[1] for C in coeffs)))
    step = max(1, N // max(C.shape[1] for C in coeffs))
    for i in range(0, N, step):
        sl = slice(i, i + step)
        wv = vals[sl] if frame is None else vals[sl] @ frame[sl]
        wv = wv * group.weights[sl, :, None]
        mono = group.chart[sl].monomials(group.points[sl], degree)
        mom[sl] = np.concatenate([_project(b, C[sl], mono, wv)
                                  for b, C in zip(bases, coeffs)], axis=1)
    return mom


def _project(basis, coeff, mono, wv) -> np.ndarray:
    """Moments (N, nb) of weighted values wv (N, npts, nc) against a stack
    of N bases like basis with coefficients coeff, whose monomials at the
    points are mono."""
    phi = replace(basis, coeff=coeff).values(mono)
    if coeff.ndim == 3:
        return (np.swapaxes(phi, 1, 2) @ wv)[..., 0]
    return np.einsum("npbc,npc->nb", phi, wv)


# ---------------------------------------------------------------------------
# the assembled complex


def _cell_group_keys(mesh: Mesh) -> tuple[list, np.ndarray]:
    """The group key of each cell, the sorted loop lengths of its faces and
    whether it is a parallelepiped, whose rule has one simplex; and the
    rows of :func:`parallelepipeds` of all cells, for the cell rules."""
    corners = parallelepipeds(mesh, np.arange(mesh.n_cells))
    t = mesh.cell_faces
    owner = np.repeat(np.arange(len(t)), t.lengths)
    lens = mesh.face_loops.lengths[t.values]
    lens = np.split(lens[np.lexsort((lens, owner))], t.offsets[1:-1])
    return [(tuple(n.tolist()), b) for n, b in
            zip(lens, (corners[:, 0] >= 0).tolist())], corners


class DdrComplex:
    """All discrete operators of one (mesh, degree) pair.

    Construction builds the groups of edges (``edge_groups``), faces
    (``face_groups``) and cells (``cell_groups``), each row of a group
    once; the groups are immutable afterwards and safe to share between
    threads.  ``cells`` lists the :class:`EntityView` of each cell by id.
    The global matrices are built on first use by one cached assembler.
    """

    def __init__(self, mesh: Mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.layouts = {kind: DofLayout(mesh, kind, k) for kind in SpaceKind}
        deg_bilin = 2 * k + 4
        self.cell_degree = max(2 * k + 4, 3 * k + 3)
        # one group of all edges: the stacks are indexed by edge id
        edges = EdgeContext(mesh, range(mesh.n_edges), k, deg_bilin)
        self.edge_groups = [edges]
        self.face_groups = [
            FaceContext(mesh, ids, row, k, deg_bilin, edges, self.layouts)
            for ids, row in _classes(mesh.face_loops.lengths.tolist(),
                                     lambda fids: _face_keys(mesh, fids))]
        self._faces_by_length = {g.loop_length: g for g in self.face_groups}
        keys, corners = _cell_group_keys(mesh)
        self.cell_groups = [
            CellContext(mesh, ids, row, corners[ids], k, self.cell_degree,
                        edges, self._faces_by_length, self.layouts)
            for ids, row in _classes(keys,
                                     lambda cids: _cell_keys(mesh, cids))]
        self.cells = _views(mesh.n_cells, self.cell_groups)
        self._cache = {}

    # -- interpolators ------------------------------------------------------
    # fun is called once per entity dimension, on the rule points of all its
    # entities, and only when the dimension's DoF block is not empty, so it
    # is never evaluated at points whose values would be discarded.
    def _interpolate(self, kind, fun, frames) -> DofVector:
        """The kind interpolate of fun: the vertex values, and the moments
        of fun on the edges, faces and cells, group by group, against the
        bases of their DoF blocks (DofLayout.spaces).  frames[dim](g) is
        (N, 3, nc), taking the values of fun to the nc components of the
        bases of the group g of dimension dim; without frames[dim] the
        bases are written in the components of fun.  See
        :func:`_moments`."""
        lay = self.layouts[kind]
        out = DofVector.zeros(lay)
        vertices = lay.dofs(0, np.arange(self.mesh.n_vertices))
        if vertices.size:
            out.values[vertices[:, 0]] = fun(self.mesh.vertex_coords)
        for dim, groups in enumerate((self.edge_groups, self.face_groups,
                                      self.cell_groups), 1):
            frame = frames.get(dim, lambda g: None)
            if lay.dofs(dim, 0).size:
                points = np.concatenate([g.points.reshape(-1, 3)
                                         for g in groups])
                vals = fun(points).reshape(len(points), -1)
                ends = np.cumsum([g.weights.size for g in groups])
                for g, v in zip(groups, np.split(vals, ends[:-1])):
                    out.values[lay.dofs(dim, g.ids)] = _moments(
                        g, v, frame(g), _moment_bases(g, lay.spaces[dim]))
        return out

    def interpolate_grad(self, fun) -> DofVector:
        """I_grad: vertex values and the edge, face and cell moments of a
        scalar field.  fun maps an (n, 3) array of points to (n,) values."""
        return self._interpolate(SpaceKind.GRAD, fun, {})

    def interpolate_curl(self, fun) -> DofVector:
        """I_curl of a vector field: edge tangential moments, face tangential
        R/Rc moments, cell R/Rc moments.  fun: (n, 3) points -> (n, 3)."""
        # frame components: tangential on a face, all three on a cell
        return self._interpolate(SpaceKind.CURL, fun, {
            1: lambda g: g.tangent[:, :, None],
            2: lambda g: np.swapaxes(g.chart.axes, 1, 2)})

    def interpolate_div(self, fun) -> DofVector:
        """I_div of a vector field: face normal moments, cell G/Gc moments."""
        return self._interpolate(SpaceKind.DIV, fun,
                                 {2: lambda g: g.normal[:, :, None]})

    # -- global differential operators ---------------------------------------
    def global_gradient(self, q: DofVector) -> DofVector:
        return DofVector(self.layouts[SpaceKind.CURL],
                         self.gradient_matrix() @ q.values)

    def global_curl(self, v: DofVector) -> DofVector:
        return DofVector(self.layouts[SpaceKind.DIV],
                         self.curl_matrix() @ v.values)

    def _assembled(self, key, rows: DofLayout, cols: DofLayout, blocks):
        """The sparse matrix of key, built on the first call: the stacked
        blocks (rows (N, m), cols (N, n), B (N, m, n)), each B[g] placed at
        rows[g] x cols[g] of the DoFs of the layouts and summed where they
        meet.  blocks is read on that first call only."""
        if key not in self._cache:
            data, ri, ci = [], [], []
            for r, c, B in blocks:
                ri.append(np.broadcast_to(r[:, :, None], B.shape).ravel())
                ci.append(np.broadcast_to(c[:, None, :], B.shape).ravel())
                data.append(B.ravel())
            self._cache[key] = sp.csr_matrix(
                (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
                shape=(rows.total_dim, cols.total_dim))
        return self._cache[key]

    def gradient_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the global discrete gradient."""
        gl = self.layouts[SpaceKind.GRAD]
        cl = self.layouts[SpaceKind.CURL]
        return self._assembled("uG", cl, gl, itertools.chain(
            ((cl.dofs(1, g.ids), gl.edge_table(g.ids), g.deriv_skeleton[g.row])
             for g in self.edge_groups),
            ((cl.dofs(2, g.ids), gl.face_table(g.ids), g.uG_face[g.row])
             for g in self.face_groups),
            ((cl.dofs(3, g.ids), gl.cell_table(g.ids),
              g.uG[g.row[:, None], g.interior[SpaceKind.CURL]])
             for g in self.cell_groups)))

    def curl_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the global discrete curl."""
        cl = self.layouts[SpaceKind.CURL]
        dl = self.layouts[SpaceKind.DIV]
        return self._assembled("uC", dl, cl, itertools.chain(
            ((dl.dofs(2, g.ids), cl.face_table(g.ids), g.curl_mat[g.row])
             for g in self.face_groups),
            ((dl.dofs(3, g.ids), cl.cell_table(g.ids),
              g.uC[g.row[:, None], g.interior[SpaceKind.DIV]])
             for g in self.cell_groups)))

    # -- discrete L2 products and norms ---------------------------------------
    def l2_product(self, kind, x: DofVector, y: DofVector) -> float:
        return float(x.values @ (self.gram_matrix(kind) @ y.values))

    def gram_matrix(self, kind) -> sp.csr_matrix:
        """Sparse matrix of the stabilised L2 product of a space."""
        kind = SpaceKind(kind)
        lay = self.layouts[kind]

        def blocks():
            for g in self.cell_groups:
                idx = lay.cell_table(g.ids)
                yield idx, idx, getattr(g, f"product_{kind.value}")[g.row]
        return self._assembled(kind, lay, lay, blocks())

    def norm(self, kind, x: DofVector) -> float:
        return float(np.sqrt(max(self.l2_product(kind, x, x), 0.0)))

    def graph_norm(self, v: DofVector) -> float:
        """sqrt(|v|_CURL^2 + |uC v|_DIV^2) on the discrete curl space."""
        cv = self.global_curl(v)
        return float(np.sqrt(max(self.l2_product(SpaceKind.CURL, v, v), 0.0)
                             + max(self.l2_product(SpaceKind.DIV, cv, cv), 0.0)))

    # -- potentials at quadrature points ---------------------------------------
    def potential_values(self, kind, group, members, x) -> np.ndarray:
        """Values of the kind potential of local DoFs x (m, nloc, ...) at the
        rule points of members (indices) of a cell group: (m, npts, ...) by
        the rows' P^{k+1} bases for GRAD, else (m, npts, 3, ...) by phi_k."""
        kind, rows = SpaceKind(kind), group.row[members]
        phi = (_at_points(group, members, group.sca[self.k + 1])
               if kind is SpaceKind.GRAD else group.phi_k[members])
        return _sampled(phi, getattr(group, f"pot_{kind.value}")[rows], x)

    def potential_chunks(self, kind, x):
        """(group, members, values) of the kind potential of the DoFs x
        (total_dim, ...) on chunks of the members of each cell group, of at
        most CHUNK_POINTS rule points or one member that has more; see
        potential_values."""
        lay = self.layouts[SpaceKind(kind)]
        for g in self.cell_groups:
            n, npts = g.weights.shape
            step = max(1, CHUNK_POINTS // npts)
            for start in range(0, n, step):
                members = np.arange(start, min(start + step, n))
                yield g, members, self.potential_values(
                    kind, g, members, x[lay.cell_table(g.ids[members])])

    def curl_potential_values(self, c: int, v_local: np.ndarray) -> np.ndarray:
        """Values (npts, 3) of the curl-space vector potential on cell c."""
        view = self.cells[c]
        return self.potential_values(SpaceKind.CURL, view.group, [view.index],
                                     v_local[None])[0]

    # -- Appendix-style norms: sums over pieces, see _piece_norms -------------
    def _slots(self, g, members, degree, kinds):
        """The boundary slots of members of a face or cell group: the faces
        and edges of cells and the edges of faces, with the members'
        monomials of the given degree (None for none) and the face traces
        of the given kinds in the members' local columns."""
        chart, ids = g.chart[members], g.ids[members]
        if g.kind == "face":
            return _face_edges(self.mesh, ids, self.layouts,
                               self.edge_groups[0], chart, degree)
        t = _cell_tables(self.mesh, self.layouts, ids)
        return [*_face_slots(t, self._faces_by_length, chart, degree, kinds),
                *_edge_slots(t.edges, t.glob, self.layouts,
                             self.edge_groups[0], chart, degree)]

    def _potential_pieces(self, g, members):
        """The CURL potential of members of a cell group, or the tangential
        trace of members of a face group, at their rule points, and its
        mismatch with the trace on each boundary slot."""
        rows, n, cell = g.row[members], g.n_curl, g.kind == "cell"
        pk = replace(g.sca[self.k], coeff=g.sca[self.k].coeff[rows])
        pot = (g.pot_curl if cell else g.ttrace_mat)[rows]
        phi = g.phi_k[members] if cell else _at_points(g, members,
                                                        g.sca[self.k])
        pieces = [(np.ones(len(rows)), g.weights[members], _sampled(
            phi, pot, np.broadcast_to(np.eye(n), (len(rows), n, n))))]
        for s in self._slots(g, members, self.k, (SpaceKind.CURL,)):
            hw, A = _trace_diff(SpaceKind.CURL, pot, pk, s)
            pieces.append((hw, s.w, A))
        return pieces

    def _component_pieces(self, g, members):
        """The fields of the own CURL DoFs (see :func:`_own_fields`) of
        members of a face or cell group and of each face of a cell, and the
        tangential values of the DoFs of each edge, at their rule points."""
        F = _own_fields(g, members)
        A = np.zeros(F.shape[:-1] + (g.n_curl,))
        A[..., g.n_curl - F.shape[-1]:] = F
        pieces = [(np.ones(len(members)), g.weights[members], A)]
        for s in self._slots(g, members, None, ()):
            if hasattr(s, "normal"):
                vals, cols = _own_fields(*s.face), s.faceblock
            else:
                vals, cols = s.traces[SpaceKind.CURL]
            A = np.zeros(vals.shape[:-1] + (g.n_curl,))
            _add_cols(A, cols, vals)
            pieces.append((s.hw, s.w, A))
        return pieces

    def _piece_points(self, g) -> int:
        """The rule points of one member of a face or cell group and of its
        boundary slots, which its pieces are sampled at."""
        edge = self.edge_groups[0].weights.shape[1]
        if g.kind == "face":
            return g.weights.shape[1] + g.loop_length * edge
        m, c = self.mesh, g.ids[0]
        return g.weights.shape[1] + len(m.cell_edges[c]) * edge + sum(
            self._faces_by_length[n].weights.shape[1]
            for n in m.face_loops.lengths[m.cell_faces[c]].tolist())

    def _member_norms(self, pieces, s, group, members, x) -> np.ndarray:
        """The piece norms (m, npieces) of members (m indices, repeats
        allowed) of a face or cell group at local DoFs x (m, nloc).  The
        pieces of each distinct member are built once, for at most
        CHUNK_POINTS rule points of pieces at a time."""
        uniq, owner = np.unique(np.asarray(members, dtype=np.int64),
                                return_inverse=True)
        owner = owner.ravel()
        step = max(1, CHUNK_POINTS // self._piece_points(group))
        out = np.zeros((0, 0))
        for i in range(0, len(uniq), step):
            sel = np.flatnonzero((owner >= i) & (owner < i + step))
            norms = _piece_norms(pieces(group, uniq[i:i + step]), s, x[sel],
                                 owner[sel] - i)
            if i == 0:
                out = np.empty((len(owner), norms.shape[1]))
            out[sel] = norms
        return out

    def component_norms(self, s: float, group, members, x) -> np.ndarray:
        """Component L^s norms (m,) of local CURL DoFs x (m, n_curl) on
        members of a face or cell group: the sum over the entity, its faces
        and its edges of the h^{(d-d')/s}-weighted component L^s norms."""
        return np.sum(self._member_norms(self._component_pieces, s, group,
                                         members, x), axis=1)

    def potential_norms(self, s: float, group, members, x) -> np.ndarray:
        """Potential-based L^s norms (m,) of local CURL DoFs x (m, n_curl)
        on members of a face or cell group: the CURL potential of a cell,
        or the tangential trace of a face, and its h-weighted mismatches
        with the traces on the boundary."""
        return np.sum(self._member_norms(self._potential_pieces, s, group,
                                         members, x), axis=1)
