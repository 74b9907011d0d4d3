"""Exactness-degree-driven quadrature on mesh edges, faces and cells.

Edges use Gauss-Legendre.  Polygonal faces are fan-triangulated from the face
anchor and each triangle carries a collapsed (Duffy) tensor Gauss rule; cells
are split into tetrahedra by coning the face triangles to the cell anchor.
All rules are exact for polynomials up to the requested total degree.

Rules take a stack of the entities of one group: :func:`edge_rule`,
:func:`face_rule` and :func:`cell_rule` take a sequence of ids whose
members have the same number of simplices (faces of one loop length, cells
with the same face loop lengths) and return one :class:`QuadratureRule`
holding a stack, whose ``rule[i]`` is the rule of member i.  One id gives
its own rule, as a one-member stack.  Each stack is one array pass: the
corners of every member's fan or cone come from index arrays, and
:func:`triangle_rule` / :func:`tet_rule` place the reference Duffy points on
all the simplices at once.  A member's points come out simplex by simplex,
in its own fan or cone order and in Duffy order inside each simplex, with
the bits of placing each simplex on its own.  A zero-measure simplex raises
:class:`DegenerateSimplexError` naming the first face or cell at fault and
the segment, and so does a member whose weights miss its area or volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh, cross3, loop_segments


class DegenerateSimplexError(Exception):
    """Zero-measure simplex encountered while decomposing an entity, or a
    decomposition that does not recover the entity's measure.  Raised on a
    stack of simplices, it carries the index of the first degenerate one."""

    def __init__(self, message: str, simplex: int | None = None):
        super().__init__(message)
        self.simplex = simplex


@dataclass(frozen=True)
class QuadratureRule:
    """The rule of one entity, points (n, 3) and weights (n,), or a stack
    of the rules of N entities, points (N, n, 3) and weights (N, n)."""
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def n_points(self) -> int:
        return self.weights.shape[-1]

    def __getitem__(self, i) -> "QuadratureRule":
        """The rule of member i of a stack."""
        return QuadratureRule(self.points[i], self.weights[i],
                              self.exactness_degree)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Contract sampled values (n, ...) against the weights of one rule."""
        return np.tensordot(self.weights, values, axes=(0, 0))


@lru_cache(maxsize=None)
def _gl01(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_rule_points(degree: int) -> int:
    return (degree + 2) // 2  # ceil((degree+1)/2)


def _group(ids) -> np.ndarray:
    """The ids of a group as an array; one id is a one-member group."""
    return np.atleast_1d(np.asarray(ids, dtype=np.int64))


def _one_or_stack(ids, rule: QuadratureRule) -> QuadratureRule:
    """The stack of a group's rules, or the rule of one id."""
    return rule[0] if np.ndim(ids) == 0 else rule


def _per_member(counts, kind: str) -> int:
    """The simplex count shared by the members of a group."""
    if len(set(counts)) != 1:
        raise ValueError(f"{kind} rule: the members of one group must have "
                         "the same number of simplices")
    return counts[0]


def _check_recovered(kind: str, ids, weights, measure, what: str):
    """Raise naming the first member whose weights (N, n) miss its measure
    (N,): the decomposition of that member overlaps or leaves a gap."""
    bad = np.abs(weights.sum(axis=1) - measure) > 1e-12 * measure
    if np.any(bad):
        raise DegenerateSimplexError(f"{kind} {ids[np.argmax(bad)]}: {what}")


def edge_rule(mesh: Mesh, edge_ids, degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on each edge; edge_ids is one edge or a
    sequence of edges (see the module docstring)."""
    ids = _group(edge_ids)
    edges = [mesh.edges[e] for e in ids.tolist()]
    length = np.array([e.length for e in edges])
    if np.any(length <= 0.0):
        raise DegenerateSimplexError(
            f"edge {ids[np.argmax(length <= 0.0)]} has zero length")
    x, w = _gl01(edge_rule_points(max(degree, 0)))
    ends = mesh.vertex_coords[np.array([e.vertices for e in edges])]
    a, b = ends[:, 0], ends[:, 1]
    pts = a[:, None, :] + x[None, :, None] * (b - a)[:, None, :]
    return _one_or_stack(edge_ids, QuadratureRule(
        pts, w[None, :] * length[:, None], degree))


@lru_cache(maxsize=None)
def _duffy_triangle(degree: int):
    # reference triangle {xi, eta >= 0, xi + eta <= 1}; map xi=u, eta=v(1-u)
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = _gl01(nu)
    xv, wv = _gl01(nv)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    W = np.outer(wu, wv) * (1.0 - U)
    xi = U.ravel()
    eta = (V * (1.0 - U)).ravel()
    return xi, eta, W.ravel()


def _check_measure(measure: np.ndarray, what: str):
    if np.any(measure <= 0.0):
        i = int(np.flatnonzero(measure <= 0.0)[0])
        raise DegenerateSimplexError(f"zero-{what} (simplex {i})", simplex=i)


def triangle_rule(verts: np.ndarray, degree: int):
    """Duffy rule on each triangle of a (m, 3, 3) stack (or one (3, 3)
    triangle): points (m*n, 3) and weights (m*n,), triangle by triangle."""
    v = np.asarray(verts, dtype=float).reshape(-1, 3, 3)
    a, ab, ac = v[:, 0], v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    cr = cross3(ab, ac)
    # np.vecdot runs the kernel of np.dot, so each triangle's area carries
    # the bits of the one-at-a-time np.linalg.norm
    area2 = np.sqrt(np.vecdot(cr, cr))
    _check_measure(area2, "area triangle")
    xi, eta, w = _duffy_triangle(max(degree, 0))
    pts = (a[:, None, :] + xi[None, :, None] * ab[:, None, :]
           + eta[None, :, None] * ac[:, None, :])
    return pts.reshape(-1, 3), (w[None, :] * area2[:, None]).ravel()


@lru_cache(maxsize=None)
def _duffy_tet(degree: int):
    nu = (degree + 4) // 2
    nv = (degree + 3) // 2
    nw = (degree + 2) // 2
    xu, wu = _gl01(nu)
    xv, wv = _gl01(nv)
    xw, ww = _gl01(nw)
    U, V, W = np.meshgrid(xu, xv, xw, indexing="ij")
    wt = (wu[:, None, None] * wv[None, :, None] * ww[None, None, :]
          * (1.0 - U) ** 2 * (1.0 - V))
    xi1 = U.ravel()
    xi2 = (V * (1.0 - U)).ravel()
    xi3 = (W * (1.0 - U) * (1.0 - V)).ravel()
    return xi1, xi2, xi3, wt.ravel()


def tet_rule(verts: np.ndarray, degree: int):
    """Duffy rule on each tetrahedron of a (m, 4, 3) stack (or one (4, 3)
    tetrahedron): points (m*n, 3) and weights (m*n,), tet by tet."""
    v = np.asarray(verts, dtype=float).reshape(-1, 4, 3)
    a = v[:, 0]
    ab, ac, ad = v[:, 1] - a, v[:, 2] - a, v[:, 3] - a
    vol6 = np.abs(np.vecdot(cross3(ab, ac), ad))
    _check_measure(vol6, "volume tetrahedron")
    x1, x2, x3, w = _duffy_tet(max(degree, 0))
    pts = (a[:, None, :] + x1[None, :, None] * ab[:, None, :]
           + x2[None, :, None] * ac[:, None, :] + x3[None, :, None] * ad[:, None, :])
    return pts.reshape(-1, 3), (w[None, :] * vol6[:, None]).ravel()


def face_rule(mesh: Mesh, face_ids, degree: int) -> QuadratureRule:
    """The fan of triangles (x_F, v_i, v_i+1) of each face, one rule each;
    face_ids is one face or a sequence of faces of one loop length."""
    ids = _group(face_ids)
    faces = [mesh.faces[f] for f in ids.tolist()]
    n = _per_member([len(f.vertex_loop) for f in faces], "face")
    loops = np.array([f.vertex_loop for f in faces])
    tris = np.empty((len(ids), n, 3, 3))
    tris[:, :, 0] = np.array([f.anchor for f in faces])[:, None]
    tris[:, :, 1] = mesh.vertex_coords[loops]
    tris[:, :, 2] = mesh.vertex_coords[np.roll(loops, -1, axis=1)]
    try:
        pts, weights = triangle_rule(tris, degree)
    except DegenerateSimplexError as err:
        member, segment = divmod(err.simplex, n)
        raise DegenerateSimplexError(
            f"face {ids[member]}: zero-area triangle (segment {segment})") from None
    weights = weights.reshape(len(ids), -1)
    _check_recovered("face", ids, weights, np.array([f.area for f in faces]),
                     "fan decomposition does not recover the area")
    return _one_or_stack(face_ids, QuadratureRule(
        pts.reshape(weights.shape + (3,)), weights, degree))


def cell_rule(mesh: Mesh, cell_ids, degree: int) -> QuadratureRule:
    """The cone from x_T of each face's fan: tetrahedra (x_T, x_F, v_i,
    v_i+1), face by face in the cell's own order, one rule each; cell_ids
    is one cell or a sequence of cells with the same number of face
    segments."""
    ids = _group(cell_ids)
    cells = [mesh.cells[c] for c in ids.tolist()]
    # the face incidences of the members, cell by cell, each in c.faces order
    inc = [f for c in cells for f in c.faces]
    loops = [mesh.faces[f].vertex_loop for f in inc]
    n = _per_member([sum(len(mesh.faces[f].vertex_loop) for f in c.faces)
                     for c in cells], "cell")
    cur, nxt = loop_segments(loops)
    seg_inc = np.repeat(np.arange(len(inc)), [len(loop) for loop in loops])
    tets = np.empty((len(cur), 4, 3))
    tets[:, 0] = np.repeat(np.array([c.anchor for c in cells]), n, axis=0)
    tets[:, 1] = np.array([mesh.faces[f].anchor for f in inc])[seg_inc]
    tets[:, 2] = mesh.vertex_coords[cur]
    tets[:, 3] = mesh.vertex_coords[nxt]
    try:
        pts, weights = tet_rule(tets, degree)
    except DegenerateSimplexError as err:
        i = err.simplex
        j = int(seg_inc[i])
        segment = i - int(np.searchsorted(seg_inc, j))
        raise DegenerateSimplexError(
            f"cell {ids[i // n]}: zero-volume tetrahedron "
            f"(face {inc[j]}, segment {segment})") from None
    weights = weights.reshape(len(ids), -1)
    _check_recovered("cell", ids, weights, np.array([c.volume for c in cells]),
                     "cone decomposition does not recover the volume")
    return _one_or_stack(cell_ids, QuadratureRule(
        pts.reshape(weights.shape + (3,)), weights, degree))


def rule_for(mesh: Mesh, kind: str, index: int, degree: int) -> QuadratureRule:
    """Quadrature rule on one mesh entity, exact to the given total degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind == "edge":
        return edge_rule(mesh, index, degree)
    if kind == "face":
        return face_rule(mesh, index, degree)
    if kind == "cell":
        return cell_rule(mesh, index, degree)
    raise ValueError(f"unknown entity kind {kind!r}")
