"""Exactness-degree-driven quadrature on mesh edges, faces and cells.

Edges use Gauss-Legendre.  Polygonal faces are fan-triangulated from the face
anchor and each triangle carries a collapsed (Duffy) tensor Gauss rule; cells
are split into tetrahedra by coning the face triangles to the cell anchor.
All rules are exact for polynomials up to the requested total degree.

Each entity rule is one array pass: the corners of the fan or cone come
from index arrays, and :func:`triangle_rule` / :func:`tet_rule` place the
reference Duffy points on the whole stack of simplices at once.  Points come
out simplex by simplex, in Duffy order inside each, with the bits of placing
each simplex on its own.  A zero-measure simplex raises
:class:`DegenerateSimplexError` naming the face or cell and the segment.
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
    points: np.ndarray   # (n, 3)
    weights: np.ndarray  # (n,)
    exactness_degree: int

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Contract sampled values (n, ...) against the weights."""
        return np.tensordot(self.weights, values, axes=(0, 0))


@lru_cache(maxsize=None)
def _gl01(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_rule_points(degree: int) -> int:
    return (degree + 2) // 2  # ceil((degree+1)/2)


def edge_rule(mesh: Mesh, edge_id: int, degree: int) -> QuadratureRule:
    e = mesh.edges[edge_id]
    if e.length <= 0.0:
        raise DegenerateSimplexError(f"edge {edge_id} has zero length")
    x, w = _gl01(edge_rule_points(max(degree, 0)))
    a = mesh.vertex_coords[e.vertices[0]]
    b = mesh.vertex_coords[e.vertices[1]]
    pts = a[None, :] + x[:, None] * (b - a)[None, :]
    return QuadratureRule(pts, w * e.length, degree)


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


def face_rule(mesh: Mesh, face_id: int, degree: int) -> QuadratureRule:
    """The fan of triangles (x_F, v_i, v_i+1) of the face, one rule each."""
    f = mesh.faces[face_id]
    cur, nxt = loop_segments([f.vertex_loop])
    tris = np.empty((len(cur), 3, 3))
    tris[:, 0] = f.anchor
    tris[:, 1] = mesh.vertex_coords[cur]
    tris[:, 2] = mesh.vertex_coords[nxt]
    try:
        pts, weights = triangle_rule(tris, degree)
    except DegenerateSimplexError as err:
        raise DegenerateSimplexError(
            f"face {face_id}: zero-area triangle (segment {err.simplex})") from None
    if abs(weights.sum() - f.area) > 1e-12 * f.area:
        raise DegenerateSimplexError(
            f"face {face_id}: fan decomposition does not recover the area")
    return QuadratureRule(pts, weights, degree)


def cell_rule(mesh: Mesh, cell_id: int, degree: int) -> QuadratureRule:
    """The cone from x_T of each face's fan: tetrahedra (x_T, x_F, v_i,
    v_i+1), face by face in the cell's order, one rule each."""
    c = mesh.cells[cell_id]
    faces = [mesh.faces[fid] for fid in c.faces]
    loops = [f.vertex_loop for f in faces]
    cur, nxt = loop_segments(loops)
    seg_face = np.repeat(np.arange(len(faces)), [len(loop) for loop in loops])
    tets = np.empty((len(cur), 4, 3))
    tets[:, 0] = c.anchor
    tets[:, 1] = np.array([f.anchor for f in faces])[seg_face]
    tets[:, 2] = mesh.vertex_coords[cur]
    tets[:, 3] = mesh.vertex_coords[nxt]
    try:
        pts, weights = tet_rule(tets, degree)
    except DegenerateSimplexError as err:
        i = err.simplex
        j = int(seg_face[i])
        segment = i - int(np.searchsorted(seg_face, j))
        raise DegenerateSimplexError(
            f"cell {cell_id}: zero-volume tetrahedron "
            f"(face {c.faces[j]}, segment {segment})") from None
    if abs(weights.sum() - c.volume) > 1e-12 * c.volume:
        raise DegenerateSimplexError(
            f"cell {cell_id}: cone decomposition does not recover the volume")
    return QuadratureRule(pts, weights, degree)


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
