"""Exactness-degree-driven quadrature on mesh edges, faces and cells.

Edges use Gauss-Legendre.  A parallelepiped cell, whose 8 vertices are
x_0 + A xi for xi in {0, 1}^3 (:func:`parallelepipeds`), takes the tensor
Gauss-Legendre rule of the unit cube mapped by A, (d + 2) // 2 points per
direction for degree d, as its one "simplex": 27 points at degree 4
against 648 for its cone.  Other faces and cells are split into simplices,
and each simplex carries a collapsed (Duffy) tensor rule: Gauss-Jacobi
points in the collapsed directions, whose weights (1 - u)^1 and (1 - u)^2
absorb the collapse Jacobian, and Gauss-Legendre in the last one, with as
many points per direction (Stroud 1971; Karniadakis & Sherwin 2005, sec.
4.1).  The mesh's :func:`face_triangles` triangulates every face, for
face and cell rules alike: a triangle is itself, a polygon the fan from
its anchor, a parallelogram included.  A cell that is not a
parallelepiped is the cone from its anchor over the triangles of its
faces, except a tetrahedron, which is its own simplex; so a simplicial
mesh has one simplex per face and per cell.  All rules are exact for polynomials up to the requested
total degree, and each carries its number of simplices per member
(``n_simplices``), its points coming simplex by simplex.

Rules take a stack of the entities of one group: :func:`edge_rule`,
:func:`face_rule` and :func:`cell_rule` take a sequence of ids whose
members have the same number of simplices (faces of one loop length, cells
with the same face loop lengths that are all parallelepipeds or none) and
return one :class:`QuadratureRule` holding a stack, whose ``rule[i]`` is
the rule of member i.  One id gives its own rule, as a one-member stack.
Each stack is one array pass: the corners of every member's simplices come
from index arrays, and one affine placement puts the reference points on
all the simplices at once.  A member's points come out simplex by simplex,
in its own decomposition order and in reference order inside each simplex,
with the bits of placing each simplex on its own.  A zero-measure simplex
or parallelepiped raises :class:`DegenerateSimplexError` naming the first
face or cell at fault (and the segment of a simplex), and so does a member
whose weights miss its area or volume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .mesh import Mesh, face_triangles


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
    of the rules of N entities, points (N, n, 3) and weights (N, n); the
    points of each member come in n_simplices equal blocks, one per
    simplex of its decomposition."""
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    n_simplices: int = 1

    def __getitem__(self, i) -> "QuadratureRule":
        """The rule of member i of a stack."""
        return QuadratureRule(self.points[i], self.weights[i],
                              self.exactness_degree, self.n_simplices)


@lru_cache(maxsize=None)
def _gl01(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _gj01(n: int, alpha: int):
    """Gauss-Jacobi rule on [0, 1] for the weight (1 - u)^alpha."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def edge_rule_points(degree: int) -> int:
    """Points per direction of a rule exact to degree: ceil((degree+1)/2)."""
    return (degree + 2) // 2


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
    length = mesh.edge_length[ids]
    if np.any(length <= 0.0):
        raise DegenerateSimplexError(
            f"edge {ids[np.argmax(length <= 0.0)]} has zero length")
    x, w = _gl01(edge_rule_points(max(degree, 0)))
    ends = mesh.vertex_coords[mesh.edge_vertices[ids]]
    a, b = ends[:, 0], ends[:, 1]
    pts = a[:, None, :] + x[None, :, None] * (b - a)[:, None, :]
    return _one_or_stack(edge_ids, QuadratureRule(
        pts, w[None, :] * length[:, None], degree))


@lru_cache(maxsize=None)
def _duffy_triangle(degree: int):
    # reference triangle {xi, eta >= 0, xi + eta <= 1}; map xi=u, eta=v(1-u),
    # whose Jacobian (1 - u) is the Gauss-Jacobi weight in u
    n = edge_rule_points(degree)
    xu, wu = _gj01(n, 1)
    xv, wv = _gl01(n)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    xi = U.ravel()
    eta = (V * (1.0 - U)).ravel()
    return xi, eta, np.outer(wu, wv).ravel()


def _check_measure(measure: np.ndarray, what: str):
    if np.any(measure <= 0.0):
        i = int(np.flatnonzero(measure <= 0.0)[0])
        raise DegenerateSimplexError(f"zero-{what} (simplex {i})", simplex=i)


def triangle_rule(verts: np.ndarray, degree: int):
    """Duffy rule on each triangle of a (m, 3, 3) stack (or one (3, 3)
    triangle): points (m*n, 3) and weights (m*n,), triangle by triangle."""
    v = np.asarray(verts, dtype=float).reshape(-1, 3, 3)
    a, ab, ac = v[:, 0], v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    cr = np.cross(ab, ac)
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
    # the Jacobian (1 - u)^2 (1 - v) of the collapse is the Gauss-Jacobi
    # weight in u and v
    n = edge_rule_points(degree)
    xu, wu = _gj01(n, 2)
    xv, wv = _gj01(n, 1)
    xw, ww = _gl01(n)
    U, V, W = np.meshgrid(xu, xv, xw, indexing="ij")
    wt = wu[:, None, None] * wv[None, :, None] * ww[None, None, :]
    xi1 = U.ravel()
    xi2 = (V * (1.0 - U)).ravel()
    xi3 = (W * (1.0 - U) * (1.0 - V)).ravel()
    return xi1, xi2, xi3, wt.ravel()


def tet_rule(verts: np.ndarray, degree: int):
    """Duffy rule on each tetrahedron of a (m, 4, 3) stack (or one (4, 3)
    tetrahedron): points (m*n, 3) and weights (m*n,), tet by tet."""
    return _affine_rule(verts, _duffy_tet(max(degree, 0)),
                        "volume tetrahedron")


@lru_cache(maxsize=None)
def _gauss_cube(degree: int):
    # tensor Gauss-Legendre rule on the unit cube, weights summing to 1
    x, w = _gl01(edge_rule_points(degree))
    X = np.meshgrid(x, x, x, indexing="ij")
    wt = w[:, None, None] * w[None, :, None] * w[None, None, :]
    return (*(c.ravel() for c in X), wt.ravel())


def _affine_rule(verts, reference, what: str):
    """A reference rule (xi_1, xi_2, xi_3, w) of the unit tetrahedron or
    cube placed on each of a (m, 4, 3) stack of corners a, b, c, d by
    x = a + xi_1 (b - a) + xi_2 (c - a) + xi_3 (d - a), its weights scaled
    by |det| = 6 |tetrahedron abcd|: points (m*n, 3) and weights (m*n,)."""
    v = np.asarray(verts, dtype=float).reshape(-1, 4, 3)
    a = v[:, 0]
    ab, ac, ad = v[:, 1] - a, v[:, 2] - a, v[:, 3] - a
    vol6 = np.abs(np.vecdot(np.cross(ab, ac), ad))
    _check_measure(vol6, what)
    x1, x2, x3, w = reference
    pts = (a[:, None, :] + x1[None, :, None] * ab[:, None, :]
           + x2[None, :, None] * ac[:, None, :] + x3[None, :, None] * ad[:, None, :])
    return pts.reshape(-1, 3), (w[None, :] * vol6[:, None]).ravel()


def face_rule(mesh: Mesh, face_ids, degree: int) -> QuadratureRule:
    """The rule of each face on its :func:`face_triangles`; face_ids is one
    face or a sequence of faces of one loop length."""
    ids = _group(face_ids)
    _per_member(mesh.face_loops.lengths[ids].tolist(), "face")
    tris, face, segment = face_triangles(mesh, ids)
    try:
        pts, weights = triangle_rule(tris, degree)
    except DegenerateSimplexError as err:
        i = err.simplex
        raise DegenerateSimplexError(
            f"face {ids[face[i]]}: zero-area triangle (segment {segment[i]})"
        ) from None
    weights = weights.reshape(len(ids), -1)
    _check_recovered("face", ids, weights, mesh.face_area[ids],
                     "fan decomposition does not recover the area")
    return _one_or_stack(face_ids, QuadratureRule(
        pts.reshape(weights.shape + (3,)), weights, degree,
        len(face) // len(ids)))


# relative resolution, in units of the cell diameter, to which the vertices
# of a parallelepiped sit on its corners; a tenth of the 1e-12 of the volume
# check, so that a cell taken for a parallelepiped passes it
PARALLELEPIPED_RTOL = 1e-13

_CORNERS = np.array(list(itertools.product((0.0, 1.0), repeat=3)))


def parallelepipeds(mesh: Mesh, cell_ids) -> np.ndarray:
    """The corners of each cell that is a parallelepiped, (N, 4) vertex
    ids, else a row of -1: its first vertex v_0 and the other ends of its
    three edges at v_0, in edge order.  A cell is one when it has six
    quadrilateral faces and its 8 vertices are x_0 + A xi, xi in {0, 1}^3,
    to PARALLELEPIPED_RTOL * h_T, with x_0 at v_0 and the columns of A its
    three edges."""
    ids = _group(cell_ids)
    out = np.full((len(ids), 4), -1, dtype=np.int64)
    nf = mesh.cell_faces.lengths[ids]
    quads = np.bincount(
        np.repeat(np.arange(len(ids)), nf), minlength=len(ids),
        weights=mesh.face_loops.lengths[mesh.cell_faces.concat(ids)] == 4)
    hexa = np.flatnonzero((mesh.cell_vertices.lengths[ids] == 8) & (nf == 6)
                          & (quads == 6))
    if not len(hexa):
        return out
    verts = mesh.cell_vertices.rows(ids[hexa])
    ends = mesh.edge_vertices[mesh.cell_edges.rows(ids[hexa])]
    at0 = ends == verts[:, :1, None]
    # the first three edges at v_0 (a hexahedron has exactly three)
    first = np.argsort(~at0.any(axis=2), axis=1, kind="stable")[:, :3]
    corners = np.column_stack([verts[:, 0], np.take_along_axis(
        np.where(at0[..., 0], ends[..., 1], ends[..., 0]), first, 1)])
    x = mesh.vertex_coords
    A = x[corners[:, 1:]] - x[corners[:, :1]]
    box = x[corners[:, :1]] + _CORNERS @ A
    dist = np.linalg.norm(box[:, :, None] - x[verts][:, None], axis=-1)
    tol = PARALLELEPIPED_RTOL * mesh.cell_diameter[ids[hexa]][:, None]
    ok = ((at0.any(axis=2).sum(axis=1) == 3)
          & np.all(dist.min(axis=2) <= tol, axis=1)
          & np.all(dist.min(axis=1) <= tol, axis=1))
    out[hexa[ok]] = corners[ok]
    return out


def cell_rule(mesh: Mesh, cell_ids, degree: int,
              corners: np.ndarray | None = None) -> QuadratureRule:
    """The rule of each cell: a parallelepiped (see :func:`parallelepipeds`)
    takes the tensor Gauss rule as its one simplex; any other cell is split
    into tetrahedra, a tetrahedron being itself, the cone from its vertex
    opposite its first face, and any other cell the cone from x_T over the
    :func:`face_triangles` of its faces, face by face in the cell's own
    order.  cell_ids is one cell or a sequence of cells with the same
    number of simplices; corners, their rows of :func:`parallelepipeds`,
    are detected when not given."""
    ids = _group(cell_ids)
    if corners is None:
        corners = parallelepipeds(mesh, ids)
    if _per_member((corners[:, 0] >= 0).tolist(), "cell"):
        try:
            pts, weights = _affine_rule(mesh.vertex_coords[corners],
                                        _gauss_cube(max(degree, 0)),
                                        "volume parallelepiped")
        except DegenerateSimplexError as err:
            raise DegenerateSimplexError(
                f"cell {ids[err.simplex]}: zero-volume parallelepiped"
            ) from None
        n, what = 1, "tensor rule does not recover the volume"
    else:
        pts, weights, n = _cone_rule(mesh, ids, degree)
        what = "cone decomposition does not recover the volume"
    weights = weights.reshape(len(ids), -1)
    _check_recovered("cell", ids, weights, mesh.cell_volume[ids], what)
    return _one_or_stack(cell_ids, QuadratureRule(
        pts.reshape(weights.shape + (3,)), weights, degree, n))


def _cone_rule(mesh: Mesh, ids, degree: int):
    """The cones of cells ids (see :func:`cell_rule`): points, weights and
    the number of tetrahedra per cell."""
    faces = mesh.cell_faces
    nf = faces.lengths[ids]
    tet = mesh.cell_vertices.lengths[ids] == 4
    # the faces each member is coned over, member by member: the first of
    # a tetrahedron, every face of another cell
    member = np.repeat(np.arange(len(ids)), nf)
    keep = ~tet[member]
    keep[(np.cumsum(nf) - nf)[tet]] = True
    inc = faces.concat(ids)[keep]
    tris, face, segment = face_triangles(mesh, inc)
    member = member[keep][face]
    n = _per_member(np.bincount(member, minlength=len(ids)).tolist(), "cell")
    # the apex: the vertex of a tetrahedron off its first face, else x_T
    apex, t = mesh.cell_anchor[ids], ids[tet]
    apex[tet] = mesh.vertex_coords[
        mesh.cell_vertices.rows(t).sum(axis=1)
        - mesh.face_loops.rows(faces.values[faces.offsets[t]]).sum(axis=1)]
    tets = np.concatenate([apex[member][:, None], tris], axis=1)
    try:
        pts, weights = tet_rule(tets, degree)
    except DegenerateSimplexError as err:
        i = err.simplex
        raise DegenerateSimplexError(
            f"cell {ids[member[i]]}: zero-volume tetrahedron "
            f"(face {inc[face[i]]}, segment {segment[i]})") from None
    return pts, weights, n
