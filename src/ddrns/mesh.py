"""Polyhedral mesh: entities, incidence, orientations and geometric anchors,
stored as arrays.

Cells are open polyhedra bounded by planar polygonal faces, faces are bounded
by straight edges, edges by vertices.  Every face carries a fixed unit normal
``n_F`` (from the vertex loop, Newell's formula), every edge a fixed unit
tangent ``t_E`` pointing from its first to its second vertex.  Relative
orientations are stored as signs:

* ``omega_TF`` such that ``omega_TF * n_F`` points out of the cell ``T``;
* ``omega_FE`` such that ``omega_FE * n_FE`` points out of the face ``F``,
  where ``n_FE = n_F x t_E`` completes ``(t_E, n_FE, n_F)`` to a right-handed
  triple.

:func:`build_mesh` checks the tables before any geometry: coordinate shape,
id ranges, loops of at least three distinct vertices, distinct faces in each
cell.  The geometry is then computed in array passes: one over all edges,
one per loop length over the faces, and one over all cell-face incidences
for cell volumes, centroids and diameters.  Sums that accumulate over the
triangles or faces of an entity are added in the entity's own order
(:func:`_ordered_sums`), and dot products run the kernel of ``np.dot``, so
each stored float is the one a computation of that entity alone gives, bit
for bit (the per-entity construction in ``tests/oracles.py`` is the
reference).  The face orientations of all cells come from one
connected-components call (:func:`_orient`).  :func:`_validate` runs each
check as one pass over all edges, faces or cells; the winding-number tests
of a cell (its anchor and one point per face) take one kernel call.
:func:`face_triangles` is the one triangulation of the faces: the
winding-number tests orient its triangles by omega_TF, and the face and
cell quadrature rules place their points on them.

:class:`Mesh` keeps the arrays the build computes and no entity objects:
each attribute is one array indexed by entity id (``face_anchor`` (nF, 3),
``cell_volume`` (nT,), ...), and each table with one row of varying length
per entity is a :class:`Ragged` of flat values and row offsets: the face
loops, their edges, omega_FE and n_FE share the offsets of the loop
segments, the cell faces and omega_TF those of the cell-face incidences.
Readers take a group's rows at once (``mesh.face_anchor[fids]``,
``mesh.cell_faces.rows(cids)``).

Meshes are immutable after construction: nothing in ddrns writes the arrays
after :func:`build_mesh` returns, and rows are views of them, so a mesh is
safe for concurrent reads.  Writing an entry, to provoke a validation
error say, changes that mesh for every reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

PLANARITY_RTOL = 1e-12
CLOSURE_RTOL = 1e-10
UNIT_TOL = 1e-14


class MeshError(Exception):
    """Topological or geometric mesh validation failure."""


class Poly3ParseError(MeshError):
    """Malformed POLY3 input; carries the offending line number, and is
    rebuilt from both arguments when a worker process sends it back."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"POLY3 parse error at line {lineno}: {message}")
        self.lineno, self.message = lineno, message

    def __reduce__(self):
        return type(self), (self.lineno, self.message)


class Ragged:
    """A table of rows of different lengths: row i is
    ``values[offsets[i]:offsets[i + 1]]``.  The values may carry trailing
    axes, as the n_FE of the face segments do."""

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values, self.offsets = values, offsets
        self.lengths = np.diff(offsets)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i) -> np.ndarray:
        """Row i, a view of the values."""
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def rows(self, ids) -> np.ndarray:
        """Rows ids, all of one length n, as one (len(ids), n, ...) array."""
        ids = np.asarray(ids, dtype=np.int64)
        lens = self.lengths[ids]
        n = int(lens[0]) if len(lens) else 0
        if np.any(lens != n):
            raise ValueError("rows of unequal length")
        return self.values[self.offsets[ids][:, None] + np.arange(n)]

    def concat(self, ids) -> np.ndarray:
        """Rows ids, one after another."""
        ids = np.asarray(ids, dtype=np.int64)
        return self.values[_ranges(self.offsets[ids], self.lengths[ids])]

    def tolist(self) -> list:
        return [self[i].tolist() for i in range(len(self))]


@dataclass(eq=False, repr=False)
class Mesh:
    """Validated polyhedral mesh of a 3D domain.

    Built through :func:`build_mesh` (or the generators / the POLY3 reader,
    which delegate to it).  All orientation signs are derived, never read
    from input, and are cross-checked by divergence-theorem closure.  Every
    attribute of the edges, faces and cells is one array indexed by entity
    id, or a :class:`Ragged` table with one row per entity.
    """

    vertex_coords: np.ndarray      # (nV, 3)
    edge_vertices: np.ndarray      # (nE, 2) ascending; t_E runs from the first
    edge_tangent: np.ndarray       # (nE, 3) unit t_E
    edge_length: np.ndarray        # (nE,)
    edge_midpoint: np.ndarray      # (nE, 3)
    face_loops: Ragged             # counter-clockwise seen from the n_F side
    face_edges: Ragged             # the edge of each loop segment
    face_edge_signs: Ragged        # omega_FE of each segment
    face_edge_normals: Ragged      # n_FE of each segment, (3,) values
    face_normal: np.ndarray        # (nF, 3) unit n_F
    face_anchor: np.ndarray        # (nF, 3) x_F
    face_diameter: np.ndarray      # (nF,) h_F
    face_area: np.ndarray          # (nF,)
    face_frame: np.ndarray         # (nF, 2, 3) rows e1, e2; e1 x e2 = n_F
    face_cells: np.ndarray         # (nF, 2) ascending, -1 on the boundary
    cell_faces: Ragged             # in input order
    cell_face_signs: Ragged        # omega_TF of each face
    cell_edges: Ragged             # ascending
    cell_vertices: Ragged          # ascending
    cell_anchor: np.ndarray        # (nT, 3) x_T
    cell_diameter: np.ndarray      # (nT,) h_T
    cell_volume: np.ndarray        # (nT,)

    def __post_init__(self):
        self.h = float(self.cell_diameter.max())
        self.n_vertices, self.n_edges, self.n_faces, self.n_cells = map(
            len, (self.vertex_coords, self.edge_vertices, self.face_normal,
                  self.cell_volume))

    def boundary_faces(self) -> np.ndarray:
        """Ids of the faces on one cell only, ascending."""
        return np.flatnonzero(self.face_cells[:, 1] < 0)

    def regularity_ratio(self) -> float:
        """min over cells of (inscribed-ball diameter) / h_T.

        Reported for diagnostics only; never asserted.  The inscribed ball is
        taken centred at the cell anchor.
        """
        t, f = self.cell_faces, self.cell_faces.values
        owner = np.repeat(np.arange(len(t)), t.lengths)
        r = np.abs(np.vecdot(self.cell_anchor[owner] - self.face_anchor[f],
                             self.face_normal[f]))
        return float(np.min(2.0 * np.minimum.reduceat(r, t.offsets[:-1])
                            / self.cell_diameter))


# ---------------------------------------------------------------------------
# batched geometry kernels


def _norm(v: np.ndarray) -> np.ndarray:
    # np.vecdot runs the kernel of np.dot, so each row's norm carries the
    # bits of np.linalg.norm applied to that row alone
    return np.sqrt(np.vecdot(v, v))


def _pair_diameters(pts: np.ndarray) -> np.ndarray:
    """Largest vertex distance of each (m, n, 3) point set."""
    i, j = np.triu_indices(pts.shape[1], 1)
    return _norm(pts[:, i] - pts[:, j]).max(axis=1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges [start, start + count)."""
    first = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(first - starts, counts)


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number of each of keys (values, or rows) when the distinct ones
    are numbered by first appearance, and the index of each one's first."""
    _, first, inv = np.unique(keys, axis=0, return_index=True,
                              return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inv.ravel()], np.sort(first)


def _ordered_sums(terms: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Sum of the terms of each owner, added left to right in the given
    order (owners contiguous), as a loop over one owner's terms adds them."""
    counts = np.bincount(owner, minlength=n)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((n, max(counts.max(initial=0), 1)) + terms.shape[1:])
    table[owner, pos] = terms
    return np.cumsum(table, axis=1)[:, -1]


def _segments(loops: Ragged, fids) -> tuple[np.ndarray, np.ndarray]:
    """Positions in loops.values of the first and the second vertex of
    every segment of faces fids, face by face: segment i of a loop runs
    from its vertex i to vertex i+1."""
    n = loops.lengths[fids]
    cur = _ranges(loops.offsets[fids], n)
    nxt = cur + 1
    nxt[np.cumsum(n) - 1] = loops.offsets[fids]
    return cur, nxt


def face_triangles(mesh: Mesh, face_ids):
    """The triangles of faces face_ids, face by face: a triangle is itself
    (v_0, v_1, v_2), a polygon the fan (x_F, v_i, v_i+1) of its segments.
    Returns the corners (T, 3, 3) and, for each triangle, the position of
    its face in face_ids and its segment (0 for a triangle)."""
    face_ids = np.asarray(face_ids, dtype=np.int64)
    n = mesh.face_loops.lengths[face_ids]
    count = np.where(n == 3, 1, n)
    face = np.repeat(np.arange(len(face_ids)), count)
    segment = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    start = np.cumsum(n) - n
    loops = mesh.face_loops.concat(face_ids)
    vertex = lambda j: mesh.vertex_coords[loops[start[face] + j % n[face]]]
    tri = (n[face] == 3).astype(int)
    corners = np.empty((len(face), 3, 3))
    corners[:, 0] = np.where(tri[:, None], vertex(segment),
                             mesh.face_anchor[face_ids[face]])
    corners[:, 1] = vertex(segment + tri)
    corners[:, 2] = vertex(segment + tri + 1)
    return corners, face, segment


def _winding_number(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Winding number of each point about the closed triangulated surface:
    the sum of the signed solid angles of its triangles, over 4 pi.  points
    (..., npts, 3) and tris (..., ntri, 3, 3) may carry a leading stack axis
    of surfaces, each with its own points -> (..., npts)."""
    a, b, c = (tris[..., None, :, i, :] - points[..., :, None, :]
               for i in range(3))
    la, lb, lc = _norm(a), _norm(b), _norm(c)
    num = np.vecdot(a, np.cross(b, c))
    den = (la * lb * lc + np.vecdot(a, b) * lc + np.vecdot(b, c) * la
           + np.vecdot(a, c) * lb)
    return np.sum(2.0 * np.arctan2(num, den), axis=-1) / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# construction


def _id_table(rows, owner: str, what: str, bound: int):
    """Ids of a ragged table as one flat int array plus row offsets, after
    checking that every id is in [0, bound) and none repeats in its row."""
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    flat = np.array([x for r in rows for x in r])
    if flat.size and flat.dtype.kind not in "iu":
        raise MeshError(f"{what} ids must be integers, got {flat.dtype}")
    flat = flat.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    row = np.repeat(np.arange(len(rows)), lens)
    bad = np.flatnonzero((flat < 0) | (flat >= bound))
    if bad.size:
        i = bad[0]
        raise MeshError(f"{owner} {row[i]}: {what} id {flat[i]} out of range "
                        f"[0, {bound})")
    pair = np.sort(row * bound + flat)
    dup = np.flatnonzero(pair[1:] == pair[:-1])
    if dup.size:
        r, x = divmod(int(pair[dup[0]]), bound)
        raise MeshError(f"{owner} {r}: {what} {x} repeated")
    return flat, lens, offsets


def build_mesh(vertex_coords, face_loops, cell_faces, validate: bool = True) -> Mesh:
    """Assemble and validate a mesh from raw vertex/face/cell tables.

    Parameters
    ----------
    vertex_coords : (nV, 3) array
    face_loops : list of vertex-id lists, counter-clockwise seen from the
        side the face normal points to
    cell_faces : list of face-id lists

    The tables are checked before any geometry: coordinate shape, id
    ranges, loops of at least 3 distinct vertices, faces distinct in each
    cell.  Geometry is then computed in array passes over all edges, over
    the faces of each loop length and over all cells.
    """
    vcoords = np.array(vertex_coords, dtype=float)
    if vcoords.ndim != 2 or vcoords.shape[1] != 3:
        raise MeshError(f"vertex coordinates must have shape (nV, 3), "
                        f"got {vcoords.shape}")
    if not np.all(np.isfinite(vcoords)):
        raise MeshError("non-finite vertex coordinates")
    nv, nf = len(vcoords), len(face_loops)
    for fid, loop in enumerate(face_loops):
        if len(loop) < 3:
            raise MeshError(f"face {fid}: fewer than 3 vertices")
    seg_v, loop_len, loop_off = _id_table(face_loops, "face", "vertex", nv)
    for cid, fids in enumerate(cell_faces):
        if len(fids) == 0:
            raise MeshError(f"cell {cid}: no faces")
    inc_face, _, inc_off = _id_table(cell_faces, "cell", "face", nf)

    # loop segments (face by face) and the edges they run along, numbered
    # by first appearance and stored as sorted vertex pairs
    loops = Ragged(seg_v, loop_off)
    seg_face = np.repeat(np.arange(nf), loop_len)
    seg_w = seg_v[_segments(loops, np.arange(nf))[1]]
    lo, hi = np.minimum(seg_v, seg_w), np.maximum(seg_v, seg_w)
    seg_edge, first = _first_appearance(lo * nv + hi)
    ev = np.stack([lo, hi], axis=1)[first]

    vec = vcoords[ev[:, 1]] - vcoords[ev[:, 0]]
    length = _norm(vec)
    zero = np.flatnonzero(length == 0.0)
    if zero.size:
        raise MeshError(f"zero-length edge between vertices {tuple(ev[zero[0]].tolist())}")
    tangent = vec / length[:, None]
    midpoint = 0.5 * (vcoords[ev[:, 0]] + vcoords[ev[:, 1]])
    # omega_FE = -1 where the loop runs along t_E: omega_FE n_FE points out of F
    seg_sign = np.where(seg_v == ev[seg_edge, 0], -1, 1)

    normal, anchor = np.empty((nf, 3)), np.empty((nf, 3))
    area, diam, frame = np.empty(nf), np.empty(nf), np.empty((nf, 2, 3))
    for n in np.unique(loop_len):
        fids = np.flatnonzero(loop_len == n)
        pts = vcoords[loops.rows(fids)]
        nrm = np.sum(np.cross(pts, np.roll(pts, -1, axis=1)), axis=1)
        size = _norm(nrm)
        if np.any(size == 0.0):
            raise MeshError(f"face {fids[np.argmax(size == 0.0)]}: degenerate face "
                            "loop (zero Newell normal)")
        nrm = nrm / size[:, None]
        # fan from the first vertex, triangle by triangle
        p0, a_sum, c_sum = pts[:, 0], 0.0, 0.0
        for i in range(1, n - 1):
            a = 0.5 * np.vecdot(np.cross(pts[:, i] - p0, pts[:, i + 1] - p0), nrm)
            a_sum = a_sum + a
            c_sum = c_sum + a[:, None] * (p0 + pts[:, i] + pts[:, i + 1]) / 3.0
        if np.any(a_sum <= 0.0):
            raise MeshError(f"face {fids[np.argmax(a_sum <= 0.0)]}: non-positive face "
                            "area (loop orientation inconsistent)")
        centroid = c_sum / a_sum[:, None]
        d = _pair_diameters(pts)
        if validate:
            offs = np.max(np.abs(np.vecdot(pts - centroid[:, None], nrm[:, None])),
                          axis=1)
            bad = np.flatnonzero(offs > PLANARITY_RTOL * d + 1e-14)
            if bad.size:
                raise MeshError(f"face {fids[bad[0]]}: vertex loop not coplanar "
                                f"(max offset {offs[bad[0]]:.3e})")
        e1 = pts[:, 1] - pts[:, 0]
        e1 = e1 - np.vecdot(e1, nrm)[:, None] * nrm
        e1 /= _norm(e1)[:, None]
        normal[fids], anchor[fids], area[fids], diam[fids] = nrm, centroid, a_sum, d
        frame[fids] = np.stack([e1, np.cross(nrm, e1)], axis=1)

    face_edges, face_signs = Ragged(seg_edge, loop_off), Ragged(seg_sign, loop_off)
    cells = _build_cells(vcoords, loops, face_edges, face_signs, normal, anchor,
                         area, Ragged(inc_face, inc_off))
    # the incident cells of each face, ascending
    count = np.bincount(inc_face, minlength=nf)
    if (f := _first((count == 0) | (count > 2))) is not None:
        if count[f] == 0:
            raise MeshError(f"face {f} not on the boundary of any cell")
        raise MeshError(f"face {f} incident to {count[f]} cells")
    order = np.argsort(inc_face, kind="stable")
    inc_cell = np.repeat(np.arange(len(cell_faces)), np.diff(inc_off))
    face_cells = np.full((nf, 2), -1, dtype=np.int64)
    face_cells[inc_face[order], _ranges(np.zeros(nf, dtype=np.int64), count)] = \
        inc_cell[order]

    mesh = Mesh(vcoords, ev, tangent, length, midpoint, loops, face_edges, face_signs,
                Ragged(np.cross(normal[seg_face], tangent[seg_edge]), loop_off),
                normal, anchor, diam, area, frame, face_cells, **cells)
    if validate:
        _validate(mesh)
    return mesh


def _cell_edge_pairs(cell_faces: Ragged, face_edges: Ragged, n_edges: int):
    """Each loop segment of the cell-face incidences, cell by cell: its
    position in face_edges.values, incidence, cell and (cell, edge) pair."""
    count = face_edges.lengths[cell_faces.values]
    seg = _ranges(face_edges.offsets[cell_faces.values], count)
    inc = np.repeat(np.arange(len(count)), count)
    cell = np.repeat(np.arange(len(cell_faces)), cell_faces.lengths)[inc]
    _, pair = np.unique(cell * n_edges + face_edges.values[seg], return_inverse=True)
    return seg, inc, cell, pair.ravel()


def _orient(cell_faces: Ragged, face_edges: Ragged, face_signs: Ragged):
    """omega_TF of each incidence: +1 on a cell's first face and on each face whose node i,
    not n + i, shares its component in the graph that joins, per (cell, edge) pair, the
    signs (i for +1, n + i for -1) under which its two faces traverse the edge oppositely."""
    seg, inc, cell, pair = _cell_edge_pairs(cell_faces, face_edges,
                                            int(face_edges.values.max()) + 1)
    n, use = len(cell_faces.values), np.bincount(pair)
    if (s := _first(use[pair] != 2)) is not None:
        raise MeshError(f"cell {cell[s]}: edge {face_edges.values[seg[s]]} on "
                        f"{use[pair[s]]} faces (boundary not closed)")
    a, b = np.argsort(pair, kind="stable").reshape(-1, 2).T
    # equal omega_FE on a pair: +1 of one face joins -1 of the other
    shift = n * (face_signs.values[seg[a]] == face_signs.values[seg[b]])
    a, b = inc[a], inc[b]
    label = connected_components(sp.coo_matrix((np.ones(2 * len(a)), (
        np.r_[a, a + n], np.r_[b + shift, b + n - shift])), (2 * n, 2 * n)),
        directed=False)[1]
    first = cell_faces.offsets[:-1]
    start = np.repeat(label[first], cell_faces.lengths)
    plus, twisted = label[:n] == start, label[first] == label[first + n]
    apart = ~np.logical_and.reduceat(plus | (label[n:] == start), first)
    if (c := _first(twisted | apart)) is not None:
        raise MeshError(f"cell {c}: inconsistent face orientations "
                        "(non-orientable boundary)" if twisted[c] else
                        f"cell {c}: boundary not connected")
    return np.where(plus, 1, -1)


def _cell_union(table: Ragged, cell_faces: Ragged) -> Ragged:
    """The distinct entries of the rows of table (one per face) over the
    faces of each cell, ascending."""
    inc_cell = np.repeat(np.arange(len(cell_faces)), cell_faces.lengths)
    vals = table.concat(cell_faces.values)
    n = int(vals.max(initial=0)) + 1
    cell, val = np.divmod(np.unique(
        np.repeat(inc_cell, table.lengths[cell_faces.values]) * n + vals), n)
    counts = np.bincount(cell, minlength=len(cell_faces))
    return Ragged(val, np.concatenate([[0], np.cumsum(counts)]))


def _build_cells(vcoords, loops: Ragged, face_edges: Ragged, face_signs: Ragged,
                 normal, anchor, area, cell_faces: Ragged) -> dict:
    """The cell tables of :class:`Mesh`: omega_TF, edges, vertices, anchors,
    diameters and volumes."""
    nc = len(cell_faces)
    # cell-face incidences, cell by cell in each cell's face order
    inc_cell, inc_face = np.repeat(np.arange(nc), cell_faces.lengths), cell_faces.values
    inc_sign = _orient(cell_faces, face_edges, face_signs)

    flux = np.vecdot(anchor, normal) * area  # x_F . n_F |F|
    vol3 = _ordered_sums(inc_sign * flux[inc_face], inc_cell, nc)
    flip = vol3 < 0
    inc_sign[flip[inc_cell]] *= -1
    volume = np.abs(vol3) / 3.0
    if np.any(volume <= 0.0):
        raise MeshError(f"cell {np.argmax(volume <= 0.0)}: non-positive volume")

    # centroid by the divergence theorem: c_j = (1/2V) sum_F s_F int_F x_j^2 n_j,
    # each face fanned from its first vertex, int_tri x_j^2 n_j by the
    # degree-2 midpoint rule
    loop_len = loops.lengths
    tri_off = np.concatenate([[0], np.cumsum(loop_len - 2)])
    tri_terms = np.empty((tri_off[-1], 3))
    for n in np.unique(loop_len):
        fids = np.flatnonzero(loop_len == n)
        pts = vcoords[loops.rows(fids)]
        for i in range(1, n - 1):
            tri = np.stack([pts[:, 0], pts[:, i], pts[:, i + 1]], axis=1)
            a2 = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            mids = 0.5 * (tri + np.roll(tri, -1, axis=1))
            tri_terms[tri_off[fids] + i - 1] = 0.5 * (a2 / 2.0) * np.mean(mids**2, axis=1)
    count = loop_len[inc_face] - 2
    term = _ranges(tri_off[inc_face], count)
    centroid = _ordered_sums(np.repeat(inc_sign, count)[:, None] * tri_terms[term],
                             np.repeat(inc_cell, count), nc)
    centroid /= volume[:, None]

    verts = _cell_union(loops, cell_faces)
    diam = np.empty(nc)
    for n in np.unique(verts.lengths):
        cids = np.flatnonzero(verts.lengths == n)
        diam[cids] = _pair_diameters(vcoords[verts.rows(cids)])
    return dict(cell_faces=cell_faces,
                cell_face_signs=Ragged(inc_sign, cell_faces.offsets),
                cell_edges=_cell_union(face_edges, cell_faces),
                cell_vertices=verts, cell_anchor=centroid, cell_diameter=diam,
                cell_volume=volume)


def _first(mask) -> int | None:
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


def _validate(mesh: Mesh) -> None:
    """Check the stored geometry and orientations, one array pass per check
    over all edges, faces or cells."""
    V, length = mesh.vertex_coords, mesh.edge_length
    if (e := _first(np.abs(_norm(mesh.edge_tangent) - 1.0) > UNIT_TOL)) is not None:
        raise MeshError(f"edge {e}: tangent not unit")

    normal, anchor, area = mesh.face_normal, mesh.face_anchor, mesh.face_area
    fdiam, frame = mesh.face_diameter, mesh.face_frame
    loop_len, nf = mesh.face_loops.lengths, mesh.n_faces
    seg_face = np.repeat(np.arange(nf), loop_len)
    seg_edge = mesh.face_edges.values
    seg_sign = mesh.face_edge_signs.values

    # crossing-number test of each face anchor in the face's own frame
    outside = np.zeros(nf, dtype=bool)
    for n in np.unique(loop_len):
        fids = np.flatnonzero(loop_len == n)
        loops = mesh.face_loops.rows(fids)
        q = np.matmul(V[loops] - anchor[fids, None], frame[fids].transpose(0, 2, 1))
        a, b = q, np.roll(q, -1, axis=1)
        cross = (a[..., 1] > 0.0) != (b[..., 1] > 0.0)
        dy = np.where(cross, b[..., 1] - a[..., 1], 1.0)
        x_cross = a[..., 0] + (0.0 - a[..., 1]) / dy * (b[..., 0] - a[..., 0])
        outside[fids] = np.sum(cross & (x_cross > 0.0), axis=1) % 2 == 0
    if (f := _first(outside)) is not None:
        raise MeshError(f"face {f}: anchor not strictly inside")
    # 2D divergence closure: sum_E omega_FE int_E (x - x_F).n_FE = 2|F|
    acc = np.bincount(seg_face, minlength=nf, weights=seg_sign * np.vecdot(
        mesh.edge_midpoint[seg_edge] - anchor[seg_face],
        mesh.face_edge_normals.values) * length[seg_edge])
    if (f := _first(np.abs(acc - 2.0 * area) > CLOSURE_RTOL * 2.0 * area)) is not None:
        raise MeshError(f"face {f}: 2D divergence closure failed "
                        f"({acc[f]:.15g} vs {2 * area[f]:.15g})")
    if (s := _first(length[seg_edge] > fdiam[seg_face] * (1 + 1e-12))) is not None:
        raise MeshError(f"face {seg_face[s]}: edge {seg_edge[s]} longer than "
                        "face diameter")

    nc = mesh.n_cells
    n_inc = mesh.cell_faces.lengths
    inc_cell = np.repeat(np.arange(nc), n_inc)
    inc_face, inc_sign = mesh.cell_faces.values, mesh.cell_face_signs.values
    volume, cdiam = mesh.cell_volume, mesh.cell_diameter
    acc = np.bincount(inc_cell, minlength=nc, weights=inc_sign * np.vecdot(
        anchor[inc_face], normal[inc_face]) * area[inc_face])
    if (c := _first(np.abs(acc - 3.0 * volume) > CLOSURE_RTOL * 3.0 * volume)) is not None:
        raise MeshError(f"cell {c}: divergence closure failed "
                        f"({acc[c]:.15g} vs {3 * volume[c]:.15g})")
    # oriented boundary is a 2-cycle: each edge traversed once per direction
    seg, inc, owner, pair = _cell_edge_pairs(mesh.cell_faces, mesh.face_edges, mesh.n_edges)
    net = np.bincount(pair, weights=-inc_sign[inc] * seg_sign[seg])
    if (p := _first(net != 0)) is not None:
        raise MeshError(f"cell {owner[np.argmax(pair == p)]}: boundary "
                        "orientation is not a 2-cycle (inconsistent omega_TF)")
    # winding-number tests: the anchor, and each face anchor moved inward by
    # 1e-6 h_T, must lie inside; one kernel call per group of cells with
    # equal triangle and face counts and per point, so that one point of
    # each cell meets the cell's triangles at a time
    tris, tri_inc, _ = face_triangles(mesh, inc_face)
    # the boundary oriented: reversed on faces of negative sign
    flip = inc_sign[tri_inc] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    n_tri = np.bincount(inc_cell[tri_inc], minlength=nc)
    tri_off = np.concatenate([[0], np.cumsum(n_tri)])
    eps = 1e-6 * cdiam[inc_cell] * inc_sign
    probes = anchor[inc_face] - eps[:, None] * normal[inc_face]
    inc_off = mesh.cell_faces.offsets
    # inside[c, 0] is the anchor of cell c, inside[c, 1 + i] its i-th probe
    inside = np.ones((nc, 1 + n_inc.max(initial=0)), dtype=bool)
    for nt, ni in set(zip(n_tri.tolist(), n_inc.tolist())):
        cids = np.flatnonzero((n_tri == nt) & (n_inc == ni))
        pts = np.concatenate([mesh.cell_anchor[cids, None],
                              probes[inc_off[cids, None] + np.arange(ni)]], axis=1)
        ctris = tris[tri_off[cids, None] + np.arange(nt)]
        for j in range(1 + ni):
            inside[cids, j] = _winding_number(pts[:, j:j + 1], ctris)[:, 0] > 0.5
    if (c := _first(~inside.all(axis=1))) is not None:
        if not inside[c, 0]:
            raise MeshError(f"cell {c}: anchor not strictly inside")
        i = _first(~inside[c, 1:])
        raise MeshError(f"cell {c}, face {mesh.cell_faces[c][i]}: omega_TF point "
                        "test failed")
    if (i := _first(fdiam[inc_face] > cdiam[inc_cell] * (1 + 1e-12))) is not None:
        raise MeshError(f"cell {inc_cell[i]}: face {inc_face[i]} diameter "
                        "exceeds h_T")
    on_two = mesh.face_cells[:, 1] >= 0
    parity = np.bincount(inc_face, weights=inc_sign, minlength=nf)
    if (f := _first(on_two & (parity != 0))) is not None:
        raise MeshError(f"interior face {f}: incident cells do not "
                        "carry opposite omega_TF")


# ---------------------------------------------------------------------------
# generators


def _grid(n: int):
    """The (n+1)^3 vertices of the grid on [0,1]^3, x fastest, and the id of
    grid vertex (i, j, l)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    l, j, i = np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij")
    coords = np.stack([i, j, l], axis=-1).reshape(-1, 3) / n
    return coords, lambda i, j, l: i + (n + 1) * (j + (n + 1) * l)


def generate_cubic_mesh(n: int) -> Mesh:
    """Cartesian mesh of (0,1)^3 made of n^3 congruent cubes."""
    coords, vid = _grid(n)
    # the faces normal to x, then y, then z: face (a, b, c) has a along its
    # normal, and its loop is counter-clockwise seen from the + side
    a, b, c = np.meshgrid(np.arange(n + 1), np.arange(n), np.arange(n),
                          indexing="ij")
    loops = np.concatenate([np.stack(v, axis=-1).reshape(-1, 4) for v in (
        [vid(a, b, c), vid(a, b + 1, c), vid(a, b + 1, c + 1), vid(a, b, c + 1)],
        [vid(b, a, c), vid(b, a, c + 1), vid(b + 1, a, c + 1), vid(b + 1, a, c)],
        [vid(b, c, a), vid(b + 1, c, a), vid(b + 1, c + 1, a), vid(b, c + 1, a)])])
    fid = lambda axis, a, b, c: ((axis * (n + 1) + a) * n + b) * n + c
    l, j, i = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    cells = np.stack([fid(0, i, j, l), fid(0, i + 1, j, l), fid(1, j, i, l),
                      fid(1, j + 1, i, l), fid(2, l, i, j), fid(2, l + 1, i, j)],
                     axis=-1)
    return build_mesh(coords, loops.tolist(), cells.reshape(-1, 6).tolist())


_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def generate_tet_mesh(n: int) -> Mesh:
    """Kuhn split of the cubic mesh: each cube into 6 equal-volume tetrahedra."""
    coords, vid = _grid(n)
    l, j, i = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    base = np.stack([i, j, l], axis=-1).reshape(-1, 1, 1, 3)
    # the tetrahedron of permutation p runs 0 -> e_p2 -> e_p2 + e_p1 -> (1,1,1)
    steps = np.cumsum(np.eye(3, dtype=int)[np.array(_KUHN_PERMS)[:, ::-1]], axis=1)
    steps = np.concatenate([np.zeros((6, 1, 3), dtype=int), steps], axis=1)
    tets = vid(*np.moveaxis(base + steps, -1, 0)).reshape(-1, 4)
    # the face opposite each vertex, faces numbered by first appearance
    tris = tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
    face, first = _first_appearance(np.sort(tris, axis=1))
    return build_mesh(coords, tris[first].tolist(),
                      face.reshape(-1, 4).tolist())


# ---------------------------------------------------------------------------
# POLY3 reader / writer


def read_mesh(path) -> Mesh:
    """Read a POLY3 file.

    Format: ``POLY3 1`` header; ``nV nF nT``; nV coordinate lines; nF face
    lines ``m v1 .. vm`` (0-based, counter-clockwise seen from the n_F side);
    nT cell lines ``m f1 .. fm``.  ``#`` starts a comment.
    """
    tokens: list[tuple[int, str]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.extend((lineno, t) for t in line.split())
    pos = 0

    def take(n, conv, what):
        nonlocal pos
        if pos + n > len(tokens):
            last = tokens[-1][0] if tokens else 0
            raise Poly3ParseError(last, f"unexpected end of file reading {what}")
        out = []
        for lineno, tok in tokens[pos:pos + n]:
            try:
                out.append(conv(tok))
            except ValueError:
                raise Poly3ParseError(lineno, f"bad {what} token {tok!r}") from None
        pos += n
        return out

    magic = take(2, str, "header")
    if magic != ["POLY3", "1"]:
        raise Poly3ParseError(tokens[0][0] if tokens else 1,
                              f"bad header {' '.join(magic)!r}")
    nv, nf, nt = take(3, int, "counts")
    coords = np.array(take(3 * nv, float, "vertex coordinates")).reshape(nv, 3)
    face_loops = []
    for _ in range(nf):
        (m,) = take(1, int, "face vertex count")
        loop = take(m, int, "face vertex id")
        if any(v < 0 or v >= nv for v in loop):
            raise Poly3ParseError(tokens[pos - 1][0], "face vertex id out of range")
        face_loops.append(loop)
    cell_faces = []
    for _ in range(nt):
        (m,) = take(1, int, "cell face count")
        fids = take(m, int, "cell face id")
        if any(f < 0 or f >= nf for f in fids):
            raise Poly3ParseError(tokens[pos - 1][0], "cell face id out of range")
        cell_faces.append(fids)
    if pos != len(tokens):
        raise Poly3ParseError(tokens[pos][0], "trailing data")
    return build_mesh(coords, face_loops, cell_faces)


def write_poly3(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("POLY3 1\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_cells}\n")
        for x in mesh.vertex_coords:
            fh.write(" ".join(f"{c:.17g}" for c in x) + "\n")
        for table in (mesh.face_loops, mesh.cell_faces):
            for row in table.tolist():
                fh.write(f"{len(row)} " + " ".join(map(str, row)) + "\n")
