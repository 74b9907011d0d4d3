"""Polyhedral mesh: entities, incidence, orientations and geometric anchors.

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
reference).  Only the orientation walk over each cell's face graph is a
Python loop, over ints.  :func:`_validate` runs each check as one pass over
all edges, faces or cells; the winding-number tests of a cell (its anchor
and one point per face) take one kernel call.

Meshes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PLANARITY_RTOL = 1e-12
CLOSURE_RTOL = 1e-10
UNIT_TOL = 1e-14


class MeshError(Exception):
    """Topological or geometric mesh validation failure."""


class Poly3ParseError(MeshError):
    """Malformed POLY3 input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"POLY3 parse error at line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Vertex:
    id: int
    coords: np.ndarray  # (3,)


@dataclass
class Edge:
    id: int
    vertices: tuple[int, int]  # ordered; tangent points from first to second
    tangent: np.ndarray        # unit
    length: float
    midpoint: np.ndarray


@dataclass
class Face:
    id: int
    vertex_loop: list[int]           # counter-clockwise as seen from the n_F side
    edges: list[int]                 # one per loop segment
    edge_signs: list[int]            # omega_FE
    edge_normals: list[np.ndarray]   # n_FE per loop segment
    normal: np.ndarray               # unit n_F
    anchor: np.ndarray               # x_F
    diameter: float                  # h_F
    area: float
    frame: np.ndarray                # (2,3) rows e1,e2; e1 x e2 = n_F
    cells: list[int] = field(default_factory=list)
    on_boundary: bool = False


@dataclass
class Cell:
    id: int
    faces: list[int]
    face_signs: list[int]   # omega_TF
    anchor: np.ndarray      # x_T
    diameter: float         # h_T
    volume: float
    edge_ids: list[int] = field(default_factory=list)
    vertex_ids: list[int] = field(default_factory=list)


class Mesh:
    """Validated polyhedral mesh of a 3D domain.

    Built through :func:`build_mesh` (or the generators / the POLY3 reader,
    which delegate to it).  All orientation signs are derived, never read
    from input, and are cross-checked by divergence-theorem closure.
    """

    def __init__(self, vertices, edges, faces, cells):
        self.vertices: list[Vertex] = vertices
        self.edges: list[Edge] = edges
        self.faces: list[Face] = faces
        self.cells: list[Cell] = cells
        self.vertex_coords = np.array([v.coords for v in vertices])
        self.h = max(c.diameter for c in cells)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def boundary_faces(self) -> list[int]:
        return [f.id for f in self.faces if f.on_boundary]

    def regularity_ratio(self) -> float:
        """min over cells of (inscribed-ball diameter) / h_T.

        Reported for diagnostics only; never asserted.  The inscribed ball is
        taken centred at the cell anchor.
        """
        worst = np.inf
        for c in self.cells:
            r = min(
                abs(np.dot(c.anchor - self.faces[f].anchor, self.faces[f].normal))
                for f in c.faces
            )
            worst = min(worst, 2.0 * r / c.diameter)
        return float(worst)


# ---------------------------------------------------------------------------
# batched geometry kernels


def cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product over the last axis: the products and differences of
    np.cross, so the same bits, without its per-call axis handling."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0],
                    axis=-1)


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


def _ordered_sums(terms: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Sum of the terms of each owner, added left to right in the given
    order (owners contiguous), as a loop over one owner's terms adds them."""
    counts = np.bincount(owner, minlength=n)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((n, max(counts.max(initial=0), 1)) + terms.shape[1:])
    table[owner, pos] = terms
    return np.cumsum(table, axis=1)[:, -1]


def loop_segments(loops) -> tuple[list[int], list[int]]:
    """First and second vertex of every segment of the given vertex loops,
    loop by loop: segment i of a loop runs from its vertex i to vertex i+1."""
    cur = [v for loop in loops for v in loop]
    nxt = [v for loop in loops for v in (*loop[1:], loop[0])]
    return cur, nxt


def _boundary_triangles(mesh: Mesh, fids, signs) -> np.ndarray:
    """The oriented boundary of faces `fids` with signs `signs` as the fan
    triangles (x_F, v_i, v_i+1), reversed on faces of negative sign."""
    loops = [mesh.faces[f].vertex_loop for f in fids]
    cur, nxt = loop_segments(loops)
    seg_face = np.repeat(np.arange(len(loops)), [len(loop) for loop in loops])
    flip = np.asarray(signs)[seg_face] < 0
    tris = np.empty((len(cur), 3, 3))
    tris[:, 0] = np.array([mesh.faces[f].anchor for f in fids])[seg_face]
    tris[:, 1] = mesh.vertex_coords[np.where(flip, nxt, cur)]
    tris[:, 2] = mesh.vertex_coords[np.where(flip, cur, nxt)]
    return tris


def _winding_number(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Winding number of each point about the closed triangulated surface:
    the sum of the signed solid angles of its triangles, over 4 pi.  points
    (..., npts, 3) and tris (..., ntri, 3, 3) may carry a leading stack axis
    of surfaces, each with its own points -> (..., npts)."""
    a, b, c = (tris[..., None, :, i, :] - points[..., :, None, :]
               for i in range(3))
    la, lb, lc = _norm(a), _norm(b), _norm(c)
    num = np.vecdot(a, cross3(b, c))
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
    _id_table(cell_faces, "cell", "face", nf)

    # loop segments (face by face) and the edges they run along, numbered
    # by first appearance and stored as sorted vertex pairs
    seg_face = np.repeat(np.arange(nf), loop_len)
    nxt = np.arange(len(seg_v)) + 1
    nxt[loop_off[1:] - 1] = loop_off[:-1]
    seg_w = seg_v[nxt]
    lo, hi = np.minimum(seg_v, seg_w), np.maximum(seg_v, seg_w)
    _, first, inv = np.unique(lo * nv + hi, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    seg_edge = rank[inv.ravel()]
    ev = np.stack([lo, hi], axis=1)[np.sort(first)]

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
        pts = vcoords[seg_v[loop_off[fids, None] + np.arange(n)]]
        nrm = np.sum(cross3(pts, np.roll(pts, -1, axis=1)), axis=1)
        size = _norm(nrm)
        if np.any(size == 0.0):
            raise MeshError(f"face {fids[np.argmax(size == 0.0)]}: degenerate face "
                            "loop (zero Newell normal)")
        nrm = nrm / size[:, None]
        # fan from the first vertex, triangle by triangle
        p0, a_sum, c_sum = pts[:, 0], 0.0, 0.0
        for i in range(1, n - 1):
            a = 0.5 * np.vecdot(cross3(pts[:, i] - p0, pts[:, i + 1] - p0), nrm)
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
        frame[fids] = np.stack([e1, cross3(nrm, e1)], axis=1)
    seg_nfe = cross3(normal[seg_face], tangent[seg_edge])

    vertices = [Vertex(i, vcoords[i]) for i in range(nv)]
    edges = [Edge(i, (a, b), tangent[i], float(length[i]), midpoint[i])
             for i, (a, b) in enumerate(ev.tolist())]
    seg_edge_l, seg_sign_l = seg_edge.tolist(), seg_sign.tolist()
    faces = []
    for fid, (s, t) in enumerate(zip(loop_off[:-1].tolist(), loop_off[1:].tolist())):
        faces.append(Face(fid, seg_v[s:t].tolist(), seg_edge_l[s:t], seg_sign_l[s:t],
                          list(seg_nfe[s:t]), normal[fid], anchor[fid],
                          float(diam[fid]), area[fid], frame[fid]))

    cells = _build_cells(faces, vcoords, cell_faces)
    for c in cells:
        for fid in c.faces:
            faces[fid].cells.append(c.id)
    for f in faces:
        if len(f.cells) == 0:
            raise MeshError(f"face {f.id} not on the boundary of any cell")
        if len(f.cells) > 2:
            raise MeshError(f"face {f.id} incident to {len(f.cells)} cells")
        f.on_boundary = len(f.cells) == 1

    mesh = Mesh(vertices, edges, faces, cells)
    if validate:
        _validate(mesh)
    return mesh


def _orient(cid: int, fids, faces) -> list[int]:
    """Signs of the faces of cell `cid` making its boundary one oriented
    surface: faces sharing an edge must traverse it oppositely.  A walk over
    the face adjacency graph from the first face, which gets +1."""
    edge_use: dict[int, list[int]] = {}
    loop_sign = {}
    for fid in fids:
        f = faces[fid]
        loop_sign[fid] = dict(zip(f.edges, f.edge_signs))
        for e in f.edges:
            edge_use.setdefault(e, []).append(fid)
    for e, use in edge_use.items():
        if len(use) != 2:
            raise MeshError(f"cell {cid}: edge {e} on {len(use)} faces "
                            "(boundary not closed)")
    sigma = {fids[0]: 1}
    stack = [fids[0]]
    while stack:
        fid = stack.pop()
        for e in faces[fid].edges:
            other = use[0] if (use := edge_use[e])[0] != fid else use[1]
            want = -sigma[fid] * loop_sign[fid][e] * loop_sign[other][e]
            if other in sigma:
                if sigma[other] != want:
                    raise MeshError(f"cell {cid}: inconsistent face "
                                    "orientations (non-orientable boundary)")
            else:
                sigma[other] = want
                stack.append(other)
    if len(sigma) != len(fids):
        raise MeshError(f"cell {cid}: boundary not connected")
    return [sigma[fid] for fid in fids]


def _build_cells(faces, vcoords, cell_faces) -> list[Cell]:
    nc = len(cell_faces)
    signs = [_orient(cid, list(fids), faces) for cid, fids in enumerate(cell_faces)]
    # cell-face incidences, cell by cell in each cell's face order
    inc_cell = np.repeat(np.arange(nc), [len(fids) for fids in cell_faces])
    inc_face = np.array([f for fids in cell_faces for f in fids], dtype=np.int64)
    inc_sign = np.array([s for ss in signs for s in ss])

    normal = np.array([f.normal for f in faces])
    anchor = np.array([f.anchor for f in faces])
    area = np.array([f.area for f in faces])
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
    loop_len = np.array([len(f.vertex_loop) for f in faces])
    tri_off = np.concatenate([[0], np.cumsum(loop_len - 2)])
    tri_terms = np.empty((tri_off[-1], 3))
    for n in np.unique(loop_len):
        fids = np.flatnonzero(loop_len == n)
        pts = vcoords[np.array([faces[f].vertex_loop for f in fids])]
        for i in range(1, n - 1):
            tri = np.stack([pts[:, 0], pts[:, i], pts[:, i + 1]], axis=1)
            a2 = cross3(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            mids = 0.5 * (tri + np.roll(tri, -1, axis=1))
            tri_terms[tri_off[fids] + i - 1] = 0.5 * (a2 / 2.0) * np.mean(mids**2, axis=1)
    count = loop_len[inc_face] - 2
    term = _ranges(tri_off[inc_face], count)
    centroid = _ordered_sums(np.repeat(inc_sign, count)[:, None] * tri_terms[term],
                             np.repeat(inc_cell, count), nc)
    centroid /= volume[:, None]

    verts = [sorted({v for f in fids for v in faces[f].vertex_loop})
             for fids in cell_faces]
    diam = np.empty(nc)
    nverts = np.array([len(v) for v in verts])
    for n in np.unique(nverts):
        cids = np.flatnonzero(nverts == n)
        diam[cids] = _pair_diameters(vcoords[np.array([verts[c] for c in cids])])

    inc_sign = inc_sign.tolist()
    cells, s = [], 0
    for cid, fids in enumerate(cell_faces):
        t = s + len(fids)
        cell_edges = sorted({e for f in fids for e in faces[f].edges})
        cells.append(Cell(cid, list(fids), inc_sign[s:t], centroid[cid],
                          float(diam[cid]), volume[cid], cell_edges, verts[cid]))
        s = t
    return cells


def _first(mask) -> int | None:
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


def _validate(mesh: Mesh) -> None:
    """Check the stored geometry and orientations, one array pass per check
    over all edges, faces or cells."""
    V, faces, cells = mesh.vertex_coords, mesh.faces, mesh.cells
    tangent = np.array([e.tangent for e in mesh.edges])
    length = np.array([e.length for e in mesh.edges])
    midpoint = np.array([e.midpoint for e in mesh.edges])
    if (e := _first(np.abs(_norm(tangent) - 1.0) > UNIT_TOL)) is not None:
        raise MeshError(f"edge {e}: tangent not unit")

    normal = np.array([f.normal for f in faces])
    anchor = np.array([f.anchor for f in faces])
    area = np.array([f.area for f in faces])
    fdiam = np.array([f.diameter for f in faces])
    frame = np.array([f.frame for f in faces])
    loop_len = np.array([len(f.vertex_loop) for f in faces])
    seg_face = np.repeat(np.arange(len(faces)), loop_len)
    seg_edge = np.array([e for f in faces for e in f.edges])
    seg_sign = np.array([s for f in faces for s in f.edge_signs])
    seg_nfe = np.array([n for f in faces for n in f.edge_normals])

    # crossing-number test of each face anchor in the face's own frame
    outside = np.zeros(len(faces), dtype=bool)
    for n in np.unique(loop_len):
        fids = np.flatnonzero(loop_len == n)
        loops = np.array([faces[f].vertex_loop for f in fids])
        q = np.matmul(V[loops] - anchor[fids, None], frame[fids].transpose(0, 2, 1))
        a, b = q, np.roll(q, -1, axis=1)
        cross = (a[..., 1] > 0.0) != (b[..., 1] > 0.0)
        dy = np.where(cross, b[..., 1] - a[..., 1], 1.0)
        x_cross = a[..., 0] + (0.0 - a[..., 1]) / dy * (b[..., 0] - a[..., 0])
        outside[fids] = np.sum(cross & (x_cross > 0.0), axis=1) % 2 == 0
    if (f := _first(outside)) is not None:
        raise MeshError(f"face {f}: anchor not strictly inside")
    # 2D divergence closure: sum_E omega_FE int_E (x - x_F).n_FE = 2|F|
    acc = np.bincount(seg_face, minlength=len(faces), weights=seg_sign * np.vecdot(
        midpoint[seg_edge] - anchor[seg_face], seg_nfe) * length[seg_edge])
    if (f := _first(np.abs(acc - 2.0 * area) > CLOSURE_RTOL * 2.0 * area)) is not None:
        raise MeshError(f"face {f}: 2D divergence closure failed "
                        f"({acc[f]:.15g} vs {2 * area[f]:.15g})")
    if (s := _first(length[seg_edge] > fdiam[seg_face] * (1 + 1e-12))) is not None:
        raise MeshError(f"face {seg_face[s]}: edge {seg_edge[s]} longer than "
                        "face diameter")

    nc = len(cells)
    inc_cell = np.repeat(np.arange(nc), [len(c.faces) for c in cells])
    inc_face = np.array([f for c in cells for f in c.faces])
    inc_sign = np.array([s for c in cells for s in c.face_signs])
    volume = np.array([c.volume for c in cells])
    cdiam = np.array([c.diameter for c in cells])
    acc = np.bincount(inc_cell, minlength=nc, weights=inc_sign * np.vecdot(
        anchor[inc_face], normal[inc_face]) * area[inc_face])
    if (c := _first(np.abs(acc - 3.0 * volume) > CLOSURE_RTOL * 3.0 * volume)) is not None:
        raise MeshError(f"cell {c}: divergence closure failed "
                        f"({acc[c]:.15g} vs {3 * volume[c]:.15g})")
    # oriented boundary is a 2-cycle: each edge traversed once per direction
    seg_off = np.concatenate([[0], np.cumsum(loop_len)])
    count = loop_len[inc_face]
    seg = _ranges(seg_off[inc_face], count)
    owner = np.repeat(inc_cell, count)
    _, pair = np.unique(owner * len(mesh.edges) + seg_edge[seg], return_inverse=True)
    net = np.bincount(pair.ravel(), weights=-np.repeat(inc_sign, count) * seg_sign[seg])
    if (p := _first(net != 0)) is not None:
        raise MeshError(f"cell {owner[np.argmax(pair.ravel() == p)]}: boundary "
                        "orientation is not a 2-cycle (inconsistent omega_TF)")
    # winding-number tests: the anchor, and each face anchor moved inward by
    # 1e-6 h_T, must lie inside; one kernel call per group of cells with
    # equal triangle and face counts and per point, so that one point of
    # each cell meets the cell's triangles at a time
    tris = _boundary_triangles(mesh, inc_face, inc_sign)
    n_tri = np.bincount(owner, minlength=nc)
    tri_off = np.concatenate([[0], np.cumsum(n_tri)])
    eps = 1e-6 * cdiam[inc_cell] * inc_sign
    probes = anchor[inc_face] - eps[:, None] * normal[inc_face]
    n_inc = np.bincount(inc_cell, minlength=nc)
    inc_off = np.concatenate([[0], np.cumsum(n_inc)])
    # inside[c, 0] is the anchor of cell c, inside[c, 1 + i] its i-th probe
    inside = np.ones((nc, 1 + n_inc.max(initial=0)), dtype=bool)
    for nt, ni in set(zip(n_tri.tolist(), n_inc.tolist())):
        cids = np.flatnonzero((n_tri == nt) & (n_inc == ni))
        pts = np.concatenate([np.array([cells[c].anchor for c in cids])[:, None],
                              probes[inc_off[cids, None] + np.arange(ni)]], axis=1)
        ctris = tris[tri_off[cids, None] + np.arange(nt)]
        for j in range(1 + ni):
            inside[cids, j] = _winding_number(pts[:, j:j + 1], ctris)[:, 0] > 0.5
    if (c := _first(~inside.all(axis=1))) is not None:
        if not inside[c, 0]:
            raise MeshError(f"cell {c}: anchor not strictly inside")
        i = _first(~inside[c, 1:])
        raise MeshError(f"cell {c}, face {cells[c].faces[i]}: omega_TF point "
                        "test failed")
    if (i := _first(fdiam[inc_face] > cdiam[inc_cell] * (1 + 1e-12))) is not None:
        raise MeshError(f"cell {inc_cell[i]}: face {inc_face[i]} diameter "
                        "exceeds h_T")
    on_two = np.array([len(f.cells) == 2 for f in faces])
    parity = np.bincount(inc_face, weights=inc_sign, minlength=len(faces))
    if (f := _first(on_two & (parity != 0))) is not None:
        raise MeshError(f"interior face {f}: incident cells do not "
                        "carry opposite omega_TF")


# ---------------------------------------------------------------------------
# generators


def generate_cubic_mesh(n: int) -> Mesh:
    """Cartesian mesh of (0,1)^3 made of n^3 congruent cubes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vid = lambda i, j, l: i + (n + 1) * (j + (n + 1) * l)
    coords = np.array([[i / n, j / n, l / n]
                       for l in range(n + 1) for j in range(n + 1)
                       for i in range(n + 1)])

    face_loops = []
    face_id = {}

    def add_face(loop):
        fid = len(face_loops)
        face_loops.append(loop)
        return fid

    # x-normal faces: loop ccw seen from +x
    for i in range(n + 1):
        for j in range(n):
            for l in range(n):
                loop = [vid(i, j, l), vid(i, j + 1, l), vid(i, j + 1, l + 1),
                        vid(i, j, l + 1)]
                face_id["x", i, j, l] = add_face(loop)
    for j in range(n + 1):
        for i in range(n):
            for l in range(n):
                loop = [vid(i, j, l), vid(i, j, l + 1), vid(i + 1, j, l + 1),
                        vid(i + 1, j, l)]
                face_id["y", j, i, l] = add_face(loop)
    for l in range(n + 1):
        for i in range(n):
            for j in range(n):
                loop = [vid(i, j, l), vid(i + 1, j, l), vid(i + 1, j + 1, l),
                        vid(i, j + 1, l)]
                face_id["z", l, i, j] = add_face(loop)

    cell_faces = []
    for l in range(n):
        for j in range(n):
            for i in range(n):
                cell_faces.append([
                    face_id["x", i, j, l], face_id["x", i + 1, j, l],
                    face_id["y", j, i, l], face_id["y", j + 1, i, l],
                    face_id["z", l, i, j], face_id["z", l + 1, i, j],
                ])
    return build_mesh(coords, face_loops, cell_faces)


_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def generate_tet_mesh(n: int) -> Mesh:
    """Kuhn split of the cubic mesh: each cube into 6 equal-volume tetrahedra."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vid = lambda i, j, l: i + (n + 1) * (j + (n + 1) * l)
    coords = np.array([[i / n, j / n, l / n]
                       for l in range(n + 1) for j in range(n + 1)
                       for i in range(n + 1)])
    tets = []
    for l in range(n):
        for j in range(n):
            for i in range(n):
                base = np.array([i, j, l])
                for perm in _KUHN_PERMS:
                    # path 0 -> e_{p2} -> e_{p2}+e_{p1} -> (1,1,1)
                    steps = [np.zeros(3, dtype=int)]
                    acc = np.zeros(3, dtype=int)
                    for axis in (perm[2], perm[1], perm[0]):
                        acc = acc.copy()
                        acc[axis] += 1
                        steps.append(acc)
                    tets.append([vid(*(base + s)) for s in steps])

    face_loops = []
    face_index: dict[tuple[int, ...], int] = {}
    cell_faces = []
    for tet in tets:
        fids = []
        for excl in range(4):
            tri = [tet[m] for m in range(4) if m != excl]
            key = tuple(sorted(tri))
            if key not in face_index:
                face_index[key] = len(face_loops)
                face_loops.append(tri)
            fids.append(face_index[key])
        cell_faces.append(fids)
    return build_mesh(coords, face_loops, cell_faces)


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
        for v in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in v.coords) + "\n")
        for f in mesh.faces:
            fh.write(f"{len(f.vertex_loop)} " + " ".join(map(str, f.vertex_loop)) + "\n")
        for c in mesh.cells:
            fh.write(f"{len(c.faces)} " + " ".join(map(str, c.faces)) + "\n")
