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
# geometry helpers


def _newell_normal(pts: np.ndarray) -> np.ndarray:
    nxt = np.roll(pts, -1, axis=0)
    n = np.sum(np.cross(pts, nxt), axis=0)
    nrm = np.linalg.norm(n)
    if nrm == 0.0:
        raise MeshError("degenerate face loop (zero Newell normal)")
    return n / nrm


def _polygon_area_centroid(pts: np.ndarray, normal: np.ndarray):
    p0 = pts[0]
    area = 0.0
    centroid = np.zeros(3)
    for i in range(1, len(pts) - 1):
        a = 0.5 * np.dot(np.cross(pts[i] - p0, pts[i + 1] - p0), normal)
        area += a
        centroid += a * (p0 + pts[i] + pts[i + 1]) / 3.0
    if area <= 0.0:
        raise MeshError("non-positive face area (loop orientation inconsistent)")
    return area, centroid / area


def _point_in_polygon(point: np.ndarray, loop_pts: np.ndarray, frame: np.ndarray,
                      anchor: np.ndarray) -> bool:
    # crossing-number test in the in-plane frame
    q = (loop_pts - anchor) @ frame.T
    p = (point - anchor) @ frame.T
    inside = False
    n = len(q)
    for i in range(n):
        a, b = q[i], q[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if x_cross > p[0]:
                inside = not inside
    return inside


def _winding_number(point: np.ndarray, tri_list: np.ndarray) -> float:
    # sum of signed solid angles over oriented boundary triangles, / 4*pi
    a = tri_list[:, 0] - point
    b = tri_list[:, 1] - point
    c = tri_list[:, 2] - point
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
           + np.einsum("ij,ij->i", b, c) * la + np.einsum("ij,ij->i", a, c) * lb)
    return float(np.sum(2.0 * np.arctan2(num, den))) / (4.0 * np.pi)


def _cell_boundary_triangles(mesh_faces, cell: Cell, vcoords) -> np.ndarray:
    tris = []
    for fid, sgn in zip(cell.faces, cell.face_signs):
        f = mesh_faces[fid]
        pts = vcoords[f.vertex_loop]
        for i in range(len(pts)):
            tri = [f.anchor, pts[i], pts[(i + 1) % len(pts)]]
            tris.append(tri if sgn > 0 else tri[::-1])
    return np.array(tris)


def point_in_cell(mesh: Mesh, cell_id: int, point: np.ndarray) -> bool:
    """Point-in-polyhedron by winding number over the oriented boundary."""
    tris = _cell_boundary_triangles(mesh.faces, mesh.cells[cell_id],
                                    mesh.vertex_coords)
    return _winding_number(np.asarray(point, dtype=float), tris) > 0.5


def orientation_sign(mesh: Mesh, cell_id: int, face_id: int) -> int:
    """omega_TF, re-derived by the eps-displacement point test.

    Raises if the point test disagrees with the stored (divergence-closure
    validated) sign.
    """
    cell = mesh.cells[cell_id]
    if face_id not in cell.faces:
        raise MeshError(f"face {face_id} not on boundary of cell {cell_id}")
    stored = cell.face_signs[cell.faces.index(face_id)]
    f = mesh.faces[face_id]
    eps = 1e-6 * cell.diameter
    inside = point_in_cell(mesh, cell_id, f.anchor - eps * stored * f.normal)
    outside = point_in_cell(mesh, cell_id, f.anchor + eps * stored * f.normal)
    if not inside or outside:
        raise MeshError(
            f"orientation ambiguity: point test disagrees with closure-validated "
            f"omega for cell {cell_id}, face {face_id}")
    return stored


# ---------------------------------------------------------------------------
# construction


def build_mesh(vertex_coords, face_loops, cell_faces, validate: bool = True) -> Mesh:
    """Assemble and validate a mesh from raw vertex/face/cell tables.

    Parameters
    ----------
    vertex_coords : (nV, 3) array
    face_loops : list of vertex-id lists, counter-clockwise seen from the
        side the face normal points to
    cell_faces : list of face-id lists
    """
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not np.all(np.isfinite(vcoords)):
        raise MeshError("non-finite vertex coordinates")
    vertices = [Vertex(i, vcoords[i]) for i in range(len(vcoords))]

    # edges from face loops, identified by sorted vertex pair
    edge_index: dict[tuple[int, int], int] = {}
    edges: list[Edge] = []
    for loop in face_loops:
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            key = (min(a, b), max(a, b))
            if key not in edge_index:
                eid = len(edges)
                edge_index[key] = eid
                vec = vcoords[key[1]] - vcoords[key[0]]
                length = float(np.linalg.norm(vec))
                if length == 0.0:
                    raise MeshError(f"zero-length edge between vertices {key}")
                edges.append(Edge(eid, key, vec / length, length,
                                  0.5 * (vcoords[key[0]] + vcoords[key[1]])))

    faces: list[Face] = []
    for fid, loop in enumerate(face_loops):
        pts = vcoords[list(loop)]
        normal = _newell_normal(pts)
        area, centroid = _polygon_area_centroid(pts, normal)
        diam = max(float(np.linalg.norm(p - q)) for i, p in enumerate(pts)
                   for q in pts[i + 1:])
        if validate:
            offs = (pts - centroid) @ normal
            if np.max(np.abs(offs)) > PLANARITY_RTOL * diam + 1e-14:
                raise MeshError(f"face {fid}: vertex loop not coplanar "
                                f"(max offset {np.max(np.abs(offs)):.3e})")
        e1 = pts[1] - pts[0]
        e1 = e1 - np.dot(e1, normal) * normal
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        frame = np.vstack([e1, e2])

        face_edges, signs, enormals = [], [], []
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            eid = edge_index[(min(a, b), max(a, b))]
            t = edges[eid].tangent
            n_fe = np.cross(normal, t)
            # loop traversal sign: +1 when the loop runs along t_E
            tau = 1 if a == edges[eid].vertices[0] else -1
            face_edges.append(eid)
            signs.append(-tau)         # omega_FE * n_FE points out of F
            enormals.append(n_fe)
        faces.append(Face(fid, list(loop), face_edges, signs, enormals,
                          normal, centroid, diam, area, frame))

    cells = _build_cells(faces, edges, vcoords, cell_faces)

    for cid, c in enumerate(cells):
        for fid in c.faces:
            faces[fid].cells.append(cid)
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


def _build_cells(faces, edges, vcoords, cell_faces) -> list[Cell]:
    cells = []
    for cid, fids in enumerate(cell_faces):
        # propagate a consistent surface orientation over the face adjacency
        # graph: two faces sharing an edge must traverse it oppositely
        loop_sign = {}
        for fid in fids:
            loop_sign[fid] = {e: -s for e, s in zip(faces[fid].edges,
                                                    faces[fid].edge_signs)}
        edge_use: dict[int, list[int]] = {}
        for fid in fids:
            for e in faces[fid].edges:
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

        vol3 = sum(sigma[fid] * np.dot(faces[fid].anchor, faces[fid].normal)
                   * faces[fid].area for fid in fids)
        if vol3 < 0:
            sigma = {fid: -s for fid, s in sigma.items()}
            vol3 = -vol3
        volume = vol3 / 3.0
        if volume <= 0.0:
            raise MeshError(f"cell {cid}: non-positive volume")

        # centroid by the divergence theorem: c_j = (1/2V) sum_F s_F int_F x_j^2 n_j
        centroid = np.zeros(3)
        for fid in fids:
            f = faces[fid]
            pts = vcoords[f.vertex_loop]
            for i in range(1, len(pts) - 1):
                tri = np.array([pts[0], pts[i], pts[i + 1]])
                a2 = np.cross(tri[1] - tri[0], tri[2] - tri[0])
                mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
                # int_tri x_j^2 n_j by the degree-2 midpoint rule
                centroid += sigma[fid] * 0.5 * (a2 / 2.0) * np.mean(mids**2, axis=0)
        centroid /= volume

        verts = sorted({v for fid in fids for v in faces[fid].vertex_loop})
        cell_edges = sorted({e for fid in fids for e in faces[fid].edges})
        pts = vcoords[verts]
        diam = max(float(np.linalg.norm(p - q)) for i, p in enumerate(pts)
                   for q in pts[i + 1:])
        cells.append(Cell(cid, list(fids), [sigma[fid] for fid in fids],
                          centroid, diam, volume, cell_edges, verts))
    return cells


def _validate(mesh: Mesh) -> None:
    for e in mesh.edges:
        if abs(np.linalg.norm(e.tangent) - 1.0) > UNIT_TOL:
            raise MeshError(f"edge {e.id}: tangent not unit")
    for f in mesh.faces:
        loop_pts = mesh.vertex_coords[f.vertex_loop]
        if not _point_in_polygon(f.anchor, loop_pts, f.frame, f.anchor):
            raise MeshError(f"face {f.id}: anchor not strictly inside")
        # 2D divergence closure: sum_E omega_FE int_E (x - x_F).n_FE = 2|F|
        acc = 0.0
        for eid, sgn, nfe in zip(f.edges, f.edge_signs, f.edge_normals):
            e = mesh.edges[eid]
            acc += sgn * np.dot(e.midpoint - f.anchor, nfe) * e.length
        if abs(acc - 2.0 * f.area) > CLOSURE_RTOL * 2.0 * f.area:
            raise MeshError(f"face {f.id}: 2D divergence closure failed "
                            f"({acc:.15g} vs {2 * f.area:.15g})")
        for eid in f.edges:
            if mesh.edges[eid].length > f.diameter * (1 + 1e-12):
                raise MeshError(f"face {f.id}: edge {eid} longer than face diameter")
    for c in mesh.cells:
        acc = 0.0
        for fid, sgn in zip(c.faces, c.face_signs):
            f = mesh.faces[fid]
            acc += sgn * np.dot(f.anchor, f.normal) * f.area
        if abs(acc - 3.0 * c.volume) > CLOSURE_RTOL * 3.0 * c.volume:
            raise MeshError(f"cell {c.id}: divergence closure failed "
                            f"({acc:.15g} vs {3 * c.volume:.15g})")
        # oriented boundary is a 2-cycle: each edge traversed once per direction
        per_edge: dict[int, int] = {}
        for fid, sgn in zip(c.faces, c.face_signs):
            f = mesh.faces[fid]
            for eid, esgn in zip(f.edges, f.edge_signs):
                per_edge[eid] = per_edge.get(eid, 0) + sgn * (-esgn)
        if any(v != 0 for v in per_edge.values()):
            raise MeshError(f"cell {c.id}: boundary orientation is not a "
                            "2-cycle (inconsistent omega_TF)")
        if not point_in_cell(mesh, c.id, c.anchor):
            raise MeshError(f"cell {c.id}: anchor not strictly inside")
        eps = 1e-6 * c.diameter
        for fid, sgn in zip(c.faces, c.face_signs):
            f = mesh.faces[fid]
            if not point_in_cell(mesh, c.id, f.anchor - eps * sgn * f.normal):
                raise MeshError(f"cell {c.id}, face {fid}: omega_TF point test failed")
        for fid in c.faces:
            if mesh.faces[fid].diameter > c.diameter * (1 + 1e-12):
                raise MeshError(f"cell {c.id}: face {fid} diameter exceeds h_T")
    for f in mesh.faces:
        if len(f.cells) == 2:
            c0, c1 = (mesh.cells[c] for c in f.cells)
            s0 = c0.face_signs[c0.faces.index(f.id)]
            s1 = c1.face_signs[c1.faces.index(f.id)]
            if s0 + s1 != 0:
                raise MeshError(f"interior face {f.id}: incident cells do not "
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
