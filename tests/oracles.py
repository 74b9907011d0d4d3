"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's quadrature and basis
machinery: monomial integrals over simplices are closed-form (barycentric
multinomial expansion plus the Dirichlet formula), entities are decomposed
by fans anchored at a vertex rather than at the library's anchor points,
and projections are recomputed by raw monomial normal equations.  The
Newton kernels are the cell-by-cell loops that the solver's batched kernels
are checked against, and the condensed pattern is the DoF-pair build that
the solver's entity-block build is checked against.  The set-up
references at the end are the ``np.einsum`` contractions, the generating
families built member by member, and the per-entity interpolators that the
set-up kernels of ddrns are checked against, with the per-entity
sampling, Gram and projection helpers they use.  The geometry references
build mesh entities one at a time and quadrature rules one simplex at a
time, as the batched passes of ddrns did before them.  The
per-entity contexts at the end assemble the local operators of one face or
cell at a time, as DdrComplex did before it built them by stacked groups;
per_entity_complex presents them as groups of one.  The Appendix norms at
the very end are computed entity by entity on such a complex, face by face
and edge by edge, as DdrComplex did before it summed group pieces.

The per-entity API that ddrns itself no longer needs, since every kernel
reads groups, lives here for the tests: records of one edge, face or
cell read off the mesh arrays (:func:`records`), entity charts and bases
bound to them, views of one entity read through its group's stacks
(:func:`views`), the one-entity rule and its integral, the orientation
point test, and the per-cell blocks of a solver.
"""

import copy
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from types import SimpleNamespace

import numpy as np

from ddrns import mesh as msh
from ddrns import polyspaces as ps
from ddrns import quadrature as quad
from ddrns import verify
from ddrns.operators import EntityView, _Chart, _triple_moments
from ddrns.quadrature import cell_rule, face_rule
from ddrns.spaces import DofVector, SpaceKind


def simplex_moments(verts: np.ndarray, degree: int) -> np.ndarray:
    """Exact integrals of every monomial x^p, |p| <= degree, over the
    simplex with the given vertices ((d+1, 3) array), as an array m with
    m[p] = int_S x^p ((degree + 1,) * 3, zero where |p| > degree).

    With int_S prod lambda_i^{b_i} = d! |S| prod b_i! / (sum b_i + d)!, the
    barycentric expansion of x^p sums to
    int_S x^p = d! |S| p! / (|p| + d)! [s^p] prod_i 1 / (1 - v_i . s),
    and the power series of the product is formed one vertex at a time."""
    verts = np.asarray(verts, dtype=float)
    d = len(verts) - 1
    if d == 1:
        meas = np.linalg.norm(verts[1] - verts[0])
    elif d == 2:
        meas = 0.5 * np.linalg.norm(np.cross(verts[1] - verts[0],
                                             verts[2] - verts[0]))
    else:
        meas = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    n = degree + 1
    series = np.zeros((n, n, n))
    series[0, 0, 0] = 1.0
    for v in verts:
        # series / (1 - v . s) = sum_t (v . s)^t series, up to the degree
        term, acc = series, series.copy()
        for _ in range(degree):
            nxt = np.zeros_like(term)
            nxt[1:] += v[0] * term[:-1]
            nxt[:, 1:] += v[1] * term[:, :-1]
            nxt[:, :, 1:] += v[2] * term[:, :, :-1]
            term = nxt
            acc += term
        series = acc
    p = np.indices(series.shape)
    total = p.sum(axis=0)
    fact = np.array([math.factorial(t) for t in range(3 * n + d)], float)
    scale = (math.factorial(d) * meas * np.prod(fact[p], axis=0)
             / fact[total + d])
    return np.where(total <= degree, scale * series, 0.0)


def _edge_simplices(mesh, eid):
    yield 1.0, mesh.vertex_coords[list(edge_record(mesh, eid).vertices)]


def _face_simplices(mesh, fid):
    """Fan from the first loop vertex (not the library's anchor)."""
    pts = mesh.vertex_coords[face_record(mesh, fid).vertex_loop]
    for i in range(1, len(pts) - 1):
        yield 1.0, np.array([pts[0], pts[i], pts[i + 1]])


def _cell_simplices(mesh, cid):
    """Signed cones from the first cell vertex over oriented face fans."""
    c = cell_record(mesh, cid)
    apex = mesh.vertex_coords[c.vertex_ids[0]]
    for fid, sgn in zip(c.faces, c.face_signs):
        pts = mesh.vertex_coords[face_record(mesh, fid).vertex_loop]
        loop = pts if sgn > 0 else pts[::-1]
        for i in range(1, len(loop) - 1):
            tri = np.array([loop[0], loop[i], loop[i + 1]])
            yield np.sign(np.linalg.det(tri - apex)), np.vstack([apex, tri])


def monomial_moments(mesh, kind, idx, degree) -> np.ndarray:
    """int_Y x^p for every |p| <= degree on one edge, face or cell Y, as
    :func:`simplex_moments` lays them out, summed over the simplices of Y."""
    simplices = {"edge": _edge_simplices, "face": _face_simplices,
                 "cell": _cell_simplices}[kind](mesh, idx)
    return sum(sign * simplex_moments(verts, degree)
               for sign, verts in simplices)


def integrate_monomial(mesh, kind, idx, powers) -> float:
    return float(monomial_moments(mesh, kind, idx, int(sum(powers)))[
        tuple(powers)])


def all_powers(total_degree: int):
    for a, b, c in product(range(total_degree + 1), repeat=3):
        if a + b + c <= total_degree:
            yield (a, b, c)


def projection_normal_equations(points, weights, values, design):
    """L2 projection coefficients by raw normal equations; design is the
    (npts, nfun) matrix of the (non-orthonormal) family at the points."""
    G = design.T @ (weights[:, None] * design)
    rhs = design.T @ (weights * values)
    return np.linalg.solve(G, rhs)


# ---------------------------------------------------------------------------
# per-entity API: charts, bound bases, views, one-entity rules and the
# orientation point test


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


def edge_record(mesh, e: int) -> Edge:
    """Edge e of a mesh as one record, its arrays views of the mesh's."""
    return Edge(e, tuple(mesh.edge_vertices[e].tolist()), mesh.edge_tangent[e],
                float(mesh.edge_length[e]), mesh.edge_midpoint[e])


def face_record(mesh, f: int) -> Face:
    cells = mesh.face_cells[f]
    return Face(f, mesh.face_loops[f].tolist(), mesh.face_edges[f].tolist(),
                mesh.face_edge_signs[f].tolist(),
                list(mesh.face_edge_normals[f]), mesh.face_normal[f],
                mesh.face_anchor[f], float(mesh.face_diameter[f]),
                mesh.face_area[f], mesh.face_frame[f],
                cells[cells >= 0].tolist(), bool(cells[1] < 0))


def cell_record(mesh, c: int) -> Cell:
    return Cell(c, mesh.cell_faces[c].tolist(), mesh.cell_face_signs[c].tolist(),
                mesh.cell_anchor[c], float(mesh.cell_diameter[c]),
                mesh.cell_volume[c], mesh.cell_edges[c].tolist(),
                mesh.cell_vertices[c].tolist())


def records(mesh) -> SimpleNamespace:
    """Every edge, face and cell of a mesh as records, by id, as
    ``edges``, ``faces`` and ``cells``."""
    return SimpleNamespace(
        edges=[edge_record(mesh, e) for e in range(mesh.n_edges)],
        faces=[face_record(mesh, f) for f in range(mesh.n_faces)],
        cells=[cell_record(mesh, c) for c in range(mesh.n_cells)])


def regularity_ratio(mesh) -> float:
    """Mesh.regularity_ratio cell by cell and face by face."""
    worst = np.inf
    for c in records(mesh).cells:
        r = min(abs(np.dot(c.anchor - mesh.face_anchor[f], mesh.face_normal[f]))
                for f in c.faces)
        worst = min(worst, 2.0 * r / c.diameter)
    return float(worst)


@dataclass(frozen=True)
class EntityGeometry:
    """Local scaled coordinate chart of a mesh entity."""
    origin: np.ndarray   # x_Y
    scale: float         # h_Y
    axes: np.ndarray     # (d, 3) orthonormal rows
    measure: float

    @property
    def dim(self) -> int:
        return self.axes.shape[0]

    def local_coords(self, points: np.ndarray) -> np.ndarray:
        return (points - self.origin) @ self.axes.T / self.scale


def edge_geometry(mesh, e) -> EntityGeometry:
    if isinstance(e, int):
        e = edge_record(mesh, e)
    return EntityGeometry(e.midpoint, e.length, e.tangent[None, :], e.length)


def face_geometry(mesh, f) -> EntityGeometry:
    if isinstance(f, int):
        f = face_record(mesh, f)
    return EntityGeometry(f.anchor, f.diameter, f.frame, f.area)


def cell_geometry(mesh, c) -> EntityGeometry:
    if isinstance(c, int):
        c = cell_record(mesh, c)
    return EntityGeometry(c.anchor, c.diameter, np.eye(3), c.volume)


def sample_monomials(geom, degree: int, points: np.ndarray) -> np.ndarray:
    """Scaled monomials of degree <= degree of the chart at points."""
    return ps.mono_eval(ps.monomial_exponents(geom.dim, degree),
                        geom.local_coords(points))


class ChartBasis:
    """A basis of one entity bound to its chart ``geom``: it reads as the
    basis, and ``eval`` samples it at points."""

    __slots__ = ("basis", "geom")

    def __init__(self, basis, geom: EntityGeometry):
        self.basis, self.geom = basis, geom

    def __getattr__(self, name):
        if name in ChartBasis.__slots__:
            raise AttributeError(name)
        return getattr(self.basis, name)

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.basis.values(sample_monomials(self.geom,
                                                  self.basis.degree, points))


def subspace(geom, selector: str, degree: int, gram) -> ChartBasis:
    """The G/Gc/R/Rc^degree basis of one entity, bound to its chart."""
    return ChartBasis(ps.build_subspace(geom.dim, selector, degree, gram),
                      geom)


# the names a view reads: the STACKED ones at its row, the MEMBERS ones at
# its own index and the SHARED ones as its group holds them
STACKED = {
    "edge": ("gram", "sca", "skeleton", "deriv"),
    "face": ("gram", "sca", "vb", "sub", "serendipity_grad", "grad_mat",
             "trace_mat", "curl_mat", "serendipity_curl", "ttrace_mat",
             "uG_face"),
    "cell": ("gram", "sca", "vb", "sub", "serendipity_grad", "grad_mat",
             "pot_grad", "curl_op", "serendipity_curl", "pot_curl",
             "div_op", "pot_div", "uG", "uC", "convective_curl",
             "tri_tensor", "product_grad", "product_curl", "product_div")}
MEMBERS = {"edge": (), "face": (), "cell": ("phi_k",)}
SHARED = {
    "edge": ("k",),
    "face": ("k", "n_grad", "n_curl", "own", "interior"),
    "cell": ("k", "n_grad", "n_curl", "n_div", "own", "interior")}


class View(EntityView):
    """One member of a group of DdrComplex, read-only: its id, mesh entity
    (``edge``, ``face`` or ``cell``), chart ``geom``, rule and diameter
    ``h``; the group's row of each STACKED operator, its own entry of each
    MEMBERS stack, the SHARED values of the group; and its bases, the row's
    coefficients bound to its own chart.  Each read hands out a fresh
    slice, rule or basis."""

    __slots__ = ("entity", "geom")

    def __init__(self, group, index: int, entity, geom: EntityGeometry):
        super().__init__(group, index)
        self.entity, self.geom = entity, geom

    @property
    def h(self) -> float:
        return self.geom.scale

    def __getattr__(self, name):
        if name in ("group", "index", *View.__slots__):
            raise AttributeError(name)
        g = self.group
        if name == g.kind:
            return self.entity
        if name in STACKED[g.kind]:
            val = getattr(g, name)
            if isinstance(val, dict):
                return {key: self._bound(b) for key, b in val.items()}
            return self._bound(val) if hasattr(val, "coeff") else val[self.row]
        if name in MEMBERS[g.kind]:
            return getattr(g, name)[self.index]
        if name in SHARED[g.kind]:
            return getattr(g, name)
        raise AttributeError(f"{g.kind} view has no attribute {name!r}")

    def _bound(self, basis):
        return ChartBasis(replace(basis, coeff=basis.coeff[self.row]),
                          self.geom)


def views(cx):
    """The :class:`View` of every edge, face and cell of the complex cx, by
    id, as ``edges``, ``faces`` and ``cells``."""
    def of(groups, entities):
        out = [None] * len(entities)
        for g in groups:
            c = g.chart
            for i, e in enumerate(g.ids.tolist()):
                out[e] = View(g, i, entities[e], EntityGeometry(
                    c.origin[i], float(c.scale[i]), c.axes[i],
                    float(c.measure[i])))
        return out
    rec = records(cx.mesh)
    return SimpleNamespace(edges=of(cx.edge_groups, rec.edges),
                           faces=of(cx.face_groups, rec.faces),
                           cells=of(cx.cell_groups, rec.cells))


def member_norm(norms, view, s, v) -> float:
    """The Appendix norm of the local CURL DoFs v on one face or cell, by
    the group call norms (``cx.component_norms`` or
    ``cx.potential_norms``) on its one member."""
    return float(norms(s, view.group, [view.index], v[None])[0])


def _cells_norm(cx, norms, s: float, v: DofVector) -> float:
    """(The sum over the cell groups of every entry of norms(s, group,
    members, x) ** s, at the local DoFs x of a CURL vector v)^{1/s}."""
    cl = cx.layouts[SpaceKind.CURL]
    return float(sum(np.sum(norms(s, g, np.arange(len(g.ids)),
                                  v.values[cl.cell_table(g.ids)]) ** s)
                     for g in cx.cell_groups) ** (1.0 / s))


def ls_curl_norm(cx, s: float, v: DofVector) -> float:
    """L^s-like norm on the curl space: cellwise potential plus h-weighted
    trace mismatches, all to the power s, summed and rooted."""
    return _cells_norm(cx, partial(cx._member_norms, cx._potential_pieces),
                       s, v)


def component_norm(cx, s: float, v: DofVector) -> float:
    """Global component L^s norm on the curl space."""
    return _cells_norm(cx, cx.component_norms, s, v)


def potential_norm(cx, s: float, v: DofVector) -> float:
    """Global potential-based L^s norm on the curl space."""
    return _cells_norm(cx, cx.potential_norms, s, v)


def check_exactness(cx) -> SimpleNamespace:
    """Numerical rank bookkeeping: on trivial topology the kernel of the
    discrete curl is the image of the discrete gradient, so rank_gradient
    equals nullity_curl (exact).  The dense SVDs are refused above
    verify.DENSE_CAP."""
    n = verify._capped_dim(cx, SpaceKind.CURL)
    rank_g, rank_c = (
        int(np.linalg.matrix_rank(mat.toarray(), rtol=1e-10))
        for mat in (cx.gradient_matrix(), cx.curl_matrix()))
    return SimpleNamespace(rank_gradient=rank_g, nullity_curl=n - rank_c,
                           dim_curl_space=n, exact=rank_g == n - rank_c)


def rule_for(mesh, kind: str, index: int, degree: int):
    """Quadrature rule on one mesh entity, exact to the given total degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind == "edge":
        return quad.edge_rule(mesh, index, degree)
    if kind == "face":
        return quad.face_rule(mesh, index, degree)
    if kind == "cell":
        return quad.cell_rule(mesh, index, degree)
    raise ValueError(f"unknown entity kind {kind!r}")


def integrate(rule, values: np.ndarray) -> np.ndarray:
    """Contract sampled values (n, ...) against the weights of one rule."""
    return np.tensordot(rule.weights, values, axes=(0, 0))


def orientation_sign(mesh, cell_id: int, face_id: int) -> int:
    """The stored omega_TF, after an eps-displacement point test.

    The face anchor is moved by 1e-6 h_T against and along omega_TF n_F;
    the winding number of the cell boundary, oriented by the stored signs,
    must put the first point inside and the second outside.  Raises when it
    does not, as on a cell thinner than the displacement.  A wrong stored
    sign flips the face's own triangles too, so the test agrees with it:
    the closure and 2-cycle checks of the mesh validation catch that
    instead.
    """
    cell = cell_record(mesh, cell_id)
    if face_id not in cell.faces:
        raise msh.MeshError(f"face {face_id} not on boundary of cell "
                            f"{cell_id}")
    stored = cell.face_signs[cell.faces.index(face_id)]
    f = face_record(mesh, face_id)
    eps = 1e-6 * cell.diameter
    pts = f.anchor + np.outer([-eps * stored, eps * stored], f.normal)
    tris, face, _ = msh.face_triangles(mesh, cell.faces)
    flip = np.asarray(cell.face_signs)[face] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    inside, outside = msh._winding_number(pts, tris) > 0.5
    if not inside or outside:
        raise msh.MeshError(
            f"orientation ambiguity: point test disagrees with closure-validated "
            f"omega for cell {cell_id}, face {face_id}")
    return stored


# -- per-cell reference of the Newton kernels ----------------------------------
# `s` is a NavierStokesSolver; solver_cells(s) holds the blocks of each cell.

def solver_cells(s) -> list:
    """The blocks of each cell of the solver s, by cell id: dicts of views
    into the stacks of its cell groups, read at the cell's row, and into
    its per-cell tables."""
    cells = [None] * s.cx.mesh.n_cells
    for grp in s.groups:
        for i, (c, r) in enumerate(zip(grp.cells, grp.row)):
            cells[c] = {name: a[i] for name, a in grp.tables.items()}
            cells[c].update((name, a[r]) for name, a in grp.stacks.items())
    return cells


def kernel_jacobian(s, cell, ul, with_convection):
    """The solver's batched Jacobian kernel on one cell's blocks (a batch
    of one)."""
    blk = {name: a[None] for name, a in cell.items()}
    return s._jacobian(blk, ul[None], with_convection)[0]


def convective_row(s, cell, ul):
    """Cell momentum rows of t(u; u, v) for local CURL coefficients ul."""
    a = (cell["CH"] @ ul).reshape(-1, 3)
    b = (cell["P"] @ ul).reshape(-1, 3)
    cr = np.cross(a[:, None, :], b[None, :, :])
    g = np.einsum("ijl,ijc->lc", cell["S"], cr)
    return cell["P"].T @ g.reshape(-1)


def trilinear(s, ua, ub, v):
    """t(a; b, v) over global CURL coefficient arrays."""
    acc = 0.0
    for cell in solver_cells(s):
        idx = cell["idxu"]
        a = (cell["CH"] @ ua[idx]).reshape(-1, 3)
        b = (cell["P"] @ ub[idx]).reshape(-1, 3)
        w = (cell["P"] @ v[idx]).reshape(-1, 3)
        cr = np.cross(a[:, None, :], b[None, :, :])
        acc += np.einsum("ijl,ijc,lc->", cell["S"], cr, w)
    return float(acc)


def residual(s, x, with_convection=True):
    u, p, mu = s.split(x)
    R = np.zeros(s.n_x)
    Rm = np.zeros(s.n_u)
    Rq = np.zeros(s.n_p)
    for cell in solver_cells(s):
        iu, ip = cell["idxu"], cell["idxp"]
        ul, plc = u[iu], p[ip]
        row = cell["visc"] @ ul + cell["B"] @ plc
        if with_convection:
            row = row + convective_row(s, cell, ul)
        np.add.at(Rm, iu, row)
        np.add.at(Rq, ip, -(cell["B"].T @ ul))
    Rm -= s.rhs_mom
    Rq += s.flux_vec
    if s.use_multiplier:
        Rq += mu * s.c_vec
        R[-1] = s.c_vec @ p
    R[:s.n_u] = Rm
    R[s.n_u:s.n_u + s.n_p] = Rq
    return R


def cell_jacobian(s, cell, ul, with_convection):
    """Linearisation of the cell momentum rows: the exact derivative
    t(delta;u,v) + t(u;delta,v) of the convective form."""
    J = cell["visc"]
    if with_convection:
        a = (cell["CH"] @ ul).reshape(-1, 3)
        b = (cell["P"] @ ul).reshape(-1, 3)
        nb = a.shape[0]
        Na = np.cross(a[:, None, :], np.eye(3)[None, :, :])   # (i, b, c)
        T2 = np.einsum("ijl,ibc->jblc", cell["S"], Na).reshape(3 * nb, 3 * nb)
        # rows are the test side
        J = J + cell["P"].T @ (T2.T @ cell["P"])
        Mb = np.cross(np.eye(3)[None, :, :], b[:, None, :])  # (j, a, c)
        T1 = np.einsum("ijl,jac->ialc", cell["S"], Mb).reshape(3 * nb, 3 * nb)
        J = J + cell["P"].T @ (T1.T @ cell["CH"])
    return J


def newton_step(s, x, R, with_convection=True, shift=0.0, eta=0.0,
                condense=True):
    """Solve (J + shift M_curl) delta = -R cell by cell: each cell's interior
    block is eliminated by its Schur complement, the condensed system is
    factored afresh, and the interior values are back-substituted; with
    condense=False the full system of the free unknowns is factored
    instead.  Every step is solved exactly, whatever its forcing term
    eta."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    u, p, mu = s.split(x)
    free = s.free
    nmu = 1 if s.use_multiplier else 0
    interior = np.zeros(s.n_x, dtype=bool)
    int_loc = []
    cells = solver_cells(s)
    for cell, view in zip(cells, s.cx.cells):
        int_u = view.group.interior[SpaceKind.CURL]
        int_p = view.group.interior[SpaceKind.GRAD]
        int_loc.append(np.concatenate([int_u, len(cell["idxu"]) + int_p]))
        if condense:
            interior[cell["idxu"][int_u]] = True
            interior[s.n_u + cell["idxp"][int_p]] = True
    retained = ~interior
    ret_index = -np.ones(s.n_x, dtype=int)
    ret_index[retained] = np.arange(retained.sum())
    nret = int(retained.sum())

    data, rows, cols = [], [], []
    rhs = np.where(free, -R, 0.0)
    rhs_ret = rhs[retained].copy()
    back = []
    for cell, loc_int in zip(cells, int_loc):
        iu, ip = cell["idxu"], cell["idxp"]
        nu_loc, np_loc = len(iu), len(ip)
        nloc = nu_loc + np_loc + nmu
        K = np.zeros((nloc, nloc))
        Juu = cell_jacobian(s, cell, u[iu], with_convection)
        if shift:
            Juu = Juu + shift * cell["Mc"]
        K[:nu_loc, :nu_loc] = Juu
        K[:nu_loc, nu_loc:nu_loc + np_loc] = cell["B"]
        K[nu_loc:nu_loc + np_loc, :nu_loc] = -cell["B"].T
        gx = np.concatenate([iu, s.n_u + ip,
                             [s.n_x - 1] if nmu else []]).astype(int)
        if nmu:
            K[nu_loc:nu_loc + np_loc, -1] = cell["c_loc"]
            K[-1, nu_loc:nu_loc + np_loc] = cell["c_loc"]
        loc_ret = np.setdiff1d(np.arange(nloc), loc_int)
        if condense and len(loc_int):
            KII = K[np.ix_(loc_int, loc_int)]
            KIG = K[np.ix_(loc_int, loc_ret)]
            KGI = K[np.ix_(loc_ret, loc_int)]
            KGG = K[np.ix_(loc_ret, loc_ret)]
            rI = rhs[gx[loc_int]]
            g_ret = gx[loc_ret]
            np.subtract.at(rhs_ret, ret_index[g_ret],
                           KGI @ np.linalg.solve(KII, rI))
            back.append((gx[loc_int], g_ret, KII, KIG, rI))
            blk, bidx = KGG - KGI @ np.linalg.solve(KII, KIG), ret_index[g_ret]
        else:
            blk, bidx = K, ret_index[gx]
        rr, cc = np.meshgrid(bidx, bidx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        data.append(blk.ravel())

    A = sp.csr_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nret, nret))
    sub = np.where(free[retained])[0]
    d_ret = np.zeros(nret)
    d_ret[sub] = spla.splu(A[sub][:, sub].tocsc()).solve(rhs_ret[sub])
    delta = np.zeros(s.n_x)
    delta[retained] = d_ret
    for g_int, g_ret, KII, KIG, rI in back:
        delta[g_int] = np.linalg.solve(KII, rI - KIG @ delta[g_ret])
    return delta


def condensed_pattern(s) -> SimpleNamespace:
    """The condensed unknowns and CSC pattern of the solver s, built as
    NavierStokesSolver built them before it worked on entity blocks: one
    int64 key per Schur-complement entry of every cell, stable-argsorted.
    Fields: cond_dofs, dim_condensed, nnz, indices, indptr, and slots, the
    slot table of each cell group (nnz for a fixed row or column)."""
    interior = np.zeros(s.n_x, dtype=bool)
    for grp in s.groups:
        interior[grp.tables["gx"][:, grp.loc_int]] = True
    cond_dofs = np.flatnonzero(s.free & ~interior)
    nc = len(cond_dofs)
    pos = np.full(s.n_x, -1, dtype=np.int64)
    pos[cond_dofs] = np.arange(nc)
    dropped = nc * nc
    keys = []
    for grp in s.groups:
        r = pos[grp.tables["gx"][:, grp.loc_ret]]
        key = r[:, None, :] * nc + r[:, :, None]    # column-major order
        key[(r[:, None, :] < 0) | (r[:, :, None] < 0)] = dropped
        keys.append(key.ravel())
    sizes = [len(k) for k in keys]
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slot = np.empty(len(keys), dtype=np.int32)
    slot[order] = np.cumsum(first, dtype=np.int32) - 1
    keys = keys[first]
    keys = keys[keys != dropped]
    return SimpleNamespace(
        cond_dofs=cond_dofs, dim_condensed=nc, nnz=len(keys),
        indices=(keys % nc).astype(np.int32),
        indptr=np.concatenate(
            [[0], np.cumsum(np.bincount(keys // nc, minlength=nc))]),
        slots=[part.reshape(len(grp.cells), -1) for grp, part in
               zip(s.groups, np.split(slot, np.cumsum(sizes)[:-1]))])


# ---------------------------------------------------------------------------
# set-up references

def einsum_vector_inner(gram, A, B):
    """<a_i, b_j> of vector polynomials by one optimised einsum."""
    return np.einsum("imc,mn,jnc->ij", A, gram[:A.shape[1], :B.shape[1]], B,
                     optimize=True)


def einsum_triple_moments(weights, phi):
    return np.einsum("p,pi,pj,pl->ijl", weights, phi, phi, phi, optimize=True)


def unit_family(d: int, selector: str, degree: int) -> np.ndarray:
    """The generating family of G/Gc/R/Rc^degree on a chart of scale h = 1,
    member by member from the defining formulas: gradients (faces: also
    rotors) or curls of the non-constant monomials of degree + 1, or x
    times, crossed with or turned by, the monomials of degree - 1."""
    l = degree
    if d == 2:
        ncomp = 2
    elif d == 3:
        ncomp = 3
    else:
        raise ValueError("subspaces live on faces and cells only")

    members = []
    if selector == "G" or (selector == "R" and d == 2):
        exps_src = ps.monomial_exponents(d, l + 1)
        nm_out = len(ps.monomial_exponents(d, max(l, 0)))
        D = [ps.deriv_matrix(d, l + 1, a) for a in range(d)]
        for i in range(len(exps_src)):
            if exps_src[i].sum() == 0:
                continue
            e = np.zeros(len(exps_src))
            e[i] = 1.0
            grads = [Da @ e for Da in D]
            if selector == "G":
                members.append(np.stack(grads, axis=-1)[:nm_out])
            else:  # rot = grad rotated by -pi/2: (d2, -d1)
                members.append(np.stack([grads[1], -grads[0]], axis=-1)[:nm_out])
    elif selector == "R" and d == 3:
        exps_src = ps.monomial_exponents(3, l + 1)
        nm_out = len(ps.monomial_exponents(3, max(l, 0)))
        D = [ps.deriv_matrix(3, l + 1, a) for a in range(3)]
        for i in range(len(exps_src)):
            if exps_src[i].sum() == 0:
                continue
            e = np.zeros(len(exps_src))
            e[i] = 1.0
            dx, dy, dz = (Da @ e for Da in D)
            zero = np.zeros_like(dx)
            # curl(f e_x), curl(f e_y), curl(f e_z)
            members.append(np.stack([zero, dz, -dy], axis=-1)[:nm_out])
            members.append(np.stack([-dz, zero, dx], axis=-1)[:nm_out])
            members.append(np.stack([dy, -dx, zero], axis=-1)[:nm_out])
    elif selector in ("Gc", "Rc"):
        if l >= 1:
            exps_src = ps.monomial_exponents(d, l - 1)
            R = [ps.raise_matrix(d, l - 1, a) for a in range(d)]
            for i in range(len(exps_src)):
                e = np.zeros(len(exps_src))
                e[i] = 1.0
                xi_m = [Ra @ e for Ra in R]  # xi_a * m
                if d == 2:
                    if selector == "Rc":    # (x - x_F) m / h
                        members.append(np.stack([xi_m[0], xi_m[1]], axis=-1))
                    else:                   # (x - x_F)^perp m / h = (xi2, -xi1) m
                        members.append(np.stack([xi_m[1], -xi_m[0]], axis=-1))
                else:
                    zero = np.zeros_like(xi_m[0])
                    if selector == "Rc":
                        members.append(np.stack(xi_m, axis=-1))
                    else:  # (x - x_T) x (m e_a) / h for a = x, y, z
                        members.append(np.stack([zero, xi_m[2], -xi_m[1]], axis=-1))
                        members.append(np.stack([-xi_m[2], zero, xi_m[0]], axis=-1))
                        members.append(np.stack([xi_m[1], -xi_m[0], zero], axis=-1))
    if not members:
        nm = len(ps.monomial_exponents(d, max(l, 0)))
        members = np.zeros((0, nm, ncomp))
    return np.array(members)


def scalar_monomial_gram(geom, degree, rule):
    """Monomial Gram of one entity at degree, from its quadrature rule."""
    return ps.monomial_gram(sample_monomials(geom, degree, rule.points),
                            rule.weights)


def scalar_basis(geom, degree, rule):
    """L2-orthonormal basis of P^degree of one entity, from its rule, bound
    to its chart."""
    return ChartBasis(ps.build_scalar_basis(
        geom.dim, degree, scalar_monomial_gram(geom, degree, rule)), geom)


def eval3d(basis, points):
    """Values of a vector basis at points in ambient components."""
    vals = basis.eval(points)
    if basis.ncomp == 3:
        return vals
    return np.einsum("pbc,cx->pbx", vals, basis.geom.axes)


def project_scalar(sb, rule, values, phi=None):
    """L2-orthogonal projection coefficients of sampled values; phi is the
    basis at the rule points, when the caller has sampled it."""
    phi = sb.eval(rule.points) if phi is None else phi
    return phi.T @ (rule.weights * values)


def project_vector(vb, rule, values, phi=None):
    """values: (npts, ncomp) in the entity frame -> coefficients (nb,); phi
    as in project_scalar."""
    phi = vb.eval(rule.points) if phi is None else phi
    return np.einsum("pbc,pc->b", phi, rule.weights[:, None] * values)


class Sampler:
    """Values of one entity's bases at the rule points of itself or of its
    boundary pieces.

    The monomials of the chart are sampled once per rule, at a top degree;
    the exponent tables are graded, so every basis up to that degree reads
    its monomials off the leading columns.  A sampler lives as long as the
    assembly that uses it.
    """

    def __init__(self, geom, degree: int):
        self.geom = geom
        self.degree = degree
        self._mono = {}   # id(rule) -> (rule, samples); the rule pins the id

    def monomials(self, rule):
        hit = self._mono.get(id(rule))
        if hit is None:
            hit = self._mono[id(rule)] = (rule, sample_monomials(
                self.geom, self.degree, rule.points))
        return hit[1]

    def __call__(self, basis, rule):
        """basis (scalar or vector, of degree <= the top) at rule's points."""
        return basis.values(self.monomials(rule))


def interpolate_per_entity(cx, kind, fun):
    """I_grad, I_curl or I_div of fun with one call of fun and one basis
    evaluation per entity and subspace."""
    k, lay, v = cx.k, cx.layouts[kind], views(cx)
    out = DofVector.zeros(lay)
    dofs = lambda dim: lambda i: lay.dofs(dim, i)

    def scalar(ctx, sb, vals):
        return project_scalar(sb, ctx.rule, vals)

    def vector(ctx, keys, vals):
        return np.concatenate([project_vector(ctx.sub[key], ctx.rule, vals)
                               for key in keys])

    if kind is SpaceKind.GRAD:
        out.values[:cx.mesh.n_vertices] = fun(cx.mesh.vertex_coords)
        blocks = [(ctxs, block, dofs,
                   lambda ctx, v: scalar(ctx, ctx.sca[k - 1], v))
                  for ctxs, block, dofs in (
                      (v.edges, lay.edge_block, dofs(1)),
                      (v.faces, lay.face_block, dofs(2)),
                      (v.cells, lay.cell_block, dofs(3)))]
    elif kind is SpaceKind.CURL:
        blocks = [
            (v.edges, lay.edge_block, dofs(1), lambda ctx, x:
             scalar(ctx, ctx.sca[k], x @ ctx.edge.tangent)),
            *[(ctxs, block, at, lambda ctx, x: vector(
                ctx, (("R", k - 1), ("Rc", lay.ell + 1)), x @ ctx.geom.axes.T))
              for ctxs, block, at in (
                  (v.faces, lay.face_block, dofs(2)),
                  (v.cells, lay.cell_block, dofs(3)))]]
    else:
        blocks = [
            (v.faces, lay.face_block, dofs(2), lambda ctx, x:
             scalar(ctx, ctx.sca[k], x @ ctx.face.normal)),
            (v.cells, lay.cell_block, dofs(3), lambda ctx, x:
             vector(ctx, (("G", k - 1), ("Gc", k)), x))]
    for ctxs, block, at, moments in blocks:
        for i, ctx in enumerate(ctxs if block else []):
            out.values[at(i)] = moments(ctx, fun(ctx.rule.points))
    return out


# ---------------------------------------------------------------------------
# geometry references: the per-entity mesh geometry and per-simplex
# quadrature rules that the batched passes of ddrns.mesh and ddrns.quadrature
# are checked against

def reference_geometry(vertex_coords, face_loops, cell_faces):
    """Edges, faces and cells of the tables, built one entity and one
    3-vector at a time, without validation."""
    vcoords = np.asarray(vertex_coords, dtype=float)
    edge_index, edges = {}, []
    for loop in face_loops:
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            key = (min(a, b), max(a, b))
            if key not in edge_index:
                edge_index[key] = len(edges)
                vec = vcoords[key[1]] - vcoords[key[0]]
                length = float(np.linalg.norm(vec))
                edges.append(Edge(len(edges), key, vec / length, length,
                                      0.5 * (vcoords[key[0]] + vcoords[key[1]])))

    faces = []
    for fid, loop in enumerate(face_loops):
        pts = vcoords[list(loop)]
        normal = np.sum(np.cross(pts, np.roll(pts, -1, axis=0)), axis=0)
        normal = normal / np.linalg.norm(normal)
        p0, area, centroid = pts[0], 0.0, np.zeros(3)
        for i in range(1, len(pts) - 1):
            a = 0.5 * np.dot(np.cross(pts[i] - p0, pts[i + 1] - p0), normal)
            area += a
            centroid += a * (p0 + pts[i] + pts[i + 1]) / 3.0
        centroid = centroid / area
        diam = max(float(np.linalg.norm(p - q)) for i, p in enumerate(pts)
                   for q in pts[i + 1:])
        e1 = pts[1] - pts[0]
        e1 = e1 - np.dot(e1, normal) * normal
        e1 /= np.linalg.norm(e1)
        frame = np.vstack([e1, np.cross(normal, e1)])
        face_edges, signs, enormals = [], [], []
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            eid = edge_index[(min(a, b), max(a, b))]
            face_edges.append(eid)
            signs.append(-1 if a == edges[eid].vertices[0] else 1)
            enormals.append(np.cross(normal, edges[eid].tangent))
        faces.append(Face(fid, list(loop), face_edges, signs, enormals,
                              normal, centroid, diam, area, frame))

    cells = []
    for cid, fids in enumerate(cell_faces):
        # orientation by a walk over the face adjacency graph
        edge_use = {}
        for fid in fids:
            for e in faces[fid].edges:
                edge_use.setdefault(e, []).append(fid)
        loop_sign = {fid: dict(zip(faces[fid].edges, faces[fid].edge_signs))
                     for fid in fids}
        sigma, stack = {fids[0]: 1}, [fids[0]]
        while stack:
            fid = stack.pop()
            for e in faces[fid].edges:
                use = edge_use[e]
                other = use[0] if use[0] != fid else use[1]
                if other not in sigma:
                    sigma[other] = (-sigma[fid] * loop_sign[fid][e]
                                    * loop_sign[other][e])
                    stack.append(other)
        vol3 = sum(sigma[fid] * np.dot(faces[fid].anchor, faces[fid].normal)
                   * faces[fid].area for fid in fids)
        if vol3 < 0:
            sigma = {fid: -s for fid, s in sigma.items()}
            vol3 = -vol3
        volume = vol3 / 3.0
        centroid = np.zeros(3)
        for fid in fids:
            pts = vcoords[faces[fid].vertex_loop]
            for i in range(1, len(pts) - 1):
                tri = np.array([pts[0], pts[i], pts[i + 1]])
                a2 = np.cross(tri[1] - tri[0], tri[2] - tri[0])
                mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
                centroid += sigma[fid] * 0.5 * (a2 / 2.0) * np.mean(mids**2, axis=0)
        centroid /= volume
        verts = sorted({v for fid in fids for v in faces[fid].vertex_loop})
        cell_edges = sorted({e for fid in fids for e in faces[fid].edges})
        pts = vcoords[verts]
        diam = max(float(np.linalg.norm(p - q)) for i, p in enumerate(pts)
                   for q in pts[i + 1:])
        cells.append(Cell(cid, list(fids), [sigma[fid] for fid in fids],
                              centroid, diam, volume, cell_edges, verts))
    for c in cells:
        for fid in c.faces:
            faces[fid].cells.append(c.id)
    for f in faces:
        f.on_boundary = len(f.cells) == 1
    return edges, faces, cells


def reference_triangle_rule(verts, degree):
    a, b, c = verts
    area2 = np.linalg.norm(np.cross(b - a, c - a))
    xi, eta, w = quad._duffy_triangle(max(degree, 0))
    return a[None, :] + np.outer(xi, b - a) + np.outer(eta, c - a), w * area2


def reference_tet_rule(verts, degree, reference=quad._duffy_tet):
    """The Duffy rule of a tetrahedron, or another reference rule of the
    unit tetrahedron or cube placed by the same affine map."""
    a, b, c, d = verts
    vol6 = abs(np.dot(np.cross(b - a, c - a), d - a))
    x1, x2, x3, w = reference(max(degree, 0))
    pts = (a[None, :] + np.outer(x1, b - a) + np.outer(x2, c - a)
           + np.outer(x3, d - a))
    return pts, w * vol6


def reference_triangles(mesh, fid):
    """The triangles of a face: itself, or the fan from its anchor."""
    f = face_record(mesh, fid)
    loop = mesh.vertex_coords[f.vertex_loop]
    if len(loop) == 3:
        return [loop]
    return [np.array([f.anchor, loop[i], loop[(i + 1) % len(loop)]])
            for i in range(len(loop))]


def reference_parallelepiped(mesh, cid):
    """The corners v_0, v_0 + a_1, v_0 + a_2, v_0 + a_3 (4, 3) of cell cid
    if it is a parallelepiped x_0 + A xi, xi in {0, 1}^3, with v_0 its
    first vertex and a_i its edges at v_0 in edge order; else None."""
    c = cell_record(mesh, cid)
    if len(c.vertex_ids) != 8 or any(len(face_record(mesh, f).vertex_loop) != 4
                                     for f in c.faces):
        return None
    v0 = c.vertex_ids[0]
    ends = [edge_record(mesh, e).vertices for e in c.edge_ids]
    others = [b if a == v0 else a for a, b in ends if v0 in (a, b)]
    x = mesh.vertex_coords
    corners = x[[v0, *others]]
    tol = quad.PARALLELEPIPED_RTOL * c.diameter
    box = [corners[0] + sum(s * (p - corners[0])
                            for s, p in zip(xi, corners[1:]))
           for xi in product((0, 1), repeat=3)]
    hit = lambda p, pts: min(np.linalg.norm(p - q) for q in pts) <= tol
    if len(others) == 3 and all(hit(p, x[c.vertex_ids]) for p in box) \
            and all(hit(x[v], box) for v in c.vertex_ids):
        return corners
    return None


def reference_rule(mesh, kind, index, degree):
    """Points and weights of a face or cell rule, one simplex at a time:
    the triangles of a face; the tensor Gauss rule of a parallelepiped; a
    tetrahedron coned from its vertex opposite its first face over that
    face, and any other cell coned from its anchor over the triangles of
    each face."""
    if kind == "face":
        parts = [reference_triangle_rule(t, degree)
                 for t in reference_triangles(mesh, index)]
    elif (box := reference_parallelepiped(mesh, index)) is not None:
        parts = [reference_tet_rule(box, degree, quad._gauss_cube)]
    else:
        c = cell_record(mesh, index)
        if len(c.vertex_ids) == 4:
            loop = face_record(mesh, c.faces[0]).vertex_loop
            apex = mesh.vertex_coords[[v for v in c.vertex_ids
                                       if v not in loop][0]]
            cones = [(apex, c.faces[0])]
        else:
            cones = [(c.anchor, fid) for fid in c.faces]
        parts = [reference_tet_rule(np.vstack([apex, t]), degree)
                 for apex, fid in cones for t in reference_triangles(mesh, fid)]
    return (np.concatenate([p for p, _ in parts]),
            np.concatenate([w for _, w in parts]))


# ---------------------------------------------------------------------------
# per-entity assembly: the local operators of one face or cell at a time,
# each with its own bases, boundary terms and moment systems.  DdrComplex
# builds them by groups of alike entities, stacked; the per-entity contexts
# here are the reference those stacks are checked against.

def _inner_scalar(gram, A, B):
    """<a_i, b_j> for scalar polynomials given by monomial coefficient rows."""
    return A @ gram[:A.shape[1], :B.shape[1]] @ B.T


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


def skeleton_map(ectx, vert_pos, moment_idx, n_grad: int) -> np.ndarray:
    """Matrix sending n_grad entity-local GRAD DoFs to the P^{k+1}(E)
    coefficients of the skeleton of edge context ectx; vert_pos maps vertex
    ids to local positions and moment_idx selects the k edge moments."""
    k = ectx.k
    cols = np.zeros((2 + k, n_grad))
    va, vb = ectx.edge.vertices
    cols[0, vert_pos[va]] = 1.0
    cols[1, vert_pos[vb]] = 1.0
    cols[2:, moment_idx] = np.eye(k)
    return ectx.skeleton @ cols


def face_numbering(mesh, fid: int, k: int) -> SimpleNamespace:
    """The local numbering of face fid, keyed by global ids (match
    DofLayout.face_table): omega_FE, n_FE, the vertex positions and the
    GRAD and CURL slices of each edge."""
    f = face_record(mesh, fid)
    verts, edge_ids = sorted(f.vertex_loop), sorted(f.edges)
    nv = len(verts)
    return SimpleNamespace(
        edge_ids=edge_ids, verts=verts,
        edge_sign=dict(zip(f.edges, f.edge_signs)),
        edge_nfe=dict(zip(f.edges, f.edge_normals)),
        grad_vert_pos={v: i for i, v in enumerate(verts)},
        grad_edge_slices={e: slice(nv + i * k, nv + (i + 1) * k)
                          for i, e in enumerate(edge_ids)},
        curl_edge_slices={e: slice(i * (k + 1), (i + 1) * (k + 1))
                          for i, e in enumerate(edge_ids)})


def cell_numbering(layouts, cid: int) -> SimpleNamespace:
    """The local numbering of cell cid, keyed by global ids: omega_TF, the
    cell-local columns of each face, edge and vertex in each space, and the
    trailing cell blocks."""
    c = cell_record(layouts[SpaceKind.GRAD].mesh, cid)
    glob = {kind: layouts[kind].cell_indices(cid) for kind in SpaceKind}
    n_grad, n_curl, n_div = (len(glob[kind]) for kind in SpaceKind)

    def local_of(kind, glob_idx):
        return np.searchsorted(glob[kind], glob_idx)

    gl, cl, dl = (layouts[kind] for kind in SpaceKind)
    face_table = lambda lay, f: lay.face_table([f])[0]
    face_ids = sorted(c.faces)
    ccb, dcb = cl.cell_subsizes, dl.cell_subsizes
    grad_cell = slice(n_grad - gl.cell_block, n_grad)
    return SimpleNamespace(
        face_ids=face_ids, edge_ids=c.edge_ids, vert_ids=c.vertex_ids,
        face_sign=dict(zip(c.faces, c.face_signs)), glob=glob,
        n_grad=n_grad, n_curl=n_curl, n_div=n_div,
        grad_face_map={f: local_of(SpaceKind.GRAD, face_table(gl, f))
                       for f in face_ids},
        curl_face_map={f: local_of(SpaceKind.CURL, face_table(cl, f))
                       for f in face_ids},
        curl_faceblock_map={f: local_of(SpaceKind.CURL, cl.dofs(2, f))
                            for f in face_ids},
        grad_edge_map={e: local_of(SpaceKind.GRAD, gl.dofs(1, e))
                       for e in c.edge_ids},
        grad_vert_pos={v: i for i, v in enumerate(c.vertex_ids)},
        curl_edge_map={e: local_of(SpaceKind.CURL, cl.dofs(1, e))
                       for e in c.edge_ids},
        div_face_map={f: local_of(SpaceKind.DIV, dl.dofs(2, f))
                      for f in face_ids},
        # trailing cell blocks
        grad_cell=grad_cell,
        curl_R_cell=slice(n_curl - sum(ccb), n_curl - ccb[1]),
        curl_Rc_cell=slice(n_curl - ccb[1], n_curl),
        div_G_cell=slice(n_div - sum(dcb), n_div - dcb[1]),
        div_Gc_cell=slice(n_div - dcb[1], n_div),
        interior={SpaceKind.GRAD: np.arange(n_grad)[grad_cell],
                  SpaceKind.CURL: np.arange(n_curl)[n_curl - sum(ccb):],
                  SpaceKind.DIV: np.arange(n_div)[n_div - sum(dcb):]})


class ReferenceEdge:
    """One edge's bases, skeleton reconstruction and derivative, built on
    its own; every scalar basis is a leading block of its Gram."""

    def __init__(self, mesh, eid, k, rule_degree):
        self.k = k
        e = edge_record(mesh, eid)
        self.edge = e
        self.h = e.length
        self.geom = edge_geometry(mesh, e)
        self.rule = quad.edge_rule(mesh, eid, rule_degree)
        self.gram = scalar_monomial_gram(self.geom, k + 1, self.rule)
        self.sca = {l: ChartBasis(ps.build_scalar_basis(1, l, self.gram),
                                  self.geom)
                    for l in (k - 1, k, k + 1)}
        bkp1 = self.sca[k + 1]
        A = np.vstack([
            bkp1.eval(mesh.vertex_coords[list(e.vertices)]),
            _inner_scalar(self.gram, self.sca[k - 1].coeff, bkp1.coeff),
        ])
        self.skeleton = np.linalg.solve(A, np.eye(k + 2))
        dmono = bkp1.coeff @ ps.deriv_matrix(1, k + 1, 0).T / self.h
        self.deriv = _inner_scalar(self.gram, self.sca[k].coeff, dmono)


def _edge_traces(ectx, skeleton, curl_cols) -> dict:
    """GRAD and CURL traces of an entity's local DoFs at the rule points of
    edge context ectx, as {kind: (values, local columns)}: skeleton maps the
    local GRAD DoFs to P^{k+1}(E) coefficients, and curl_cols are the local
    columns of the edge's CURL DoFs."""
    pts = ectx.rule.points
    return {SpaceKind.GRAD: (ectx.sca[ectx.k + 1].eval(pts) @ skeleton,
                             slice(None)),
            SpaceKind.CURL: (ectx.sca[ectx.k].eval(pts), curl_cols)}


class _ReferenceEntity:
    """What faces and cells share: their bases and their gradient."""

    def _bases(self, extra=()):
        """Monomial Gram, scalar bases, P^k vector basis and the split
        subspaces R^{k-1}, Rc^{ell+1}, R^k, Rc^k, Rc^{k+2} and extra.  The
        Gram sums the rule simplex by simplex, in the order DdrComplex sums
        it; every scalar basis is a leading block of it."""
        k, ell, g = self.k, self.ell, self.geom
        parts = self.rule.n_simplices
        self.gram = sum(
            ps.monomial_gram(sample_monomials(g, k + 2, p), w)
            for p, w in zip(np.split(self.rule.points, parts),
                            np.split(self.rule.weights, parts)))
        self.sca = {l: ChartBasis(ps.build_scalar_basis(g.dim, l, self.gram),
                                  g)
                    for l in {k - 1, k, k + 1, ell}}
        self.vb = ChartBasis(ps.tensor_vector_basis(self.sca[k].basis, g.dim),
                             g)
        # Rc^{ell+1} is Rc^k in DDR mode (ell = k - 1): each key is built once
        self.sub = {
            (sel, l): subspace(g, sel, l, self.gram)
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

    def _coords(self, coeff):
        """Inner products of vector polynomials against the P^k basis."""
        return ps.vector_inner(self.gram, coeff, self.vb.coeff)

    def _gradient(self, grad_flux, own_cols):
        """Serendipity moments, gradient and P^{k+1} potential of the local
        GRAD DoFs.

        grad_flux(sub) is the boundary term sum_b omega_b int_b (w . n_b) q_b
        for w in the basis sub, against the boundary traces q_b; own_cols are
        the columns of the entity's own P^ell moments q_Y.
        """
        k, g, gram = self.k, self.geom, self.gram
        Rk, Rck = self.sub["R", k], self.sub["Rc", k]
        cRk2 = self.sub["Rc", k + 2]
        # int G q . tau = -int q_Y div tau + boundary term, tau in Rc^k
        sg = grad_flux(Rck)
        if Rck.dim:
            sg[:, own_cols] -= _inner_scalar(
                gram, _div_coeffs(Rck.coeff, g.dim, g.scale),
                self.sca[self.ell].coeff)
        M = np.vstack([self._coords(Rk.coeff), self._coords(Rck.coeff)])
        grad = np.linalg.solve(M, np.vstack([grad_flux(Rk), sg]))
        # int P q div w = -int G q . w + boundary term, w in Rc^{k+2}
        D = _inner_scalar(gram, _div_coeffs(cRk2.coeff, g.dim, g.scale),
                          self.sca[k + 1].coeff)
        rhs = grad_flux(cRk2) - self._coords(cRk2.coeff) @ grad
        return sg, grad, np.linalg.solve(D, rhs)


class ReferenceFace(_ReferenceEntity):
    def __init__(self, mesh, fid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx):
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
        f = face_record(mesh, fid)
        self.face = f
        self.h = f.diameter
        self.geom = face_geometry(mesh, f)
        self.rule = face_rule(mesh, fid, rule_degree)
        vars(self).update(vars(face_numbering(mesh, fid, self.k)))

    # -- helpers ------------------------------------------------------------
    def edge_skeleton_map(self, eid: int, ectx) -> np.ndarray:
        """Matrix sending face-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return skeleton_map(ectx, self.grad_vert_pos,
                            self.grad_edge_slices[eid], self.n_grad)

    def trace_values(self) -> dict:
        """Traces of the face DoFs at the face's rule points: the GRAD trace
        (npts, n_grad), the CURL tangential trace in frame components
        (npts, 2, n_curl) and the P^k basis (npts, dim) that the DIV normal
        components are written in."""
        k, rule = self.k, self.rule
        sample = Sampler(self.geom, k + 1)
        return {
            SpaceKind.GRAD: sample(self.sca[k + 1], rule) @ self.trace_mat,
            SpaceKind.CURL: sample(self.vb, rule).transpose(0, 2, 1)
                            @ self.ttrace_mat,
            SpaceKind.DIV: sample(self.sca[k], rule)}

    def _assemble(self, edge_ctx):
        k, g, gram = self.k, self.geom, self.gram
        Rck, Rkm = self.sub["Rc", k], self.sub["R", k - 1]
        Rcd = self.sub["Rc", self.ell + 1]
        sample = Sampler(g, k + 2)
        edges = [(self.edge_sign[e], edge_ctx[e], _edge_traces(
                      edge_ctx[e], self.edge_skeleton_map(e, edge_ctx[e]),
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
        M = np.vstack([self._coords(rot_test), self._coords(Rck.coeff)])
        rhs = np.vstack([
            _inner_scalar(gram, mono_test, self.sca[k].coeff) @ cm
            + self._flux(edges, SpaceKind.CURL, len(mono_test),
                         lambda ectx: sample.monomials(ectx.rule)[:, 1:nm]),
            sc])
        self.ttrace_mat = np.linalg.solve(M, rhs)

        # --- face blocks of the global gradient ------------------------------
        self.uG_face = np.vstack([self._coords(Rkm.coeff) @ self.grad_mat,
                                  self._coords(Rcd.coeff) @ self.grad_mat])


class ReferenceCell(_ReferenceEntity):
    def __init__(self, mesh, cid: int, k: int, ell: int, rule_degree: int,
                 edge_ctx, face_ctx, layouts):
        self.k = k
        self.ell = ell
        self._place(mesh, cid, rule_degree, layouts)
        self._bases([("G", k - 1), ("Gc", k), ("Gc", k + 1)])
        faces, edges = self.traces(edge_ctx, face_ctx)
        sample = Sampler(self.geom, k + 2)
        self._assemble(faces, edges, sample)
        self._products(faces, edges, sample)

    def _place(self, mesh, cid, rule_degree, layouts):
        c = cell_record(mesh, cid)
        self.cell = c
        self.h = c.diameter
        self.geom = cell_geometry(mesh, c)
        self.rule = cell_rule(mesh, cid, rule_degree)
        vars(self).update(vars(cell_numbering(layouts, cid)))

    def _edge_skeleton(self, ectx) -> np.ndarray:
        """Matrix sending cell-local GRAD DoFs to P^{k+1}(E) coefficients."""
        return skeleton_map(ectx, self.grad_vert_pos,
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
        edges = [(1.0, edge_ctx[e], _edge_traces(
                      edge_ctx[e], self._edge_skeleton(edge_ctx[e]),
                      self.curl_edge_map[e]))
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
        M = np.vstack([self._coords(curlw), self._coords(Rck.coeff)])
        rhs = np.vstack([self._coords(cGk1.coeff) @ cm - cross_flux(cGk1), sc])
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
        M = np.vstack([self._coords(grad_test), self._coords(Gck.coeff)])
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
        uG[self.curl_R_cell] = self._coords(Rkm.coeff) @ self.grad_mat
        uG[self.curl_Rc_cell] = self._coords(Rcd.coeff) @ self.grad_mat
        uC[self.div_G_cell] = self._coords(Gkm.coeff) @ cm
        uC[self.div_Gc_cell] = self._coords(Gck.coeff) @ cm
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
                                 Sampler(self.geom, self.k + 2))

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


class GroupOfOne:
    """A reference face or cell presented as a group of one member, the
    way the interpolators, the global matrices and the solver read the
    groups of DdrComplex: its arrays and bases with a leading axis of
    length 1, its rule points and chart, and row 0."""

    def __init__(self, ctx, ident: int):
        self.ctx = ctx
        self.ids, self.row, self.rep = np.array([ident]), np.zeros(1, int), \
            np.zeros(1, int)
        g = ctx.geom
        self.chart = _Chart(g.origin[None], np.array([g.scale]), g.axes[None],
                            np.array([g.measure]))
        self.points, self.weights = ctx.rule.points[None], ctx.rule.weights[None]
        self.sca = {l: ps.ScalarBasis(b.degree, b.coeff[None])
                    for l, b in ctx.sca.items()}
        self.sub = {key: ps.VectorBasis(b.degree, b.ncomp, b.coeff[None])
                    for key, b in ctx.sub.items()}
        if hasattr(ctx, "face"):
            self.normal = ctx.face.normal[None]
        # a view of a group of DdrComplex names its group, row and index
        ctx.group, ctx.row, ctx.index = self, 0, 0

    def __getattr__(self, name):
        if name == "ctx":
            raise AttributeError(name)
        val = getattr(self.ctx, name)
        return val[None] if isinstance(val, np.ndarray) else val


def per_entity_complex(cx):
    """A copy of cx whose face and cell contexts are all built from scratch,
    one entity at a time, each in a group of one."""
    mesh, k = cx.mesh, cx.k
    ref = copy.copy(cx)
    ref.edges = views(cx).edges
    face_degree = cx.face_groups[0].rule.exactness_degree
    ref.faces = [ReferenceFace(mesh, f, k, k - 1, face_degree, ref.edges)
                 for f in range(mesh.n_faces)]
    ref.cells = [ReferenceCell(mesh, c, k, k - 1, cx.cell_degree, ref.edges,
                               ref.faces, cx.layouts)
                 for c in range(mesh.n_cells)]
    ref.face_groups = [GroupOfOne(f, i) for i, f in enumerate(ref.faces)]
    ref.cell_groups = [GroupOfOne(c, i) for i, c in enumerate(ref.cells)]
    ref._cache = {}
    return ref


# ---------------------------------------------------------------------------
# Appendix norms of the per-entity reference, entity by entity


def lsnorm(weights, vals, s):
    """L^s norm of sampled scalar or vector (pointwise Euclidean) values."""
    mag = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=-1)
    return float(np.sum(weights * mag**s)) ** (1.0 / s)


def _own_field(ctx, v, slices):
    """The R^{k-1} (+) Rc^{ell+1} field, at the rule points of a reference
    face or cell, whose two coefficient blocks are v[slices[0]] and
    v[slices[1]]."""
    comp = np.zeros((ctx.rule.weights.shape[-1], ctx.geom.dim))
    for key, sl in zip((("R", ctx.k - 1), ("Rc", ctx.ell + 1)), slices):
        if ctx.sub[key].dim:
            comp += np.einsum("pbc,b->pc", ctx.sub[key].eval(ctx.rule.points),
                              v[sl])
    return comp


def _edge_values(ectx, v_edge):
    return ectx.sca[ectx.k].eval(ectx.rule.points) @ v_edge


def component_norm_cell(ref, s, c, v):
    """Component L^s norm of the local CURL DoFs v of cell c of the
    per-entity complex ref, face by face and edge by edge."""
    cell = ref.cells[c]
    total = lsnorm(cell.rule.weights, _own_field(
        cell, v, (cell.curl_R_cell, cell.curl_Rc_cell)), s)
    for f in cell.face_ids:
        fctx, vf = ref.faces[f], v[cell.curl_face_map[f]]
        total += fctx.h ** (1 / s) * lsnorm(fctx.rule.weights, _own_field(
            fctx, vf, (fctx.curl_R_slice, fctx.curl_Rc_slice)), s)
    for e in cell.edge_ids:
        ectx = ref.edges[e]
        total += ectx.h ** (2 / s) * lsnorm(
            ectx.rule.weights, _edge_values(ectx, v[cell.curl_edge_map[e]]), s)
    return total


def component_norm_face(ref, s, f, v):
    fctx = ref.faces[f]
    total = lsnorm(fctx.rule.weights, _own_field(
        fctx, v, (fctx.curl_R_slice, fctx.curl_Rc_slice)), s)
    for e in fctx.edge_ids:
        ectx = ref.edges[e]
        total += ectx.h ** (1 / s) * lsnorm(ectx.rule.weights, _edge_values(
            ectx, v[fctx.curl_edge_slices[e]]), s)
    return total


def potential_norm_cell(ref, s, c, v):
    """Potential L^s norm of the local CURL DoFs v of cell c of the
    per-entity complex ref: the potential and its trace differences."""
    cell = ref.cells[c]
    total = lsnorm(cell.rule.weights,
                   cell.phi_k @ (cell.pot_curl @ v).reshape(-1, 3), s)
    for _, hw, w, A in cell.curl_diffs(*cell.traces(ref.edges, ref.faces)):
        total += hw ** (1 / s) * lsnorm(w, A @ v, s)
    return total


def potential_norm_face(ref, s, f, v):
    """Potential L^s norm of the local CURL DoFs v of face f: its
    tangential trace, and the gap between the trace's component along each
    edge and the edge's tangential value."""
    fctx = ref.faces[f]
    gt = fctx.ttrace_mat @ v
    total = lsnorm(fctx.rule.weights, np.einsum(
        "pbc,b->pc", fctx.vb.eval(fctx.rule.points), gt), s)
    for e in fctx.edge_ids:
        ectx = ref.edges[e]
        t2 = fctx.geom.axes @ ectx.edge.tangent
        gt_t = np.einsum("pbc,b,c->p", fctx.vb.eval(ectx.rule.points), gt, t2)
        ve = _edge_values(ectx, v[fctx.curl_edge_slices[e]])
        total += ectx.h ** (1 / s) * lsnorm(ectx.rule.weights, gt_t - ve, s)
    return total
