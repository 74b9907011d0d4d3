"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's quadrature and basis
machinery: monomial integrals over simplices are closed-form (barycentric
multinomial expansion plus the Dirichlet formula), entities are decomposed
by fans anchored at a vertex rather than at the library's anchor points,
and projections are recomputed by raw monomial normal equations.  The
Newton kernels are the cell-by-cell loops that the solver's batched kernels
are checked against.  The set-up references at the end are the
``np.einsum`` contractions, generating families and per-entity
interpolators that the set-up kernels of ddrns are checked against.  The
geometry references build mesh entities one at a time and quadrature rules
one simplex at a time, as the batched passes of ddrns did before them.
"""

import math
from itertools import product

import numpy as np

from ddrns import mesh as msh
from ddrns import polyspaces as ps
from ddrns import quadrature as quad
from ddrns.spaces import DofVector, SpaceKind


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_pow(a: dict, n: int, nvar: int) -> dict:
    out = {tuple([0] * nvar): 1.0}
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def monomial_over_simplex(verts: np.ndarray, powers) -> float:
    """Exact integral of prod_j x_j^powers[j] over the simplex with the given
    vertices ((d+1, 3) array), via barycentric expansion and
    int_simplex prod lambda_i^{b_i} = d! |S| prod b_i! / (sum b_i + d)!."""
    verts = np.asarray(verts, dtype=float)
    d = len(verts) - 1
    if d == 1:
        meas = np.linalg.norm(verts[1] - verts[0])
    elif d == 2:
        meas = 0.5 * np.linalg.norm(np.cross(verts[1] - verts[0],
                                             verts[2] - verts[0]))
    else:
        meas = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    nvar = d + 1
    poly = {tuple([0] * nvar): 1.0}
    for j, p in enumerate(powers):
        coord = {}
        for i in range(nvar):
            e = [0] * nvar
            e[i] = 1
            coord[tuple(e)] = verts[i][j]
        poly = _poly_mul(poly, _poly_pow(coord, int(p), nvar))
    total = 0.0
    fact_d = math.factorial(d)
    for e, c in poly.items():
        num = 1.0
        for b in e:
            num *= math.factorial(b)
        total += c * fact_d * num / math.factorial(sum(e) + d)
    return float(total * meas)


def signed_monomial_over_cone(apex, tri, powers) -> float:
    """Signed version for cell integration by coning oriented triangles."""
    verts = np.vstack([apex, tri])
    sign = np.sign(np.linalg.det(np.asarray(tri) - np.asarray(apex)))
    return sign * monomial_over_simplex(verts, powers)


def integrate_monomial_edge(mesh, eid, powers) -> float:
    e = mesh.edges[eid]
    verts = mesh.vertex_coords[list(e.vertices)]
    return monomial_over_simplex(verts, powers)


def integrate_monomial_face(mesh, fid, powers) -> float:
    """Fan from the first loop vertex (not the library's anchor)."""
    f = mesh.faces[fid]
    pts = mesh.vertex_coords[f.vertex_loop]
    total = 0.0
    for i in range(1, len(pts) - 1):
        total += monomial_over_simplex(np.array([pts[0], pts[i], pts[i + 1]]),
                                       powers)
    return total


def integrate_monomial_cell(mesh, cid, powers) -> float:
    """Signed cones from the first cell vertex over oriented face fans."""
    c = mesh.cells[cid]
    apex = mesh.vertex_coords[c.vertex_ids[0]]
    total = 0.0
    for fid, sgn in zip(c.faces, c.face_signs):
        f = mesh.faces[fid]
        pts = mesh.vertex_coords[f.vertex_loop]
        loop = pts if sgn > 0 else pts[::-1]
        for i in range(1, len(loop) - 1):
            tri = np.array([loop[0], loop[i], loop[i + 1]])
            d = np.linalg.det(tri - apex)
            total += np.sign(d) * monomial_over_simplex(np.vstack([apex, tri]),
                                                        powers)
    return total


def integrate_monomial(mesh, kind, idx, powers) -> float:
    return {"edge": integrate_monomial_edge, "face": integrate_monomial_face,
            "cell": integrate_monomial_cell}[kind](mesh, idx, powers)


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


# -- per-cell reference of the Newton kernels ----------------------------------
# `s` is a NavierStokesSolver; its per-cell dicts `s.cells` hold the blocks.

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
    for cell in s.cells:
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
    for cell in s.cells:
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


def newton_step(s, x, R, with_convection=True, shift=0.0, eta=0.0):
    """Solve (J + shift M_curl) delta = -R cell by cell: each cell's interior
    block is eliminated by its Schur complement, the condensed system is
    factored afresh, and the interior values are back-substituted.  Every
    step is solved exactly, whatever its forcing term eta."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    u, p, mu = s.split(x)
    free = s.free
    nmu = 1 if s.use_multiplier else 0
    condense = s.opts.condense
    interior = np.zeros(s.n_x, dtype=bool)
    int_loc = []
    for c, cell in enumerate(s.cells):
        ctx = s.cx.cells[c]
        int_u = ctx.interior[SpaceKind.CURL]
        int_p = ctx.interior[SpaceKind.GRAD]
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
    for cell, loc_int in zip(s.cells, int_loc):
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


# ---------------------------------------------------------------------------
# set-up references

def einsum_vector_inner(gram, A, B):
    """<a_i, b_j> of vector polynomials by one optimised einsum."""
    return np.einsum("imc,mn,jnc->ij", A, gram[:A.shape[1], :B.shape[1]], B,
                     optimize=True)


def einsum_triple_moments(weights, phi):
    return np.einsum("p,pi,pj,pl->ijl", weights, phi, phi, phi, optimize=True)


def interpolate_per_entity(cx, kind, fun):
    """I_grad, I_curl or I_div of fun with one call of fun and one basis
    evaluation per entity and subspace."""
    k, lay = cx.k, cx.layouts[kind]
    out = DofVector.zeros(lay)

    def scalar(ctx, sb, vals):
        return ps.project_scalar(sb, ctx.rule, vals)

    def vector(ctx, keys, vals):
        return np.concatenate([ps.project_vector(ctx.sub[key], ctx.rule, vals)
                               for key in keys])

    if kind is SpaceKind.GRAD:
        out.values[:cx.mesh.n_vertices] = fun(cx.mesh.vertex_coords)
        blocks = [(ctxs, block, dofs,
                   lambda ctx, v: scalar(ctx, ctx.sca[k - 1], v))
                  for ctxs, block, dofs in (
                      (cx.edges, lay.edge_block, lay.edge_dofs),
                      (cx.faces, lay.face_block, lay.face_dofs),
                      (cx.cells, lay.cell_block, lay.cell_dofs))]
    elif kind is SpaceKind.CURL:
        blocks = [
            (cx.edges, lay.edge_block, lay.edge_dofs, lambda ctx, v:
             scalar(ctx, ctx.sca[k], v @ ctx.edge.tangent)),
            *[(ctxs, block, dofs, lambda ctx, v: vector(
                ctx, (("R", k - 1), ("Rc", ctx.ell + 1)), v @ ctx.geom.axes.T))
              for ctxs, block, dofs in (
                  (cx.faces, lay.face_block, lay.face_dofs),
                  (cx.cells, lay.cell_block, lay.cell_dofs))]]
    else:
        blocks = [
            (cx.faces, lay.face_block, lay.face_dofs, lambda ctx, v:
             scalar(ctx, ctx.sca[k], v @ ctx.face.normal)),
            (cx.cells, lay.cell_block, lay.cell_dofs, lambda ctx, v:
             vector(ctx, (("G", k - 1), ("Gc", k)), v))]
    for ctxs, block, dofs, moments in blocks:
        for i, ctx in enumerate(ctxs if block else []):
            out.values[dofs(i)] = moments(ctx, fun(ctx.rule.points))
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
                edges.append(msh.Edge(len(edges), key, vec / length, length,
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
        faces.append(msh.Face(fid, list(loop), face_edges, signs, enormals,
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
        cells.append(msh.Cell(cid, list(fids), [sigma[fid] for fid in fids],
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


def reference_tet_rule(verts, degree):
    a, b, c, d = verts
    vol6 = abs(np.dot(np.cross(b - a, c - a), d - a))
    x1, x2, x3, w = quad._duffy_tet(max(degree, 0))
    pts = (a[None, :] + np.outer(x1, b - a) + np.outer(x2, c - a)
           + np.outer(x3, d - a))
    return pts, w * vol6


def reference_rule(mesh, kind, index, degree):
    """Points and weights of a face or cell rule, one simplex at a time:
    the fan of a face from its anchor, the cone of each face's fan from the
    cell anchor."""
    V = mesh.vertex_coords
    if kind == "face":
        f = mesh.faces[index]
        loop = V[f.vertex_loop]
        parts = [reference_triangle_rule(
            np.array([f.anchor, loop[i], loop[(i + 1) % len(loop)]]), degree)
            for i in range(len(loop))]
    else:
        c = mesh.cells[index]
        parts = []
        for fid in c.faces:
            f = mesh.faces[fid]
            loop = V[f.vertex_loop]
            parts += [reference_tet_rule(
                np.array([c.anchor, f.anchor, loop[i], loop[(i + 1) % len(loop)]]),
                degree) for i in range(len(loop))]
    return (np.concatenate([p for p, _ in parts]),
            np.concatenate([w for _, w in parts]))
