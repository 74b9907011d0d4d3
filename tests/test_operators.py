import numpy as np
import pytest

import oracles
from ddrns import polyspaces as ps
from ddrns.operators import DdrComplex
from ddrns.spaces import DofVector, SpaceKind
from conftest import (get_complex, pentagon_prism_mesh, random_hex_mesh,
                      random_tet_mesh)


def _poly_scalar(k, seed=0):
    exps = ps.monomial_exponents(3, k)
    rng = np.random.default_rng(seed)
    co = rng.standard_normal(len(exps))
    fun = lambda pts: ps.mono_eval(exps, pts) @ co
    grads = [ps.deriv_matrix(3, k, a) @ co for a in range(3)]
    gfun = lambda pts: np.stack([ps.mono_eval(exps, pts) @ g for g in grads],
                                axis=-1)
    return fun, gfun


def _poly_vector(k, seed=0):
    exps = ps.monomial_exponents(3, k)
    rng = np.random.default_rng(seed)
    co = rng.standard_normal((3, len(exps)))
    fun = lambda pts: np.stack([ps.mono_eval(exps, pts) @ co[a]
                                for a in range(3)], axis=-1)
    D = [ps.deriv_matrix(3, k, a) for a in range(3)]
    curl_co = np.stack([D[1] @ co[2] - D[2] @ co[1],
                        D[2] @ co[0] - D[0] @ co[2],
                        D[0] @ co[1] - D[1] @ co[0]])
    cfun = lambda pts: np.stack([ps.mono_eval(exps, pts) @ curl_co[a]
                                 for a in range(3)], axis=-1)
    return fun, cfun


@pytest.fixture(scope="module")
def pentagon_cx():
    return DdrComplex(pentagon_prism_mesh(), 1)


@pytest.fixture(scope="module")
def hex_cx():
    return DdrComplex(random_hex_mesh(), 1)


# -- consistency --------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_potentials_reproduce_polynomials(k):
    cx = DdrComplex(random_tet_mesh(), k)
    q, _ = _poly_scalar(k + 1, seed=k)
    iq = cx.interpolate_grad(q)
    gl = cx.layouts[SpaceKind.GRAD]
    view = cx.cells[0]
    pv = cx.potential_values(SpaceKind.GRAD, view.group, [view.index],
                             iq.values[gl.cell_indices(0)][None])[0]
    ref = q(view.rule.points)
    assert np.abs(pv - ref).max() < 1e-10 * (np.abs(ref).max() + 1)

    v, _ = _poly_vector(k, seed=k + 5)
    iv = cx.interpolate_curl(v)
    cl = cx.layouts[SpaceKind.CURL]
    pv = cx.curl_potential_values(0, iv.values[cl.cell_indices(0)])
    ref = v(cx.cells[0].rule.points)
    assert np.abs(pv - ref).max() < 1e-10 * (np.abs(ref).max() + 1)

    iw = cx.interpolate_div(v)
    dl = cx.layouts[SpaceKind.DIV]
    pv = cx.potential_values(SpaceKind.DIV, view.group, [view.index],
                             iw.values[dl.cell_indices(0)][None])[0]
    assert np.abs(pv - ref).max() < 1e-10 * (np.abs(ref).max() + 1)


def test_face_traces_consistency(pentagon_cx):
    cx = pentagon_cx
    k = cx.k
    q, _ = _poly_scalar(k + 1, seed=2)
    iq = cx.interpolate_grad(q)
    gl = cx.layouts[SpaceKind.GRAD]
    faces = oracles.views(cx).faces
    for f, fctx in enumerate(faces):
        loc = iq.values[gl.face_table([f])[0]]
        vals = fctx.sca[k + 1].eval(fctx.rule.points) @ (fctx.trace_mat @ loc)
        ref = q(fctx.rule.points)
        assert np.abs(vals - ref).max() < 1e-10 * (np.abs(ref).max() + 1)

    v, _ = _poly_vector(k, seed=3)
    iv = cx.interpolate_curl(v)
    cl = cx.layouts[SpaceKind.CURL]
    for f, fctx in enumerate(faces):
        loc = iv.values[cl.face_table([f])[0]]
        gt = np.einsum("pbc,b->pc", fctx.vb.eval(fctx.rule.points),
                       fctx.ttrace_mat @ loc)
        ref = v(fctx.rule.points) @ fctx.geom.axes.T
        assert np.abs(gt - ref).max() < 1e-10 * (np.abs(ref).max() + 1)


def test_zero_input_zero_output(pentagon_cx):
    view = oracles.views(pentagon_cx)
    fctx = view.faces[0]
    assert np.abs(fctx.grad_mat @ np.zeros(fctx.n_grad)).max() == 0.0
    assert np.abs(fctx.trace_mat @ np.zeros(fctx.n_grad)).max() == 0.0
    cctx = view.cells[0]
    assert np.abs(cctx.pot_curl @ np.zeros(cctx.n_curl)).max() == 0.0


def test_face_gradient_of_constant_vanishes(pentagon_cx):
    cx = pentagon_cx
    iq = cx.interpolate_grad(lambda pts: np.full(len(pts), 3.7))
    gl = cx.layouts[SpaceKind.GRAD]
    for f, fctx in enumerate(oracles.views(cx).faces):
        g = fctx.grad_mat @ iq.values[gl.face_table([f])[0]]
        assert np.abs(g).max() < 1e-12


def test_face_curl_constant_and_trace(cube1):
    cx = get_complex("cubic", 1, 0)
    cvec = np.array([1.0, -2.0, 0.5])
    iv = cx.interpolate_curl(lambda pts: np.tile(cvec, (len(pts), 1)))
    cl = cx.layouts[SpaceKind.CURL]
    for f, fctx in enumerate(oracles.views(cx).faces):
        loc = iv.values[cl.face_table([f])[0]]
        cf = fctx.curl_mat @ loc
        assert np.abs(cf).max() < 1e-13
        gt = np.einsum("pbc,b->pc", fctx.vb.eval(fctx.rule.points),
                       fctx.ttrace_mat @ loc)
        ref = cvec @ fctx.geom.axes.T
        assert np.abs(gt - ref).max() < 1e-13


def test_face_curl_analytic_rot_oracle(pentagon_cx):
    # planar field tangent to a face: curl matches the analytic 2D rot
    cx = pentagon_cx
    fid = int(np.flatnonzero(cx.mesh.face_loops.lengths == 5)[0])
    fctx = oracles.views(cx).faces[fid]
    e1, e2 = fctx.geom.axes
    x0 = fctx.geom.origin

    def vfun(pts):
        s = (pts - x0) @ e1
        t = (pts - x0) @ e2
        return np.outer(s * t, e1) + np.outer(s - t**2, e2)

    def rot_ref(pts):  # d1 v2 - d2 v1 in the face frame
        s = (pts - x0) @ e1
        t = (pts - x0) @ e2
        return 1.0 - s
    iv = cx.interpolate_curl(vfun)
    loc = iv.values[cx.layouts[SpaceKind.CURL].face_table([fid])[0]]
    vals = fctx.sca[cx.k].eval(fctx.rule.points) @ (fctx.curl_mat @ loc)
    ref = rot_ref(fctx.rule.points)
    assert np.abs(vals - ref).max() < 1e-11


def test_element_divergence_examples(hex_cx):
    cx = hex_cx
    x0 = cx.mesh.cell_anchor[0]
    iw = cx.interpolate_div(lambda pts: pts - x0)
    dl = cx.layouts[SpaceKind.DIV]
    cctx = oracles.views(cx).cells[0]
    dval = cctx.sca[cx.k].eval(cctx.rule.points) @ (
        cctx.div_op @ iw.values[dl.cell_indices(0)])
    assert np.abs(dval - 3.0).max() < 1e-12
    iw0 = cx.interpolate_div(lambda pts: np.tile([0.4, 1.0, -2.0],
                                                 (len(pts), 1)))
    dval = cctx.sca[cx.k].eval(cctx.rule.points) @ (
        cctx.div_op @ iw0.values[dl.cell_indices(0)])
    assert np.abs(dval).max() < 1e-12


# -- independent-basis oracles -------------------------------------------------

def _oracle_face_gradient(cx, fid, qloc):
    """Re-assemble the face gradient in a plain monomial basis."""
    k = cx.k
    view = oracles.views(cx)
    fctx = view.faces[fid]
    num = oracles.face_numbering(cx.mesh, fid, k)
    g = fctx.geom
    rule = fctx.rule
    xi = g.local_coords(rule.points)
    exps_k = ps.monomial_exponents(2, k)
    exps_k1 = ps.monomial_exponents(2, k + 1)
    nm = len(exps_k)
    mono = ps.mono_eval(exps_k, xi)

    # raw test families: rot of non-constant monomials, (x-x_F)*monomials
    tests = []
    rot = []
    for i in range(1, len(exps_k1)):
        co = np.zeros(len(exps_k1))
        co[i] = 1.0
        d1 = ps.deriv_matrix(2, k + 1, 0) @ co / g.scale
        d2 = ps.deriv_matrix(2, k + 1, 1) @ co / g.scale
        rot.append(np.stack([d2[:nm], -d1[:nm]], axis=-1))
    tau = []
    for i in range(len(ps.monomial_exponents(2, k - 1))):
        co = np.zeros(nm)
        co[i] = 1.0
        up = [ps.raise_matrix(2, k - 1, a) for a in range(2)]
        cosrc = np.zeros(len(ps.monomial_exponents(2, k - 1)))
        cosrc[i] = 1.0
        tau.append(g.scale * np.stack([up[0] @ cosrc, up[1] @ cosrc], axis=-1))
    fam = rot + tau

    # skeleton polynomials per edge, rebuilt in a raw edge monomial basis
    def skeleton(eid):
        ectx = view.edges[eid]
        e = ectx.edge
        a = cx.mesh.vertex_coords[e.vertices[0]]
        b = cx.mesh.vertex_coords[e.vertices[1]]
        er = ectx.rule
        s = ectx.geom.local_coords(er.points)[:, 0]
        A_rows = [np.array([ectx.geom.local_coords(a[None])[0, 0] ** j
                            for j in range(k + 2)]),
                  np.array([ectx.geom.local_coords(b[None])[0, 0] ** j
                            for j in range(k + 2)])]
        rhs = [None, None]
        phi_km1 = ectx.sca[k - 1].eval(er.points)
        V = np.stack([s ** j for j in range(k + 2)], axis=-1)
        for i in range(k):
            A_rows.append(phi_km1[:, i] @ (er.weights[:, None] * V))
        sl = num.grad_edge_slices[eid]
        dofs = np.concatenate([[qloc[num.grad_vert_pos[e.vertices[0]]],
                                qloc[num.grad_vert_pos[e.vertices[1]]]],
                               qloc[sl]])
        coef = np.linalg.solve(np.array(A_rows), dofs)
        return lambda pts: np.stack(
            [ectx.geom.local_coords(pts)[:, 0] ** j
             for j in range(k + 2)], axis=-1) @ coef

    M = np.zeros((len(fam), 2 * nm))
    rhs = np.zeros(len(fam))
    ell = cx.layouts[SpaceKind.GRAD].ell
    qface = (fctx.sca[ell].eval(rule.points)
             @ qloc[fctx.own[SpaceKind.GRAD][0]])
    for j, w in enumerate(fam):
        wv = np.einsum("pm,mc->pc", mono, w)
        for a in range(2):
            M[j, a * nm:(a + 1) * nm] = mono.T @ (rule.weights * wv[:, a])
        is_tau = j >= len(rot)
        for eid in num.edge_ids:
            ectx = view.edges[eid]
            er = ectx.rule
            xi_e = g.local_coords(er.points)
            we = np.einsum("pm,mc->pc", ps.mono_eval(exps_k, xi_e), w)
            wn = we @ (g.axes @ num.edge_nfe[eid])
            if is_tau:
                phi_km1 = ectx.sca[k - 1].eval(er.points)
                qe = phi_km1 @ qloc[num.grad_edge_slices[eid]]
            else:
                qe = skeleton(eid)(er.points)
            rhs[j] += num.edge_sign[eid] * np.sum(er.weights * qe * wn)
        if is_tau:
            dco = sum(ps.deriv_matrix(2, k, a) @ w[:, a] / g.scale
                      for a in range(2))
            divw = mono @ dco
            rhs[j] -= np.sum(rule.weights * qface * divw)
    coef = np.linalg.solve(M, rhs)
    return np.stack([mono @ coef[:nm], mono @ coef[nm:]], axis=-1)


def test_face_gradient_vs_independent_basis_oracle(pentagon_cx):
    cx = pentagon_cx
    fid = int(np.flatnonzero(cx.mesh.face_loops.lengths == 5)[0])
    fctx = oracles.views(cx).faces[fid]
    rng = np.random.default_rng(8)
    qloc = rng.standard_normal(fctx.n_grad)
    mine = np.einsum("pbc,b->pc", fctx.vb.eval(fctx.rule.points),
                     fctx.grad_mat @ qloc)
    oracle = _oracle_face_gradient(cx, fid, qloc)
    assert np.abs(mine - oracle).max() < 1e-10 * (np.abs(oracle).max() + 1)


def test_scalar_trace_vs_independent_basis_oracle(pentagon_cx):
    cx = pentagon_cx
    k = cx.k
    fid = int(np.flatnonzero(cx.mesh.face_loops.lengths == 5)[0])
    view = oracles.views(cx)
    fctx = view.faces[fid]
    num = oracles.face_numbering(cx.mesh, fid, k)
    g = fctx.geom
    rule = fctx.rule
    rng = np.random.default_rng(9)
    qloc = rng.standard_normal(fctx.n_grad)

    grad_vals = _oracle_face_gradient(cx, fid, qloc)  # frame components
    exps_k1 = ps.monomial_exponents(2, k + 1)
    nm1 = len(exps_k1)
    xi = g.local_coords(rule.points)
    mono1 = ps.mono_eval(exps_k1, xi)
    # tests: (x - x_F) m for m of degree <= k+1; LHS <m_i, div w_j>
    M = np.zeros((nm1, nm1))
    rhs = np.zeros(nm1)
    up = [ps.raise_matrix(2, k + 1, a) for a in range(2)]
    for j in range(nm1):
        co = np.zeros(nm1)
        co[j] = 1.0
        w = g.scale * np.stack([up[0] @ co, up[1] @ co], axis=-1)
        dco = sum(ps.deriv_matrix(2, k + 2, a) @ w[:, a] / g.scale
                  for a in range(2))
        divw = ps.mono_eval(ps.monomial_exponents(2, k + 2), xi) @ dco
        M[j] = mono1.T @ (rule.weights * divw)
        wv = np.einsum("pm,mc->pc",
                       ps.mono_eval(ps.monomial_exponents(2, k + 2), xi), w)
        rhs[j] = -np.sum(rule.weights * np.sum(grad_vals * wv, axis=1))
        for eid in num.edge_ids:
            ectx = view.edges[eid]
            er = ectx.rule
            xi_e = g.local_coords(er.points)
            we = np.einsum("pm,mc->pc",
                           ps.mono_eval(ps.monomial_exponents(2, k + 2), xi_e), w)
            wn = we @ (g.axes @ num.edge_nfe[eid])
            sk = oracles.skeleton_map(ectx, num.grad_vert_pos,
                                      num.grad_edge_slices[eid],
                                      fctx.n_grad) @ qloc
            qe = ectx.sca[k + 1].eval(er.points) @ sk
            rhs[j] += num.edge_sign[eid] * np.sum(er.weights * qe * wn)
    coef = np.linalg.solve(M, rhs)
    oracle = mono1 @ coef
    mine = fctx.sca[k + 1].eval(rule.points) @ (fctx.trace_mat @ qloc)
    assert np.abs(mine - oracle).max() < 1e-10 * (np.abs(oracle).max() + 1)


def test_element_gradient_vs_monomial_oracle(hex_cx):
    # re-solve the element moment system in a raw monomial vector基 basis
    cx = hex_cx
    k = cx.k
    view = oracles.views(cx)
    cctx = view.cells[0]
    num = oracles.cell_numbering(cx.layouts, 0)
    g = cctx.geom
    rule = cctx.rule
    rng = np.random.default_rng(10)
    qloc = rng.standard_normal(cctx.n_grad)

    exps_k = ps.monomial_exponents(3, k)
    nm = len(exps_k)
    xi = g.local_coords(rule.points)
    mono = ps.mono_eval(exps_k, xi)

    # R^k family: curls of vector monomials deg <= k+1 (SVD-reduced),
    # plus Rc^k family (x - x_T) m
    fam = []
    exps_k1 = ps.monomial_exponents(3, k + 1)
    for i in range(len(exps_k1)):
        co = np.zeros(len(exps_k1))
        co[i] = 1.0
        D = [ps.deriv_matrix(3, k + 1, a) @ co / g.scale for a in range(3)]
        z = np.zeros_like(D[0])
        fam.extend([np.stack([z, D[2], -D[1]], axis=-1)[:nm],
                    np.stack([-D[2], z, D[0]], axis=-1)[:nm],
                    np.stack([D[1], -D[0], z], axis=-1)[:nm]])
    A = np.array([f.reshape(-1) for f in fam])
    _, sv, vt = np.linalg.svd(A, full_matrices=False)
    rk = vt[:int(np.sum(sv > 1e-10 * sv[0]))].reshape(-1, nm, 3)
    up = [ps.raise_matrix(3, k - 1, a) for a in range(3)]
    tau = []
    for i in range(len(ps.monomial_exponents(3, k - 1))):
        co = np.zeros(len(ps.monomial_exponents(3, k - 1)))
        co[i] = 1.0
        tau.append(g.scale * np.stack([u @ co for u in up], axis=-1))
    fam = list(rk) + tau

    M = np.zeros((len(fam), 3 * nm))
    rhs = np.zeros(len(fam))
    ell = cx.layouts[SpaceKind.GRAD].ell
    qcell = (cctx.sca[ell].eval(rule.points)
             @ qloc[cctx.own[SpaceKind.GRAD][0]]) if ell >= 0 else 0.0
    gl = cx.layouts[SpaceKind.GRAD]
    for j, w in enumerate(fam):
        wv = np.einsum("pm,mc->pc", mono, w)
        for a in range(3):
            M[j, a * nm:(a + 1) * nm] = mono.T @ (rule.weights * wv[:, a])
        is_tau = j >= len(rk)
        for fid in num.face_ids:
            fctx = view.faces[fid]
            fr = fctx.rule
            xi_f = g.local_coords(fr.points)
            wf = np.einsum("pm,mc->pc", ps.mono_eval(exps_k, xi_f), w)
            wn = wf @ cx.mesh.face_normal[fid]
            tr = fctx.sca[k + 1].eval(fr.points) @ (
                fctx.trace_mat @ qloc[num.grad_face_map[fid]])
            rhs[j] += num.face_sign[fid] * np.sum(fr.weights * tr * wn)
        if is_tau:
            dco = sum(ps.deriv_matrix(3, k, a) @ w[:, a] / g.scale
                      for a in range(3))
            rhs[j] -= np.sum(rule.weights * qcell * (mono @ dco))
    coef = np.linalg.solve(M, rhs)
    oracle = np.stack([mono @ coef[a * nm:(a + 1) * nm] for a in range(3)],
                      axis=-1)
    mine = np.einsum("pbc,b->pc", cctx.vb.eval(rule.points),
                     cctx.grad_mat @ qloc)
    assert np.abs(mine - oracle).max() < 1e-9 * (np.abs(oracle).max() + 1)


# -- global operators -----------------------------------------------------------

@pytest.mark.parametrize("family,n,k", [("cubic", 2, 0), ("cubic", 1, 1),
                                        ("tet", 1, 1)])
def test_complex_property_random(family, n, k):
    cx = get_complex(family, n, k)
    gl = cx.layouts[SpaceKind.GRAD]
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = DofVector(gl, rng.standard_normal(gl.total_dim))
        z = cx.global_curl(cx.global_gradient(q))
        scale = cx.norm(SpaceKind.CURL, cx.global_gradient(q)) + 1e-30
        assert cx.norm(SpaceKind.DIV, z) <= 1e-12 * max(scale, 1.0)


def test_interpolators_skip_empty_blocks():
    """At k=0 the GRAD space has vertex values only, CURL edge moments only
    and DIV face moments only, so each interpolator evaluates its field at
    those points and nowhere else."""
    cx = get_complex("cubic", 2, 0)
    view = oracles.views(cx)
    seen = []

    def counted(fun):
        def wrapped(pts):
            seen.append(pts)
            return fun(pts)
        return wrapped

    cases = [(cx.interpolate_grad, lambda pts: pts[:, 0],
              [cx.mesh.vertex_coords]),
             (cx.interpolate_curl, lambda pts: pts,
              [e.rule.points for e in view.edges]),
             (cx.interpolate_div, lambda pts: pts,
              [f.rule.points for f in view.faces])]
    for interpolate, fun, expected in cases:
        seen.clear()
        interpolate(counted(fun))
        assert np.array_equal(np.vstack(seen), np.vstack(expected))


def test_serendipity_moment_consistency(hex_cx):
    # gradient serendipity moments reproduce int grad(q) . tau at interpolates
    cx = hex_cx
    k = cx.k
    q, gq = _poly_scalar(k + 1, seed=12)
    iq = cx.interpolate_grad(q)
    cctx = oracles.views(cx).cells[0]
    gl = cx.layouts[SpaceKind.GRAD]
    mom = cctx.serendipity_grad @ iq.values[gl.cell_indices(0)]
    sub = cctx.sub["Rc", k]
    gvals = gq(cctx.rule.points)
    ref = np.einsum("pbc,pc->b",
                    sub.eval(cctx.rule.points) * cctx.rule.weights[:, None, None],
                    gvals)
    assert np.abs(mom - ref).max() < 1e-11 * (np.abs(ref).max() + 1)

    v, _ = _poly_vector(k, seed=13)
    iv = cx.interpolate_curl(v)
    cl = cx.layouts[SpaceKind.CURL]
    mom = cctx.serendipity_curl @ iv.values[cl.cell_indices(0)]
    vvals = v(cctx.rule.points)
    ref = np.einsum("pbc,pc->b",
                    sub.eval(cctx.rule.points) * cctx.rule.weights[:, None, None],
                    vvals)
    assert np.abs(mom - ref).max() < 1e-11 * (np.abs(ref).max() + 1)


# -- products and norms -----------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1])
def test_products_spd_symmetric(k):
    cx = get_complex("cubic", 2, k)
    for cctx in oracles.views(cx).cells[:2]:
        for P in (cctx.product_grad, cctx.product_curl, cctx.product_div):
            assert np.abs(P - P.T).max() < 1e-12 * (np.abs(P).max() + 1)
            ev = np.linalg.eigvalsh(0.5 * (P + P.T))
            assert ev[0] > 1e-12 * ev[-1]
    rng = np.random.default_rng(1)
    cl = cx.layouts[SpaceKind.CURL]
    x = DofVector(cl, rng.standard_normal(cl.total_dim))
    y = DofVector(cl, rng.standard_normal(cl.total_dim))
    assert cx.l2_product("curl", x, y) == pytest.approx(
        cx.l2_product("curl", y, x), abs=1e-13 * cx.norm("curl", x)
        * cx.norm("curl", y))
    assert cx.l2_product("curl", x, x) > 0


# the cube cases are named by k alone
@pytest.mark.parametrize("mesh,k", [
    pytest.param(mesh, k, id=str(k) if mesh == "cubic" else f"{mesh}-{k}")
    for mesh in ("cubic", "tet", "pentagon-prism") for k in (0, 1, 2)])
def test_stabilisation_vanishes_at_interpolates(mesh, k):
    """The cell products are P^T P + s_T with no projection, so s_T itself
    must vanish on the interpolates of P^{k+1} scalars (GRAD) and of P^k
    fields (CURL, DIV), on every cell."""
    cx = (DdrComplex(pentagon_prism_mesh(), k) if mesh == "pentagon-prism"
          else get_complex(mesh, 1, k))
    q, _ = _poly_scalar(k + 1, seed=k)
    v, _ = _poly_vector(k, seed=k + 1)
    for kind, dofs in ((SpaceKind.GRAD, cx.interpolate_grad(q)),
                       (SpaceKind.CURL, cx.interpolate_curl(v)),
                       (SpaceKind.DIV, cx.interpolate_div(v))):
        lay = cx.layouts[kind]
        for c, cctx in enumerate(oracles.views(cx).cells):
            prod = getattr(cctx, f"product_{kind.value}")
            pot = getattr(cctx, f"pot_{kind.value}")
            loc = dofs.values[lay.cell_indices(c)]
            stab = loc @ (prod - pot.T @ pot) @ loc
            assert abs(stab) < 1e-10 * max(loc @ prod @ loc, 1.0), (kind, c)


def test_ls_norm_s2_matches_product_norm():
    cx = get_complex("cubic", 2, 1)
    cl = cx.layouts[SpaceKind.CURL]
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = DofVector(cl, rng.standard_normal(cl.total_dim))
        assert oracles.ls_curl_norm(cx, 2.0, v) == pytest.approx(
            cx.norm("curl", v), rel=1e-11)


def test_graph_norm_properties():
    cx = get_complex("cubic", 2, 0)
    cl = cx.layouts[SpaceKind.CURL]
    gl = cx.layouts[SpaceKind.GRAD]
    assert cx.graph_norm(DofVector.zeros(cl)) == 0.0
    rng = np.random.default_rng(4)
    # gradients sit in the kernel of the discrete curl: graph norm = CURL norm
    q = DofVector(gl, rng.standard_normal(gl.total_dim))
    v = cx.global_gradient(q)
    assert cx.graph_norm(v) == pytest.approx(cx.norm("curl", v), rel=1e-10)
    # recomputation oracle
    w = DofVector(cl, rng.standard_normal(cl.total_dim))
    cw = cx.global_curl(w)
    ref = np.sqrt(cx.l2_product("curl", w, w) + cx.l2_product("div", cw, cw))
    assert cx.graph_norm(w) == pytest.approx(ref, rel=1e-12)


def test_potential_norm_constant_cell():
    cx = get_complex("cubic", 1, 0)
    cvec = np.array([0.0, 0.0, 2.0])
    iv = cx.interpolate_curl(lambda pts: np.tile(cvec, (len(pts), 1)))
    loc = iv.values[cx.layouts[SpaceKind.CURL].cell_indices(0)]
    val = oracles.member_norm(cx.potential_norms, cx.cells[0], 2.0, loc)
    assert val == pytest.approx(2.0 * np.sqrt(1.0), rel=1e-10)  # |c| sqrt|T|
    assert oracles.member_norm(cx.component_norms, cx.cells[0], 2.0,
                               np.zeros_like(loc)) == 0.0


@pytest.mark.parametrize("s", [2.0, 4.0])
@pytest.mark.parametrize("family", ["cubic", "tet"])
def test_constant_field_potential_norms_are_closed_form(family, s):
    # the trace mismatches of a constant field vanish, on faces as on
    # cells, so only the potential itself is left: |c_t| |F|^{1/s} on a
    # face (a square or a Kuhn triangle) and |c| |T|^{1/s} on a cell
    cx = get_complex(family, 1, 1)
    cvec = np.array([0.3, -1.2, 0.7])
    iv = cx.interpolate_curl(lambda pts: np.tile(cvec, (len(pts), 1)))
    cl = cx.layouts[SpaceKind.CURL]
    normal = cx.mesh.face_normal[0]
    c_t = cvec - (cvec @ normal) * normal
    assert oracles.member_norm(
        cx.potential_norms, oracles.views(cx).faces[0], s,
        iv.values[cl.face_table([0])[0]]) == \
        pytest.approx(np.linalg.norm(c_t) * cx.mesh.face_area[0] ** (1 / s),
                      rel=1e-12)
    assert oracles.member_norm(
        cx.potential_norms, cx.cells[0], s,
        iv.values[cl.cell_indices(0)]) == pytest.approx(np.linalg.norm(cvec) * cx.mesh.cell_volume[0]
                      ** (1 / s), rel=1e-12)


def test_norm_ratio_brackets_random():
    # potential / component ratio within a fixed bracket (monitored; the
    # cross-level stability is asserted in the acceptance suite)
    cx = get_complex("cubic", 2, 1)
    rng = np.random.default_rng(6)
    ratios = []
    for c in range(cx.mesh.n_cells):
        for _ in range(5):
            cell = cx.cells[c]
            v = rng.standard_normal(cell.group.n_curl)
            ratios.append(
                oracles.member_norm(cx.potential_norms, cell, 2.0, v)
                / oracles.member_norm(cx.component_norms, cell, 2.0, v))
    assert 1e-2 < min(ratios) and max(ratios) < 1e2


def test_global_component_potential_norms():
    cx = get_complex("cubic", 1, 0)
    cl = cx.layouts[SpaceKind.CURL]
    z = DofVector.zeros(cl)
    assert oracles.component_norm(cx, 2.0, z) == 0.0
    assert oracles.potential_norm(cx, 2.0, z) == 0.0
    cvec = np.array([0.0, 0.0, 2.0])
    iv = cx.interpolate_curl(lambda pts: np.tile(cvec, (len(pts), 1)))
    # constant interpolate: potential norm is |c| sqrt|T|, jumps vanish
    assert oracles.potential_norm(cx, 2.0, iv) == pytest.approx(2.0, rel=1e-10)
    # ratio potential/component within a fixed bracket across refinements
    ratios = {}
    rng = np.random.default_rng(7)
    for n in (1, 2):
        cxx = get_complex("cubic", n, 1)
        cll = cxx.layouts[SpaceKind.CURL]
        v = DofVector(cll, rng.standard_normal(cll.total_dim))
        ratios[n] = (oracles.potential_norm(cxx, 2.0, v)
                     / oracles.component_norm(cxx, 2.0, v))
    assert 0.05 < ratios[1] < 20 and 0.05 < ratios[2] < 20


def test_face_level_appendix_norms():
    cx = get_complex("cubic", 2, 1)
    rng = np.random.default_rng(8)
    faces = oracles.views(cx).faces
    for f in (0, 5):
        fctx = faces[f]
        v = rng.standard_normal(fctx.n_curl)
        t = oracles.member_norm(cx.component_norms, fctx, 2.0, v)
        p = oracles.member_norm(cx.potential_norms, fctx, 2.0, v)
        assert t > 0 and p > 0
        assert 1e-2 < p / t < 1e2
        assert oracles.member_norm(cx.component_norms, fctx, 2.0,
                                   np.zeros_like(v)) == 0.0
