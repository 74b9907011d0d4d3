"""Acceptance criteria, one printed PASS/FAIL line per criterion.

Each criterion runs standalone at its stated tolerance.

Criterion 4 asserts the order the scheme's error estimates prove: they bound
the velocity error by C h^{k+1}, so an observed rate is checked against a
lower end, EOC >= k + lo_off.  The upper end k + hi_off is not part of any
estimate and is only reported: an EOC above it is flagged superconvergent in
the ACCEPTANCE line.  On uniform cubes the discrete errors (u_h - I u and
p_h - I p in discrete norms) converge faster than h^{k+1}, with rates rising
towards k + 2, and E^p_u adds that part to an O(h^{k+1}) approximation part,
so its rate stays above k + 1 until the approximation part dominates.

The rates are read past the pre-asymptotic range of the 2*pi benchmark.  At
k = 0 the pair is n = 6 -> 12: on 4 -> 8, E^p_u does not even decrease
(5.714 at n=4, 5.844 at n=6, 4.671 at n=8) before it falls to 2.800 at n=12
and 1.818 at n=16.  At k = 1 the pair is n = 4 -> 8, the finest one the
current setup cost allows.  Measured EOCs (cubic, nu = 1, lambda = 1; in
brackets the solver-free rate of the potential of uC I_curl u against
curl u):

    k  pair     E^d_u  E^p_u         E^d_p
    0  4->6     0.71   -0.06         0.58
    0  4->8     0.95    0.29 (0.88)  0.66
    0  6->12    1.48    1.06 (0.95)  1.18   <- asserted
    0  8->16    1.69    1.36 (0.97)  1.60
    0  12->16   1.80    1.50         1.76
    1  4->6     3.38    3.31 (1.79)  1.85
    1  6->8     3.18    3.02 (1.90)  2.00
    1  4->8     3.30    3.19         1.91   <- asserted

k = 1 beyond n = 8 is not measured.
"""

import numpy as np
import pytest

from ddrns import polyspaces as ps
from ddrns import verify
from ddrns.cli import main as cli_main
from ddrns.operators import DdrComplex
from ddrns.solutions import TrigSolution
from ddrns.solver import (NavierStokesSolver, ProblemSpec, natural_bc,
                          pressflux_bc)
from ddrns.spaces import DofVector, SpaceKind
from conftest import get_complex, random_hex_mesh, random_tet_mesh

import oracles

MESH_SET = [("cubic", 1), ("cubic", 2), ("tet", 1)]
DEGREES = [0, 1, 2]


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    # also bypass pytest's capture so the per-criterion lines always land in
    # the session transcript
    import sys
    print(line, file=sys.__stdout__)
    assert passed, line


# -- criterion 1: complex property ------------------------------------------------

@pytest.mark.parametrize("k", DEGREES)
def test_criterion_1_complex_property(k):
    rng = np.random.default_rng(100 + k)
    worst = 0.0
    for family, n in MESH_SET:
        cx = get_complex(family, n, k)
        gl = cx.layouts[SpaceKind.GRAD]
        for _ in range(100):
            q = DofVector(gl, rng.standard_normal(gl.total_dim))
            g = cx.global_gradient(q)
            z = cx.global_curl(g)
            scale = max(cx.norm(SpaceKind.CURL, g), 1e-30)
            worst = max(worst, cx.norm(SpaceKind.DIV, z) / scale)
    report(f"1 [complex property, k={k}]", worst <= 1e-12,
           f"max |uC uG q| / |uG q| = {worst:.2e}")


# -- criterion 2: polynomial consistency ------------------------------------------

@pytest.mark.parametrize("k", DEGREES)
@pytest.mark.parametrize("shape", ["hexahedron", "tetrahedron"])
def test_criterion_2_polynomial_consistency(shape, k):
    mesh = random_hex_mesh() if shape == "hexahedron" else random_tet_mesh()
    cx = DdrComplex(mesh, k)
    err = verify._consistency_error(cx)
    gl = cx.layouts[SpaceKind.GRAD]
    # face traces at the same monomial set
    exps = ps.monomial_exponents(3, k + 1)
    for i in range(len(exps)):
        co = np.zeros(len(exps))
        co[i] = 1.0
        q = lambda pts: ps.mono_eval(exps, pts) @ co
        iq = cx.interpolate_grad(q)
        for f, fctx in enumerate(oracles.views(cx).faces):
            loc = iq.values[gl.face_table([f])[0]]
            vals = fctx.sca[k + 1].eval(fctx.rule.points) @ (fctx.trace_mat @ loc)
            ref = q(fctx.rule.points)
            err = max(err, np.abs(vals - ref).max() / (np.abs(ref).max() + 1))
    report(f"2 [consistency, {shape}, k={k}]", err <= 1e-10,
           f"max relative L-inf error {err:.2e}")


# -- criterion 3: commutation ------------------------------------------------------

@pytest.mark.parametrize("k", DEGREES)
def test_criterion_3_commutation(k):
    worst = 0.0
    for family, n in MESH_SET:
        cx = get_complex(family, n, k)
        worst = max(worst, verify._commutation_error(cx))
    report(f"3 [commutation, k={k}]", worst <= 1e-11,
           f"max coefficient error {worst:.2e}")


# -- criterion 4: convergence rates ------------------------------------------------

LEVELS = (2, 4, 8)                    # the ladder criterion 7 reads
RATE_PAIRS = {0: (6, 12), 1: (4, 8)}  # the level pair criterion 4 reads


@pytest.fixture(scope="module")
def trig_runs():
    """Converged solutions and error reports of the scaled-down benchmark.

    The EOCs attached to the finer report of each RATE_PAIRS pair are the
    rates of that pair.
    """
    sol = TrigSolution(nu=1.0, lam=1.0)
    runs = {}
    for k, pair in RATE_PAIRS.items():
        for n in sorted(set(LEVELS) | set(pair)):
            cx = get_complex("cubic", n, k)
            spec = ProblemSpec(nu=1.0, forcing=sol.forcing,
                               regions=natural_bc())
            solver = NavierStokesSolver(cx, spec)
            result = solver.solve()
            rep = verify.compute_errors(cx, result.u, result.p, sol)
            rep.newton_iterations = result.diagnostics.iterations
            runs[k, n] = (cx, solver, result, rep)
        verify.attach_eoc([runs[k, n][3] for n in pair])
    return runs


@pytest.mark.parametrize("quantity,lo_off,hi_off", [
    ("E^d_u", 0.7, 1.5), ("E^p_u", 0.7, 1.5), ("E^d_p", 0.6, 1.5)])
@pytest.mark.parametrize("k", [0, 1])
def test_criterion_4_convergence(trig_runs, k, quantity, lo_off, hi_off):
    coarse, fine = RATE_PAIRS[k]
    eoc = trig_runs[k, fine][3].eoc[quantity]
    lo, hi = k + lo_off, k + hi_off
    upper = (f"superconvergent: above k+{hi_off} = {hi:.1f}" if eoc > hi
             else f"at most k+{hi_off} = {hi:.1f}")
    report(f"4 [EOC {quantity}, k={k}, n={coarse}->{fine}]", eoc >= lo,
           f"EOC = {eoc:.3f}, lower end k+{lo_off} = {lo:.1f}, {upper}")


# -- criterion 5: pressure robustness ----------------------------------------------

def test_criterion_5_pressure_robustness():
    cx = get_complex("cubic", 4, 0)
    sols = {}
    for lam in (1.0, 100.0):
        s = TrigSolution(nu=1.0, lam=lam)
        spec = ProblemSpec(nu=1.0, forcing=s.forcing, regions=natural_bc())
        res = NavierStokesSolver(cx, spec).solve()
        sols[lam] = (res, verify.compute_errors(cx, res.u, res.p, s))
    dof_diff = (np.linalg.norm(sols[1.0][0].u.values - sols[100.0][0].u.values)
                / np.linalg.norm(sols[1.0][0].u.values))
    e1, e2 = sols[1.0][1], sols[100.0][1]
    du = abs(e1.err_u_discrete - e2.err_u_discrete) / e1.err_u_discrete
    pu = abs(e1.err_u_potential - e2.err_u_potential) / e1.err_u_potential
    ok = dof_diff <= 1e-5 and du <= 0.05 and pu <= 0.05
    report("5 [pressure robustness]", ok,
           f"velocity DoF rel diff {dof_diff:.2e}, "
           f"E^d_u rel diff {du:.2e}, E^p_u rel diff {pu:.2e}")


# -- criterion 6: trilinear skew-symmetry -------------------------------------------

@pytest.mark.parametrize("k", DEGREES)
def test_criterion_6_trilinear_skew(k):
    rng = np.random.default_rng(600 + k)
    worst = 0.0
    sol = TrigSolution()
    for family, n in MESH_SET:
        cx = get_complex(family, n, k)
        spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
        s = NavierStokesSolver(cx, spec)
        cl = cx.layouts[SpaceKind.CURL]
        for _ in range(100):
            u = rng.standard_normal(s.n_u)
            scale = max(cx.norm("curl", DofVector(cl, u)) ** 3, 1e-30)
            worst = max(worst, abs(s.trilinear(u, u, u)) / scale)
    report(f"6 [trilinear skew, k={k}]", worst <= 1e-12,
           f"max |t(u;u,u)| / |u|^3 = {worst:.2e}")


# -- criterion 7: energy identity and a priori bound --------------------------------

def test_criterion_7_energy_and_apriori(trig_runs):
    lines = []
    ok = True
    poincare_cache = {}
    for k in (0, 1):
        for n in LEVELS:
            cx, solver, result, _ = trig_runs[k, n]
            ucu = cx.global_curl(result.u)
            lhs = solver.spec.nu * cx.l2_product("div", ucu, ucu)
            rhs = cx.l2_product("curl", solver.i_f, result.u)
            energy_ok = abs(lhs - rhs) <= 1e-8 * abs(rhs)
            dim = cx.layouts[SpaceKind.CURL].total_dim
            if dim <= verify.DENSE_CAP:
                cp = verify.estimate_poincare(cx)
                poincare_cache[k] = cp
                src = "same mesh"
            else:
                cp = poincare_cache[k]  # finest feasible level of this k
                src = "finest feasible level (dense cap)"
            bound = cp / solver.spec.nu * cx.norm("curl", solver.i_f)
            apriori_ok = cx.norm("div", ucu) <= bound
            ok &= energy_ok and apriori_ok
            lines.append(f"k={k} n={n}: energy {lhs:.6e} vs {rhs:.6e}; "
                         f"|uC u|={cx.norm('div', ucu):.4f} <= "
                         f"{bound:.4f} (C_p {src})")
    report("7 [energy identity + a priori bound]", ok, "; ".join(lines))


# -- criterion 8: exactness ----------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1])
def test_criterion_8_exactness(k):
    defects = []
    for family, n in MESH_SET:
        rep = oracles.check_exactness(get_complex(family, n, k))
        defects.append(rep.rank_gradient - rep.nullity_curl)
    report(f"8 [exactness bookkeeping, k={k}]", all(d == 0 for d in defects),
           f"rank uG - dim ker uC = {defects} on cubic n=1,2 and tet n=1")


# -- criterion 9: Appendix norm brackets ---------------------------------------------

@pytest.mark.parametrize("k", [0, 1])
def test_criterion_9_norm_brackets(k):
    brackets = {}
    caps = {}
    for n in (2, 4):
        cx = get_complex("cubic", n, k)
        rng = np.random.default_rng(900 + k)
        # the cubes are one group whose member c is cell c: vector i sits
        # on cell i % n_cells, one group call per norm
        g, = cx.cell_groups
        c = np.arange(100) % cx.mesh.n_cells
        V = rng.standard_normal((100, g.n_curl))
        t2 = cx.component_norms(2.0, g, c, V)
        t4 = cx.component_norms(4.0, g, c, V)
        p2 = cx.potential_norms(2.0, g, c, V)
        h, w = g.chart.scale[c], g.weights[c]
        eq = p2 / t2
        leb = t2 / (h ** (3 * (1 / 2 - 1 / 4)) * t4)
        pv = cx.potential_values(SpaceKind.CURL, g, c, V)
        bp = np.sqrt(np.sum(w * np.sum(pv**2, axis=-1), axis=1)) / t2
        cv = g.phi_k[c] @ (g.curl_op[g.row[c]] @ V[..., None]).reshape(
            100, -1, 3)
        bd = h * np.sqrt(np.sum(w * np.sum(cv**2, axis=-1), axis=1)) / t2
        brackets[n] = ((min(eq), max(eq)), (min(leb), max(leb)))
        caps[n] = (max(bp), max(bd))
    ok = True
    for which in (0, 1):
        for side in (0, 1):
            a = brackets[2][which][side]
            b = brackets[4][which][side]
            ok &= max(a / b, b / a) < 2.0
    # observed boundedness caps for the potential and the discrete derivative:
    # recorded, and not growing by more than 2x between levels
    ok &= caps[4][0] <= 2.0 * caps[2][0] and caps[4][1] <= 2.0 * caps[2][1]
    report(f"9 [norm-equivalence / Lebesgue brackets, k={k}]", ok,
           f"equivalence n=2 {brackets[2][0][0]:.3f}..{brackets[2][0][1]:.3f} "
           f"vs n=4 {brackets[4][0][0]:.3f}..{brackets[4][0][1]:.3f}; "
           f"lebesgue n=2 {brackets[2][1][0]:.3f}..{brackets[2][1][1]:.3f} "
           f"vs n=4 {brackets[4][1][0]:.3f}..{brackets[4][1][1]:.3f}; "
           f"bound caps P {caps[2][0]:.3f}->{caps[4][0]:.3f}, "
           f"d {caps[2][1]:.3f}->{caps[4][1]:.3f}")


# -- criterion 10: pressure-flux smoke -----------------------------------------------

def test_criterion_10_pressflux_smoke(tmp_path):
    zero_f = lambda pts: np.zeros((len(pts), 3))
    cx = get_complex("cubic", 4, 0)
    spec = ProblemSpec(nu=0.01, forcing=zero_f, regions=pressflux_bc())
    res = NavierStokesSolver(cx, spec).solve()
    its = res.diagnostics.iterations
    nu_graph = np.hypot(cx.norm("curl", res.u),
                        cx.norm("div", cx.global_curl(res.u)))
    np_graph = np.hypot(cx.norm("grad", res.p),
                        cx.norm("curl", cx.global_gradient(res.p)))
    finite = np.isfinite(nu_graph) and np.isfinite(np_graph)
    # bit-identical rerun through the CLI
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main(["--cmd", "pressflux", "--mesh", "cubic", "--levels",
                       "4", "--k", "0", "--re", "100", "--out", str(out)])
        assert rc == 0
        outs.append((out / "pressflux_k0.csv").read_bytes())
    identical = outs[0] == outs[1]
    ok = its <= 20 and finite and identical
    report("10 [pressure-flux smoke]", ok,
           f"{its} newton its, |u|={nu_graph:.6f}, |p|={np_graph:.6f}, "
           f"rerun identical: {identical}")


# -- criterion 11: Jacobian check ------------------------------------------------------

def test_criterion_11_jacobian_fd():
    sol = TrigSolution()
    cx = get_complex("cubic", 1, 1)
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
    s = NavierStokesSolver(cx, spec)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(s.n_x)
    d = rng.standard_normal(s.n_x)
    u = x[:s.n_u]
    J = np.zeros((s.n_x, s.n_x))
    for cell in oracles.solver_cells(s):
        iu, ip = cell["idxu"], cell["idxp"]
        J[np.ix_(iu, iu)] += oracles.kernel_jacobian(s, cell, u[iu], True)
        J[np.ix_(iu, s.n_u + ip)] += cell["B"]
        J[np.ix_(s.n_u + ip, iu)] += -cell["B"].T
        if s.use_multiplier:
            J[s.n_u + ip, -1] += cell["c_loc"]
            J[-1, s.n_u + ip] += cell["c_loc"]
    R = s.residual(x)
    eps_list = (1e-4, 1e-5, 1e-6)
    errs = [np.linalg.norm((s.residual(x + e * d) - R) / e - J @ d)
            / np.linalg.norm(J @ d) for e in eps_list]
    slopes = [np.log10(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(0.8 <= sl <= 1.2 for sl in slopes)
    report("11 [Jacobian finite-difference slope]", ok,
           f"errors {['%.2e' % e for e in errs]}, slopes "
           f"{['%.3f' % sl for sl in slopes]}")
