import pickle

import numpy as np
import pytest

from ddrns.operators import DdrComplex
from ddrns.solutions import TrigSolution
from ddrns.solver import (BCRegion, EmptyRegionError, NavierStokesSolver,
                          NonConvergenceError, ProblemSpec, SolverError,
                          SolverOptions, essential_bc, natural_bc,
                          pressflux_bc)
from ddrns.spaces import DofVector, SpaceKind
from conftest import get_complex

import oracles

ZERO_F = lambda pts: np.zeros((len(pts), 3))


def make_solver(family, n, k, nu=1.0, lam=1.0, regions=None, **opts):
    sol = TrigSolution(nu=nu, lam=lam)
    cx = get_complex(family, n, k)
    spec = ProblemSpec(nu=nu, forcing=sol.forcing,
                       regions=regions or natural_bc(),
                       exact_velocity=sol.velocity, exact_pressure=sol.pressure)
    return cx, sol, NavierStokesSolver(cx, spec, SolverOptions(**opts))


# -- trilinear form -------------------------------------------------------------

@pytest.mark.parametrize("family,n,k", [("cubic", 1, 0), ("cubic", 1, 2),
                                        ("cubic", 2, 1), ("tet", 1, 1)])
def test_trilinear_skew(family, n, k):
    cx, _, s = make_solver(family, n, k)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(s.n_u)
        scale = cx.norm("curl", DofVector(cx.layouts[SpaceKind.CURL], u)) ** 3
        assert abs(s.trilinear(u, u, u)) <= 1e-12 * max(scale, 1e-30)


def test_trilinear_zero_first_argument():
    cx, _, s = make_solver("cubic", 1, 1)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(s.n_u)
    v = rng.standard_normal(s.n_u)
    assert s.trilinear(np.zeros(s.n_u), b, v) == 0.0


def test_trilinear_single_cube_quadrature_oracle():
    # brute-force quadrature of the three reconstructed potentials
    cx, _, s = make_solver("cubic", 1, 0)
    rng = np.random.default_rng(2)
    ua, ub, uv = (rng.standard_normal(s.n_u) for _ in range(3))
    cctx = oracles.views(cx).cells[0]
    a = cx.potential_values(SpaceKind.DIV, cctx.group, [cctx.index],
                            (cctx.uC @ ua)[None])[0]
    b = cx.curl_potential_values(0, ub)
    v = cx.curl_potential_values(0, uv)
    ref = np.sum(cctx.rule.weights * np.einsum("pc,pc->p", np.cross(a, b), v))
    assert s.trilinear(ua, ub, uv) == pytest.approx(ref, rel=1e-12)


# -- residual ---------------------------------------------------------------------

def test_zero_data_zero_residual():
    cx = get_complex("cubic", 1, 0)
    spec = ProblemSpec(nu=1.0, forcing=ZERO_F, regions=natural_bc())
    s = NavierStokesSolver(cx, spec)
    R = s.residual(np.zeros(s.n_x))
    assert np.abs(R).max() == 0.0


def test_zero_data_zero_solution():
    cx = get_complex("cubic", 2, 0)
    spec = ProblemSpec(nu=1.0, forcing=ZERO_F, regions=natural_bc())
    res = NavierStokesSolver(cx, spec).solve()
    assert np.abs(res.u.values).max() < 1e-12
    assert np.abs(res.p.values).max() < 1e-12


def test_residual_at_interpolate_decreases():
    # consistency: the residual at the exact interpolate shrinks with h
    norms = []
    for n in (2, 4):
        cx, sol, s = make_solver("cubic", n, 0)
        x = s.initial_state()
        x[:s.n_u] = cx.interpolate_curl(sol.velocity).values
        x[s.n_u:s.n_u + s.n_p] = cx.interpolate_grad(sol.pressure).values
        norms.append(s.residual_norm(s.residual(x)))
    assert norms[1] < 0.6 * norms[0]


# -- boundary conditions ------------------------------------------------------------

def test_homogeneous_natural_unchanged():
    cx, _, s = make_solver("cubic", 1, 0)
    assert np.abs(s.flux_vec).max() == 0.0
    assert s.fixed_u.sum() == 0 and s.fixed_p.sum() == 0
    assert s.use_multiplier


def test_flux_patch_rhs_quadrature_oracle():
    # mass-row load on the inflow patch equals int_F g gamma_F(basis)
    cx = get_complex("cubic", 4, 0)
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=pressflux_bc())
    s = NavierStokesSolver(cx, spec)
    patch = [f for f in s.classification.natural_faces
             if s.region_of_face[f].flux is not None]
    assert len(patch) == 1
    fid = patch[0]
    fctx = oracles.views(cx).faces[fid]
    lay = cx.layouts[SpaceKind.GRAD]
    ref = np.zeros(s.n_p)
    phi = fctx.sca[cx.k + 1].eval(fctx.rule.points)
    ref[lay.face_table([fid])[0]] = fctx.rule.weights @ (phi @ fctx.trace_mat)
    np.testing.assert_allclose(s.flux_vec, ref, atol=1e-14)
    # and the mass-row residual at the zero state is exactly this load
    R = s.residual(s.initial_state() * 0.0)
    np.testing.assert_allclose(R[s.n_u:s.n_u + s.n_p], ref, atol=1e-14)


def test_full_essential_zero_data():
    cx = get_complex("cubic", 2, 1)
    regions = essential_bc(ZERO_F, lambda pts: np.zeros(len(pts)))
    spec = ProblemSpec(nu=1.0, forcing=ZERO_F, regions=regions)
    s = NavierStokesSolver(cx, spec)
    assert not s.use_multiplier
    res = s.solve()
    assert np.abs(res.u.values[s.fixed_u]).max() == 0.0
    assert np.abs(res.u.values).max() < 1e-12


def test_essential_bc_interpolated_data():
    sol = TrigSolution()
    cx = get_complex("cubic", 2, 0)
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing,
                       regions=essential_bc(sol.velocity, sol.pressure))
    s = NavierStokesSolver(cx, spec)
    res = s.solve()
    assert res.diagnostics.converged
    iu = cx.interpolate_curl(sol.velocity)
    ip = cx.interpolate_grad(sol.pressure)
    np.testing.assert_array_equal(res.u.values[s.fixed_u],
                                  iu.values[s.fixed_u])
    np.testing.assert_array_equal(res.p.values[s.fixed_p],
                                  ip.values[s.fixed_p])


def test_uniform_flow_reproduced_exactly():
    # known exact solution through the cube: u = e_x, p = 0
    ex = lambda pts: np.tile([1.0, 0.0, 0.0], (len(pts), 1))
    regions = [
        BCRegion("essential", where=lambda x: abs(x[0]) < 1e-12,
                 velocity=ex, pressure=lambda pts: np.zeros(len(pts))),
        BCRegion("natural", where=lambda x: abs(x[0] - 1) < 1e-12,
                 flux=lambda pts: np.ones(len(pts))),
        BCRegion("natural"),
    ]
    for k in (0, 1):
        cx = get_complex("cubic", 2, k)
        spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=regions)
        res = NavierStokesSolver(cx, spec).solve()
        iu = cx.interpolate_curl(ex)
        assert np.abs(res.u.values - iu.values).max() < 1e-11
        assert np.abs(res.p.values).max() < 1e-11


# -- Newton machinery -----------------------------------------------------------------

def test_stokes_limit_single_linear_solve():
    cx, sol, s = make_solver("cubic", 2, 0)
    x = s.initial_state()
    R = s.residual(x, with_convection=False)
    x1 = x + s.newton_step(x, R, with_convection=False)
    assert s.residual_norm(s.residual(x1, with_convection=False)) < 1e-10


def test_condensation_matches_full_solve():
    _, _, s = make_solver("cubic", 1, 1)
    x = s.initial_state()
    R = s.residual(x, with_convection=False)
    d_c = s.newton_step(x, R, with_convection=False)
    d_f = oracles.newton_step(s, x, R, with_convection=False, condense=False)
    assert np.abs(d_c - d_f).max() < 1e-9 * (np.abs(d_f).max() + 1)
    assert s.dim_condensed < int(s.free.sum())


def test_manufactured_solve_converges_quickly():
    _, _, s = make_solver("cubic", 2, 0)
    res = s.solve()
    assert res.diagnostics.converged
    assert res.diagnostics.iterations <= 8


def test_energy_identity_and_incompressibility():
    cx, sol, s = make_solver("cubic", 4, 0)
    res = s.solve()
    ucu = cx.global_curl(res.u)
    lhs = s.spec.nu * cx.l2_product("div", ucu, ucu)
    rhs = cx.l2_product("curl", s.i_f, res.u)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # discrete incompressibility: mass rows at the solution below tolerance
    R = s.residual(np.concatenate([res.u.values, res.p.values,
                                   [res.multiplier]]))
    assert np.linalg.norm(R[s.n_u:s.n_u + s.n_p]) < 1e-8


def test_jacobian_finite_difference_slope():
    # single-cell problem: directional FD error decays at first order in eps
    _, _, s = make_solver("cubic", 1, 1)
    rng = np.random.default_rng(3)
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
    errs = []
    for eps in (1e-4, 1e-5, 1e-6):
        fd = (s.residual(x + eps * d) - R) / eps
        errs.append(np.linalg.norm(fd - J @ d) / np.linalg.norm(J @ d))
    slopes = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    for sl in slopes:
        assert 0.8 < sl < 1.2
    assert errs[-1] < 1e-6


def test_nonconvergence_raises():
    _, _, s = make_solver("cubic", 4, 0, max_iter=0)
    with pytest.raises(NonConvergenceError, match="max_iter = 0") as err:
        s.solve()
    assert err.value.diagnostics.iterations == 0
    # a --parallel-levels worker sends the error back pickled
    back = pickle.loads(pickle.dumps(err.value))
    assert (str(back), back.cause) == (str(err.value), err.value.cause)
    assert back.diagnostics.residuals == err.value.diagnostics.residuals


def test_nonconvergence_names_the_damping_that_gave_up():
    # nu = 0.03 on one Kuhn cube at k=2: no shift lets step 2 lower the
    # residual, long before the max_iter cap of 50.  The step fails with
    # float32 or float64 factors alike, where at k=1 the failing step moves
    # with round-off
    _, _, s = make_solver("tet", 1, 2, nu=0.03)
    with pytest.raises(NonConvergenceError) as err:
        s.solve()
    diag = err.value.diagnostics
    assert (diag.iterations, diag.converged) == (2, False)
    assert len(diag.residuals) == 2
    assert str(err.value).startswith(
        "Newton failed to converge: no damping of step 2 beat the residual "
        f"{diag.residuals[-1]:.3e}, up to shift lambda = ")
    assert "max_iter" not in str(err.value)


def test_singular_interior_block_names_cell():
    # at k=1 every cell has interior DoFs; with its viscous and pressure
    # blocks zeroed, cell 5's interior block of the Stokes step is zero.
    # The six tetrahedra of one Kuhn cube are no translates of each other,
    # so cell 5 has a stack row of its own
    _, _, s = make_solver("tet", 1, 1)
    assert len(s.groups) == 1 and len(set(s.groups[0].row)) == 6
    cell = oracles.solver_cells(s)[5]
    cell["visc"][...] = 0.0
    cell["B"][...] = 0.0
    x = s.initial_state()
    R = s.residual(x, with_convection=False)
    with pytest.raises(SolverError, match=r"\bcell 5\b"):
        s.newton_step(x, R, with_convection=False)


def test_pressflux_zero_flux_variant():
    # zero forcing and zero flux data with the essential patch: zero solution
    regions = [
        BCRegion("essential",
                 where=lambda x: abs(x[0]) < 1e-12 and x[1] < 0.25
                 and x[2] < 0.25,
                 velocity=ZERO_F, pressure=lambda pts: np.zeros(len(pts))),
        BCRegion("natural"),
    ]
    cx = get_complex("cubic", 4, 0)   # the patch is one face at n = 4
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=regions)
    s = NavierStokesSolver(cx, spec)
    assert len(s.classification.essential_faces) == 1
    res = s.solve()
    assert np.abs(res.u.values).max() < 1e-12
    assert np.abs(res.p.values).max() < 1e-12


def test_empty_boundary_patch_fails_at_setup():
    # at n = 2 no boundary face anchor lies in (0, 0.25)^2
    cx = get_complex("cubic", 2, 0)
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=pressflux_bc())
    with pytest.raises(EmptyRegionError, match="on_pressure_patch"):
        NavierStokesSolver(cx, spec)
    flux_only = [BCRegion("natural", where=lambda f: False,
                          flux=lambda pts: np.ones(len(pts))),
                 BCRegion("natural")]
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=flux_only)
    with pytest.raises(EmptyRegionError, match="region 0 \\(natural"):
        NavierStokesSolver(cx, spec)


def test_each_where_is_called_once_per_boundary_face():
    cx = get_complex("cubic", 2, 0)
    seen = []

    def counted(x):
        seen.append(tuple(x))
        return True

    spec = ProblemSpec(nu=0.01, forcing=ZERO_F,
                       regions=[BCRegion("natural", where=counted)])
    s = NavierStokesSolver(cx, spec)
    assert len(seen) == len(cx.mesh.boundary_faces()) == 24
    assert sorted(seen) == sorted(map(tuple, cx.mesh.face_anchor[
        cx.mesh.boundary_faces()]))
    assert s.classification.natural_faces == cx.mesh.boundary_faces().tolist()
    assert set(s.region_of_face) == set(s.classification.natural_faces)


def test_a_face_of_no_region_is_left_unclassified():
    cx = get_complex("cubic", 2, 0)
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F,
                       regions=[BCRegion("natural", where=lambda x: x[0] < 0.5)])
    with pytest.raises(ValueError, match="boundary face .* left unclassified "
                       r"\(classifier returned None\)"):
        NavierStokesSolver(cx, spec)


def test_invalid_problem_spec():
    for nu in (0.0, -1.0, float("nan"), np.inf):
        with pytest.raises(ValueError, match="viscosity"):
            ProblemSpec(nu=nu, forcing=ZERO_F)


def test_solve_on_general_polyhedra():
    # the two-prism tiling of the unit cube: non-tensor cells end to end
    from conftest import prism_mesh
    sol = TrigSolution()
    cx = DdrComplex(prism_mesh(), 1)
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
    res = NavierStokesSolver(cx, spec).solve()
    assert res.diagnostics.converged
    ucu = cx.global_curl(res.u)
    lhs = cx.l2_product("div", ucu, ucu)
    rhs = cx.l2_product("curl", cx.interpolate_curl(sol.forcing), res.u)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_pressflux_converges_to_reference_norms():
    """The mixed-BC discrete norms approach fixed reference values.

    Reference: 0.73256611669273153 (velocity graph norm) and
    0.28368266709481171 (pressure graph norm), converged values of this
    configuration; the k=1 errors must shrink at better than first order
    between n=4 and n=8 and land close at n=8.
    """
    ref_u, ref_p = 0.73256611669273153, 0.28368266709481171
    errs = {}
    for n in (4, 8):
        cx = get_complex("cubic", n, 1)
        spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=pressflux_bc())
        res = NavierStokesSolver(cx, spec).solve()
        gu = np.hypot(cx.norm("curl", res.u),
                      cx.norm("div", cx.global_curl(res.u)))
        gp = np.hypot(cx.norm("grad", res.p),
                      cx.norm("curl", cx.global_gradient(res.p)))
        errs[n] = (abs(gu - ref_u), abs(gp - ref_p))
    assert errs[8][0] < errs[4][0] / 2.0
    assert errs[8][1] < errs[4][1]
    assert errs[8][0] < 0.12
    assert errs[8][1] < 0.05


# -- option and problem checks ---------------------------------------------------

@pytest.mark.parametrize("opts", [dict(tol=float("nan")), dict(tol=np.inf),
                                  dict(tol=0.0), dict(tol=-1e-9),
                                  dict(max_iter=-1)])
def test_solver_options_reject_a_bad_tolerance_or_step_count(opts):
    # a NaN tolerance would pass every residual test, and solve() would
    # report the Stokes start as converged after 0 Newton steps
    with pytest.raises(ValueError):
        SolverOptions(**opts)
    assert SolverOptions(max_iter=0).max_iter == 0
