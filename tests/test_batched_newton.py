"""The batched Newton kernels against the per-cell reference in oracles.py,
the lifetime of the sparse factor reused within one solve() call, and the
forcing terms that set how far each reused-factor step is solved."""

import json
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import oracles
from conftest import (cube_pyramid_mesh, get_complex, get_mesh,
                      jittered_kuhn_mesh, pentagon_prism_mesh,
                      random_hex_mesh)
from ddrns import solver as solver_mod
from ddrns.operators import DdrComplex
from ddrns.solutions import TrigSolution
from ddrns.solver import (NavierStokesSolver, ProblemSpec, essential_bc,
                          natural_bc, pressflux_bc)

MESHES = {"pentagon_prism": pentagon_prism_mesh, "random_hex": random_hex_mesh,
          "kuhn1": lambda: get_mesh("tet", 1),
          "cube_pyramid": cube_pyramid_mesh}
ZERO_F = lambda pts: np.zeros((len(pts), 3))


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def trig_solver(cx):
    sol = TrigSolution()
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
    return sol, NavierStokesSolver(cx, spec)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", list(MESHES))
def test_kernels_match_per_cell_reference(mesh, k):
    cx = DdrComplex(MESHES[mesh](), k)
    sol, s = trig_solver(cx)
    if mesh == "cube_pyramid":
        assert len(s.groups) == 2
    rng = np.random.default_rng(k)
    x = rng.standard_normal(s.n_x)
    for conv in (True, False):
        assert rel(s.residual(x, conv), oracles.residual(s, x, conv)) <= 1e-12
    ua, ub, v = (rng.standard_normal(s.n_u) for _ in range(3))
    ref = oracles.trilinear(s, ua, ub, v)
    assert abs(s.trilinear(ua, ub, v) - ref) <= 1e-12 * abs(ref)
    u = x[:s.n_u]
    for cell in oracles.solver_cells(s):
        ul = u[cell["idxu"]]
        assert rel(oracles.kernel_jacobian(s, cell, ul, True),
                   oracles.cell_jacobian(s, cell, ul, True)) <= 1e-12
    # one Newton step at the interpolate of the exact solution, against the
    # per-cell reference with and without static condensation
    x = s.initial_state()
    x[:s.n_u] = cx.interpolate_curl(sol.velocity).values
    x[s.n_u:s.n_u + s.n_p] = cx.interpolate_grad(sol.pressure).values
    R = s.residual(x)
    for shift in (0.0, 0.5):
        # a step is a linear solve: rounding in the summation order of
        # its matrix is amplified by the condition number
        A = s._condense(x, R, True, shift)[0].toarray()
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(A))
        step = s.newton_step(x, R, shift=shift)
        for condense in (True, False):
            assert rel(step, oracles.newton_step(
                s, x, R, shift=shift, condense=condense)) <= tol, condense


def owned_block_bytes(s) -> int:
    """Bytes of the float cell blocks (rank 3 and up) that the solver's
    groups hold apart from the complex's stacks; a broadcast view counts
    the memory under it once."""
    theirs = [a for g in s.cx.cell_groups for a in vars(g).values()
              if isinstance(a, np.ndarray)]
    total = 0
    for grp in s.groups:
        for v in vars(grp).values():
            for a in (v.values() if isinstance(v, dict) else [v]):
                if (isinstance(a, np.ndarray) and a.dtype.kind == "f"
                        and a.ndim >= 3
                        and not any(np.may_share_memory(a, b) for b in theirs)):
                    lo, hi = np.lib.array_utils.byte_bounds(a)
                    total += hi - lo
    return total


def test_cell_blocks_are_held_once_per_row():
    # the cubes of cubic n=4 and n=6 fall into the same four stack rows
    solvers = [trig_solver(get_complex("cubic", n, 1))[1] for n in (4, 6)]
    assert [[len(g.rep) for g in s.cx.cell_groups] for s in solvers] == [[4]] * 2
    held = [owned_block_bytes(s) for s in solvers]
    assert 0 < held[0] == held[1]


def test_chunked_kernels_match_one_cell_chunks(monkeypatch):
    # one cell per chunk: every chunk reads a single row, which the kernels
    # broadcast, where the default chunks gather the rows of several cells
    cx = get_complex("cubic", 4, 1)
    _, s = trig_solver(cx)
    assert len(s.groups[0].chunks) > 1
    monkeypatch.setattr(solver_mod, "CHUNK_BYTES", 0)
    _, one = trig_solver(cx)
    assert len(one.groups[0].chunks) == len(one.groups[0].cells)
    x = np.random.default_rng(2).standard_normal(s.n_x)
    R = s.residual(x)
    assert rel(one.residual(x), R) <= 1e-14
    assert rel(one.newton_step(x, R, shift=0.5),
               s.newton_step(x, R, shift=0.5)) <= 1e-12


def test_condensation_memory_is_bounded(monkeypatch):
    # the memory a Newton step takes beyond the arrays it returns or keeps
    # (the matrix entries, the right-hand side and the interior solution
    # operators) stays within the chunk budget as the mesh grows; the
    # linear solve between condensation and back-substitution is not
    # counted
    solve = solver_mod._FactorReuse.solve
    condense = NavierStokesSolver._condense
    peaks, kept = [], []

    def untraced_solve(self, A, b, eta, rnorm):
        peaks.append(tracemalloc.get_traced_memory()[1])
        x = solve(self, A, b, eta, rnorm)
        tracemalloc.reset_peak()
        return x

    def noted_condense(self, *args):
        A, b, back = condense(self, *args)
        kept.append(A.data.nbytes + 8 + b.nbytes + 8 * self.n_x
                    + sum(X.nbytes for _, X in back))
        return A, b, back
    monkeypatch.setattr(solver_mod._FactorReuse, "solve", untraced_solve)
    monkeypatch.setattr(NavierStokesSolver, "_condense", noted_condense)
    for n in (4, 6):
        _, s = trig_solver(get_complex("cubic", n, 1))
        x = s.initial_state() + np.random.default_rng(n).standard_normal(s.n_x)
        R = s.residual(x)
        peaks.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s.newton_step(x, R, shift=0.5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2   # condensation, then back-substitution
        for peak in peaks:
            assert peak - base - kept[-1] <= solver_mod.CHUNK_BYTES


def essential_solver(cx):
    sol = TrigSolution()
    spec = ProblemSpec(nu=1.0, forcing=sol.forcing,
                       regions=essential_bc(sol.velocity, sol.pressure))
    return NavierStokesSolver(cx, spec)


PATTERN_CASES = {
    **{f"cubic2-k{k}": partial(lambda k: trig_solver(
        get_complex("cubic", 2, k))[1], k) for k in range(4)},
    "pressflux-cubic4-k1": lambda: pressflux_solver(1),
    "pressflux-cubic4-k2": lambda: pressflux_solver(2),
    "essential-cubic2-k1": lambda: essential_solver(get_complex("cubic", 2, 1)),
    "jittered-kuhn2-k1": lambda: trig_solver(
        DdrComplex(jittered_kuhn_mesh(), 1))[1],
    **{f"{name}-k{k}": partial(lambda mesh, k: trig_solver(
        DdrComplex(mesh(), k))[1], mesh, k)
       for name, mesh in (("pentagon_prism", pentagon_prism_mesh),
                          ("cube_pyramid", cube_pyramid_mesh))
       for k in (1, 2)},
}


@pytest.mark.parametrize("case", list(PATTERN_CASES))
def test_condensed_pattern_matches_the_dof_pair_build(case):
    # the entity-block build against the DoF-pair build it replaced, in
    # values and dtype; fixed blocks leave entries at nnz
    s = PATTERN_CASES[case]()
    ref = oracles.condensed_pattern(s)
    assert (s.dim_condensed, s._nnz) == (ref.dim_condensed, ref.nnz)
    assert type(s._nnz) is type(ref.nnz)
    for got, want in [(s.cond_dofs, ref.cond_dofs), (s._indices, ref.indices),
                      (s._indptr, ref.indptr),
                      *zip([g.slot for g in s.groups], ref.slots)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    fixed = any((g.slot == s._nnz).any() for g in s.groups)
    assert fixed == (case.startswith(("pressflux", "essential")))
    assert s.use_multiplier != fixed


def test_the_pattern_sorts_one_key_per_block_pair(monkeypatch):
    # pressflux-cubic-k2: each of the 64 cubes has 44 entity blocks, the 12
    # edge and 6 face blocks of CURL and the 8 vertex, 12 edge and 6 face
    # blocks of GRAD, so 64 * 44**2 = 123,904 keys; one key per pair of
    # unknowns is 1,149,184
    s = pressflux_solver(2)
    sizes = []
    for name in ("argsort", "sort"):
        def watched(a, *args, _sort=getattr(np, name), **kw):
            sizes.append(np.size(a))
            return _sort(a, *args, **kw)
        monkeypatch.setattr(np, name, watched)
    s._condensed_pattern()
    assert sizes and max(sizes) <= 64 * 44 ** 2


def test_trig_solve_matches_factoring_every_step():
    cx = get_complex("cubic", 4, 0)
    _, s = trig_solver(cx)
    _, ref = trig_solver(cx)
    ref.newton_step = partial(oracles.newton_step, ref)
    got, want = s.solve(), ref.solve()
    assert got.diagnostics.krylov_iterations       # the reuse path ran
    assert got.diagnostics.iterations == want.diagnostics.iterations
    assert rel(got.u.values, want.u.values) <= 1e-10
    assert rel(got.p.values, want.p.values) <= 1e-10


class _Factor:
    """A sparse LU that can be watched by weak reference, and that notes
    each solve in `log` when one is given."""

    def __init__(self, lu, log=None):
        self.lu = lu
        self.log = log
        self.nnz = lu.nnz

    def solve(self, b):
        if self.log is not None:
            self.log.append("solve")
        return self.lu.solve(b)


def pressflux_solver(k):
    cx = get_complex("cubic", 4, k)
    spec = ProblemSpec(nu=0.01, forcing=ZERO_F, regions=pressflux_bc())
    return NavierStokesSolver(cx, spec)


@pytest.fixture
def factors(monkeypatch):
    """Weak references to every factor made; each factorisation first
    checks that no earlier factor is still alive."""
    made = []
    splu = spla.splu

    def watched_splu(A, **kw):
        assert all(f() is None for f in made), "old factor alive during splu"
        f = _Factor(splu(A, **kw))
        made.append(weakref.ref(f))
        return f
    monkeypatch.setattr(spla, "splu", watched_splu)
    return made


@pytest.fixture
def steps(monkeypatch):
    calls = []
    step = NavierStokesSolver.newton_step

    def counted(self, *args, **kwargs):
        calls.append(1)
        return step(self, *args, **kwargs)
    monkeypatch.setattr(NavierStokesSolver, "newton_step", counted)
    return calls


def test_factor_reused_within_and_released_after_solve(factors, steps):
    _, s = trig_solver(get_complex("cubic", 4, 0))
    counts = []
    for _ in range(2):
        before, n_steps = len(factors), len(steps)
        diag = s.solve().diagnostics
        counts.append(len(factors) - before)
        assert diag.factorizations == counts[-1]
        assert counts[-1] < len(steps) - n_steps
        assert len(diag.krylov_iterations) == len(steps) - n_steps - counts[-1]
        assert s._linear is None
        assert all(f() is None for f in factors)
    assert counts[0] == counts[1]


def test_pressflux_takes_refactor_path(factors):
    # Re=100 on cubic n=4, k=0: a reused factor fails GMRES at least once
    diag = pressflux_solver(0).solve().diagnostics
    assert diag.factorizations >= 2
    assert abs(diag.iterations - 9) <= 1   # 9 when every step was factored
    assert all(f() is None for f in factors)


def test_factor_released_when_newton_fails(factors):
    _, s = trig_solver(get_complex("cubic", 4, 0))
    s.opts.max_iter = 0
    with pytest.raises(solver_mod.NonConvergenceError) as err:
        s.solve()
    assert err.value.diagnostics.factorizations == 1
    assert s._linear is None
    assert all(f() is None for f in factors)


@pytest.fixture
def events(monkeypatch):
    """In call order: "step" at each newton_step call, "splu" at each
    factorisation and "solve" at each solve with a factor."""
    log = []
    splu, step = spla.splu, NavierStokesSolver.newton_step

    def logged_splu(A, **kw):
        log.append("splu")
        return _Factor(splu(A, **kw), log)

    def logged_step(self, *args, **kwargs):
        log.append("step")
        return step(self, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", logged_splu)
    monkeypatch.setattr(NavierStokesSolver, "newton_step", logged_step)
    return log


def test_hopeless_cycle_dropped_before_its_restart(events):
    # Re=100 on cubic n=4, k=0: one reused factor cannot reach its bound;
    # the cycle is dropped before it has run GMRES_RESTART iterations
    diag = pressflux_solver(0).solve().diagnostics
    steps = []
    for event in events:
        if event == "step":
            steps.append([])
        else:
            steps[-1].append(event)
    assert len(steps) == len(diag.linear_solves)
    refactored = [(step.index("splu"), rec)
                  for step, rec in zip(steps[1:], diag.linear_solves[1:])
                  if "splu" in step]
    assert refactored                    # the refactor path ran
    for attempt, rec in refactored:
        # each GMRES iteration solves once with the old factor, and the
        # first solve of the cycle is refined by one more
        assert 0 < rec["gmres_iterations"] < solver_mod.GMRES_RESTART
        assert rec["factored"] and rec["gmres_iterations"] + 1 == attempt


def test_linear_solve_records(events):
    """One record per newton_step call; a reused factor's step meets its
    forcing term by its true residual, and the forcing terms follow
    Eisenstat-Walker choice 2 with the oversolving floor.  Each record
    names its factor's precision and counts its refinement sweeps."""
    s = pressflux_solver(0)
    rnorms = []
    step = s.newton_step

    def noted(x, R, *args, **kwargs):
        rnorms.append(s.residual_norm(R))
        return step(x, R, *args, **kwargs)
    s.newton_step = noted
    diag = s.solve().diagnostics
    recs = diag.linear_solves
    assert json.loads(json.dumps(recs)) == recs
    assert len(recs) == len(rnorms)
    assert sum(r["factored"] for r in recs) == diag.factorizations
    assert [r["gmres_iterations"] for r in recs if not r["factored"]] \
        == diag.krylov_iterations
    # the Stokes start is solved exactly, by the first factor
    assert (recs[0]["eta"], recs[0]["gmres_iterations"],
            recs[0]["factored"]) == (0.0, 0, True)
    for r in recs:
        assert r["residual"] <= (1e-10 if r["factored"] else r["eta"])
    # no system needed the float64 refactor; a step solves once per GMRES
    # iteration and per refinement sweep, and once more with a fresh factor
    solves = [0]
    for event in events:
        if event == "step":
            solves.append(0)
        solves[-1] += event == "solve"
    assert events.count("splu") == diag.factorizations
    for r, n in zip(recs, solves[1:], strict=True):
        assert r["precision"] == "float32"
        assert type(r["refinement_sweeps"]) is int
        assert n == r["gmres_iterations"] + r["refinement_sweeps"] \
            + r["factored"]
        cycles = r["gmres_iterations"] > 0
        assert r["refinement_sweeps"] >= cycles + r["factored"]
        if not r["factored"]:
            assert r["refinement_sweeps"] == cycles
            assert "ordering" not in r and "nnz" not in r
        else:
            # the ordering of k = 0 and the fill of the factor
            assert r["ordering"] == "MMD_AT_PLUS_A"
            assert type(r["nnz"]) is int and r["nnz"] > 0
    # each Newton step's forcing term from the residual history
    res, tol = diag.residuals, diag.tolerance
    floored = set()
    for r, rnorm in zip(recs[1:], rnorms[1:]):
        k = res.index(rnorm)
        ew = 0.1 if k == 0 else 0.9 * (rnorm / res[k - 1]) ** 2
        floor = 0.5 * tol / rnorm
        assert r["eta"] == pytest.approx(min(0.1, max(ew, floor)), rel=1e-12)
        floored.add(floor > ew and floor < 0.1)
    assert floored == {True, False}   # the floor set some steps, not all
    assert diag.residuals[-1] <= tol


@pytest.mark.parametrize("n, k, ordering", [
    (4, 1, "MMD_AT_PLUS_A"),    # 1986 condensed unknowns
    (2, 2, "COLAMD"),
    (6, 1, "COLAMD"),           # 6014, above MINIMUM_DEGREE_DIM
])
def test_ordering_follows_the_degree_and_size(n, k, ordering):
    _, s = trig_solver(get_complex("cubic", n, k))
    assert (s.dim_condensed <= solver_mod.MINIMUM_DEGREE_DIM) == (n < 6)
    kw = s._factor_reuse().splu_kw
    assert kw["permc_spec"] == ordering
    assert kw["diag_pivot_thresh"] == 0.1   # one pivot rule for both


@pytest.mark.parametrize("make, bound", [
    # COLAMD at 6014 unknowns: 7.33 M under partial pivoting, 5.64 M here
    (lambda: trig_solver(get_complex("cubic", 6, 1))[1], 6.0e6),
    # COLAMD at k = 2: 6.39 M under partial pivoting, 5.93 M here
    (lambda: pressflux_solver(2), 6.2e6),
], ids=["cubic6-k1", "pressflux-k2"])
def test_colamd_factor_keeps_diagonal_pivots(make, bound):
    factored = [r for r in make().solve().diagnostics.linear_solves
                if r["factored"]]
    assert factored
    assert all(r["ordering"] == "COLAMD" and r["precision"] == "float32"
               and r["nnz"] <= bound for r in factored)


def test_pressflux_k1_factor_fills_less():
    # at nu = 0.01 the unscaled matrix under COLAMD filled 1.47 M, and
    # unscaled under minimum degree 1.81 M; scaled under it, 0.75 M
    diag = pressflux_solver(1).solve().diagnostics
    factored = [r for r in diag.linear_solves if r["factored"]]
    assert factored
    assert all(r["nnz"] <= 0.9e6 for r in factored)


def test_scaled_factor_solves_the_unscaled_system():
    """The Stokes start of the pressure/flux problem at nu = 0.01: the
    float32 factor of the nu-scaled matrix solves the unscaled one to
    DIRECT_ACCURACY by its true residual, with no float64 refactor."""
    s = pressflux_solver(1)
    x = s.initial_state()
    R = s.residual(x, with_convection=False)
    A, b, _ = s._condense(x, R, False, 0.0)
    linear = s._factor_reuse()
    assert linear.nu == 0.01 and 0 < linear.m < A.shape[0]
    y = linear.solve(A, b, 0.0, s.residual_norm(R))
    rec, = linear.records
    assert (rec["factored"], rec["precision"]) == (True, "float32")
    assert linear.factorizations == 1
    assert np.linalg.norm(A @ y - b) \
        <= solver_mod.DIRECT_ACCURACY * np.linalg.norm(b)


def test_step_missing_its_bound_is_refactored(monkeypatch):
    # whatever GMRES returns, a step is accepted by its true residual only
    gmres = solver_mod._gmres

    def off(*args):
        x, its = gmres(*args)
        return (None if x is None else 2.0 * x), its
    monkeypatch.setattr(solver_mod, "_gmres", off)
    _, s = trig_solver(get_complex("cubic", 4, 0))
    _, ref = trig_solver(get_complex("cubic", 4, 0))
    ref.newton_step = partial(oracles.newton_step, ref)
    got, want = s.solve(), ref.solve()
    recs = got.diagnostics.linear_solves
    assert all(r["factored"] for r in recs)
    assert all(r["gmres_iterations"] > 0 for r in recs[1:])
    assert got.diagnostics.krylov_iterations == []
    assert got.diagnostics.iterations == want.diagnostics.iterations
    assert rel(got.u.values, want.u.values) <= 1e-10
    assert rel(got.p.values, want.p.values) <= 1e-10


@pytest.mark.parametrize("k", [0, 2])
def test_pressflux_forcing_terms_match_factoring_every_step(k):
    s, ref = pressflux_solver(k), pressflux_solver(k)
    ref.newton_step = partial(oracles.newton_step, ref)
    got, want = s.solve(), ref.solve()
    g, w = got.diagnostics, want.diagnostics
    assert g.linear_solves and not all(r["factored"] for r in g.linear_solves)
    # the factors are float32, the oracle's float64
    assert {r["precision"] for r in g.linear_solves} == {"float32"}
    assert abs(g.iterations - w.iterations) <= 1
    assert g.residuals[-1] <= g.tolerance and w.residuals[-1] <= w.tolerance
    bar = 1e-10 if g.iterations == w.iterations else 1e-8
    assert rel(got.u.values, want.u.values) <= bar
    assert rel(got.p.values, want.p.values) <= bar


class _DoubledFactor(_Factor):
    """A factor whose solves are twice the true ones: refinement from it
    swings between 2x and 0 and never halves the residual."""

    def solve(self, b):
        return 2.0 * super().solve(b)


@pytest.mark.parametrize("broken", ["unrefinable", "singular"])
def test_float32_factor_that_fails_is_refactored_in_float64(monkeypatch,
                                                            broken):
    """Every float32 factor either cannot be refined to float64 accuracy or
    is reported singular: each fresh system is refactored in float64 with
    the float32 factor dropped first, and Newton follows the oracle that
    factors every step in float64."""
    _, ref = trig_solver(get_complex("cubic", 4, 0))
    ref.newton_step = partial(oracles.newton_step, ref)
    want = ref.solve()
    made = []
    splu = spla.splu

    def broken_splu(A, **kw):
        assert all(f() is None for _, f in made), "old factor alive during splu"
        if A.dtype == np.float32 and broken == "singular":
            raise RuntimeError("Factor is exactly singular")
        f = (_DoubledFactor if A.dtype == np.float32 else _Factor)(
            splu(A, **kw))
        made.append((A.dtype, weakref.ref(f)))
        return f
    monkeypatch.setattr(spla, "splu", broken_splu)
    _, s = trig_solver(get_complex("cubic", 4, 0))
    got = s.solve()
    diag = got.diagnostics
    recs = diag.linear_solves
    fresh = sum(r["factored"] for r in recs)
    per_system = [np.float32, np.float64] if broken == "unrefinable" \
        else [np.float64]
    assert [dtype for dtype, _ in made] == per_system * fresh
    assert diag.factorizations == len(made)
    assert all(f() is None for _, f in made)
    assert diag.krylov_iterations                  # the float64 factor reused
    for r in recs:
        assert r["precision"] == "float64"
        assert r["residual"] <= (1e-10 if r["factored"] else r["eta"])
    # the float32 sweep that did not halve, then at least one in float64
    assert recs[0]["refinement_sweeps"] >= len(per_system)
    assert diag.iterations == want.diagnostics.iterations
    assert rel(got.u.values, want.u.values) <= 1e-10
    assert rel(got.p.values, want.p.values) <= 1e-10
