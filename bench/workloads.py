"""The benchmark workloads.

Each workload is one round of calls into ddrns's public API, in the order
the CLI makes them: mesh builder, DdrComplex, NavierStokesSolver, solve(),
then errors or norms.  A round returns the seconds spent in each phase,
the operations it attempted and failed, and the outcome of its checks.
One operation is one solve together with its checks.  The checks run
outside every timed phase, with tracing paused.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ddrns import verify
from ddrns.mesh import build_mesh, generate_cubic_mesh
from ddrns.operators import DdrComplex
from ddrns.solutions import TrigSolution
from ddrns.solver import (NavierStokesSolver, ProblemSpec, SolverError,
                          natural_bc, pressflux_bc)
from ddrns.spaces import SpaceKind

import checks

# phases that make up set-up time; all phases together make up wall time
SETUP_PHASES = ("mesh", "complex", "solver_init")
# largest offset of a free vertex coordinate of the tet mesh, in units of 1/n
JITTER = 0.15


@dataclass
class Round:
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    n_cells: int = 0
    newton_its: int = 0

    @contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    def check(self, name, value, passed):
        self.checks[name] = {"value": value, "passed": bool(passed)}

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def setup_s(self) -> float:
        return sum(self.seconds[p] for p in SETUP_PHASES)

    @property
    def correct(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def solve(self, solver):
        """One operation's solve; None when the solver gives up."""
        self.attempted += 1
        try:
            with self.phase("solve"):
                result = solver.solve()
        except SolverError:
            self.failed += 1
            return None
        self.newton_its += result.diagnostics.iterations
        return result


def _scheme_checks(rnd, tag, cx, solver, result):
    rel = checks.energy_identity_error(cx, solver.spec.nu, solver.i_f, result.u)
    rnd.check(f"energy_identity{tag}", rel, rel <= checks.ENERGY_RTOL)
    mass = checks.mass_residual(solver, result)
    rnd.check(f"mass_residual{tag}", mass, mass <= checks.MASS_ATOL)


def _complex(rnd, build, k):
    """Mesh build and DdrComplex construction, each timed as its phase."""
    with rnd.phase("mesh"):
        mesh = build()
    with rnd.phase("complex"):
        cx = DdrComplex(mesh, k)
    rnd.n_cells = mesh.n_cells
    return cx


def _trig_solves(rnd, cx, lams, repeats, tracer):
    """The trigonometric benchmark (nu=1, natural BCs) at each lambda:
    solver set-up, `repeats` solves, errors of the last one, then the
    energy and mass checks of every solve.  Returns the velocity DoFs of
    each lambda whose solves converged."""
    velocity = {}
    for lam in lams:
        sol = TrigSolution(nu=1.0, lam=lam)
        spec = ProblemSpec(nu=sol.nu, forcing=sol.forcing,
                           regions=natural_bc(), exact_velocity=sol.velocity,
                           exact_pressure=sol.pressure)
        with rnd.phase("solver_init"):
            solver = NavierStokesSolver(cx, spec)
        results = [rnd.solve(solver) for _ in range(repeats)]
        results = [r for r in results if r is not None]
        if not results:
            continue
        with rnd.phase("errors"):
            verify.compute_errors(cx, results[-1].u, results[-1].p, sol)
        with tracer.paused():
            for i, result in enumerate(results):
                _scheme_checks(rnd, f"@lambda={lam:g}#{i}", cx, solver, result)
        velocity[lam] = results[-1].u.values
    return velocity


def trig_cubic(seed, tracer, n, k, lams=(1.0,), repeats=1):
    """Trigonometric benchmark on cubic n at k, at each lambda on one
    complex.  With two lambdas the velocity must not move between them."""
    rnd = Round()
    cx = _complex(rnd, lambda: generate_cubic_mesh(n), k)
    velocity = _trig_solves(rnd, cx, lams, repeats, tracer)
    if len(lams) == 2 and len(velocity) == 2:
        rel = checks.relative_difference(*velocity.values())
        rnd.check("lambda_invariance", rel, rel <= checks.INVARIANCE_RTOL)
    return rnd


def kuhn_tables(n):
    """Vertex grid, face loops and cell faces of the Kuhn split of the
    cubic n mesh (six tetrahedra per cube), as ddrns.mesh lays them out.

    Built here rather than read back from generate_tet_mesh so that a seed
    gives the same inputs whatever order a later ddrns numbers entities in.
    """
    vid = lambda i, j, l: i + (n + 1) * (j + (n + 1) * l)
    coords = np.array([[i / n, j / n, l / n] for l in range(n + 1)
                       for j in range(n + 1) for i in range(n + 1)])
    face_loops, face_index, cell_faces = [], {}, []
    for l in range(n):
        for j in range(n):
            for i in range(n):
                for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                             (2, 0, 1), (2, 1, 0)):
                    # path (i,j,l) -> +e_p2 -> +e_p1 -> +e_p0
                    step = np.array([i, j, l])
                    tet = [vid(*step)]
                    for axis in (perm[2], perm[1], perm[0]):
                        step = step.copy()
                        step[axis] += 1
                        tet.append(vid(*step))
                    fids = []
                    for excl in range(4):
                        tri = [tet[m] for m in range(4) if m != excl]
                        key = tuple(sorted(tri))
                        if key not in face_index:
                            face_index[key] = len(face_loops)
                            face_loops.append(tri)
                        fids.append(face_index[key])
                    cell_faces.append(fids)
    return coords, face_loops, cell_faces


def jittered_kuhn_tables(n, rng):
    """Kuhn tables with every vertex coordinate strictly inside (0, 1) moved
    by a uniform offset of up to JITTER/n.  Interior vertices move in all
    three directions, boundary vertices only along their cube face or edge,
    and the eight corners not at all: the domain stays the unit cube, while
    no two tetrahedra remain translates of each other."""
    coords, face_loops, cell_faces = kuhn_tables(n)
    offsets = rng.uniform(-JITTER / n, JITTER / n, size=coords.shape)
    free = (coords > 0.0) & (coords < 1.0)
    coords[free] += offsets[free]
    return coords, face_loops, cell_faces


def conv_jtet(seed, tracer, n, k, repeats=1):
    """Trigonometric benchmark (lambda=1) at k on the jittered Kuhn tet
    mesh, plus the curl potential's consistency on a random polynomial of
    degree k.  The seed draws the jitter and the polynomial."""
    jitter_rng, poly_rng = (np.random.default_rng(s) for s in
                            np.random.SeedSequence(seed).spawn(2))
    tables = jittered_kuhn_tables(n, jitter_rng)
    poly = checks.random_vector_polynomial(poly_rng, k)

    rnd = Round()
    cx = _complex(rnd, lambda: build_mesh(*tables), k)
    if _trig_solves(rnd, cx, (1.0,), repeats, tracer):
        with tracer.paused():
            err = checks.curl_potential_error(cx, poly, poly)
        rnd.check("curl_potential_consistency", err,
                  err <= checks.POTENTIAL_RTOL)
    return rnd


def pressflux_norms(cx, u, p) -> tuple[float, float]:
    """Discrete graph norms of the velocity (CURL) and pressure (GRAD)."""
    gu = np.hypot(cx.norm(SpaceKind.CURL, u),
                  cx.norm(SpaceKind.DIV, cx.global_curl(u)))
    gp = np.hypot(cx.norm(SpaceKind.GRAD, p),
                  cx.norm(SpaceKind.CURL, cx.global_gradient(p)))
    return float(gu), float(gp)


def pressflux_cubic(seed, tracer, n, k):
    """Mixed pressure/flux problem (Re=100, zero forcing) on cubic n at k;
    its graph norms must lie near the converged reference values."""
    rnd = Round()
    cx = _complex(rnd, lambda: generate_cubic_mesh(n), k)
    spec = ProblemSpec(nu=1.0 / 100.0,
                       forcing=lambda pts: np.zeros((len(pts), 3)),
                       regions=pressflux_bc())
    with rnd.phase("solver_init"):
        solver = NavierStokesSolver(cx, spec)
    result = rnd.solve(solver)
    if result is not None:
        with rnd.phase("errors"):
            norms = pressflux_norms(cx, result.u, result.p)
        rnd.check("pressflux_reference_norms", list(norms),
                  checks.pressflux_norms_ok(norms))
    return rnd


# The trigonometric workloads solve each problem SOLVE_REPEATS times: one
# solve there takes 1.5-3 s, too short a window to time steadily on a
# machine whose speed drifts by about 10% over a few seconds.
SOLVE_REPEATS = 3
WORKLOADS = {
    "robust-cubic-k0": partial(trig_cubic, n=8, k=0, lams=(1.0, 100.0),
                               repeats=SOLVE_REPEATS),
    "conv-jtet-k1": partial(conv_jtet, n=4, k=1, repeats=SOLVE_REPEATS),
    "pressflux-cubic-k2": partial(pressflux_cubic, n=4, k=2),
}
# larger cases measured for reference only, too slow for the workload set
REFERENCE_CASES = {
    "trig-cubic-n8-k1": partial(trig_cubic, n=8, k=1),
    "pressflux-cubic-n8-k1": partial(pressflux_cubic, n=8, k=1),
}
