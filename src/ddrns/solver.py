"""Nonlinear solver for the discrete curl-curl Navier-Stokes scheme.

Find (u, p) in the discrete curl space times the zero-mean gradient space
such that, for all test pairs (v, q),

    nu (uC u, uC v)_DIV + t(u; u, v) + (uG p, v)_CURL = (I_curl f, v)_CURL,
    -(u, uG q)_CURL = -sum_F int_F g gamma_F q      (g = prescribed u.n),

with the convective form t(a; b, v) = int_Omega [P_div uC a x P_curl b] . P_curl v.
The zero-mean pressure condition enters through a single Lagrange multiplier
row/column against the interpolate of 1 (dropped whenever essential pressure
conditions pin the pressure instead).  Each Newton step statically condenses
all cell-attached DoF blocks by per-cell Schur complements before the sparse
solve; convergence is measured on the full uncondensed residual.

The cells are taken in the cell groups of the complex, whose translates
share a stack row: the solver holds each block once per row, with the row
of each cell (``group.ids``, ``group.row``).  The residual, the convective
form, the cell Jacobians, the condensation and the back-substitution walk
a group's cells in chunks of at most CHUNK_BYTES of local matrices, as a
few batched array operations per chunk.  The sparsity pattern of the
condensed system is built once per solver, from pairs of entity blocks.

Newton is inexact: iteration k solves its step only to a linear residual of
eta_k |R_k|, with Eisenstat-Walker forcing terms eta_k.  Within one solve()
call the last sparse LU preconditions GMRES for later steps, and a step is
refactored only when GMRES cannot meet its forcing term; the factor is
released when the call returns.  Factors are made in float32 and every
residual is float64: the Stokes start and the solve with a fresh factor
are refined to float64 accuracy, and GMRES reaches its forcing term by the
true residual (mixed-precision iterative refinement).  A system that the
float32 factor cannot refine that far is refactored in float64.
NewtonDiagnostics.linear_solves records each linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import DdrComplex, _at_points
from .spaces import (BoundaryClassification, DofVector, SpaceKind,
                     boundary_subspace_mask)


class SolverError(Exception):
    pass


class EmptyRegionError(ValueError):
    """A boundary region that carries data matches no boundary face."""


class NonConvergenceError(SolverError):
    """Newton stopped above its tolerance; cause names the rule that gave
    up: the max_iter cap, or a step that no damping try could improve."""

    def __init__(self, diagnostics, cause: str):
        super().__init__(f"Newton failed to converge: {cause} "
                         f"(last residual {diagnostics.residuals[-1]:.3e})")
        self.diagnostics, self.cause = diagnostics, cause

    def __reduce__(self):
        return type(self), (self.diagnostics, self.cause)


@dataclass
class BCRegion:
    """One boundary region: 'natural' (vorticity x n and u.n weakly) or
    'essential' (u x n and p strongly).

    where: predicate on the face anchor x_F, a (3,) array (checked on
        boundary faces only).
    flux: prescribed u.n for natural regions (None = homogeneous).
    velocity / pressure: data fields for essential regions.
    """
    kind: str
    where: object = None
    flux: object = None
    velocity: object = None
    pressure: object = None

    def contains(self, anchor) -> bool:
        return True if self.where is None else bool(self.where(anchor))


@dataclass
class ProblemSpec:
    nu: float
    forcing: object
    regions: list[BCRegion] = field(default_factory=lambda: [BCRegion("natural")])
    exact_velocity: object = None
    exact_pressure: object = None

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError("viscosity must be finite and positive")


def natural_bc() -> list[BCRegion]:
    return [BCRegion("natural")]


def essential_bc(velocity, pressure) -> list[BCRegion]:
    return [BCRegion("essential", velocity=velocity, pressure=pressure)]


def pressflux_bc() -> list[BCRegion]:
    """Mixed conditions: pressure -z on the x=0 bottom corner patch, unit
    inflow u.n = 1 on the x=1 bottom corner patch, homogeneous natural
    elsewhere (corner patches are (0, 0.25)^2 in (y, z))."""
    def on_pressure_patch(a):
        return abs(a[0]) < 1e-12 and a[1] < 0.25 and a[2] < 0.25

    def on_flux_patch(a):
        return abs(a[0] - 1.0) < 1e-12 and a[1] < 0.25 and a[2] < 0.25

    return [
        BCRegion("essential", where=on_pressure_patch,
                 velocity=lambda pts: np.zeros((len(pts), 3)),
                 pressure=lambda pts: -pts[:, 2]),
        BCRegion("natural", where=on_flux_patch,
                 flux=lambda pts: np.ones(len(pts))),
        BCRegion("natural"),
    ]


# pseudo-transient (SER) globalisation: the u-block of the Newton matrix is
# shifted by PTC_LAMBDA0 * (|R_k|/|R_0|) times the CURL mass; the shift
# vanishes as the residual drops, recovering plain Newton.  A step whose
# residual does not drop is retried at most MAX_DAMPING times, each with a
# tenfold shift.
PTC_LAMBDA0 = 1.0
MAX_DAMPING = 6
# inexact Newton (Knoll & Keyes, JCP 2004) with Eisenstat-Walker forcing
# terms (SIAM J. Sci. Comput. 17, 1996): Newton iteration k only needs a
# step whose linear residual meets |J delta + R_k| <= eta_k |R_k|.  Choice 2
# of Eisenstat and Walker, from eta_0 = ETA_MAX on:
#     eta_k = min(ETA_MAX, max(FORCING_GAMMA (|R_k| / |R_{k-1}|)^2,
#                              OVERSOLVE_FLOOR tol scale / |R_k|)).
# The floor is Kelley's safeguard against oversolving: a step need not
# solve below half the Newton tolerance.  Eisenstat and Walker's safeguard
# max(eta_k, FORCING_GAMMA eta_{k-1}^2), taken when that term exceeds 0.1,
# cannot apply under ETA_MAX = 0.1 and is left out.
ETA_MAX = 0.1
FORCING_GAMMA = 0.9
OVERSOLVE_FLOOR = 0.5
# Within one solve() call, a step after the first runs one cycle of at most
# GMRES_RESTART iterations of GMRES right-preconditioned with the last
# sparse LU, so that its residual is the true one.  The step is accepted
# when the true condensed residual meets |A x - b| <= eta_k |R_k|; static
# condensation solves the interior rows exactly, so that residual is
# |J delta + R_k|.  GMRES aims GMRES_AIM times lower and stops there, or at
# the end of its cycle: stopping at the bound itself left the converged
# solution of the pressure/flux problem up to 1e-9 away from the exactly
# solved one, where aiming lower keeps it within 1e-10 (see README).  A
# cycle that cannot reach the bound is dropped early: from HOPELESS_AFTER
# iterations on, when even the fastest rate it has kept over
# HOPELESS_WINDOW iterations would leave its residual above the bound after
# GMRES_RESTART.  Early rates understate later ones, and a false drop costs
# a factorisation, several times the iterations it saves.  A dropped or
# missed step has its matrix factored.
# Factors are float32, which halves the bytes of each factor and of each
# triangular solve; residuals stay float64 (Carson & Higham, SIAM J. Sci.
# Comput. 40, 2018; Higham & Mary, Acta Numerica 31, 2022).  A fresh
# factor's solve is refined while each sweep at least halves |b - A x|; if
# that stops above DIRECT_ACCURACY |b|, the system is refactored in float64.
# The first preconditioner application of each GMRES cycle is refined once
# against the factored matrix, so that the cycle starts from a float64
# accurate solve with that matrix; later applications are one float32
# triangular solve each.  GMRES keeps the preconditioned vectors, so a
# preconditioner that changes between iterations is sound (flexible GMRES).
DIRECT_ACCURACY = 1e-12
GMRES_RESTART = 30
GMRES_AIM = 0.01
HOPELESS_AFTER = 10
HOPELESS_WINDOW = 3
# A factor is of D_r A D_c, the condensed matrix A with its momentum rows
# divided by nu and its pressure and multiplier columns multiplied by nu (a
# Stokes block at nu = 1, on the pattern of A), whose diagonal is a good
# pivot: every factor keeps a diagonal pivot down to 0.1 of its column's
# largest entry.  Its columns are ordered by minimum degree on A + A^T at
# k <= 1 up to MINIMUM_DEGREE_DIM unknowns, else by COLAMD: beyond them
# minimum degree was slower on some meshes (README).
MINIMUM_DEGREE_DIM = 6000
# The cell kernels take a group's cells in chunks, so that no temporary
# grows with the mesh and the heap memory of one chunk serves the next,
# instead of fresh pages mapped and faulted in on every step.  A chunk holds
# up to six arrays of its (cells, nloc, nloc) size at once (the Newton
# matrices, the gathered blocks, the Schur complements, K_GI X, and the
# index copy of np.add.at), and all of them take at most CHUNK_BYTES.
CHUNK_BYTES = 6 << 20


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 50      # Newton steps after the Stokes start

    def __post_init__(self):
        # a NaN tolerance would pass every residual test
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be finite and positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class NewtonDiagnostics:
    iterations: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    dim_condensed: int = 0
    dim_full: int = 0
    tolerance: float = 0.0    # the Newton tolerance tol * scale on |R|
    # sparse LUs made; a float64 refactor counts as one more
    factorizations: int = 0
    # GMRES iterations of each step solved with a reused factor
    krylov_iterations: list = field(default_factory=list)
    # one dict per newton_step call, Stokes start and damping retries
    # included: its forcing term "eta" (0 asks for an exact solve), the
    # "gmres_iterations" it ran (those of a dropped cycle included),
    # whether it "factored", the "precision" of the factor that gave its
    # solution ("float32", or "float64" after a refactor), the
    # "refinement_sweeps" it made (one per GMRES cycle, plus those of a
    # fresh factor's solve), and the "residual" |A x - b| / |R| it reached;
    # one that factored names its "ordering" and the "nnz" of its factor
    linear_solves: list = field(default_factory=list)


@dataclass
class Solution:
    u: DofVector
    p: DofVector
    multiplier: float
    diagnostics: NewtonDiagnostics


@dataclass
class _CellGroup:
    """Cells with the same local sizes: their blocks once per stack row,
    the row of each cell, and per-cell index tables."""
    cells: np.ndarray     # cell ids
    row: np.ndarray       # stack row of each cell
    stacks: dict          # name -> (rows, ...) blocks, one per row
    tables: dict          # name -> (cells, ...): idxu, idxp, gx and c_loc
    loc_int: np.ndarray   # local unknowns condensed out
    loc_ret: np.ndarray   # local unknowns kept in the condensed system
    chunks: list          # (cells, at) per chunk within CHUNK_BYTES
    slot: np.ndarray = None   # condensed-matrix entry of each kept block entry

    def blocks(self, cells, at) -> dict:
        """The blocks and tables of a chunk's cells, by name; the blocks
        are the stacks at `at` (_rows)."""
        return {**{name: a[cells] for name, a in self.tables.items()},
                **{name: a[at] for name, a in self.stacks.items()}}


def _rows(rows):
    """Where a chunk reads the stacks, from the rows of its cells: a view of
    their one row, which the kernels broadcast over the cells, or of their
    consecutive rows; else the rows, gathered into a copy."""
    if np.all(rows == rows[0]):
        return slice(rows[0], rows[0] + 1)
    if np.all(np.diff(rows) == 1):
        return slice(rows[0], rows[-1] + 1)
    return rows


def _mv(A, x):
    """Batched matrix-vector product: (G, m, n), (G, n) -> (G, m)."""
    return (A @ x[..., None])[..., 0]


def _crossmat(v):
    """(..., 3) -> (..., 3, 3) with [..., e, c] = (v x e_e)_c."""
    return np.cross(v[..., None, :], np.eye(3))


def _moment_matrix(S, N):
    """sum_i S[g, i, j, l] N[g, i, e, c] as (G, 3nb, 3nb) with rows (l, c)
    and columns (j, e): the test side on the rows.  S may be one block."""
    G, nb = len(N), S.shape[1]
    T = S.reshape(-1, nb, nb * nb).transpose(0, 2, 1) @ N.reshape(G, nb, 9)
    return (T.reshape(G, nb, nb, 3, 3).transpose(0, 2, 4, 1, 3)
            .reshape(G, 3 * nb, 3 * nb))


def _forcing_term(rnorm: float, rprev: float | None, tol: float) -> float:
    """The forcing term of a Newton iteration at residual norm rnorm after
    rprev (None on the first), for the Newton tolerance tol on |R|."""
    eta = ETA_MAX if rprev is None else FORCING_GAMMA * (rnorm / rprev) ** 2
    return min(ETA_MAX, max(eta, OVERSOLVE_FLOOR * tol / rnorm))


def _gmres(A, b, psolve, bound):
    """One cycle of GMRES from zero, right-preconditioned by psolve, toward
    |b - A x| <= GMRES_AIM bound.  Returns x and the iterations run; x is
    None when the cycle ends above bound or is dropped as hopeless."""
    m = GMRES_RESTART
    beta = np.linalg.norm(b)
    if beta <= GMRES_AIM * bound:
        return np.zeros_like(b), 0
    V = np.empty((m + 1, len(b)))
    Z = np.empty((m, len(b)))      # preconditioned Krylov vectors
    H = np.zeros((m + 1, m))
    V[0] = b / beta
    res = [beta]
    for j in range(m):
        Z[j] = psolve(V[j])
        w = A @ Z[j]
        for _ in range(2):         # Gram-Schmidt, repeated once
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            H[:j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        V[j + 1] = w / H[j + 1, j] if H[j + 1, j] > 0 else 0.0
        # the least-squares residual of |beta e_1 - H y| is beta |Q[0, -1]|
        Q, T = np.linalg.qr(H[:j + 2, :j + 1], mode="complete")
        res.append(beta * abs(Q[0, -1]))
        if res[-1] <= GMRES_AIM * bound:
            break
        if j + 1 >= HOPELESS_AFTER:
            r, n = np.array(res), HOPELESS_WINDOW
            rate = np.min(r[n:] / r[:-n]) ** (1 / n)
            if res[-1] * rate ** (m - j - 1) > bound:
                return None, j + 1
    if res[-1] > bound:
        return None, j + 1
    y = np.linalg.solve(T[:j + 1], beta * Q[0, :j + 1])
    return y @ Z[:j + 1], j + 1


class _FactorReuse:
    """Condensed linear solves of one solve() call: the first system is
    factored; a later one is solved by GMRES preconditioned with the last
    factor as far as its forcing term asks, else factored afresh.  A factor
    is float32 unless its system needed the float64 refactor; `A` is the
    matrix it stands for, of which the first m rows are momentum rows.
    Every splu takes splu_kw: its column ordering and pivot threshold."""

    def __init__(self, m, nu, splu_kw):
        self.m, self.nu, self.splu_kw = m, nu, splu_kw
        self.lu = self.A = None
        self.dtype = np.float32   # of the factor held
        self.factorizations = 0
        self.records = []

    def solve(self, A, b, eta, rnorm):
        """x with |A x - b| <= eta rnorm by GMRES on the last factor, else
        the refined solve of a fresh factor; each call is recorded."""
        bound = eta * rnorm
        x, its = (None, 0) if self.lu is None else \
            _gmres(A, b, self._cycle_preconditioner(), bound)
        sweeps = int(its > 0)
        if x is not None:
            achieved = np.linalg.norm(A @ x - b)    # the true residual
            if achieved > bound:
                x = None
        factored = x is None
        if factored:
            for dtype in (np.float32, np.float64):
                self.lu = None     # released before splu allocates the next
                try:
                    self.lu = spla.splu(self._scaled(A, dtype),
                                        **self.splu_kw)
                except RuntimeError as exc:
                    if dtype == np.float32:
                        continue
                    raise SolverError(
                        f"singular condensed matrix: {exc}") from exc
                self.A, self.dtype = A, dtype
                self.factorizations += 1
                x, achieved, n = self._refined(b)
                sweeps += n
                if achieved <= DIRECT_ACCURACY * np.linalg.norm(b):
                    break
        self.records.append({
            "eta": float(eta), "gmres_iterations": its, "factored": factored,
            "precision": np.dtype(self.dtype).name,
            "refinement_sweeps": sweeps,
            "residual": float(achieved / rnorm) if rnorm else 0.0,
            **({"ordering": self.splu_kw["permc_spec"],
                "nnz": int(self.lu.nnz)} if factored else {})})
        return x

    def _scaled(self, A, dtype):
        """D_r A D_c in dtype, on the pattern of A, explicit zeros kept."""
        F = A.astype(dtype)
        F.data[F.indptr[self.m]:] *= self.nu
        np.divide(F.data, self.nu, out=F.data, where=F.indices < self.m)
        return F

    def _triangular(self, r):
        """x = D_c solve(D_r r) with the factor, of r scaled to unit norm so
        that a float32 factor neither under- nor overflows."""
        s = np.linalg.norm(r)
        if s == 0.0:
            return np.zeros_like(r)
        v = r / s
        v[:self.m] /= self.nu
        x = s * self.lu.solve(v.astype(self.dtype, copy=False))
        x[self.m:] *= self.nu
        return x

    def _refined(self, b):
        """x from the factor, refined by float64 residuals while a sweep at
        least halves |b - A x|; returns x, |b - A x| and the sweeps made."""
        x = self._triangular(b)
        r = b - self.A @ x
        rn, sweeps = np.linalg.norm(r), 0
        while rn > 0.0:
            y = x + self._triangular(r)
            ry = b - self.A @ y
            ny = np.linalg.norm(ry)
            sweeps += 1
            halved = ny <= 0.5 * rn
            if ny < rn:
                x, r, rn = y, ry, ny
            if not halved:
                break
        return x, rn, sweeps

    def _cycle_preconditioner(self):
        """The preconditioner of one GMRES cycle: a solve with the factor,
        the first one refined once against the factored matrix."""
        first = True

        def psolve(v):
            nonlocal first
            z = self._triangular(v)
            if first:
                first = False
                z += self._triangular(v - self.A @ z)
            return z
        return psolve


class NavierStokesSolver:
    """Assembly + damped Newton for one (complex, problem) pair."""

    def __init__(self, cx: DdrComplex, spec: ProblemSpec,
                 options: SolverOptions | None = None):
        self.cx = cx
        self.spec = spec
        self.opts = options or SolverOptions()
        mesh = cx.mesh
        self.ul = cx.layouts[SpaceKind.CURL]
        self.pl = cx.layouts[SpaceKind.GRAD]
        self.n_u = self.ul.total_dim
        self.n_p = self.pl.total_dim

        self._classify(mesh)
        self.use_multiplier = len(self.classification.essential_faces) == 0
        self.n_x = self.n_u + self.n_p + (1 if self.use_multiplier else 0)
        self.free = np.ones(self.n_x, dtype=bool)
        self.free[:self.n_u][self.fixed_u] = False
        self.free[self.n_u:self.n_u + self.n_p][self.fixed_p] = False

        self._interpolate_data()
        self._cell_blocks()
        self._boundary_terms()
        self._condensed_pattern()
        self._linear = None   # the _FactorReuse of a running solve()

    # -- setup ---------------------------------------------------------------
    def _classify(self, mesh):
        regions = self.spec.regions
        # the first region of each boundary face, each where called once
        fids = mesh.boundary_faces().tolist()
        first = [next((r for r in regions if r.contains(mesh.face_anchor[f])),
                      None) for f in fids]
        self.classification = BoundaryClassification.of_tags(
            mesh, fids, [None if r is None else r.kind for r in first])
        self.region_of_face = {f: r for f, r in zip(fids, first)
                               if r is not None}
        used = {id(r) for r in self.region_of_face.values()}
        for i, r in enumerate(regions):
            if (r.kind == "essential" or r.flux is not None) \
                    and id(r) not in used:
                where = getattr(r.where, "__name__", repr(r.where))
                raise EmptyRegionError(
                    f"boundary region {i} ({r.kind}, where={where}) matches "
                    "no boundary face")
        self.fixed_u = boundary_subspace_mask(self.ul, self.classification)
        self.fixed_p = boundary_subspace_mask(self.pl, self.classification)

    def _interpolate_data(self):
        """Values held on essential DoFs: interpolates of the region data."""
        cx = self.cx
        self.u_fix = np.zeros(self.n_u)
        self.p_fix = np.zeros(self.n_p)
        ess = [r for r in self.spec.regions if r.kind == "essential"]
        for r in ess:
            uv = cx.interpolate_curl(r.velocity).values
            pv = cx.interpolate_grad(r.pressure).values
            faces = [f for f in self.classification.essential_faces
                     if self.region_of_face[f] is r]
            # the entities of the region's faces, by dimension; CURL has no
            # vertex DoFs
            ids = [np.unique(cx.mesh.face_loops.concat(faces)),
                   np.unique(cx.mesh.face_edges.concat(faces)), faces]
            for fix, lay, vals in ((self.u_fix, self.ul, uv),
                                   (self.p_fix, self.pl, pv)):
                for dim, ent in enumerate(ids):
                    idx = lay.dofs(dim, ent)
                    fix[idx] = vals[idx]

        self.i_f = cx.interpolate_curl(self.spec.forcing)
        self.rhs_mom = cx.gram_matrix(SpaceKind.CURL) @ self.i_f.values

    def _cell_blocks(self):
        """Hold the blocks of each cell group of the complex once per row:
        its stacks, and the viscous and pressure blocks formed from them."""
        cx = self.cx
        nu = self.spec.nu
        ones = None
        if self.use_multiplier:
            ones = cx.interpolate_grad(lambda pts: np.ones(len(pts))).values
            self.c_vec = cx.gram_matrix(SpaceKind.GRAD) @ ones
        else:
            self.c_vec = None
        nmu = 1 if self.use_multiplier else 0
        self.groups = []
        for grp in cx.cell_groups:
            ids = grp.ids
            idxu = self.ul.cell_table(ids)
            idxp = self.pl.cell_table(ids)
            stacks = {
                "visc": nu * np.swapaxes(grp.uC, 1, 2) @ grp.product_div
                @ grp.uC,
                "B": grp.product_curl @ grp.uG,
                "Mc": grp.product_curl,
                "CH": grp.convective_curl,
                "P": grp.pot_curl,
                "S": grp.tri_tensor,
            }
            gx = np.hstack([idxu, self.n_u + idxp,
                            np.full((len(ids), nmu), self.n_x - 1)])
            interior = grp.interior
            loc_int = np.concatenate([interior[SpaceKind.CURL],
                                      grp.n_curl + interior[SpaceKind.GRAD]])
            loc_ret = np.setdiff1d(np.arange(gx.shape[1]), loc_int)
            step = max(1, CHUNK_BYTES // (6 * 8 * gx.shape[1] ** 2))
            cuts = [slice(i, i + step) for i in range(0, len(ids), step)]
            group = _CellGroup(ids, grp.row, stacks,
                               {"idxu": idxu, "idxp": idxp, "gx": gx},
                               loc_int, loc_ret,
                               [(c, _rows(grp.row[c])) for c in cuts])
            if nmu:
                group.tables["c_loc"] = np.concatenate([
                    _mv(grp.product_grad[at], ones[idxp[sl]])
                    for sl, at in group.chunks])
            self.groups.append(group)

    def _boundary_terms(self):
        """Natural flux data: mass-row load sum_F int_F g gamma_F q, with one
        call of a region's flux per face group."""
        k = self.cx.k
        self.flux_vec = np.zeros(self.n_p)
        for r in self.spec.regions:
            if r.flux is None:
                continue
            fids = [f for f in self.classification.natural_faces
                    if self.region_of_face[f] is r]
            for g in self.cx.face_groups:
                m = np.flatnonzero(np.isin(g.ids, fids))
                if not len(m):
                    continue
                w = g.weights[m] * r.flux(g.points[m].reshape(-1, 3)).reshape(
                    len(m), -1)
                load = (w[:, None] @ _at_points(g, m, g.sca[k + 1])
                        @ g.trace_mat[g.row[m]])[:, 0]
                np.add.at(self.flux_vec, self.pl.face_table(g.ids[m]), load)

    def _condensed_pattern(self):
        """Unknowns and CSC sparsity of the condensed system, fixed for the
        solver: the free unknowns that are not condensed out, and for each
        group the entry of the condensed matrix that each entry of its
        Schur complements adds into (one past the last entry for a row or
        column that is fixed).  The unknowns of an entity in one space are
        kept or fixed as a block, and each pair of blocks fills a rectangle."""
        interior = np.zeros(self.n_x, dtype=bool)
        for grp in self.groups:
            interior[grp.tables["gx"][:, grp.loc_int]] = True
        self.cond_dofs = np.flatnonzero(self.free & ~interior)
        self.dim_condensed = nc = len(self.cond_dofs)
        pos = np.full(self.n_x, nc, dtype=np.int64)   # nc: not condensed
        pos[self.cond_dofs] = np.arange(nc)
        head = np.arange(self.n_x)   # the first unknown of each block
        m = self.cx.mesh
        for lay, at in ((self.ul, 0), (self.pl, self.n_u)):
            for dim, n in enumerate((m.n_vertices, m.n_edges, m.n_faces)):
                d = at + lay.dofs(dim, np.arange(n))
                head[d] = d[:, :1]
        start = pos[head[self.cond_dofs]]
        keys, blocks = [], []
        for grp in self.groups:
            g = grp.tables["gx"][:, grp.loc_ret]
            off = (g[0] - head[g[0]]).astype(np.int32)   # within its block
            r = pos[g]
            rb = r[:, off == 0]
            # column-major keys; each cell's run ascends but at fixed blocks
            keys.append((rb[:, :, None] * (nc + 1) + rb[:, None, :]).ravel())
            blocks.append((r, np.cumsum(off == 0) - 1, off))
        sizes = [len(k) for k in keys]
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.r_[True, keys[1:] != keys[:-1]]
        slot = np.cumsum(first, dtype=np.int32) - 1
        keys = keys[first]
        col = keys // (nc + 1)
        row = keys - col * (nc + 1)
        # rows of the distinct pairs before each, and before each column
        nrow = np.bincount(start, minlength=nc + 1).astype(np.int32)[row]
        upto = np.cumsum(np.append(0, nrow), dtype=np.int32)
        excl = upto[np.searchsorted(col, np.arange(nc + 2))]
        count = np.diff(excl)[start]
        self._indptr = np.concatenate([[0], np.cumsum(count)])
        self._nnz = nnz = int(self._indptr[-1])
        ptr = self._indptr.astype(np.int32)
        # a pair's first row in its column (a fixed pair: >= nnz below)
        rank = np.where(row < nc, upto[:-1] - excl[col], nnz - ptr[col])
        slot[order] = rank[slot]
        del order
        # each column of a block holds the rows of the block's pairs
        rows = np.arange(upto[-1], dtype=np.int32) + np.repeat(
            (row - upto[:-1]).astype(np.int32), nrow)
        self._indices = rows[np.arange(nnz, dtype=np.int32) - np.repeat(
            ptr[:-1] - excl[start], count)]
        for grp, (r, bl, off), part in zip(
                self.groups, blocks, np.split(slot, np.cumsum(sizes)[:-1])):
            part = part.reshape(len(r), bl[-1] + 1, -1)
            grp.slot = np.empty((len(r), len(bl) ** 2), dtype=np.int32)
            for sl, _ in grp.chunks:
                np.minimum(part[sl][:, bl, bl[:, None]] + off[:, None]
                           + ptr[r[sl]][:, None], nnz,
                           out=grp.slot[sl].reshape(-1, len(bl), len(bl)))

    # -- state vector helpers -------------------------------------------------
    def initial_state(self) -> np.ndarray:
        x = np.zeros(self.n_x)
        x[:self.n_u][self.fixed_u] = self.u_fix[self.fixed_u]
        x[self.n_u:self.n_u + self.n_p][self.fixed_p] = self.p_fix[self.fixed_p]
        return x

    def split(self, x):
        u = x[:self.n_u]
        p = x[self.n_u:self.n_u + self.n_p]
        mu = x[-1] if self.use_multiplier else 0.0
        return u, p, mu

    # -- batched cell kernels ------------------------------------------------------
    @staticmethod
    def _convection(blk, ua, ub):
        """Per cell, the P^k moments g[l, c] = int phi_l (C_h a x P b)_c of
        the convective field: (G, nb, 3)."""
        S = blk["S"]
        G, nb = len(ua), S.shape[1]
        a = _mv(blk["CH"], ua).reshape(G, nb, 1, 3)
        b = _mv(blk["P"], ub).reshape(G, 1, nb, 3)
        cr = np.cross(a, b).reshape(G, nb * nb, 3)
        return S.reshape(-1, nb * nb, nb).transpose(0, 2, 1) @ cr

    @staticmethod
    def _jacobian(blk, U, with_convection: bool):
        """Linearisation of the cell momentum rows: the exact derivative
        t(delta;u,v) + t(u;delta,v) of the convective form, (G, n, n)."""
        J = blk["visc"]
        if with_convection:
            S, P, CH = blk["S"], blk["P"], blk["CH"]
            G, nb = len(U), S.shape[1]
            a = _mv(CH, U).reshape(G, nb, 3)
            b = _mv(P, U).reshape(G, nb, 3)
            # derivative in the second argument: sum_i S_ijl (a_i x db_j)
            Da = _moment_matrix(S, _crossmat(a))
            # in the first: sum_j S_ijl (da_i x b_j), summed over S's j
            Db = _moment_matrix(S.transpose(0, 2, 1, 3), -_crossmat(b))
            J = J + P.transpose(0, 2, 1) @ (Da @ P + Db @ CH)
        return J

    # -- residual ---------------------------------------------------------------
    def trilinear(self, ua: np.ndarray, ub: np.ndarray, v: np.ndarray) -> float:
        """t(a; b, v) over global CURL coefficient arrays."""
        acc = 0.0
        for grp in self.groups:
            for sl, at in grp.chunks:
                blk = grp.blocks(sl, at)
                idx = blk["idxu"]
                w = _mv(blk["P"], v[idx])
                g = self._convection(blk, ua[idx], ub[idx])
                acc += np.sum(g.reshape(w.shape) * w)
        return float(acc)

    def residual(self, x: np.ndarray, with_convection: bool = True) -> np.ndarray:
        u, p, mu = self.split(x)
        R = np.zeros(self.n_x)
        Rm = R[:self.n_u]
        Rq = R[self.n_u:self.n_u + self.n_p]
        for grp in self.groups:
            iu, ip = grp.tables["idxu"], grp.tables["idxp"]
            mom, mass = np.empty(iu.shape), np.empty(ip.shape)
            for sl, at in grp.chunks:
                blk = grp.blocks(sl, at)
                U = u[blk["idxu"]]
                mom[sl] = _mv(blk["visc"], U) + _mv(blk["B"], p[blk["idxp"]])
                if with_convection:
                    g = self._convection(blk, U, U).reshape(len(U), -1)
                    mom[sl] += _mv(blk["P"].transpose(0, 2, 1), g)
                mass[sl] = _mv(blk["B"].transpose(0, 2, 1), U)
            Rm += np.bincount(iu.ravel(), mom.ravel(), minlength=self.n_u)
            Rq -= np.bincount(ip.ravel(), mass.ravel(), minlength=self.n_p)
        Rm -= self.rhs_mom
        Rq += self.flux_vec
        if self.use_multiplier:
            Rq += mu * self.c_vec
            R[-1] = self.c_vec @ p
        return R

    def residual_norm(self, R: np.ndarray) -> float:
        return float(np.linalg.norm(R[self.free]))

    # -- Newton step with static condensation ------------------------------------
    def _cell_matrices(self, blk, u, with_convection, shift):
        """Local Newton matrices of a chunk's cells: (G, nloc, nloc) over
        (u, p, multiplier) unknowns."""
        G, nloc = blk["gx"].shape
        nu_loc = blk["idxu"].shape[1]
        p_loc = slice(nu_loc, nu_loc + blk["idxp"].shape[1])
        K = np.zeros((G, nloc, nloc))
        K[:, :nu_loc, :nu_loc] = self._jacobian(blk, u[blk["idxu"]],
                                                with_convection)
        if shift:
            K[:, :nu_loc, :nu_loc] += shift * blk["Mc"]
        K[:, :nu_loc, p_loc] = blk["B"]
        K[:, p_loc, :nu_loc] = -blk["B"].transpose(0, 2, 1)
        if self.use_multiplier:
            K[:, p_loc, -1] = blk["c_loc"]
            K[:, -1, p_loc] = blk["c_loc"]
        return K

    def _condense(self, x, R, with_convection, shift):
        """Eliminate each cell's interior unknowns by its Schur complement.

        Returns the condensed matrix on the fixed pattern, its right-hand
        side, and per group the interior solution operator
        X = KII^{-1} [KIG | rI] that the back-substitution needs.  Each
        chunk's local matrices die within its turn of the loop, once its
        Schur complements are added into the matrix entries."""
        u = x[:self.n_u]
        rhs = np.where(self.free, -R, 0.0)
        data = np.zeros(self._nnz + 1)
        back = []
        for grp in self.groups:
            li, lr = grp.loc_int, grp.loc_ret
            # skipped at k = 0: taking it gives the same bits, 1-4 MiB more RSS
            if len(li):
                X = np.empty((len(grp.cells), len(li), len(lr) + 1))
                corr = np.empty((len(grp.cells), len(lr)))
            for sl, at in grp.chunks:
                blk = grp.blocks(sl, at)
                K = self._cell_matrices(blk, u, with_convection, shift)
                if len(li):
                    KII = K[:, li[:, None], li]
                    KIx = np.concatenate([K[:, li[:, None], lr],
                                          rhs[blk["gx"][:, li]][..., None]],
                                         axis=2)
                    try:
                        X[sl] = np.linalg.solve(KII, KIx)
                    except np.linalg.LinAlgError as exc:
                        bad = grp.cells[sl][
                            np.argmin(np.linalg.matrix_rank(KII))]
                        raise SolverError(
                            f"singular cell-interior block of cell {bad} "
                            "during static condensation") from exc
                    KGI = K[:, lr[:, None], li]
                    K = K[:, lr[:, None], lr] - KGI @ X[sl, :, :-1]
                    corr[sl] = _mv(KGI, X[sl, :, -1])
                np.add.at(data, grp.slot[sl].ravel(), K.ravel())
            if len(li):
                rhs -= np.bincount(grp.tables["gx"][:, lr].ravel(),
                                   corr.ravel(), minlength=self.n_x)
                back.append((grp, X))
        A = sp.csc_matrix((data[:-1], self._indices, self._indptr),
                          shape=(self.dim_condensed, self.dim_condensed))
        return A, rhs[self.cond_dofs], back

    def newton_step(self, x: np.ndarray, R: np.ndarray,
                    with_convection: bool = True,
                    shift: float = 0.0, eta: float = 0.0) -> np.ndarray:
        """Solve (J + shift M_curl) delta = -R with per-cell elimination of
        the cell-attached blocks (Schur complements, back-substituted), to
        a linear residual of at most eta |R| when a factor is reused."""
        A, b, back = self._condense(x, R, with_convection, shift)
        delta = np.zeros(self.n_x)
        delta[self.cond_dofs] = (self._linear or self._factor_reuse()).solve(
            A, b, eta, self.residual_norm(R))
        for grp, X in back:
            for sl, _ in grp.chunks:
                gx = grp.tables["gx"][sl]
                delta[gx[:, grp.loc_int]] = X[sl, :, -1] - _mv(
                    X[sl, :, :-1], delta[gx[:, grp.loc_ret]])
        return delta

    def _factor_reuse(self) -> _FactorReuse:
        """The linear solves of this solver (see MINIMUM_DEGREE_DIM)."""
        return _FactorReuse(
            int(np.searchsorted(self.cond_dofs, self.n_u)), self.spec.nu,
            dict(permc_spec="MMD_AT_PLUS_A" if self.cx.k <= 1
                 and self.dim_condensed <= MINIMUM_DEGREE_DIM else "COLAMD",
                 diag_pivot_thresh=0.1))

    # -- driver ---------------------------------------------------------------
    def solve(self) -> Solution:
        """Damped Newton from the Stokes solution.  The sparse factor of one
        call is reused across its steps and released when it returns."""
        scale = max(np.linalg.norm(self.rhs_mom), np.linalg.norm(self.flux_vec),
                    np.linalg.norm(self.u_fix) + np.linalg.norm(self.p_fix))
        if scale == 0.0:
            scale = 1.0
        diag = NewtonDiagnostics(dim_full=int(self.free.sum()),
                                 dim_condensed=self.dim_condensed,
                                 tolerance=self.opts.tol * scale)

        self._linear = linear = self._factor_reuse()
        try:
            x = self._newton(diag)
        finally:
            self._linear = linear.lu = linear.A = None
            diag.linear_solves = recs = linear.records
            diag.factorizations = linear.factorizations
            diag.krylov_iterations = [r["gmres_iterations"] for r in recs
                                      if not r["factored"]]

        u, p, mu = self.split(x)
        return Solution(DofVector(self.ul, u.copy()),
                        DofVector(self.pl, p.copy()), float(mu), diag)

    def _newton(self, diag):
        tol = diag.tolerance
        x = self.initial_state()
        # Stokes solve as the initial guess (exact for the linear part)
        R = self.residual(x, with_convection=False)
        x = x + self.newton_step(x, R, with_convection=False)

        R = self.residual(x)
        rnorm = self.residual_norm(R)
        r0 = max(rnorm, 1e-300)
        diag.residuals.append(rnorm)
        rprev = None
        while rnorm > tol:
            if diag.iterations >= self.opts.max_iter:
                raise NonConvergenceError(
                    diag, f"max_iter = {self.opts.max_iter} Newton steps taken")
            diag.iterations += 1
            eta = _forcing_term(rnorm, rprev, tol)
            lam = PTC_LAMBDA0 * rnorm / r0
            # the first candidate below rnorm is taken
            for attempt in range(MAX_DAMPING + 1):
                if attempt:
                    lam = 10.0 * lam if lam > 0 else 1e-2
                cand = x + self.newton_step(x, R, shift=lam, eta=eta)
                cand_R = self.residual(cand)
                cand_norm = self.residual_norm(cand_R)
                if cand_norm < rnorm:
                    break
            else:
                raise NonConvergenceError(
                    diag, f"no damping of step {diag.iterations} beat the "
                    f"residual {rnorm:.3e}, up to shift lambda = {lam:.3e}")
            rprev = rnorm
            x, R, rnorm = cand, cand_R, cand_norm
            diag.residuals.append(rnorm)
        diag.converged = True
        return x
