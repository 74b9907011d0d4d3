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
direct solve; convergence is measured on the full uncondensed residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import DdrComplex
from .spaces import (DofVector, SpaceKind, boundary_subspace_mask,
                     classify_boundary)


class SolverError(Exception):
    pass


class EmptyRegionError(ValueError):
    """A boundary region that carries data matches no boundary face."""


class NonConvergenceError(SolverError):
    def __init__(self, diagnostics):
        super().__init__(f"Newton failed to converge in "
                         f"{diagnostics.iterations} iterations "
                         f"(last residual {diagnostics.residuals[-1]:.3e})")
        self.diagnostics = diagnostics


@dataclass
class BCRegion:
    """One boundary region: 'natural' (vorticity x n and u.n weakly) or
    'essential' (u x n and p strongly).

    where: predicate on Face objects (checked on boundary faces only).
    flux: prescribed u.n for natural regions (None = homogeneous).
    velocity / pressure: data fields for essential regions.
    """
    kind: str
    where: object = None
    flux: object = None
    velocity: object = None
    pressure: object = None

    def contains(self, face) -> bool:
        return True if self.where is None else bool(self.where(face))


@dataclass
class ProblemSpec:
    nu: float
    forcing: object
    regions: list[BCRegion] = field(default_factory=lambda: [BCRegion("natural")])
    exact_velocity: object = None
    exact_pressure: object = None

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")


def natural_bc() -> list[BCRegion]:
    return [BCRegion("natural")]


def essential_bc(velocity, pressure) -> list[BCRegion]:
    return [BCRegion("essential", velocity=velocity, pressure=pressure)]


def pressflux_bc() -> list[BCRegion]:
    """Mixed conditions: pressure -z on the x=0 bottom corner patch, unit
    inflow u.n = 1 on the x=1 bottom corner patch, homogeneous natural
    elsewhere (corner patches are (0, 0.25)^2 in (y, z))."""
    def on_pressure_patch(face):
        a = face.anchor
        return abs(a[0]) < 1e-12 and a[1] < 0.25 and a[2] < 0.25

    def on_flux_patch(face):
        a = face.anchor
        return abs(a[0] - 1.0) < 1e-12 and a[1] < 0.25 and a[2] < 0.25

    return [
        BCRegion("essential", where=on_pressure_patch,
                 velocity=lambda pts: np.zeros((len(pts), 3)),
                 pressure=lambda pts: -pts[:, 2]),
        BCRegion("natural", where=on_flux_patch,
                 flux=lambda pts: np.ones(len(pts))),
        BCRegion("natural"),
    ]


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 50
    max_damping: int = 6
    condense: bool = True
    # pseudo-transient (SER) globalisation: the u-block of the Newton matrix
    # is shifted by lambda0 * (|R_k|/|R_0|) times the CURL mass; the shift
    # vanishes as the residual drops, recovering plain Newton
    ptc_lambda0: float = 1.0


@dataclass
class NewtonDiagnostics:
    iterations: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    dim_condensed: int = 0
    dim_full: int = 0


@dataclass
class Solution:
    u: DofVector
    p: DofVector
    multiplier: float
    diagnostics: NewtonDiagnostics


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

        self._interpolate_data()
        self._cell_blocks()
        self._boundary_terms()

    # -- setup ---------------------------------------------------------------
    def _classify(self, mesh):
        regions = self.spec.regions

        def classifier(face):
            for r in regions:
                if r.contains(face):
                    return r.kind
            return None

        self.classification = classify_boundary(mesh, classifier)
        self.region_of_face = {}
        for fid in mesh.boundary_faces():
            for r in regions:
                if r.contains(mesh.faces[fid]):
                    self.region_of_face[fid] = r
                    break
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
            edges, verts = set(), set()
            for f in faces:
                edges.update(cx.mesh.faces[f].edges)
                verts.update(cx.mesh.faces[f].vertex_loop)
                idx = self.ul.face_dofs(f)
                self.u_fix[idx] = uv[idx]
                idx = self.pl.face_dofs(f)
                self.p_fix[idx] = pv[idx]
            for e in sorted(edges):
                self.u_fix[self.ul.edge_dofs(e)] = uv[self.ul.edge_dofs(e)]
                self.p_fix[self.pl.edge_dofs(e)] = pv[self.pl.edge_dofs(e)]
            for v in sorted(verts):
                self.p_fix[self.pl.vertex_dofs(v)] = pv[self.pl.vertex_dofs(v)]

        self.i_f = cx.interpolate_curl(self.spec.forcing)
        self.rhs_mom = cx.gram_matrix(SpaceKind.CURL) @ self.i_f.values

    def _cell_blocks(self):
        cx = self.cx
        nu = self.spec.nu
        self.cells = []
        for c, cctx in enumerate(cx.cells):
            idxu = self.ul.cell_indices(c)
            idxp = self.pl.cell_indices(c)
            visc = nu * cctx.uC.T @ cctx.product_div @ cctx.uC
            B = cctx.product_curl @ cctx.uG
            self.cells.append({
                "idxu": idxu, "idxp": idxp, "visc": visc, "B": B,
                "Mc": cctx.product_curl,
                "CH": cctx.convective_curl, "P": cctx.pot_curl,
                "S": cctx.tri_tensor,
                "int_u": cctx.interior[SpaceKind.CURL],
                "int_p": cctx.interior[SpaceKind.GRAD],
            })
        if self.use_multiplier:
            ones = cx.interpolate_grad(lambda pts: np.ones(len(pts)))
            self.c_vec = cx.gram_matrix(SpaceKind.GRAD) @ ones.values
            for c, cell in enumerate(self.cells):
                cctx = cx.cells[c]
                cell["c_loc"] = cctx.product_grad @ ones.values[cell["idxp"]]
        else:
            self.c_vec = None

    def _boundary_terms(self):
        """Natural flux data: mass-row load sum_F int_F g gamma_F q."""
        cx = self.cx
        self.flux_vec = np.zeros(self.n_p)
        for fid in self.classification.natural_faces:
            r = self.region_of_face[fid]
            if r.flux is None:
                continue
            fctx = cx.faces[fid]
            g = r.flux(fctx.rule.points)
            phi = fctx.sca[self.cx.k + 1].eval(fctx.rule.points)
            row = (fctx.rule.weights * g) @ phi @ fctx.trace_mat
            np.add.at(self.flux_vec, self.pl.face_indices(fid), row)

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

    def _free_mask(self) -> np.ndarray:
        free = np.ones(self.n_x, dtype=bool)
        free[:self.n_u][self.fixed_u] = False
        free[self.n_u:self.n_u + self.n_p][self.fixed_p] = False
        return free

    # -- residual ---------------------------------------------------------------
    def convective_row(self, cell, ul) -> np.ndarray:
        a = (cell["CH"] @ ul).reshape(-1, 3)
        b = (cell["P"] @ ul).reshape(-1, 3)
        cr = np.cross(a[:, None, :], b[None, :, :])
        g = np.einsum("ijl,ijc->lc", cell["S"], cr, optimize=True)
        return cell["P"].T @ g.reshape(-1)

    def trilinear(self, ua: np.ndarray, ub: np.ndarray, v: np.ndarray) -> float:
        """t(a; b, v) over global CURL coefficient arrays."""
        acc = 0.0
        for cell in self.cells:
            idx = cell["idxu"]
            a = (cell["CH"] @ ua[idx]).reshape(-1, 3)
            b = (cell["P"] @ ub[idx]).reshape(-1, 3)
            w = (cell["P"] @ v[idx]).reshape(-1, 3)
            cr = np.cross(a[:, None, :], b[None, :, :])
            acc += np.einsum("ijl,ijc,lc->", cell["S"], cr, w, optimize=True)
        return float(acc)

    def residual(self, x: np.ndarray, with_convection: bool = True) -> np.ndarray:
        u, p, mu = self.split(x)
        R = np.zeros(self.n_x)
        Rm = np.zeros(self.n_u)
        Rq = np.zeros(self.n_p)
        for cell in self.cells:
            iu, ip = cell["idxu"], cell["idxp"]
            ul, plc = u[iu], p[ip]
            row = cell["visc"] @ ul + cell["B"] @ plc
            if with_convection:
                row = row + self.convective_row(cell, ul)
            np.add.at(Rm, iu, row)
            np.add.at(Rq, ip, -(cell["B"].T @ ul))
        Rm -= self.rhs_mom
        Rq += self.flux_vec
        if self.use_multiplier:
            Rq += mu * self.c_vec
            R[-1] = self.c_vec @ p
        R[:self.n_u] = Rm
        R[self.n_u:self.n_u + self.n_p] = Rq
        return R

    def residual_norm(self, R: np.ndarray) -> float:
        return float(np.linalg.norm(R[self._free_mask()]))

    # -- Newton step with static condensation ------------------------------------
    def _cell_jacobian(self, cell, ul, with_convection: bool,
                      mode: str = "newton"):
        """Linearisation of the cell momentum rows.

        'newton' uses the exact derivative t(delta;u,v) + t(u;delta,v);
        'picard' freezes the curl factor, keeping only t(u;delta,v) (a skew
        form, more robust far from the solution).
        """
        J = cell["visc"]
        if with_convection:
            a = (cell["CH"] @ ul).reshape(-1, 3)
            b = (cell["P"] @ ul).reshape(-1, 3)
            nb = a.shape[0]
            Na = np.cross(a[:, None, :], np.eye(3)[None, :, :])   # (i, b, c)
            T2 = np.einsum("ijl,ibc->jblc", cell["S"], Na,
                           optimize=True).reshape(3 * nb, 3 * nb)
            # rows are the test side
            J = J + cell["P"].T @ (T2.T @ cell["P"])
            if mode == "newton":
                Mb = np.cross(np.eye(3)[None, :, :], b[:, None, :])  # (j, a, c)
                T1 = np.einsum("ijl,jac->ialc", cell["S"], Mb,
                               optimize=True).reshape(3 * nb, 3 * nb)
                J = J + cell["P"].T @ (T1.T @ cell["CH"])
        return J

    def newton_step(self, x: np.ndarray, R: np.ndarray,
                    with_convection: bool = True, mode: str = "newton",
                    shift: float = 0.0) -> np.ndarray:
        """Solve (J + shift M_curl) delta = -R with per-cell elimination of
        the cell-attached blocks (Schur complements, back-substituted)."""
        u, p, mu = self.split(x)
        free = self._free_mask()
        nmu = 1 if self.use_multiplier else 0
        condense = self.opts.condense

        # retained = all non-interior dofs (+ multiplier); interior = cell blocks
        interior = np.zeros(self.n_x, dtype=bool)
        if condense:
            for cell in self.cells:
                interior[cell["idxu"][cell["int_u"]]] = True
                interior[self.n_u + cell["idxp"][cell["int_p"]]] = True
        retained = ~interior
        ret_index = -np.ones(self.n_x, dtype=int)
        ret_index[retained] = np.arange(retained.sum())
        nret = int(retained.sum())

        data, rows, cols = [], [], []
        rhs = np.where(free, -R, 0.0)
        rhs_ret = rhs[retained].copy()
        back = []

        for cell in self.cells:
            iu, ip = cell["idxu"], cell["idxp"]
            nu_loc, np_loc = len(iu), len(ip)
            nloc = nu_loc + np_loc + nmu
            K = np.zeros((nloc, nloc))
            Juu = self._cell_jacobian(cell, u[iu], with_convection, mode)
            if shift:
                Juu = Juu + shift * cell["Mc"]
            K[:nu_loc, :nu_loc] = Juu
            K[:nu_loc, nu_loc:nu_loc + np_loc] = cell["B"]
            K[nu_loc:nu_loc + np_loc, :nu_loc] = -cell["B"].T
            gx = np.concatenate([iu, self.n_u + ip,
                                 [self.n_x - 1] if nmu else []]).astype(int)
            if nmu:
                cloc = cell["c_loc"]
                K[nu_loc:nu_loc + np_loc, -1] = cloc
                K[-1, nu_loc:nu_loc + np_loc] = cloc

            loc_int = np.concatenate([cell["int_u"],
                                      nu_loc + cell["int_p"]]).astype(int)
            loc_ret = np.setdiff1d(np.arange(nloc), loc_int)
            if condense and len(loc_int):
                KII = K[np.ix_(loc_int, loc_int)]
                KIG = K[np.ix_(loc_int, loc_ret)]
                KGI = K[np.ix_(loc_ret, loc_int)]
                KGG = K[np.ix_(loc_ret, loc_ret)]
                try:
                    KII_inv_KIG = np.linalg.solve(KII, KIG)
                    rI = rhs[gx[loc_int]]
                    KII_inv_rI = np.linalg.solve(KII, rI)
                except np.linalg.LinAlgError as exc:
                    raise SolverError("singular cell-interior block during "
                                      "static condensation") from exc
                Sgg = KGG - KGI @ KII_inv_KIG
                g_ret = gx[loc_ret]
                np.subtract.at(rhs_ret, ret_index[g_ret], KGI @ KII_inv_rI)
                back.append((gx[loc_int], g_ret, KII, KIG, rI))
                blk, bidx = Sgg, ret_index[g_ret]
            else:
                back.append(None)
                blk, bidx = K, ret_index[gx]
            rr, cc = np.meshgrid(bidx, bidx, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            data.append(blk.ravel())

        A = sp.csr_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nret, nret))
        free_ret = free[retained]
        sub = np.where(free_ret)[0]
        A_ff = A[sub][:, sub].tocsc()
        try:
            lu = spla.splu(A_ff)
        except RuntimeError as exc:
            raise SolverError(f"singular condensed matrix: {exc}") from exc
        d_ret = np.zeros(nret)
        d_ret[sub] = lu.solve(rhs_ret[sub])

        delta = np.zeros(self.n_x)
        delta[retained] = d_ret
        for cell, info in zip(self.cells, back):
            if info is None:
                continue
            g_int, g_ret, KII, KIG, rI = info
            delta[g_int] = np.linalg.solve(KII, rI - KIG @ delta[g_ret])
        self._last_dim_condensed = len(sub)
        return delta

    # -- driver ---------------------------------------------------------------
    def solve(self) -> Solution:
        opts = self.opts
        diag = NewtonDiagnostics(dim_full=int(self._free_mask().sum()))
        scale = max(np.linalg.norm(self.rhs_mom), np.linalg.norm(self.flux_vec),
                    np.linalg.norm(self.u_fix) + np.linalg.norm(self.p_fix))
        if scale == 0.0:
            scale = 1.0

        x = self.initial_state()
        # Stokes solve as the initial guess (exact for the linear part)
        R = self.residual(x, with_convection=False)
        x = x + self.newton_step(x, R, with_convection=False)
        diag.dim_condensed = self._last_dim_condensed

        R = self.residual(x)
        rnorm = self.residual_norm(R)
        r0 = max(rnorm, 1e-300)
        diag.residuals.append(rnorm)
        while rnorm > opts.tol * scale:
            if diag.iterations >= opts.max_iter:
                diag.converged = False
                raise NonConvergenceError(diag)
            lam = opts.ptc_lambda0 * rnorm / r0
            accepted = None
            for _ in range(opts.max_damping + 1):
                delta = self.newton_step(x, R, shift=lam)
                cand = x + delta
                cand_R = self.residual(cand)
                cand_norm = self.residual_norm(cand_R)
                if accepted is None or cand_norm < accepted[2]:
                    accepted = (cand, cand_R, cand_norm)
                if cand_norm < rnorm:
                    break
                lam = 10.0 * lam if lam > 0 else 1e-2
            diag.iterations += 1
            if accepted[2] >= rnorm:
                diag.converged = False
                raise NonConvergenceError(diag)
            x, R, rnorm = accepted
            diag.residuals.append(rnorm)
        diag.converged = True

        u, p, mu = self.split(x)
        return Solution(DofVector(self.ul, u.copy()),
                        DofVector(self.pl, p.copy()), float(mu), diag)


def load_config(path) -> dict:
    """Flat key=value solver configuration; '#' comments, blank lines ok."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {raw!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            for conv in (int, float):
                try:
                    out[key] = conv(val)
                    break
                except ValueError:
                    continue
            else:
                out[key] = val
    return out
