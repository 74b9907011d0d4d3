"""Error measures, convergence rates, discrete constants and property suites.

Errors mirror the scheme's analysis: discrete errors measured in the graph
norm of the curl space (velocity) and the CURL norm of the discrete pressure
gradient; potential-based errors by cellwise quadrature of reconstructed
fields against the exact ones, read chunk by chunk of cells from the
potential kernel of :class:`DdrComplex`, each field once per chunk; their
names are ``ErrorReport.ERRORS``.  The consistency and commutation checks
take their fields as one-hot monomial coefficient rows.  The constants
estimators use dense eigen/rank computations and refuse, rather than
approximate, above a dimension cap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import polyspaces as ps
from .operators import DdrComplex, _curl3_coeffs, _grad_coeffs
from .solutions import TrigSolution
from .solver import NavierStokesSolver, ProblemSpec, SolverOptions, natural_bc
from .spaces import DofVector, SpaceKind

DENSE_CAP = 5000
PROPERTY_TOL = 1e-12   # the suite's Newton tolerance, below its 1e-10 checks


class DimensionCapError(Exception):
    """Dense eigen/rank work refused beyond the configured cap."""


@dataclass
class ErrorReport:
    h: float
    err_u_discrete: float      # graph-norm error on the velocity
    err_p_discrete: float      # CURL norm of the discrete pressure-gradient error
    err_u_potential: float
    err_p_potential: float
    dim_condensed: int = 0
    newton_iterations: int = 0
    eoc: dict = field(default_factory=dict)

    # the reported errors in report order: (CSV name, attribute)
    ERRORS = (("E^d_u", "err_u_discrete"), ("E^p_u", "err_u_potential"),
              ("E^d_p", "err_p_discrete"), ("E^p_p", "err_p_potential"))
    CSV_COLUMNS = (("MeshSize", "DimCondensed")
                   + tuple(name for name, _ in ERRORS)
                   + tuple("EOC_" + name for name, _ in ERRORS))

    def csv_row(self):
        return ([repr(self.h), self.dim_condensed]
                + [repr(getattr(self, attr)) for _, attr in self.ERRORS]
                + [repr(self.eoc[name]) if name in self.eoc else ""
                   for name, _ in self.ERRORS])


def attach_eoc(reports: list[ErrorReport]) -> None:
    """Observed orders between successive reports (needs two levels)."""
    for prev, cur in zip(reports, reports[1:]):
        ratio = np.log(prev.h / cur.h)
        for name, attr in ErrorReport.ERRORS:
            a, b = getattr(prev, attr), getattr(cur, attr)
            if a > 0 and b > 0:
                cur.eoc[name] = float(np.log(a / b) / ratio)


def write_csv(path, header, rows) -> None:
    """The CSV table of the header and the rows, written in one go."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def compute_errors(cx: DdrComplex, u: DofVector, p: DofVector, exact) -> ErrorReport:
    """Discrete and potential-based errors against a manufactured solution.

    exact must provide velocity, pressure, curl_velocity and grad_pressure
    callables on (n, 3) point arrays.
    """
    iu = cx.interpolate_curl(exact.velocity)
    ip = cx.interpolate_grad(exact.pressure)
    eu = DofVector(cx.layouts[SpaceKind.CURL], u.values - iu.values)
    ep = DofVector(cx.layouts[SpaceKind.GRAD], p.values - ip.values)
    e_du = cx.graph_norm(eu)
    e_dp = cx.norm(SpaceKind.CURL, cx.global_gradient(ep))

    sq = [sum(np.sum(w * np.sum((v - ref) ** 2, axis=-1))
              for w, v, ref in _against(cx, kind, x, fun))
          for kind, x, fun in ((SpaceKind.CURL, u, exact.velocity),
                               (SpaceKind.DIV, cx.global_curl(u),
                                exact.curl_velocity),
                               (SpaceKind.CURL, cx.global_gradient(p),
                                exact.grad_pressure))]
    return ErrorReport(cx.mesh.h, e_du, e_dp, float(np.sqrt(sq[0] + sq[1])),
                       float(np.sqrt(sq[2])))


def _against(cx: DdrComplex, kind, x: DofVector, fun):
    """(rule weights, potential values, fun values) of the kind potential of
    x on each chunk of cells, with a leading member axis."""
    for g, members, vals in cx.potential_chunks(kind, x.values):
        ref = fun(g.points[members].reshape(-1, 3))
        yield g.weights[members], vals, ref.reshape(vals.shape)


# ---------------------------------------------------------------------------
# discrete constants


@dataclass
class ConstantsReport:
    h: float
    k: int
    poincare_curl: float
    continuity_curl: float
    continuity_div: float
    sobolev_lower_bound: float
    chi: float | None = None   # data-smallness diagnostic (can be negative)


def _capped_dim(cx: DdrComplex, kind: SpaceKind) -> int:
    """The dimension of the kind space, refused above DENSE_CAP."""
    n = cx.layouts[kind].total_dim
    if n > DENSE_CAP:
        raise DimensionCapError(f"{kind.name} dimension {n} exceeds the dense "
                                f"cap {DENSE_CAP}")
    return n


def _complement_basis(cx: DdrComplex) -> np.ndarray:
    """Euclidean-orthonormal basis of the CURL-orthogonal complement of the
    image of the discrete gradient."""
    _capped_dim(cx, SpaceKind.CURL)
    G = cx.gradient_matrix().toarray()
    Mc = cx.gram_matrix(SpaceKind.CURL).toarray()
    A = G.T @ Mc                       # v in complement iff A v = 0
    _, sv, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return vt[rank:].T                 # (n, n - rank)


def estimate_poincare(cx: DdrComplex) -> float:
    """Largest |v|_CURL / |uC v|_DIV over the complement of Im uG."""
    Z = _complement_basis(cx)
    Mc = cx.gram_matrix(SpaceKind.CURL).toarray()
    Md = cx.gram_matrix(SpaceKind.DIV).toarray()
    C = cx.curl_matrix().toarray()
    A = Z.T @ Mc @ Z
    B = Z.T @ (C.T @ Md @ C) @ Z
    ev = sla.eigh(A, B, eigvals_only=True)
    return float(np.sqrt(ev[-1]))


def estimate_continuity(cx: DdrComplex, kind: SpaceKind) -> float:
    """Largest |P x|_L2 / |x| over the space: consistency part vs full norm."""
    n = _capped_dim(cx, kind)
    lay = cx.layouts[kind]
    Q = np.zeros((n, n))
    M = cx.gram_matrix(kind).toarray()
    for g in cx.cell_groups:
        # the potential maps local DoFs to coefficients in an orthonormal
        # P^k basis, so pot^T pot is its L2 Gram
        idx = lay.cell_table(g.ids)
        pot = getattr(g, f"pot_{kind.value}")
        np.add.at(Q, (idx[:, :, None], idx[:, None, :]),
                  (np.swapaxes(pot, 1, 2) @ pot)[g.row])
    ev = sla.eigh(Q, M, eigvals_only=True)
    return float(np.sqrt(max(ev[-1], 0.0)))


def estimate_sobolev_lower_bound(cx: DdrComplex, samples: int = 12,
                                 ascent_steps: int = 40,
                                 seed: int = 0) -> float:
    """Lower bound on the discrete Sobolev constant
    max |P_curl v|_L4 / |uC v|_DIV over the complement of Im uG,
    by random restarts plus projected gradient ascent on the quotient.
    The maximisation is non-quadratic; only a lower bound is claimed."""
    Z = _complement_basis(cx)
    Md = cx.gram_matrix(SpaceKind.DIV).toarray()
    C = cx.curl_matrix().toarray()
    B = Z.T @ (C.T @ Md @ C) @ Z

    # the L4 functional's pieces, once: the potentials of the columns of Z
    cell_ops = [(g.weights[members], E) for g, members, E
                in cx.potential_chunks(SpaceKind.CURL, Z)]

    def num_and_grad(y):
        acc = 0.0
        grad = np.zeros_like(y)
        for w, E in cell_ops:
            vals = E @ y
            m2 = np.sum(vals**2, axis=-1)
            acc += np.sum(w * m2**2)
            grad += 4.0 * np.einsum("mp,mpx,mpxn->n", w * m2, vals, E)
        num = acc ** 0.25
        return num, grad / max(4.0 * num**3, 1e-300)

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        y = rng.standard_normal(Z.shape[1])
        y /= np.sqrt(y @ B @ y)
        val = 0.0
        for _ in range(ascent_steps):
            num, gnum = num_and_grad(y)
            den = np.sqrt(y @ B @ y)
            val = num / den
            g = gnum / den - (num / den**3) * (B @ y)
            step = 0.5
            improved = False
            for _ in range(12):
                y2 = y + step * g / max(np.linalg.norm(g), 1e-300)
                y2 /= np.sqrt(y2 @ B @ y2)
                n2, _ = num_and_grad(y2)
                if n2 > val:
                    y = y2
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        best = max(best, val)
    return float(best)


def constants_report(cx: DdrComplex, exact=None, nu: float = 1.0,
                     seed: int = 0) -> ConstantsReport:
    cp = estimate_poincare(cx)
    cc = estimate_continuity(cx, SpaceKind.CURL)
    cd = estimate_continuity(cx, SpaceKind.DIV)
    cs = estimate_sobolev_lower_bound(cx, seed=seed)
    chi = None
    if exact is not None:
        i_ru = cx.interpolate_curl(exact.velocity_force)
        chi = float(nu - cd * cs**2 * cp * cx.l2_product(
            SpaceKind.CURL, i_ru, i_ru) ** 0.5 / nu)
    return ConstantsReport(cx.mesh.h, cx.k, cp, cc, cd, cs, chi)


# ---------------------------------------------------------------------------
# property suite


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def run_property_suite(cases, seed: int = 0, n_random: int = 100):
    """Structural property checks over (complex,) cases.

    cases: iterable of DdrComplex.  Returns a list of PropertyResult across
    all cases, covering the complex property, polynomial consistency of the
    potentials, commutation, product symmetry/definiteness, and the
    Appendix-style norm comparisons.
    """
    results = []

    def record(name, passed, detail=""):
        results.append(PropertyResult(name, bool(passed), detail))

    for cx in cases:
        rng = np.random.default_rng(seed)
        tag = f"[k={cx.k}, n_cells={cx.mesh.n_cells}]"
        cl = cx.layouts[SpaceKind.CURL]
        gl = cx.layouts[SpaceKind.GRAD]

        # complex property on random vectors
        worst = 0.0
        for _ in range(n_random):
            q = DofVector(gl, rng.standard_normal(gl.total_dim))
            z = cx.global_curl(cx.global_gradient(q))
            ref = cx.norm(SpaceKind.CURL, cx.global_gradient(q))
            worst = max(worst, cx.norm(SpaceKind.DIV, z) / max(ref, 1e-30))
        record(f"complex {tag}", worst < 1e-12, f"max ratio {worst:.2e}")

        # polynomial consistency (monomials up to the stated degrees)
        err = _consistency_error(cx)
        record(f"consistency {tag}", err < 1e-10, f"max rel err {err:.2e}")

        err = _commutation_error(cx)
        record(f"commutation {tag}", err < 1e-11, f"max err {err:.2e}")

        # product symmetry and positivity
        x = DofVector(cl, rng.standard_normal(cl.total_dim))
        y = DofVector(cl, rng.standard_normal(cl.total_dim))
        sym = abs(cx.l2_product(SpaceKind.CURL, x, y)
                  - cx.l2_product(SpaceKind.CURL, y, x))
        pos = cx.l2_product(SpaceKind.CURL, x, x)
        record(f"product symmetry {tag}", sym < 1e-13 * max(pos, 1), f"{sym:.2e}")
        record(f"product positivity {tag}", pos > 0, f"{pos:.3e}")

        # Appendix-style norm ratios on random local vectors of cell 0, the
        # first member of the first group, one group call per norm
        g = cx.cell_groups[0]
        V = rng.standard_normal((n_random, g.n_curl))
        members = np.zeros(n_random, dtype=int)
        t2 = cx.component_norms(2.0, g, members, V)
        p2 = cx.potential_norms(2.0, g, members, V)
        t4 = cx.component_norms(4.0, g, members, V)
        h = g.chart.scale[0]
        ratios_eq = p2 / t2
        ratios_leb = t2 / (h ** (3 * (1/2 - 1/4)) * t4)
        # the L2 norm of a P^k field is that of its coefficients in the
        # orthonormal basis of the cell
        ratios_bp = np.linalg.norm(V @ g.pot_curl[g.row[0]].T, axis=1) / t2
        ratios_bd = h * np.linalg.norm(V @ g.curl_op[g.row[0]].T, axis=1) / t2
        record(f"norm equivalence bracket {tag}",
               max(ratios_eq) / min(ratios_eq) < 1e3,
               f"[{min(ratios_eq):.3f}, {max(ratios_eq):.3f}]")
        record(f"lebesgue bracket {tag}",
               max(ratios_leb) / min(ratios_leb) < 1e3,
               f"[{min(ratios_leb):.3f}, {max(ratios_leb):.3f}]")
        record(f"potential boundedness {tag}", max(ratios_bp) < 1e2,
               f"max {max(ratios_bp):.3f}")
        record(f"derivative boundedness {tag}", max(ratios_bd) < 1e2,
               f"max {max(ratios_bd):.3f}")

        # mesh closure invariants (anchored at x_T so any flipped omega_TF
        # perturbs the identity)
        m = cx.mesh
        f, owner = m.cell_faces.values, np.repeat(np.arange(m.n_cells),
                                                  m.cell_faces.lengths)
        acc = np.bincount(owner, weights=m.cell_face_signs.values * np.vecdot(
            m.face_anchor[f] - m.cell_anchor[owner], m.face_normal[f])
            * m.face_area[f])
        record(f"divergence closure {tag}", np.all(
            np.abs(acc - 3 * m.cell_volume) <= 1e-10 * 3 * m.cell_volume))

        # scheme-level invariants on a small manufactured solve
        sol = TrigSolution()
        spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
        solver = NavierStokesSolver(cx, spec, SolverOptions(tol=PROPERTY_TOL))
        u = rng.standard_normal(solver.n_u)
        scale = max(cx.norm(SpaceKind.CURL, DofVector(cl, u)) ** 3, 1e-30)
        skew = abs(solver.trilinear(u, u, u)) / scale
        record(f"trilinear skew {tag}", skew <= 1e-12, f"{skew:.2e}")
        try:
            res = solver.solve()
            ucu = cx.global_curl(res.u)
            lhs = spec.nu * cx.l2_product(SpaceKind.DIV, ucu, ucu)
            rhs = cx.l2_product(SpaceKind.CURL, solver.i_f, res.u)
            # both sides are bounded by |I_f|^2_CURL / nu (energy estimate),
            # so round-off is measured against that scale
            scale = max(abs(rhs), 1e-6 * cx.l2_product(
                SpaceKind.CURL, solver.i_f, solver.i_f) / spec.nu, 1e-30)
            record(f"energy identity {tag}", abs(lhs - rhs) <= 1e-10 * scale,
                   f"{lhs:.6e} vs {rhs:.6e}")
            full = np.concatenate([res.u.values, res.p.values,
                                   [res.multiplier]])
            R = solver.residual(full)
            mass = np.linalg.norm(R[solver.n_u:solver.n_u + solver.n_p])
            record(f"discrete incompressibility {tag}", mass <= 1e-8,
                   f"mass residual {mass:.2e}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            record(f"scheme solve {tag}", False, repr(exc))
    return results


def _polynomial(coeff):
    """The field of monomial coefficients coeff, (nm,) for a scalar or (nm,
    3) for a vector: a callable on (n, 3) points."""
    exps = ps.monomial_exponents(3, ps._deg_of(3, len(coeff)))
    return lambda pts: ps.mono_eval(exps, pts) @ coeff


def _consistency_error(cx: DdrComplex) -> float:
    """Largest max |P I f - f| / (max |f| + 1) over the cells: the GRAD
    potential on the monomials of degree <= k + 1, the CURL and DIV ones on
    the vector monomials of degree <= k."""
    def misfit(kind, x, fun):
        cellwise = lambda a: np.abs(a).reshape(len(a), -1).max(axis=1)
        return max(np.max(cellwise(v - ref) / (cellwise(ref) + 1))
                   for _, v, ref in _against(cx, kind, x, fun))

    nq, nv = ps.dim_poly(3, cx.k + 1), ps.dim_poly(3, cx.k)
    return max([misfit(SpaceKind.GRAD, cx.interpolate_grad(q), q)
                for q in map(_polynomial, np.eye(nq))]
               + [misfit(kind, interpolate(v), v)
                  for v in map(_polynomial, np.eye(3 * nv).reshape(-1, nv, 3))
                  for kind, interpolate in (
                      (SpaceKind.CURL, cx.interpolate_curl),
                      (SpaceKind.DIV, cx.interpolate_div))])


def _commutation_error(cx: DdrComplex) -> float:
    """Largest DoF of uG I_grad q - I_curl grad q and of uC I_curl v -
    I_div curl v, over the monomials q and the vector monomials v of degree
    <= k + 1."""
    nm = ps.dim_poly(3, cx.k + 1)
    scalars, vectors = np.eye(nm), np.eye(3 * nm).reshape(-1, nm, 3)
    gap = lambda x, y: np.abs(x.values - y.values).max()
    return max([gap(cx.global_gradient(cx.interpolate_grad(_polynomial(q))),
                    cx.interpolate_curl(_polynomial(g)))
                for q, g in zip(scalars, _grad_coeffs(scalars, 3, 1))]
               + [gap(cx.global_curl(cx.interpolate_curl(_polynomial(v))),
                      cx.interpolate_div(_polynomial(c)))
                  for v, c in zip(vectors, _curl3_coeffs(vectors, 1))])
