"""Output checks of the benchmark workloads.

Each check tests a property the scheme must have, or compares with a
reference value from outside the run; none compares with a stored copy of
an earlier output.  The workloads compare each measured quantity with the
tolerance defined next to it here.
"""

from __future__ import annotations

import itertools

import numpy as np

from ddrns.spaces import DofVector, SpaceKind

# velocity DoFs at lambda and 100 lambda (acceptance criterion 5's bound)
INVARIANCE_RTOL = 1e-5
ENERGY_RTOL = 1e-8
MASS_ATOL = 1e-8
POTENTIAL_RTOL = 1e-10
# converged pressure/flux graph norms (velocity, pressure) and the distances
# test_pressflux_converges_to_reference_norms allows at its finest level
PRESSFLUX_REFERENCE = (0.73256611669273153, 0.28368266709481171)
PRESSFLUX_ATOL = (0.12, 0.05)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """|a - b| / |a|: the lambda-invariance of the velocity DoFs."""
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def energy_identity_error(cx, nu: float, i_f: DofVector, u: DofVector) -> float:
    """Relative gap in nu |uC u|^2_DIV = (I_curl f, u)_CURL.

    Testing the momentum equation with u itself cancels the convective term
    (skew-symmetry) and the pressure term (the mass equation).
    """
    cu = cx.global_curl(u)
    lhs = nu * cx.l2_product(SpaceKind.DIV, cu, cu)
    rhs = cx.l2_product(SpaceKind.CURL, i_f, u)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def mass_residual(solver, solution) -> float:
    """Euclidean norm of the discrete mass-equation residual at a solution."""
    parts = [solution.u.values, solution.p.values]
    if solver.use_multiplier:
        parts.append([solution.multiplier])
    R = solver.residual(np.concatenate(parts))
    return float(np.linalg.norm(R[solver.n_u:solver.n_u + solver.n_p]))


def random_vector_polynomial(rng: np.random.Generator, degree: int):
    """A vector polynomial of total degree `degree` with normal coefficients
    on the monomials of (x, y, z), evaluated independently of ddrns."""
    exps = np.array([e for e in itertools.product(range(degree + 1), repeat=3)
                     if sum(e) <= degree])
    coeffs = rng.standard_normal((len(exps), 3))

    def poly(pts: np.ndarray) -> np.ndarray:
        mono = np.prod(pts[:, None, :] ** exps[None, :, :], axis=-1)
        return mono @ coeffs
    return poly


def curl_potential_error(cx, interpolated, expected) -> float:
    """max over cells and quadrature points of |P_curl I_curl(interpolated)
    - expected| over max |expected|.  With both the same polynomial of
    degree k this is the potential's polynomial consistency."""
    cl = cx.layouts[SpaceKind.CURL]
    iv = cx.interpolate_curl(interpolated)
    worst = scale = 0.0
    for c, cctx in enumerate(cx.cells):
        ref = expected(cctx.rule.points)
        pv = cx.curl_potential_values(c, iv.values[cl.cell_indices(c)])
        worst = max(worst, float(np.abs(pv - ref).max()))
        scale = max(scale, float(np.abs(ref).max()))
    return worst / scale


def pressflux_norms_ok(norms) -> bool:
    return all(abs(v - ref) < tol for v, ref, tol in
               zip(norms, PRESSFLUX_REFERENCE, PRESSFLUX_ATOL))
