"""Orthonormal polynomial bases on mesh entities and their split subspaces.

Bases are expressed in scaled monomials ``((x - x_Y)/h_Y)^alpha`` of the
entity-local coordinates (arclength on edges, tangent-frame coordinates on
faces, ambient coordinates on cells) and orthonormalised against the entity
L2 product.  On faces and cells the full vector-valued space splits two ways,

    P^l = G^l (+) Gc^l = R^l (+) Rc^l,

with G/R the images of grad/rot (faces) or grad/curl (cells) and Gc/Rc the
complements generated by contraction with ``x - x_Y``.  The splits are direct,
not orthogonal; each factor gets its own orthonormal basis.

Every basis comes from one orthonormalisation: a fixed family of monomial
coefficient rows, orthonormalised against the entity's monomial Gram by the
inverse of its Cholesky factor (:func:`_orthonormalise_gram`).  For P^l the
family is the monomials themselves, so each scalar basis orthonormalises a
leading block of the Gram at the entity's top degree.  For G/Gc/R/Rc^l the
family is built once per (dim, selector, degree) on the unit chart from two
generators, the gradients of the monomials of degree l + 1 (G, R) and x
times those of degree l - 1 (Gc, Rc), turned for R and Gc (:func:`turn`).
Its entries are integers, and its SVD gives orthonormal rows that span it,
checked against the analytic dimension.  Any L2-orthonormal basis of the
subspace gives the same discrete problem; this one depends on the geometry
only through the Gram, so translated entities get the same basis to
rounding.

Set-up cost.  ``DdrComplex`` builds its edges, faces and cells by groups of
alike entities, so the kernels here take a stack of entities along a
leading axis:

- A basis may hold a stack of bases, one per entity, along a leading axis
  of its coefficients.
- :func:`build_scalar_basis` and :func:`build_subspace` orthonormalise a
  stack of Grams with one batched Cholesky factor and one forward
  substitution.  The factor bounds each Gram's condition number, and only
  the Grams past GRAM_COND_LIMIT take the eigen fallback.
- Inner products of vector polynomials are two reshaped matmuls
  (:func:`vector_inner`), with no einsum path search per call; against
  an orthonormal basis they are the coordinates of a member of its span.
- The exponent tables are graded, so monomials sampled once at a top
  degree give every basis of lower degree its values from their leading
  columns (:meth:`ScalarBasis.values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RANK_RTOL = 1e-10
GRAM_COND_LIMIT = 1e12


class BasisError(Exception):
    """Gram conditioning failure or subspace rank mismatch.  Raised on a
    stack of Grams, it carries the index of the first failing one."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# dimensions

def dim_poly(space_dim: int, degree: int) -> int:
    """dim P^l on a d-dimensional entity; 0 for l < 0."""
    if degree < 0:
        return 0
    if space_dim == 1:
        return degree + 1
    if space_dim == 2:
        return (degree + 1) * (degree + 2) // 2
    if space_dim == 3:
        return (degree + 1) * (degree + 2) * (degree + 3) // 6
    raise ValueError(space_dim)


def subspace_dim(space_dim: int, selector: str, degree: int) -> int:
    """Analytic dimension of G/Gc/R/Rc on a face (dim 2) or cell (dim 3)."""
    l = degree
    if space_dim == 2:
        if selector in ("G", "R"):
            return max(dim_poly(2, l + 1) - 1, 0)
        if selector in ("Gc", "Rc"):
            return dim_poly(2, l - 1)
    elif space_dim == 3:
        if selector == "G":
            return max(dim_poly(3, l + 1) - 1, 0)
        if selector == "Gc":
            return 3 * dim_poly(3, l - 1) - dim_poly(3, l - 2)
        if selector == "R":
            return max(3 * dim_poly(3, l + 1) - dim_poly(3, l + 2) + 1, 0)
        if selector == "Rc":
            return dim_poly(3, l - 1)
    raise ValueError((space_dim, selector))


# ---------------------------------------------------------------------------
# monomial machinery

@lru_cache(maxsize=None)
def monomial_exponents(space_dim: int, degree: int) -> np.ndarray:
    """Exponent table for total degree <= degree, graded lexicographic."""
    if degree < 0:
        return np.zeros((0, space_dim), dtype=int)
    out = []
    for total in range(degree + 1):
        if space_dim == 1:
            out.append((total,))
        elif space_dim == 2:
            for a in range(total, -1, -1):
                out.append((a, total - a))
        else:
            for a in range(total, -1, -1):
                for b in range(total - a, -1, -1):
                    out.append((a, b, total - a - b))
    return np.array(out, dtype=int)


@lru_cache(maxsize=None)
def _mono_index(space_dim: int, degree: int):
    exps = monomial_exponents(space_dim, degree)
    return {tuple(e): i for i, e in enumerate(exps)}


def mono_eval(exps: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate monomials xi^alpha; xi has shape (..., npts, d) ->
    (..., npts, nm)."""
    vals = np.ones(xi.shape[:-1] + (len(exps),))
    for a in range(xi.shape[-1]):
        col = xi[..., a]
        maxp = int(exps[:, a].max(initial=0))
        powers = np.ones(col.shape + (maxp + 1,))
        for p in range(1, maxp + 1):
            powers[..., p] = powers[..., p - 1] * col
        vals *= powers[..., exps[:, a]]
    return vals


@lru_cache(maxsize=None)
def deriv_matrix(space_dim: int, degree: int, axis: int) -> np.ndarray:
    """d/dxi_axis on monomial coefficients (same exponent table in and out)."""
    exps = monomial_exponents(space_dim, degree)
    idx = _mono_index(space_dim, degree)
    nm = len(exps)
    D = np.zeros((nm, nm))
    for i, e in enumerate(exps):
        if e[axis] > 0:
            tgt = list(e)
            tgt[axis] -= 1
            D[idx[tuple(tgt)], i] = e[axis]
    return D


@lru_cache(maxsize=None)
def raise_matrix(space_dim: int, degree: int, axis: int) -> np.ndarray:
    """Multiplication by xi_axis: degree table -> degree+1 table."""
    exps = monomial_exponents(space_dim, degree)
    idx_up = _mono_index(space_dim, degree + 1)
    nm_up = len(monomial_exponents(space_dim, degree + 1))
    M = np.zeros((nm_up, len(exps)))
    for i, e in enumerate(exps):
        tgt = list(e)
        tgt[axis] += 1
        M[idx_up[tuple(tgt)], i] = 1.0
    return M


# ---------------------------------------------------------------------------
# bases
#
# A basis may hold a stack of G bases, one per entity of a group: its coeff
# then has a leading axis of length G.  The builders take the dimension of
# the entities' charts, and a basis is sampled from monomials of its chart.

@dataclass
class ScalarBasis:
    degree: int
    coeff: np.ndarray  # ([G,] nb, nm) over monomial_exponents(dim, degree)

    @property
    def dim(self) -> int:
        return self.coeff.shape[-2]

    def values(self, mono: np.ndarray) -> np.ndarray:
        """Values ([G,] npts, nb) from monomials ([G,] npts, >= nm) sampled
        in this chart."""
        return mono[..., :self.coeff.shape[-1]] @ np.swapaxes(self.coeff, -1, -2)


@dataclass
class VectorBasis:
    """Vector-valued basis; components are in the entity frame (2 on faces)."""
    degree: int
    ncomp: int
    coeff: np.ndarray  # ([G,] nb, nm, ncomp)

    @property
    def dim(self) -> int:
        return self.coeff.shape[-3]

    def values(self, mono: np.ndarray) -> np.ndarray:
        """Values ([G,] npts, nb, ncomp) from monomials ([G,] npts, >= nm)
        sampled in this chart."""
        *lead, nb, nm, nc = self.coeff.shape
        flat = np.moveaxis(self.coeff, -2, -3).reshape(*lead, nm, nb * nc)
        vals = mono[..., :nm] @ flat
        return vals.reshape(vals.shape[:-1] + (nb, nc))


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack (G, n, n) of lower-triangular factors, by forward
    substitution: row i of X solves L[i, :i+1] X[:i+1] = e_i."""
    X = np.zeros_like(L)
    for i in range(L.shape[-1]):
        X[:, i, i] = 1.0
        if i:
            X[:, i, :i] = -(L[:, i:i + 1, :i] @ X[:, :i, :i])[:, 0]
        X[:, i, :i + 1] /= L[:, i, i, None]
    return X


def _orthonormalise_gram(gram: np.ndarray) -> np.ndarray:
    """Coefficients C of orthonormal bases from Gram matrices, C G C^T = I
    (rows in terms of the original family); gram is (n, n) or a stack
    (G, n, n), and C has its shape.

    One batched Cholesky factor G = L L^T and C = L^{-1} by forward
    substitution.  ||L||_F^2 ||L^{-1}||_F^2 bounds cond_2(G) from above;
    only the Grams whose bound passes GRAM_COND_LIMIT, or that have no
    factor, are whitened by their eigenvectors instead.  A numerically
    singular Gram raises :class:`BasisError` carrying its stack index.
    """
    g = np.asarray(gram, dtype=float)
    n = g.shape[-1]
    if n == 0:
        return np.zeros(g.shape)
    stack = g.reshape(-1, n, n)
    ok = np.ones(len(stack), dtype=bool)
    try:
        L = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        # factor one Gram at a time to find the ones without a factor
        L = np.empty_like(stack)
        for i, gi in enumerate(stack):
            try:
                L[i] = np.linalg.cholesky(gi)
            except np.linalg.LinAlgError:
                L[i], ok[i] = np.eye(n), False
    C = _lower_inverse(L)
    bound = np.sum(L * L, axis=(1, 2)) * np.sum(C * C, axis=(1, 2))
    ok &= bound <= GRAM_COND_LIMIT
    for i in np.flatnonzero(~ok):
        w, Q = np.linalg.eigh(stack[i])
        if w[0] <= 1e-30 * w[-1]:
            raise BasisError(
                f"Gram matrix numerically singular (eigen range {w[0]:.3e}.."
                f"{w[-1]:.3e})", index=i)
        C[i] = (Q / np.sqrt(w)).T
    return C.reshape(g.shape)


def build_scalar_basis(dim: int, degree: int, gram) -> ScalarBasis:
    """L2-orthonormal scalar basis of P^degree(Y) on a chart of dimension
    dim; degree -1 gives {0}.

    gram is the monomial Gram of Y at a degree >= degree, whose leading
    block is orthonormalised.  A stack of G Grams gives a stack of bases.
    """
    if degree < 0:
        return ScalarBasis(0, np.zeros(gram.shape[:-2] + (0, 1)))
    n = dim_poly(dim, degree)
    return ScalarBasis(degree, _orthonormalise_gram(gram[..., :n, :n]))


def tensor_vector_basis(sb: ScalarBasis, ncomp: int) -> VectorBasis:
    """Orthonormal basis of P^l(Y)^ncomp from a scalar one (component-minor)."""
    *lead, nb, nm = sb.coeff.shape
    coeff = np.zeros((*lead, nb, ncomp, nm, ncomp))
    for a in range(ncomp):
        coeff[..., a, :, a] = sb.coeff
    return VectorBasis(sb.degree, ncomp,
                       coeff.reshape(*lead, nb * ncomp, nm, ncomp))


def monomial_gram(mono: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram matrices ([G,] nm, nm) of monomials ([G,] npts, nm) sampled at
    rule points with weights ([G,] npts)."""
    return np.swapaxes(mono, -1, -2) @ (weights[..., None] * mono)


def vector_inner(gram: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<a_i, b_j> for vector polynomials A ([G,] na, ma, ncomp) and B ([G,]
    nb, mb, ncomp), rows of monomial coefficients, against the monomial
    Gram ([G,] M, M): ``einsum("imc,mn,jnc->ij", A, G, B)`` as two matmuls.
    A leading stack axis on any operand broadcasts."""
    *la, na, ma, nc = A.shape
    *lb, nb, mb, _ = B.shape
    GA = np.swapaxes(gram[..., :ma, :mb], -1, -2) @ np.moveaxis(
        A, -2, -3).reshape(*la, ma, na * nc)
    GA = np.moveaxis(GA.reshape(GA.shape[:-2] + (mb, na, nc)), -3, -1)
    GA = GA.reshape(GA.shape[:-3] + (na, nc * mb))
    return GA @ np.swapaxes(B, -3, -1).reshape(*lb, nc * mb, nb)


@lru_cache(maxsize=None)
def _deg_table(space_dim: int):
    return {len(monomial_exponents(space_dim, l)): l for l in range(30)}


def _deg_of(space_dim: int, nm: int) -> int:
    return _deg_table(space_dim)[nm]


# ---------------------------------------------------------------------------
# split subspaces

def turn(v: np.ndarray) -> np.ndarray:
    """Vector polynomials v ([...,] n, nm, d) turned: on a face (d = 2) by
    -pi/2, (v_2, -v_1), which takes the gradient of a scalar to its rot;
    on a cell (d = 3) crossed with each unit vector, the 3n members v x e_a
    (a = x, y, z, member after member), since curl(f e_a) = grad f x e_a
    and x x (m e_a) = (x m) x e_a."""
    if v.shape[-1] == 2:
        return np.stack([v[..., 1], -v[..., 0]], axis=-1)
    x, y, z = np.moveaxis(v, -1, 0)
    o = np.zeros_like(x)
    out = np.stack([np.stack(c, axis=-1) for c in
                    ((o, z, -y), (-z, o, x), (y, -x, o))], axis=-3)
    return out.reshape(v.shape[:-3] + (-1,) + v.shape[-2:])


def _unit_family(d: int, selector: str, degree: int) -> np.ndarray:
    """The generating family from the defining formula on a chart of scale
    h = 1, from one of two generators: for G and R the gradients of the
    non-constant monomials of degree + 1, the columns of the stacked
    derivative matrices; for Gc and Rc x times the monomials of degree - 1,
    those of the stacked raise matrices.  R and Gc are their families
    turned (:func:`turn`).  Every entry is 0 or an integer."""
    if d not in (2, 3):
        raise ValueError("subspaces live on faces and cells only")
    l = max(degree, 0)
    if selector in ("G", "R"):
        gen = np.stack([deriv_matrix(d, degree + 1, a) for a in range(d)],
                       axis=-1)[:dim_poly(d, l), 1:]
    else:
        gen = np.stack([raise_matrix(d, l - 1, a) for a in range(d)], axis=-1)
    family = np.moveaxis(gen, 1, 0)
    return turn(family) if selector in ("R", "Gc") else family


@lru_cache(maxsize=None)
def _spanning_family(d: int, selector: str, degree: int) -> np.ndarray:
    """Orthonormal rows, in monomial coefficient space, that span the unit
    family of G/Gc/R/Rc^degree on a d-dimensional chart (read-only).

    The unit family has integer entries and may have more members than the
    subspace dimension (the curls of R on a cell); its SVD keeps the rows of
    singular values above RANK_RTOL times the largest, and their number
    must match the analytic dimension.
    """
    unit = _unit_family(d, selector, degree)
    nf, nm, nc = unit.shape
    rows = np.zeros((0, nm * nc))
    if nf:
        _, sv, vt = np.linalg.svd(unit.reshape(nf, nm * nc),
                                  full_matrices=False)
        rows = vt[:int(np.sum(sv > RANK_RTOL * sv[0]))]
    expected = subspace_dim(d, selector, degree)
    if len(rows) != expected:
        raise BasisError(f"{selector}^{degree} on dim {d}: family rank "
                         f"{len(rows)} != expected {expected}")
    rows = rows.reshape(len(rows), nm, nc)
    rows.flags.writeable = False
    return rows


def build_subspace(dim: int, selector: str, degree: int,
                   gram: np.ndarray) -> VectorBasis:
    """L2-orthonormal basis of G/Gc/R/Rc^degree(Y), of degree max(degree,
    0), on a chart of dimension dim.

    The spanning family of the unit chart is orthonormalised against the
    entity's monomial Gram (at a degree covering degree), so the basis
    depends on the geometry only through that Gram.  A stack of Grams gives
    a stack of bases.
    """
    family = _spanning_family(dim, selector, degree)
    nf, nm, nc = family.shape
    C = _orthonormalise_gram(vector_inner(gram, family, family))
    coeff = (C @ family.reshape(nf, nm * nc)).reshape(C.shape[:-1] + (nm, nc))
    return VectorBasis(max(degree, 0), nc, coeff)
