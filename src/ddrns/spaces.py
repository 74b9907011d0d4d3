"""Discrete space DoF layouts, coefficient vectors and boundary subspaces.

Three spaces are carried through the build, mirroring the de Rham sequence.
GRAD holds the vertex values of a scalar unknown; each DoF block of an
edge, face or cell is the moments of the unknown (CURL: its tangential
components on edges and faces; DIV: its normal component on faces) against
one polynomial space, declared once in ``DofLayout.spaces``:

======  ==========  =======================  =====================
kind    edges       faces                    cells
======  ==========  =======================  =====================
GRAD    P^{k-1}     P^ell                    P^ell
CURL    P^k         R^{k-1} (+) Rc^{ell+1}   R^{k-1} (+) Rc^{ell+1}
DIV     --          P^k                      G^{k-1} (+) Gc^k
======  ==========  =======================  =====================

The spaces are the DDR-mode serendipity reductions (eta_Y = 2 on faces and
cells), so ell = k - 1; ``DofLayout.ell`` is the one place it is set.

Global numbering is vertices, then edges, then faces, then cells, each in
mesh id order; within an entity, basis order.  All DoF values are
coefficients in the entity-local orthonormal bases built by
:mod:`ddrns.polyspaces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import Mesh
from .polyspaces import dim_poly, subspace_dim


class SpaceKind(str, Enum):
    GRAD = "grad"
    CURL = "curl"
    DIV = "div"


class DofLayout:
    """Entity-blocked global numbering for one space kind and degree.

    ``spaces[dim]`` is the (selector, degree) of the moment space of each
    DoF block of an entity of dimension dim (1 to 3), "P" for the full
    polynomials, as in the module table: the block sizes, the interpolators
    and the face and cell operators read it.  ``ell`` is set here only.
    """

    def __init__(self, mesh: Mesh, kind: SpaceKind, k: int):
        if k < 0:
            raise ValueError("polynomial degree k must be >= 0")
        self.mesh = mesh
        self.kind = SpaceKind(kind)
        self.k = k
        self.ell = ell = k - 1
        self.spaces = {
            SpaceKind.GRAD: {1: [("P", k - 1)], 2: [("P", ell)],
                             3: [("P", ell)]},
            SpaceKind.CURL: {1: [("P", k)], 2: [("R", k - 1), ("Rc", ell + 1)],
                             3: [("R", k - 1), ("Rc", ell + 1)]},
            SpaceKind.DIV: {1: [], 2: [("P", k)],
                            3: [("G", k - 1), ("Gc", k)]}}[self.kind]
        sizes = {dim: [dim_poly(dim, l) if sel == "P"
                       else subspace_dim(dim, sel, l) for sel, l in blocks]
                 for dim, blocks in self.spaces.items()}
        self.vertex_block = int(self.kind is SpaceKind.GRAD)
        self.edge_block = sum(sizes[1])
        self.face_subsizes, self.cell_subsizes = sizes[2], sizes[3]
        self.face_block, self.cell_block = sum(sizes[2]), sum(sizes[3])
        # the block size and the first global DoF of each dimension
        self._blocks = (self.vertex_block, self.edge_block, self.face_block,
                        self.cell_block)
        self._offsets = np.cumsum([0, *np.multiply(
            [mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells],
            self._blocks)]).tolist()
        self.total_dim = self._offsets[4]

    # -- global index ranges -----------------------------------------------
    def dofs(self, dim: int, ids) -> np.ndarray:
        """Global DoFs of the entities ids (integers, or an empty list) of
        one dimension, 0 for vertices up to 3 for cells: ids.shape +
        (block,)."""
        block = self._blocks[dim]
        return (self._offsets[dim] + np.asarray(ids, dtype=np.int64)[..., None]
                * block + np.arange(block))

    # -- local (restriction) index maps ------------------------------------
    def _table(self, parts) -> np.ndarray:
        """Rows of global indices from parts [(dim, ids (N, m))]: each row
        holds the DoFs of its ids, dimension after dimension."""
        return np.concatenate([self.dofs(dim, ids).reshape(len(ids), -1)
                               for dim, ids in parts], axis=1)

    def cell_table(self, cids) -> np.ndarray:
        """cell_indices of the cells cids, which have alike faces, one row
        each."""
        m = self.mesh
        return self._table([(0, m.cell_vertices.rows(cids)),
                            (1, m.cell_edges.rows(cids)),
                            (2, np.sort(m.cell_faces.rows(cids), axis=1)),
                            (3, np.asarray(cids)[:, None])])

    def face_table(self, fids) -> np.ndarray:
        """Global indices of the face-local DoFs of the faces fids, which
        have one loop length, one row each: vertices and edges, each
        ascending by id, then the face block."""
        m = self.mesh
        return self._table([(0, np.sort(m.face_loops.rows(fids), axis=1)),
                            (1, np.sort(m.face_edges.rows(fids), axis=1)),
                            (2, np.asarray(fids)[:, None])])

    def edge_table(self, eids) -> np.ndarray:
        """Global indices of the edge-local DoFs of the edges eids, one row
        each: the two vertices, ascending by id, then the edge block."""
        return self._table([(0, self.mesh.edge_vertices[eids]),
                            (1, np.asarray(eids)[:, None])])

    def cell_indices(self, c: int) -> np.ndarray:
        """Global indices of the cell-local DoFs, deterministic local order:
        vertices, edges, faces (each ascending by id), then the cell block."""
        return self.cell_table([c])[0]


@dataclass
class DofVector:
    layout: DofLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.layout.total_dim,):
            raise ValueError(f"values length {self.values.shape} does not match "
                             f"layout dimension {self.layout.total_dim}")

    @classmethod
    def zeros(cls, layout: DofLayout) -> "DofVector":
        return cls(layout, np.zeros(layout.total_dim))


# ---------------------------------------------------------------------------
# boundary subspaces (essential boundary conditions)


@dataclass
class BoundaryClassification:
    """Boundary faces split into essential and natural sets, with the edges
    and vertices of the essential ones, each ascending."""
    essential_faces: list[int]
    natural_faces: list[int]
    essential_edges: list[int]
    essential_vertices: list[int]

    @classmethod
    def of_tags(cls, mesh: Mesh, fids, tags) -> "BoundaryClassification":
        """The classification of the boundary faces fids by their tags
        ('essential' | 'natural'); any other tag raises."""
        for fid, tag in zip(fids, tags):
            if tag not in ("essential", "natural"):
                raise ValueError(f"boundary face {fid} left unclassified "
                                 f"(classifier returned {tag!r})")
        ess = [f for f, tag in zip(fids, tags) if tag == "essential"]
        return cls(ess, [f for f, tag in zip(fids, tags) if tag == "natural"],
                   np.unique(mesh.face_edges.concat(ess)).tolist(),
                   np.unique(mesh.face_loops.concat(ess)).tolist())


def boundary_subspace_mask(layout: DofLayout,
                           classification: BoundaryClassification) -> np.ndarray:
    """Mask (True = constrained) of the DoFs zeroed by essential conditions.

    GRAD loses face, edge and vertex DoFs on the essential region; CURL loses
    face and edge DoFs; DIV has no essential DoFs in this scheme.
    """
    mask = np.zeros(layout.total_dim, dtype=bool)
    if layout.kind != SpaceKind.DIV:
        # the CURL vertex block is empty
        c = classification
        for dim, ids in enumerate((c.essential_vertices, c.essential_edges,
                                   c.essential_faces)):
            mask[layout.dofs(dim, ids)] = True
    return mask
