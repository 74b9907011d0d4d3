"""Discrete de Rham toolkit for curl-curl Navier-Stokes on polyhedral meshes."""

from .mesh import (Mesh, MeshError, Poly3ParseError, generate_cubic_mesh,
                   generate_tet_mesh, read_mesh, write_poly3)
from .operators import DdrComplex
from .quadrature import QuadratureRule
from .solutions import TrigSolution
from .solver import (BCRegion, NavierStokesSolver, ProblemSpec, SolverOptions,
                     essential_bc, natural_bc, pressflux_bc)
from .spaces import DofLayout, DofVector, SpaceKind, boundary_subspace_mask

__all__ = [
    "Mesh", "MeshError", "Poly3ParseError", "generate_cubic_mesh",
    "generate_tet_mesh", "read_mesh", "write_poly3", "DdrComplex",
    "QuadratureRule", "TrigSolution", "BCRegion",
    "NavierStokesSolver", "ProblemSpec", "SolverOptions", "essential_bc",
    "natural_bc", "pressflux_bc", "DofLayout", "DofVector", "SpaceKind",
    "boundary_subspace_mask",
]
__version__ = "0.1.0"
