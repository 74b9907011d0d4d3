import ddrns

# the public API; a name that joins or leaves it changes this set
PUBLIC = {
    "Mesh", "MeshError", "Poly3ParseError", "generate_cubic_mesh",
    "generate_tet_mesh", "read_mesh", "write_poly3", "DdrComplex",
    "QuadratureRule", "TrigSolution", "BCRegion", "NavierStokesSolver",
    "ProblemSpec", "SolverOptions", "essential_bc", "natural_bc",
    "pressflux_bc", "DofLayout", "DofVector", "SpaceKind",
    "boundary_subspace_mask"}


def test_public_api_is_pinned():
    assert set(ddrns.__all__) == PUBLIC


def test_every_exported_name_resolves():
    assert len(set(ddrns.__all__)) == len(ddrns.__all__)
    for name in ddrns.__all__:
        assert hasattr(ddrns, name), name


def test_star_import():
    namespace = {}
    exec("from ddrns import *", namespace)
    assert set(ddrns.__all__) <= set(namespace)
