import numpy as np
import pytest

from ddrns import mesh as msh
from ddrns.operators import DdrComplex

_MESH_CACHE = {}
_COMPLEX_CACHE = {}


def get_mesh(family: str, n: int):
    key = (family, n)
    if key not in _MESH_CACHE:
        gen = {"cubic": msh.generate_cubic_mesh, "tet": msh.generate_tet_mesh}
        _MESH_CACHE[key] = gen[family](n)
    return _MESH_CACHE[key]


def get_complex(family: str, n: int, k: int) -> DdrComplex:
    key = (family, n, k)
    if key not in _COMPLEX_CACHE:
        _COMPLEX_CACHE[key] = DdrComplex(get_mesh(family, n), k)
    return _COMPLEX_CACHE[key]


@pytest.fixture(scope="module", autouse=True)
def _release_complexes():
    """Complexes are shared within a test module only: the large ones of the
    acceptance module would otherwise stay resident for the whole session."""
    yield
    _COMPLEX_CACHE.clear()


def assert_close(a, b, rtol=1e-13):
    """a and b have one shape and max |a - b| <= rtol max |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    if b.size:
        assert np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(b)), 1e-300)


def random_tet_mesh(seed: int = 7):
    """Single well-shaped random tetrahedron."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-1, 1, size=(4, 3))
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        edges = [np.linalg.norm(pts[i] - pts[j]) for i in range(4)
                 for j in range(i + 1, 4)]
        if vol > 0.05 * max(edges) ** 3:
            break
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    return msh.build_mesh(pts, faces, [[0, 1, 2, 3]])


def random_hex_mesh(seed: int = 11):
    """Random planar-faced hexahedron: a frustum image under a random
    affine map (generic vertex perturbations would break face planarity)."""
    rng = np.random.default_rng(seed)
    s = 0.6  # top face shrink factor: planar trapezoidal side faces
    base = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0.5 - s / 2, 0.5 - s / 2, 1], [0.5 + s / 2, 0.5 - s / 2, 1],
        [0.5 + s / 2, 0.5 + s / 2, 1], [0.5 - s / 2, 0.5 + s / 2, 1],
    ], dtype=float)
    A = np.eye(3) + 0.25 * rng.uniform(-1, 1, size=(3, 3))
    while abs(np.linalg.det(A)) < 0.3:
        A = np.eye(3) + 0.25 * rng.uniform(-1, 1, size=(3, 3))
    pts = base @ A.T + rng.uniform(-0.1, 0.1, size=3)
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5],
             [2, 3, 7, 6], [3, 0, 4, 7]]
    return msh.build_mesh(pts, faces, [[0, 1, 2, 3, 4, 5]])


def prism_mesh():
    """Two triangular prisms sharing the diagonal rectangle of a unit cube."""
    pts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    faces = [
        [0, 2, 6, 4],          # shared diagonal rectangle x = y
        [0, 1, 2], [4, 5, 6],  # prism A triangles (x >= y)
        [1, 5, 4, 0], [2, 1, 5, 6],
        [0, 2, 3], [4, 6, 7],  # prism B triangles
        [3, 2, 6, 7], [0, 3, 7, 4],
    ]
    cells = [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]]
    return msh.build_mesh(pts, faces, cells)


def pentagon_prism_mesh(seed: int = 3):
    """One cell with two pentagonal faces (for non-tensor face operators)."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, 5))
    while np.min(np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))) < 0.5:
        ang = np.sort(rng.uniform(0, 2 * np.pi, 5))
    r = rng.uniform(0.7, 1.2, 5)
    bot = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(5)], axis=-1)
    top = bot + np.array([0.1, -0.05, 0.9])
    pts = np.vstack([bot, top])
    faces = [list(range(5))[::-1], [5 + i for i in range(5)]]
    for i in range(5):
        j = (i + 1) % 5
        faces.append([i, j, 5 + j, 5 + i])
    return msh.build_mesh(pts, faces, [list(range(7))])


def jittered_kuhn_mesh(n=2, seed=5):
    """Kuhn tets with every coordinate strictly inside (0, 1) moved by up to
    0.15 / n, so no two faces or cells are translates."""
    base = msh.generate_tet_mesh(n)
    rng = np.random.default_rng(seed)
    coords = base.vertex_coords.copy()
    free = (coords > 1e-12) & (coords < 1 - 1e-12)
    coords[free] += rng.uniform(-0.15 / n, 0.15 / n, size=int(free.sum()))
    return msh.build_mesh(coords, base.face_loops.tolist(),
                          base.cell_faces.tolist())


def cube_pyramid_mesh():
    """The unit cube with a pyramid on its top face: two cells whose local
    sizes differ."""
    pts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1], [0.5, 0.5, 1.6],
    ], dtype=float)
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5],
             [2, 3, 7, 6], [3, 0, 4, 7],
             [4, 5, 8], [5, 6, 8], [6, 7, 8], [7, 4, 8]]
    return msh.build_mesh(pts, faces, [[0, 1, 2, 3, 4, 5], [1, 6, 7, 8, 9]])


def cube_frustum_mesh():
    """The unit cube with a frustum on its top face: two hexahedra with the
    same face loop lengths, a parallelepiped and one that is not affine."""
    pts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        [0.2, 0.2, 2], [0.8, 0.2, 2], [0.8, 0.8, 2], [0.2, 0.8, 2],
    ], dtype=float)
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5],
             [2, 3, 7, 6], [3, 0, 4, 7],
             [8, 9, 10, 11], [4, 5, 9, 8], [5, 6, 10, 9], [6, 7, 11, 10],
             [7, 4, 8, 11]]
    return msh.build_mesh(pts, faces, [[0, 1, 2, 3, 4, 5],
                                       [1, 6, 7, 8, 9, 10]])


@pytest.fixture(scope="session")
def cube1():
    return get_mesh("cubic", 1)


@pytest.fixture(scope="session")
def cube2():
    return get_mesh("cubic", 2)


@pytest.fixture(scope="session")
def tet1():
    return get_mesh("tet", 1)
