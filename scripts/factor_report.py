#!/usr/bin/env python3
"""The sparse LU of one case's Stokes start, as the solver makes it.

    python3 scripts/factor_report.py --mesh cubic --n 6 --k 1 --bc natural
    python3 scripts/factor_report.py --mesh tet --n 6 --k 1 --bc natural --solve

The case is a mesh family (``cubic`` or Kuhn ``tet``), its n, the degree k
and a BC set: ``natural`` is the trigonometric benchmark at nu = 1 under
natural BCs, ``pressflux`` the pressure/flux problem at Re = 100 with zero
forcing.  The script builds the solver of this checkout's ``src/``,
condenses the Stokes start, scales it as the solver does and factors it in
float32 under the solver's own ``_factor_reuse()`` kwargs.  It prints one
JSON line: the condensed unknowns, the kwargs, the ``splu`` seconds, the
factor's ``nnz``, the best of five triangular solves (the preconditioner
application GMRES makes) and the process's peak RSS.  With ``--solve`` it
then releases that factor, runs one whole ``solve()`` and adds its seconds,
its Newton, factorisation and per-step GMRES counts, and each factoring
record; the peak RSS then covers the solve too.

To compare two commits, run it in both checkouts, one process per case.
BLAS runs one thread unless OMP_NUM_THREADS or OPENBLAS_NUM_THREADS say
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np                                   # noqa: E402
import scipy.sparse.linalg as spla                   # noqa: E402

from ddrns.mesh import generate_cubic_mesh, generate_tet_mesh  # noqa: E402
from ddrns.operators import DdrComplex               # noqa: E402
from ddrns.solutions import TrigSolution             # noqa: E402
from ddrns.solver import (NavierStokesSolver, ProblemSpec,  # noqa: E402
                          natural_bc, pressflux_bc)

MESHES = {"cubic": generate_cubic_mesh, "tet": generate_tet_mesh}


def build_solver(mesh: str, n: int, k: int, bc: str) -> NavierStokesSolver:
    cx = DdrComplex(MESHES[mesh](n), k)
    if bc == "natural":
        sol = TrigSolution(nu=1.0)
        spec = ProblemSpec(nu=1.0, forcing=sol.forcing, regions=natural_bc())
    else:
        spec = ProblemSpec(nu=0.01, forcing=lambda pts: np.zeros((len(pts), 3)),
                           regions=pressflux_bc())
    return NavierStokesSolver(cx, spec)


def stokes_factor(s: NavierStokesSolver) -> dict:
    """splu of the scaled Stokes-start matrix under the solver's kwargs."""
    x = s.initial_state()
    A, b, _ = s._condense(x, s.residual(x, with_convection=False), False, 0.0)
    linear = s._factor_reuse()
    F = linear._scaled(A, np.float32)
    t0 = time.perf_counter()
    linear.lu = spla.splu(F, **linear.splu_kw)
    splu_s = time.perf_counter() - t0
    del F
    solves = []
    for _ in range(5):
        t0 = time.perf_counter()
        linear._triangular(b)
        solves.append(time.perf_counter() - t0)
    return {"unknowns": int(A.shape[0]), "splu_kw": linear.splu_kw,
            "splu_s": splu_s, "nnz": int(linear.lu.nnz),
            "triangular_s": min(solves)}


def whole_solve(s: NavierStokesSolver) -> dict:
    t0 = time.perf_counter()
    diag = s.solve().diagnostics
    return {"solve_s": time.perf_counter() - t0,
            "newton_its": diag.iterations,
            "factorizations": diag.factorizations,
            "krylov_iterations": diag.krylov_iterations,
            "factored": [{key: r[key] for key in ("ordering", "nnz",
                                                  "precision")}
                         for r in diag.linear_solves if r["factored"]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mesh", choices=sorted(MESHES), default="cubic")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--bc", choices=("natural", "pressflux"),
                    default="natural")
    ap.add_argument("--solve", action="store_true",
                    help="also run one whole solve() after the factor")
    args = ap.parse_args(argv)
    s = build_solver(args.mesh, args.n, args.k, args.bc)
    out = {"mesh": args.mesh, "n": args.n, "k": args.k, "bc": args.bc,
           **stokes_factor(s)}
    if args.solve:
        out.update(whole_solve(s))
    out["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
