"""Per-layer tracing of ddrns, done from outside the package.

Inside a ``with Tracer():`` block the public functions and methods that
each layer exposes are replaced by wrappers that count calls and time
them; the originals are put back when the block ends.  Nothing in ddrns is
edited.  A function is replaced wherever a loaded ddrns module binds it, so
both ``from .quadrature import cell_rule`` and ``ps.build_scalar_basis``
call sites are seen.

Times are inclusive: a span covers the calls it makes into lower layers
(``operators.cell_s`` includes the quadrature rules and bases that cell
contexts build).  A wrapper re-entered while it is already running is
counted but not timed again.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _ddrns_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ddrns" or name.startswith("ddrns."))]


class Tracer:
    """Counts and times calls into ddrns layers while active."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._depth = defaultdict(int)
        self._paused = False
        self._undo = []

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, key, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            tracer._depth[key] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._depth[key] -= 1
                if tracer._depth[key] == 0:
                    tracer.seconds[key] += time.perf_counter() - t0
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _patch_function(self, owner, name, key, after=None):
        orig = getattr(owner, name)
        wrapper = self._wrap(key, orig, after)
        for mod in {id(m): m for m in [owner, *_ddrns_modules()]}.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _patch_method(self, cls, name, key):
        orig = cls.__dict__[name]
        setattr(cls, name, self._wrap(key, orig))
        self._undo.append((cls, name, orig))

    def _record_lu(self, args, lu):
        A = args[0]
        self.maxima["solver.dim_condensed"] = max(
            self.maxima["solver.dim_condensed"], A.shape[0])
        self.maxima["solver.nnz_condensed"] = max(
            self.maxima["solver.nnz_condensed"], A.nnz)
        self.maxima["solver.lu_fill_nnz"] = max(
            self.maxima["solver.lu_fill_nnz"], lu.L.nnz + lu.U.nnz)

    def __enter__(self):
        import scipy.sparse.linalg as spla

        from ddrns import operators, polyspaces, quadrature, solver

        for name in ("edge_rule", "face_rule", "cell_rule"):
            self._patch_function(quadrature, name, "quadrature.rule")
        for name in ("build_scalar_basis", "build_subspace"):
            self._patch_function(polyspaces, name, "polyspaces.basis")
        for cls, key in ((operators.EdgeContext, "operators.edge"),
                         (operators.FaceContext, "operators.face"),
                         (operators.CellContext, "operators.cell")):
            self._patch_method(cls, "__init__", key)
        self._patch_method(solver.NavierStokesSolver, "newton_step",
                           "solver.step")
        self._patch_method(solver.NavierStokesSolver, "residual",
                           "solver.residual")
        self._patch_function(spla, "splu", "solver.factor", self._record_lu)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    @contextmanager
    def paused(self):
        """Calls made inside are neither counted nor timed (the benchmark's
        own checks call into ddrns too)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def metrics(self) -> dict:
        """Per-layer figures of everything traced so far."""
        s, n = self.seconds, self.counts
        return {
            "quadrature.rule_s": s["quadrature.rule"],
            "quadrature.rules": n["quadrature.rule"],
            "polyspaces.basis_s": s["polyspaces.basis"],
            "polyspaces.bases": n["polyspaces.basis"],
            "operators.edge_s": s["operators.edge"],
            "operators.edges": n["operators.edge"],
            "operators.face_s": s["operators.face"],
            "operators.faces": n["operators.face"],
            "operators.cell_s": s["operators.cell"],
            "operators.cells": n["operators.cell"],
            "solver.steps": n["solver.step"],
            "solver.step_s": s["solver.step"],
            "solver.factorizations": n["solver.factor"],
            "solver.factor_s": s["solver.factor"],
            "solver.condense_s": s["solver.step"] - s["solver.factor"],
            "solver.dim_condensed": self.maxima["solver.dim_condensed"],
            "solver.nnz_condensed": self.maxima["solver.nnz_condensed"],
            "solver.lu_fill_nnz": self.maxima["solver.lu_fill_nnz"],
            "solver.residuals": n["solver.residual"],
            "solver.residual_s": s["solver.residual"],
        }


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @contextmanager
    def paused(self):
        yield

    def metrics(self) -> dict:
        return {}
