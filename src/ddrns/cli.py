"""Batch driver for the desk-scale experiment families.

Commands
--------
convergence   manufactured trigonometric problem over mesh levels, CSV of
              discrete/potential errors and observed orders
robustness    paired runs at lambda and 100*lambda, velocity invariance check
pressflux     mixed pressure/flux boundary conditions, discrete norms per level
properties    structural property suite (exit code 3 on failure)
constants     discrete Poincare/continuity/Sobolev estimates + chi diagnostic

Exit codes: 0 success, 2 solver failure, 3 property failure, 4 config error
(a malformed flag, setting or mesh file included, and a mesh cell that the
bases or quadrature rules cannot handle).
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
import contextlib
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mesh import (Mesh, MeshError, generate_cubic_mesh, generate_tet_mesh,
                   read_mesh)
from .operators import DdrComplex
from .solutions import TrigSolution
from .polyspaces import BasisError
from .quadrature import DegenerateSimplexError
from .solver import (EmptyRegionError, NavierStokesSolver, ProblemSpec,
                     SolverError, SolverOptions, natural_bc, pressflux_bc,
                     essential_bc)
from .spaces import SpaceKind
from . import verify


@dataclass
class RunConfig:
    command: str
    mesh_family: str = "cubic"
    levels: list[int] = field(default_factory=lambda: [2, 4])
    k: int = 0
    reynolds: float = 1.0
    lam: float = 1.0
    bc: str = "natural"
    tol: float = 1e-9
    max_iter: int = 50
    out_dir: str = "out"
    seed: int = 0
    parallel_levels: bool = False

    def validate(self):
        if self.command not in ("convergence", "robustness", "pressflux",
                                "properties", "constants"):
            raise ValueError(f"unknown command {self.command!r}")
        if not self.levels or sorted(self.levels) != self.levels:
            raise ValueError("levels must be a non-empty ascending list")
        if self.levels[0] < 1:
            raise ValueError("levels must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not 0 <= self.seed < 2 ** 32:
            raise ValueError("seed must be in [0, 2**32)")
        if not np.isfinite(self.reynolds) or self.reynolds <= 0:
            raise ValueError("re must be finite and positive")
        SolverOptions(self.tol, self.max_iter)  # refuses a bad tol, max_iter
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if self.bc not in ("natural", "essential", "pressflux"):
            raise ValueError(f"unknown bc preset {self.bc!r}")
        fam = self.mesh_family
        if fam not in ("cubic", "tet") and not fam.startswith("file:"):
            raise ValueError(f"unknown mesh family {fam!r}")
        return self


def build_mesh_for(config: RunConfig, n: int) -> Mesh:
    fam = config.mesh_family
    if fam == "cubic":
        return generate_cubic_mesh(n)
    if fam == "tet":
        return generate_tet_mesh(n)
    if fam.startswith("file:"):
        return read_mesh(fam[5:])
    raise ValueError(f"unknown mesh family {fam!r}")


def _regions_for(config: RunConfig, sol: TrigSolution):
    if config.bc == "natural":
        return natural_bc()
    if config.bc == "essential":
        return essential_bc(sol.velocity, sol.pressure)
    return pressflux_bc()


def _solve_level(config: RunConfig, n: int, lams):
    """Error reports of the trigonometric problem at each lambda, all solved
    on one mesh and complex of level n."""
    cx = DdrComplex(build_mesh_for(config, n), config.k)
    reports = []
    for lam in lams:
        sol = TrigSolution(nu=1.0 / config.reynolds, lam=lam)
        spec = ProblemSpec(nu=1.0 / config.reynolds, forcing=sol.forcing,
                           regions=_regions_for(config, sol),
                           exact_velocity=sol.velocity,
                           exact_pressure=sol.pressure)
        solver = NavierStokesSolver(
            cx, spec, SolverOptions(tol=config.tol, max_iter=config.max_iter))
        result = solver.solve()
        report = verify.compute_errors(cx, result.u, result.p, sol)
        report.dim_condensed = result.diagnostics.dim_condensed
        report.newton_iterations = result.diagnostics.iterations
        reports.append(report)
    return reports


def _run_levels(config: RunConfig, lams, log):
    """Reports of every level at each lambda: one list per lambda, EOCs
    attached."""
    levels = config.levels
    args = ([config] * len(levels), levels, [lams] * len(levels))
    if config.parallel_levels and len(levels) > 1:
        pool = cf.ProcessPoolExecutor(max_workers=min(4, len(levels)))
        results = pool.map(_solve_level, *args)
    else:
        pool, results = contextlib.nullcontext(), map(_solve_level, *args)
    per_level = []
    # both maps yield the reports in level order, so both paths log alike
    with pool:
        for n, reports in zip(levels, results):
            per_level.append(reports)
            for lam, r in zip(lams, reports):
                log(f"  level n={n}"
                    + (f" lambda={lam:g}" if len(lams) > 1 else "")
                    + f": h={r.h:.4f} "
                    + "".join(f"{name}={getattr(r, attr):.6e} "
                              for name, attr in verify.ErrorReport.ERRORS)
                    + f"(newton {r.newton_iterations} its)")
    per_lam = [list(reports) for reports in zip(*per_level)]
    for reports in per_lam:
        verify.attach_eoc(reports)
    return per_lam


def _csv_tag(config: RunConfig) -> str:
    """Mesh part of a CSV name: the family, or file-<stem> for a file mesh."""
    fam = config.mesh_family
    if fam.startswith("file:"):
        return "file-" + Path(fam[5:]).stem
    return fam


def cmd_convergence(config: RunConfig, out: Path, log) -> int:
    log(f"convergence: {config.mesh_family} levels={config.levels} "
        f"k={config.k} Re={config.reynolds} lambda={config.lam}")
    try:
        (reports,) = _run_levels(config, [config.lam], log)
    except SolverError as exc:
        log(f"solver failure: {exc}")
        return 2
    path = out / f"convergence_{_csv_tag(config)}_k{config.k}.csv"
    verify.write_csv(path, verify.ErrorReport.CSV_COLUMNS,
                     [r.csv_row() for r in reports])
    log(f"wrote {path}")
    for r in reports:
        if r.eoc:
            log("  EOC at h={:.4f}: ".format(r.h)
                + " ".join(f"{key}={val:.3f}" for key, val in r.eoc.items()))
    return 0


def cmd_robustness(config: RunConfig, out: Path, log) -> int:
    log(f"robustness: lambda={config.lam} vs {100 * config.lam}")
    try:
        rep1, rep2 = _run_levels(config, [config.lam, 100.0 * config.lam],
                                 log)
    except SolverError as exc:
        log(f"solver failure: {exc}")
        return 2
    # the two velocity errors at lambda and 100 lambda, and their relative
    # difference
    errors = list(zip(verify.ErrorReport.ERRORS[:2], ("reldiff", "reldiff_p")))
    header = ["MeshSize"]
    for (name, _), diff in errors:
        header += [f"{name}(lam)", f"{name}(100lam)", diff]
    rows = []
    for a, b in zip(rep1, rep2):
        row = [a.h]
        for (_, attr), _ in errors:
            x, y = getattr(a, attr), getattr(b, attr)
            row += [x, y, abs(x - y) / x]
        rows.append(row)
    path = out / f"robustness_{_csv_tag(config)}_k{config.k}.csv"
    verify.write_csv(path, header, [list(map(repr, row)) for row in rows])
    log(f"wrote {path}")
    worst = max(row[3] for row in rows)
    log(f"max velocity-error relative difference: {worst:.3e}")
    return 0


def cmd_pressflux(config: RunConfig, out: Path, log) -> int:
    log(f"pressflux: levels={config.levels} k={config.k} Re={config.reynolds}")
    rows = []
    zero_f = lambda pts: np.zeros((len(pts), 3))
    for n in config.levels:
        mesh = build_mesh_for(config, n)
        cx = DdrComplex(mesh, config.k)
        spec = ProblemSpec(nu=1.0 / config.reynolds, forcing=zero_f,
                           regions=pressflux_bc())
        solver = NavierStokesSolver(cx, spec,
                                    SolverOptions(tol=config.tol,
                                                  max_iter=config.max_iter))
        try:
            result = solver.solve()
        except SolverError as exc:
            log(f"solver failure at n={n}: {exc}")
            return 2
        u, p = result.u, result.p
        nu_curl = cx.norm(SpaceKind.CURL, u)
        nc = cx.norm(SpaceKind.DIV, cx.global_curl(u))
        graph_u = float(np.hypot(nu_curl, nc))
        np_grad = cx.norm(SpaceKind.GRAD, p)
        ngp = cx.norm(SpaceKind.CURL, cx.global_gradient(p))
        graph_p = float(np.hypot(np_grad, ngp))
        rows.append([repr(mesh.h), result.diagnostics.dim_condensed,
                     repr(graph_u), repr(graph_p),
                     result.diagnostics.iterations])
        log(f"  n={n}: |u|_curl-graph={graph_u:.8f} |p|_grad-graph={graph_p:.8f} "
            f"({result.diagnostics.iterations} newton its)")
    path = out / f"pressflux_k{config.k}.csv"
    verify.write_csv(path, ["MeshSize", "DimCondensed", "discN_HcurlVel",
                            "discN_HgradPre", "NewtonIts"], rows)
    log(f"wrote {path}")
    return 0


def cmd_properties(config: RunConfig, out: Path, log) -> int:
    cases = [DdrComplex(build_mesh_for(config, n), config.k)
             for n in config.levels]
    results = verify.run_property_suite(cases, seed=config.seed)
    n_fail = 0
    for r in results:
        log(("PASS " if r.passed else "FAIL ") + r.name
            + (f"  {r.detail}" if r.detail else ""))
        n_fail += not r.passed
    log(f"{len(results) - n_fail}/{len(results)} properties passed")
    return 0 if n_fail == 0 else 3


def cmd_constants(config: RunConfig, out: Path, log) -> int:
    sol = TrigSolution(nu=1.0 / config.reynolds, lam=config.lam)
    rows = []
    for n in config.levels:
        mesh = build_mesh_for(config, n)
        cx = DdrComplex(mesh, config.k)
        try:
            rep = verify.constants_report(cx, exact=sol,
                                          nu=1.0 / config.reynolds,
                                          seed=config.seed)
        except verify.DimensionCapError as exc:
            log(f"n={n}: {exc}")
            return 4
        log(f"  n={n}: C_p={rep.poincare_curl:.4f} "
            f"C_c_curl={rep.continuity_curl:.4f} "
            f"C_c_div={rep.continuity_div:.4f} "
            f"C_S>={rep.sobolev_lower_bound:.4f} chi={rep.chi:.4f}"
            + ("  (chi > 0)" if rep.chi and rep.chi > 0 else "  (chi <= 0:"
               " smallness regime not certified, logged only)"))
        rows.append([repr(mesh.h), repr(rep.poincare_curl),
                     repr(rep.continuity_curl), repr(rep.continuity_div),
                     repr(rep.sobolev_lower_bound), repr(rep.chi)])
    path = out / f"constants_{_csv_tag(config)}_k{config.k}.csv"
    verify.write_csv(path, ["MeshSize", "C_poincare", "C_cont_curl",
                            "C_cont_div", "C_sobolev_lb", "chi"], rows)
    log(f"wrote {path}")
    return 0


COMMANDS = {"convergence": cmd_convergence, "robustness": cmd_robustness,
            "pressflux": cmd_pressflux, "properties": cmd_properties,
            "constants": cmd_constants}


# every setting of a run by its config-file key, which is also its flag
# name: the RunConfig field, the conversion from the text of the file's
# value or of the flag, and the flag's help; the _FILE_ONLY keys have no flag
_CONFIG_KEYS = {
    "cmd": ("command", str, "one of: " + ", ".join(COMMANDS)),
    "mesh": ("mesh_family", str, "cubic | tet | file:<path>"),
    "levels": ("levels", lambda v: [int(t) for t in v.split(",")],
               "comma-separated ascending subdivision counts"),
    "k": ("k", int, "polynomial degree"),
    "re": ("reynolds", float, "Reynolds number"),
    "nu": ("reynolds", lambda v: 1.0 / float(v), "viscosity"),
    "lambda": ("lam", float, "pressure scaling"),
    "bc": ("bc", str, "natural | essential | pressflux"),
    "tol": ("tol", float, "Newton tolerance"),
    "max_iter": ("max_iter", int, "Newton steps"),
    "out": ("out_dir", str, "output directory"),
    "seed": ("seed", int, "random seed")}
_FILE_ONLY = ("nu", "max_iter")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ddrns",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", default=None,
                   help="key=value config file; flags override it")
    for key, (_, _, text) in _CONFIG_KEYS.items():
        if key not in _FILE_ONLY:
            p.add_argument("--" + key, default=None, help=text)
    p.add_argument("--parallel-levels", action="store_true")
    return p


def read_config(path) -> list[tuple[str, str]]:
    """The (key, text) pairs of a flat key=value file, in file order;
    blank lines and comments, from a '#' that starts the line or follows
    whitespace, are skipped ('file:runs#2/m.poly' keeps its '#')."""
    pairs = []
    with open(path) as fh:
        for raw in fh:
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {raw!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            pairs.append((key, val))
    return pairs


def config_from_args(args) -> RunConfig:
    """The settings of the config file, then those of the flags given, so
    that a flag wins, each converted from its text by _CONFIG_KEYS."""
    settings = read_config(args.config) if args.config else []
    if {"re", "nu"} <= {key for key, _ in settings}:
        raise ValueError("the config file sets both 're' and 'nu'; "
                         "give one of them")
    settings += [(key, getattr(args, key)) for key in _CONFIG_KEYS
                 if key not in _FILE_ONLY and getattr(args, key) is not None]
    cfg = RunConfig(command="properties",
                    parallel_levels=args.parallel_levels)
    for key, val in settings:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        attr, conv, _ = _CONFIG_KEYS[key]
        setattr(cfg, attr, conv(val))
    return cfg.validate()


def main(argv=None) -> int:
    try:
        cfg = config_from_args(make_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse has printed its error, or the help (exit code 0)
        return 4 if exc.code else 0
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    np.random.seed(cfg.seed)  # property suites draw through explicit RNGs too
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = []

    def log(msg):
        print(msg)
        log_lines.append(str(msg))

    try:
        rc = COMMANDS[cfg.command](cfg, out, log)
    except (verify.DimensionCapError, EmptyRegionError, MeshError,
            BasisError, DegenerateSimplexError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    (out / f"run_{cfg.command}.log").write_text("\n".join(log_lines) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
