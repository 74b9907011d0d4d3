"""Batch driver for the desk-scale experiment families.

Commands
--------
convergence   manufactured trigonometric problem over mesh levels, CSV of
              discrete/potential errors and observed orders
robustness    paired runs at lambda and 100*lambda, velocity invariance check
pressflux     mixed pressure/flux boundary conditions, discrete norms per level
properties    structural property suite (exit code 3 on failure)
constants     discrete Poincare/continuity/Sobolev estimates + chi diagnostic

Exit codes: 0 success, 2 solver failure, 3 property failure, 4 config error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mesh import Mesh, generate_cubic_mesh, generate_tet_mesh, read_mesh
from .operators import DdrComplex
from .solutions import TrigSolution
from .solver import (EmptyRegionError, NavierStokesSolver,
                     NonConvergenceError, ProblemSpec, SolverError,
                     SolverOptions, natural_bc, pressflux_bc, essential_bc,
                     load_config)
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
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.reynolds <= 0:
            raise ValueError("re must be positive")
        if self.bc not in ("natural", "essential", "pressflux"):
            raise ValueError(f"unknown bc preset {self.bc!r}")
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
    if config.parallel_levels and len(levels) > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=min(4, len(levels))) as pool:
            per_level = list(pool.map(_solve_level, [config] * len(levels),
                                      levels, [lams] * len(levels)))
    else:
        per_level = []
        for n in levels:
            per_level.append(_solve_level(config, n, lams))
            for lam, r in zip(lams, per_level[-1]):
                log(f"  level n={n}"
                    + (f" lambda={lam:g}" if len(lams) > 1 else "")
                    + f": h={r.h:.4f} E^d_u={r.err_u_discrete:.6e} "
                    f"E^p_u={r.err_u_potential:.6e} "
                    f"E^d_p={r.err_p_discrete:.6e} "
                    f"E^p_p={r.err_p_potential:.6e} "
                    f"(newton {r.newton_iterations} its)")
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
    except (SolverError, NonConvergenceError) as exc:
        log(f"solver failure: {exc}")
        return 2
    path = out / f"convergence_{_csv_tag(config)}_k{config.k}.csv"
    verify.write_csv(reports, path)
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
    except (SolverError, NonConvergenceError) as exc:
        log(f"solver failure: {exc}")
        return 2
    path = out / f"robustness_{_csv_tag(config)}_k{config.k}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["MeshSize", "E^d_u(lam)", "E^d_u(100lam)", "reldiff",
                    "E^p_u(lam)", "E^p_u(100lam)", "reldiff_p"])
        for a, b in zip(rep1, rep2):
            w.writerow([repr(a.h), repr(a.err_u_discrete), repr(b.err_u_discrete),
                        repr(abs(a.err_u_discrete - b.err_u_discrete)
                             / a.err_u_discrete),
                        repr(a.err_u_potential), repr(b.err_u_potential),
                        repr(abs(a.err_u_potential - b.err_u_potential)
                             / a.err_u_potential)])
    log(f"wrote {path}")
    worst = max(abs(a.err_u_discrete - b.err_u_discrete) / a.err_u_discrete
                for a, b in zip(rep1, rep2))
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
        except (SolverError, NonConvergenceError) as exc:
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["MeshSize", "DimCondensed", "discN_HcurlVel",
                    "discN_HgradPre", "NewtonIts"])
        w.writerows(rows)
    log(f"wrote {path}")
    return 0


def cmd_properties(config: RunConfig, out: Path, log) -> int:
    cases = []
    for n in config.levels:
        mesh = build_mesh_for(config, n)
        cases.append(DdrComplex(mesh, config.k))
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
    path = out / f"constants_{_csv_tag(config)}_k{config.k}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["MeshSize", "C_poincare", "C_cont_curl", "C_cont_div",
                    "C_sobolev_lb", "chi"])
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
            w.writerow([repr(mesh.h), repr(rep.poincare_curl),
                        repr(rep.continuity_curl), repr(rep.continuity_div),
                        repr(rep.sobolev_lower_bound), repr(rep.chi)])
    log(f"wrote {path}")
    return 0


COMMANDS = {"convergence": cmd_convergence, "robustness": cmd_robustness,
            "pressflux": cmd_pressflux, "properties": cmd_properties,
            "constants": cmd_constants}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ddrns",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--cmd", required=False, default=None,
                   help="one of: " + ", ".join(COMMANDS))
    p.add_argument("--config", default=None,
                   help="key=value config file; flags override it")
    p.add_argument("--mesh", default=None,
                   help="cubic | tet | file:<path>")
    p.add_argument("--levels", default=None,
                   help="comma-separated ascending subdivision counts")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--re", type=float, default=None, help="Reynolds number")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="pressure scaling")
    p.add_argument("--bc", default=None,
                   choices=["natural", "essential", "pressflux"])
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--parallel-levels", action="store_true", default=None)
    return p


_CONFIG_KEYS = {"cmd": ("command", str), "mesh": ("mesh_family", str),
                "k": ("k", int), "re": ("reynolds", float),
                "nu": ("reynolds", lambda v: 1.0 / float(v)),
                "lambda": ("lam", float), "bc": ("bc", str),
                "tol": ("tol", float), "max_iter": ("max_iter", int),
                "out": ("out_dir", str), "seed": ("seed", int)}


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command="properties")
    if args.config:
        file_vals = load_config(args.config)
        for key, val in file_vals.items():
            if key == "levels":
                cfg.levels = [int(t) for t in str(val).split(",")]
            elif key in _CONFIG_KEYS:
                attr, conv = _CONFIG_KEYS[key]
                setattr(cfg, attr, conv(val))
            else:
                raise ValueError(f"unknown config key {key!r}")
    if args.cmd is not None:
        cfg.command = args.cmd
    if args.mesh is not None:
        cfg.mesh_family = args.mesh
    if args.levels is not None:
        cfg.levels = [int(t) for t in args.levels.split(",")]
    if args.k is not None:
        cfg.k = args.k
    if args.re is not None:
        cfg.reynolds = args.re
    if args.lam is not None:
        cfg.lam = args.lam
    if args.bc is not None:
        cfg.bc = args.bc
    if args.tol is not None:
        cfg.tol = args.tol
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.parallel_levels:
        cfg.parallel_levels = True
    return cfg.validate()


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError) as exc:
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
    except (verify.DimensionCapError, EmptyRegionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    (out / f"run_{cfg.command}.log").write_text("\n".join(log_lines) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
