"""Tests of the benchmark's checks and output, at a tiny size.

    PYTHONPATH=src python -m pytest bench -q

Each check is shown to pass on the scheme's output and to fail on a
perturbed one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ddrns.mesh import build_mesh, generate_cubic_mesh  # noqa: E402
from ddrns.operators import DdrComplex  # noqa: E402
from ddrns.solutions import TrigSolution  # noqa: E402
from ddrns.solver import NavierStokesSolver, ProblemSpec, natural_bc  # noqa: E402
from ddrns.spaces import DofVector  # noqa: E402
from tracing import NullTracer  # noqa: E402


@pytest.fixture(scope="module")
def trig_pair():
    """Cubic n=3, k=0 solves at lambda=1 and lambda=100 on one complex (at
    n=2 the pressure vanishes at every vertex, its only DoFs)."""
    cx = DdrComplex(generate_cubic_mesh(3), 0)
    out = {}
    for lam in (1.0, 100.0):
        sol = TrigSolution(nu=1.0, lam=lam)
        solver = NavierStokesSolver(cx, ProblemSpec(
            nu=1.0, forcing=sol.forcing, regions=natural_bc()))
        out[lam] = (solver, solver.solve())
    return cx, out


@pytest.fixture(scope="module")
def jittered_tets():
    rng = np.random.default_rng(3)
    return DdrComplex(build_mesh(*workloads.jittered_kuhn_tables(2, rng)), 1)


def test_energy_identity_breaks_on_scaled_velocity(trig_pair):
    cx, runs = trig_pair
    for solver, res in runs.values():
        err = checks.energy_identity_error(cx, 1.0, solver.i_f, res.u)
        assert err <= checks.ENERGY_RTOL
        scaled = DofVector(res.u.layout, 1.001 * res.u.values)
        assert checks.energy_identity_error(cx, 1.0, solver.i_f, scaled) \
            > checks.ENERGY_RTOL


def test_mass_residual_breaks_on_perturbed_velocity(trig_pair):
    _, runs = trig_pair
    solver, res = runs[1.0]
    assert checks.mass_residual(solver, res) <= checks.MASS_ATOL
    noise = 1e-6 * np.random.default_rng(0).standard_normal(res.u.values.shape)
    bumped = dataclasses.replace(
        res, u=DofVector(res.u.layout, res.u.values + noise))
    assert checks.mass_residual(solver, bumped) > checks.MASS_ATOL


def test_invariance_breaks_on_pressure_or_perturbed_velocity(trig_pair):
    _, runs = trig_pair
    (_, r1), (_, r100) = runs[1.0], runs[100.0]
    assert checks.relative_difference(r1.u.values, r100.u.values) \
        <= checks.INVARIANCE_RTOL
    # the pressure scales with lambda, so it must fail the comparison
    assert checks.relative_difference(r1.p.values, r100.p.values) \
        > checks.INVARIANCE_RTOL
    bumped = r100.u.values * (1.0 + 1e-4)
    assert checks.relative_difference(r1.u.values, bumped) \
        > checks.INVARIANCE_RTOL


def test_reference_norms_break_when_shifted():
    ref = checks.PRESSFLUX_REFERENCE
    assert checks.pressflux_norms_ok(ref)
    for shift in (0.2, -0.2):
        assert not checks.pressflux_norms_ok((ref[0] + shift, ref[1]))
        assert not checks.pressflux_norms_ok((ref[0], ref[1] + shift))


def test_curl_potential_breaks_on_perturbed_polynomial(jittered_tets):
    cx = jittered_tets
    rng = np.random.default_rng(5)
    poly = checks.random_vector_polynomial(rng, cx.k)
    assert checks.curl_potential_error(cx, poly, poly) <= checks.POTENTIAL_RTOL
    other = checks.random_vector_polynomial(rng, cx.k)
    perturbed = lambda pts: poly(pts) + 1e-6 * other(pts)
    assert checks.curl_potential_error(cx, poly, perturbed) \
        > checks.POTENTIAL_RTOL
    # degree k+1 is beyond what the potential reproduces
    high = checks.random_vector_polynomial(rng, cx.k + 1)
    assert checks.curl_potential_error(cx, high, high) > checks.POTENTIAL_RTOL


def test_jitter_keeps_the_cube_and_depends_on_the_seed():
    base, _, _ = workloads.kuhn_tables(3)
    a, _, _ = workloads.jittered_kuhn_tables(3, np.random.default_rng(1))
    b, _, _ = workloads.jittered_kuhn_tables(3, np.random.default_rng(1))
    c, _, _ = workloads.jittered_kuhn_tables(3, np.random.default_rng(2))
    on_cube = (base == 0.0) | (base == 1.0)
    assert np.array_equal(a[on_cube], base[on_cube])
    assert np.all(a[~on_cube] != base[~on_cube])
    assert np.abs(a - base).max() <= workloads.JITTER / 3
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_tiny_workloads_pass_their_checks():
    rnd = workloads.conv_jtet(7, NullTracer(), n=2, k=1)
    assert (rnd.attempted, rnd.failed, rnd.correct) == (1, 0, True)
    assert "curl_potential_consistency" in rnd.checks
    rnd = workloads.pressflux_cubic(7, NullTracer(), n=4, k=0)
    assert (rnd.attempted, rnd.failed) == (1, 0)
    assert "pressflux_reference_norms" in rnd.checks


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_with_its_unit(trace, section, monkeypatch,
                                                 tmp_path, capsys):
    tiny = functools.partial(workloads.trig_cubic, n=3, k=0,
                             lams=(1.0, 100.0))
    monkeypatch.setitem(workloads.WORKLOADS, "robust-cubic-k0", tiny)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "robust-cubic-k0", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 2, 0)
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_counts_repeat_and_tracing_is_undone():
    from ddrns import operators, quadrature
    tiny = functools.partial(workloads.trig_cubic, n=3, k=0,
                             lams=(1.0, 100.0))
    counts = []
    for _ in range(2):
        metrics = run.measure(tiny, 0, 0, trace=True)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert operators.cell_rule is quadrature.cell_rule
    assert not hasattr(quadrature.cell_rule, "__wrapped__")
    assert not hasattr(operators.CellContext.__init__, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "robust-cubic-k0", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
