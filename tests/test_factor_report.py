"""scripts/factor_report.py end to end, in a process of its own."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "factor_report.py"


def test_factor_report_prints_one_json_line_of_the_solver_factor():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--mesh", "cubic", "--n", "2", "--k",
         "0", "--solve"], capture_output=True, text=True, timeout=60,
        check=True)
    line, = out.stdout.splitlines()
    rec = json.loads(line)
    assert set(rec) == {
        "mesh", "n", "k", "bc", "unknowns", "splu_kw", "splu_s", "nnz",
        "triangular_s", "solve_s", "newton_its", "factorizations",
        "krylov_iterations", "factored", "maxrss_mb"}
    assert rec["splu_kw"] == {"permc_spec": "MMD_AT_PLUS_A",
                              "diag_pivot_thresh": 0.1}
    assert rec["nnz"] > rec["unknowns"] > 0
    # the Stokes start factored here is the one solve() factors first
    assert rec["factored"][0] == {"ordering": "MMD_AT_PLUS_A",
                                  "nnz": rec["nnz"], "precision": "float32"}
    assert min(rec["splu_s"], rec["triangular_s"], rec["solve_s"],
               rec["maxrss_mb"]) > 0
