from ddrns import cli
from ddrns import verify


def run_cli(args):
    return cli.main(args)


def test_properties_pass(tmp_path):
    rc = run_cli(["--cmd", "properties", "--mesh", "cubic", "--levels", "1",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "run_properties.log").exists()


def test_properties_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "run_property_suite",
                        lambda cases, seed=0: [verify.PropertyResult("x", False)])
    rc = run_cli(["--cmd", "properties", "--mesh", "cubic", "--levels", "1",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 3


def test_convergence_csv_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run_cli(["--cmd", "convergence", "--mesh", "cubic", "--levels",
                      "1,2", "--k", "0", "--out", str(out), "--seed", "1"])
        assert rc == 0
    fa = (a / "convergence_cubic_k0.csv").read_bytes()
    fb = (b / "convergence_cubic_k0.csv").read_bytes()
    assert fa == fb
    header = fa.decode().splitlines()[0].split(",")
    assert header == list(verify.ErrorReport.CSV_COLUMNS)
    # EOC populated on the second row only
    rows = fa.decode().strip().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[6] == "" and rows[2].split(",")[6] != ""


def test_solver_failure_exit_code(tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("cmd = convergence\nmesh = tet\nlevels = 2\nk = 0\n"
                   "max_iter = 0\n")
    rc = run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_config_errors(tmp_path):
    assert run_cli(["--cmd", "bogus", "--out", str(tmp_path)]) == 4
    assert run_cli(["--cmd", "convergence", "--levels", "4,2",
                    "--out", str(tmp_path)]) == 4
    assert run_cli(["--cmd", "convergence", "--levels", "",
                    "--out", str(tmp_path)]) == 4


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cmd = properties\nmesh = cubic\nlevels = 1\nk = 0\n"
                   "re = 1\nbc = natural\n")
    rc = run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    assert run_cli(["--config", str(bad), "--out", str(tmp_path)]) == 4


def test_constants_command(tmp_path):
    rc = run_cli(["--cmd", "constants", "--mesh", "cubic", "--levels", "1",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "constants_cubic_k0.csv").read_text()
    assert "C_poincare" in text.splitlines()[0]
    vals = text.splitlines()[1].split(",")
    assert float(vals[1]) > 0 and float(vals[4]) > 0


def test_robustness_command(tmp_path):
    rc = run_cli(["--cmd", "robustness", "--mesh", "cubic", "--levels", "2",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "robustness_cubic_k0.csv").read_text().splitlines()
    reldiff = float(lines[1].split(",")[3])
    assert reldiff < 5e-2


def test_mesh_file_input(tmp_path):
    from ddrns.mesh import generate_cubic_mesh, write_poly3
    path = tmp_path / "m.poly3"
    write_poly3(generate_cubic_mesh(1), path)
    rc = run_cli(["--cmd", "properties", "--mesh", f"file:{path}",
                  "--levels", "1", "--k", "0", "--out", str(tmp_path)])
    assert rc == 0


def test_parallel_levels_matches_sequential(tmp_path):
    a, b = tmp_path / "seq", tmp_path / "par"
    base = ["--cmd", "convergence", "--mesh", "cubic", "--levels", "1,2",
            "--k", "0"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b), "--parallel-levels"]) == 0
    assert (a / "convergence_cubic_k0.csv").read_bytes() \
        == (b / "convergence_cubic_k0.csv").read_bytes()


def test_tet_family_smoke(tmp_path):
    rc = run_cli(["--cmd", "convergence", "--mesh", "tet", "--levels", "1,2",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "convergence_tet_k0.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_file_mesh_csv_named_from_stem(tmp_path):
    from ddrns.mesh import generate_cubic_mesh, write_poly3
    (tmp_path / "m").mkdir()
    path = tmp_path / "m" / "cube2.poly3"
    write_poly3(generate_cubic_mesh(2), path)
    out = tmp_path / "out"
    rc = run_cli(["--cmd", "convergence", "--mesh", f"file:{path}",
                  "--levels", "1", "--k", "0", "--out", str(out)])
    assert rc == 0
    rows = (out / "convergence_file-cube2_k0.csv").read_text().splitlines()
    assert len(rows) == 2


def test_empty_boundary_patch_is_config_error(tmp_path, capsys):
    rc = run_cli(["--cmd", "pressflux", "--mesh", "cubic", "--levels", "2",
                  "--k", "0", "--re", "100", "--out", str(tmp_path)])
    assert rc == 4
    assert "matches no boundary face" in capsys.readouterr().err
