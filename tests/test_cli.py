import pytest

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


def test_out_of_range_input_is_config_error(tmp_path):
    base = ["--cmd", "convergence", "--out", str(tmp_path)]
    assert run_cli(base + ["--levels", "0,1"]) == 4
    assert run_cli(base + ["--levels", "1", "--tol", "-1"]) == 4
    assert run_cli(base + ["--levels", "1", "--tol", "0"]) == 4
    # not finite: a NaN tolerance passed every residual test, so the Stokes
    # start was written as the result after 0 Newton steps
    base += ["--mesh", "cubic", "--levels", "4", "--k", "0"]
    assert run_cli(base + ["--re", "nan"]) == 4
    assert run_cli(base + ["--tol", "nan", "--re", "100"]) == 4
    assert run_cli(base + ["--lambda", "inf"]) == 4
    for nu in ("nan", "0"):
        cfg = tmp_path / "nu.cfg"
        cfg.write_text(f"nu = {nu}\n")
        assert run_cli(base + ["--config", str(cfg)]) == 4


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cmd = properties\nmesh = cubic\nlevels = 1\nk = 0\n"
                   "re = 1\nbc = natural\n")
    rc = run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    assert run_cli(["--config", str(bad), "--out", str(tmp_path)]) == 4


def test_read_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""# solver options
k = 1
mesh = cubic
levels = 2,4
re = 100
lambda = 2.5
bc = pressflux
tol = 1e-8
max_iter = 30
""")
    assert cli.read_config(path) == [
        ("k", "1"), ("mesh", "cubic"), ("levels", "2,4"), ("re", "100"),
        ("lambda", "2.5"), ("bc", "pressflux"), ("tol", "1e-8"),
        ("max_iter", "30")]
    cfg = cli.config_from_args(cli.make_parser().parse_args(["--config",
                                                             str(path)]))
    assert cfg == cli.RunConfig("properties", "cubic", [2, 4], k=1,
                                reynolds=100.0, lam=2.5, bc="pressflux",
                                tol=1e-8, max_iter=30)
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        cli.read_config(bad)


def test_hash_inside_a_value_is_kept(tmp_path):
    # a '#' starts a comment only at the start of a line or after whitespace
    path = tmp_path / "run.cfg"
    path.write_text("#comment\nmesh = file:runs#2/m.poly  # trailing\n"
                    "k = 1\t# after a tab\n  # indented comment\n")
    assert cli.read_config(path) == [("mesh", "file:runs#2/m.poly"),
                                     ("k", "1")]
    cfg = cli.config_from_args(cli.make_parser().parse_args(["--config",
                                                             str(path)]))
    assert cfg.mesh_family == "file:runs#2/m.poly"


def test_re_and_nu_in_one_config_file_is_config_error(tmp_path, capsys):
    both = tmp_path / "both.cfg"
    both.write_text("re = 100\nnu = 0.5\n")
    assert run_cli(["--config", str(both), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "'re'" in err and "'nu'" in err
    # a flag still overrides the file's value
    one = tmp_path / "nu.cfg"
    one.write_text("nu = 0.5\n")
    cfg = cli.config_from_args(cli.make_parser().parse_args(
        ["--config", str(one), "--re", "100"]))
    assert cfg.reynolds == 100.0


@pytest.mark.parametrize("key, value, error", [
    ("k", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("max_iter", "3.9", "invalid literal for int() with base 10: '3.9'"),
    ("seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
    ("max_iter", "-1", "max_iter must be >= 0"),
    ("seed", "-1", "seed must be in [0, 2**32)"),
    ("seed", str(2 ** 32), "seed must be in [0, 2**32)")],
    ids=["k=2.5", "max_iter=3.9", "seed=1.5", "max_iter=-1", "seed=-1",
         "seed=2**32"])
def test_bad_values_fail_at_validate_in_files_as_in_flags(tmp_path, capsys,
                                                          key, value, error):
    # a config-file value is converted and checked as the flag's text is:
    # a value that a flag refuses is a configuration error in a file too,
    # not an integer part run in its place or a failure inside the command
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cmd = properties\nlevels = 1\n{key} = {value}\n")
    runs = [["--config", str(cfg)]]
    if key not in cli._FILE_ONLY:
        runs.append(["--cmd", "properties", "--levels", "1", f"--{key}", value])
    for args in runs:
        assert run_cli(args + ["--out", str(tmp_path)]) == 4
        assert error in capsys.readouterr().err
    assert not (tmp_path / "run_properties.log").exists()


def test_constants_command(tmp_path):
    rc = run_cli(["--cmd", "constants", "--mesh", "cubic", "--levels", "1",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "constants_cubic_k0.csv").read_text()
    assert "C_poincare" in text.splitlines()[0]
    vals = text.splitlines()[1].split(",")
    assert float(vals[1]) > 0 and float(vals[4]) > 0


def test_constants_over_the_cap_writes_no_csv(tmp_path, monkeypatch):
    # n=1 fits under the cap and n=2 does not: the command fails without
    # leaving a CSV of the levels before the refused one
    monkeypatch.setattr(verify, "DENSE_CAP", 20)
    rc = run_cli(["--cmd", "constants", "--mesh", "cubic", "--levels", "1,2",
                  "--k", "0", "--out", str(tmp_path)])
    assert rc == 4
    assert not (tmp_path / "constants_cubic_k0.csv").exists()
    log = (tmp_path / "run_constants.log").read_text()
    assert "n=2: CURL dimension 54 exceeds the dense cap 20" in log


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

    def level_lines(out):
        return [line for line in (out / "run_convergence.log").read_text()
                .splitlines() if "level n=" in line]
    assert len(level_lines(a)) == 2
    assert level_lines(a) == level_lines(b)


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


def test_argparse_errors_are_config_errors(tmp_path, capsys):
    base = ["--cmd", "convergence", "--levels", "1", "--out", str(tmp_path)]
    assert run_cli(base + ["--k", "abc"]) == 4
    assert run_cli(base + ["--bc", "bogus"]) == 4
    assert run_cli(base + ["--no-such-flag"]) == 4
    assert run_cli(["--help"]) == 0
    assert "--parallel-levels" in capsys.readouterr().out


def test_bad_mesh_is_config_error(tmp_path, capsys):
    base = ["--cmd", "properties", "--levels", "1", "--out", str(tmp_path)]
    assert run_cli(base + ["--mesh", "bogus"]) == 4
    assert run_cli(base + ["--mesh", f"file:{tmp_path / 'missing.poly3'}"]) == 4
    bad = tmp_path / "bad.poly3"
    bad.write_text("POLY3 1\n1 0 0\n0.0 0.0\n")
    assert run_cli(base + ["--mesh", f"file:{bad}"]) == 4
    # a sliver passes the mesh validation, but its Gram at k=2 is singular
    bad.write_text("POLY3 1\n4 4 1\n0 0 0\n1 0 0\n0 1 0\n.3 .3 1e-4\n3 0 2 1\n"
                   "3 0 1 3\n3 1 2 3\n3 0 3 2\n4 0 1 2 3\n")
    assert run_cli(base + ["--mesh", f"file:{bad}", "--k", "2"]) == 4
    assert "config error: cell 0: Gram" in capsys.readouterr().err


def test_nonconvergence_in_a_worker_is_solver_failure(tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("cmd = convergence\nmesh = tet\nlevels = 1,2\nmax_iter = 0\n")
    assert run_cli(["--config", str(cfg), "--parallel-levels",
                    "--out", str(tmp_path)]) == 2
    log = (tmp_path / "run_convergence.log").read_text()
    assert "solver failure: Newton failed to converge: max_iter = 0" in log


def test_malformed_mesh_in_a_worker_is_config_error(tmp_path):
    bad = tmp_path / "bad.poly3"
    bad.write_text("POLY3 1\n1 0 0\n0.0 0.0\n")
    assert run_cli(["--cmd", "convergence", "--levels", "1,2",
                    "--parallel-levels", "--mesh", f"file:{bad}",
                    "--out", str(tmp_path)]) == 4
