"""The no-regression reading of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def summary(parent, change, better="lower", bound=0.1):
    return bench_pairs.summarise(
        {"parent_runs": parent, "change_runs": change}, better, bound)


def test_steady_runs_within_their_bound_are_resolved():
    s = summary([1.0, 1.01, 0.99, 1.0, 1.02], [1.05, 1.06, 1.04, 1.05, 1.07])
    assert s["bound"] == 0.1
    assert s["parent_median"] == 1.0 and s["change_median"] == 1.05
    assert s["change_wins"] == 0
    assert s["within_bound"] and s["resolved"]


def test_a_median_worse_by_more_than_the_bound_is_out_of_bound():
    s = summary([1.0, 1.01, 0.99, 1.0, 1.02], [1.12, 1.11, 1.13, 1.12, 1.1])
    assert not s["within_bound"] and s["resolved"]


def test_higher_is_better_reads_the_other_way():
    s = summary([1.0, 1.01, 0.99, 1.0, 1.02], [0.88, 0.89, 0.87, 0.88, 0.9],
                better="higher")
    assert not s["within_bound"]
    s = summary([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22],
                better="higher")
    assert s["within_bound"] and s["resolved"] and s["change_wins"] == 5


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_parent_spread_wider_than_the_bound_is_unresolved(better):
    # parent IQR 0.4 over median 1.0 against a bound of 0.1
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    s = summary(parent, [1.0, 0.9, 1.1, 1.0, 1.05], better=better)
    assert s["parent_iqr"] == pytest.approx(0.4)
    assert s["within_bound"] and not s["resolved"]


def test_a_change_beating_every_parent_run_is_resolved_despite_spread():
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert summary(parent, [0.5, 0.55, 0.52, 0.58, 0.5])["resolved"]
    assert summary(parent, [1.5, 1.6, 1.55, 1.7, 1.5],
                   better="higher")["resolved"]


# ten pairs: the claim rule needs 9 wins and a median gain beyond the
# parent's IQR
STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 0.98, 1.01, 1.0, 0.99]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_gain_won_in_nine_pairs_beyond_the_iqr_is_shown(better):
    faster = [0.5] * 9 + [1.5]
    change = faster if better == "lower" else [2 - x for x in faster]
    s = summary(STEADY, change, better=better)
    assert s["change_wins"] == 9 and s["gain_shown"]


def test_a_gain_won_in_eight_pairs_is_not_shown():
    s = summary(STEADY, [0.5] * 8 + [1.5, 1.5])
    assert s["change_wins"] == 8
    assert s["parent_median"] - s["change_median"] > s["parent_iqr"]
    assert not s["gain_shown"]


def test_a_gain_within_the_parent_iqr_is_not_shown():
    parent = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    s = summary(parent, [x - 0.05 for x in parent])
    assert s["change_wins"] == 10
    assert s["parent_median"] - s["change_median"] < s["parent_iqr"]
    assert not s["gain_shown"]


STUB_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if {crash} and args["--seed"] == "2":
    sys.exit(1)
print(json.dumps({{"correct": True, "failed": 0,
                  "metrics": {{"wall_s": {{"value": float(args["--seed"])}}}}}}))
"""


def stub_checkout(path, crash):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(STUB_RUN.format(crash=crash))
    return path


def test_a_crashed_run_is_recorded_and_the_other_pairs_are_kept(tmp_path):
    checkouts = {"parent": stub_checkout(tmp_path / "parent", False),
                 "change": stub_checkout(tmp_path / "change", True)}
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.25}]}
    out = bench_pairs.measure(checkouts, "w", [1, 2, 3], 1.0, spec)
    assert out["crashed"] == {"parent": [], "change": [2]}
    assert out["failed"] == {"parent": 0, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["parent_runs"] == wall["change_runs"] == [1.0, 3.0]
    assert out["traced_seed1"]["change"] == {"wall_s": 1.0}


def test_each_side_names_its_tree(tmp_path):
    assert bench_pairs.tree_state(tmp_path) == {"head": None, "dirty": None}
    subprocess.run("git init -q && git -c user.name=a -c user.email=a commit -q"
                   " --allow-empty -m a", shell=True, cwd=tmp_path, check=True)
    clean = bench_pairs.tree_state(tmp_path)
    assert len(clean["head"]) == 40 and clean["dirty"] is False
    (tmp_path / "a").write_text("a")
    assert bench_pairs.tree_state(tmp_path) == dict(clean, dirty=True)
