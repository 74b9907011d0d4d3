"""Guards on the source of ddrns itself."""

import dataclasses
import re
from pathlib import Path

import ddrns
from ddrns import cli
from ddrns.solver import SolverOptions

SRC = Path(ddrns.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def src_lines(pattern, skip=()):
    return [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name not in skip
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_src_reads_the_mesh_arrays_not_entity_lists():
    # the mesh keeps one array per attribute; a per-entity gather such as
    # `[f.anchor for f in mesh.faces]` has nothing left to read
    hits = src_lines(r"mesh\.(vertices|edges|faces|cells)\b")
    assert not hits, hits


def test_ell_is_set_in_spaces_only():
    # DofLayout.ell is the one place the degree of the face and cell
    # moments is set; operators and the other modules read it from the
    # layouts (DofLayout.spaces)
    pattern = r"\bell\s*=\s*(self\.)?k\s*-\s*1\b"
    hits = src_lines(pattern, skip=("spaces.py",))
    assert not hits, hits
    assert re.search(pattern, (SRC / "spaces.py").read_text())


def test_block_sizes_are_read_in_spaces_only():
    # DoF positions come from DofLayout.dofs and the groups' interior columns
    hits = src_lines(r"\b(vertex|edge|face|cell)_(block|subsizes)\b",
                     skip=("spaces.py",))
    assert not hits, hits


def test_numpy_floor_has_vecdot():
    # np.vecdot came with NumPy 2.0
    floor = re.search(r'"numpy>=(\d+)', (REPO / "pyproject.toml").read_text())
    assert not src_lines(r"\bnp\.vecdot\(") or int(floor[1]) >= 2


def test_error_names_are_spelled_once():
    # ErrorReport.ERRORS names the reported errors; the CSV columns, the
    # observed orders and the CLI log lines and headers read them from
    # there, so no other string literal starts with a name
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    for name in ("E^d_u", "E^p_u", "E^d_p", "E^p_p"):
        assert len(re.findall(f"[\"']{re.escape(name)}", text)) == 1, name
        assert text.count(f'"{name}"') == 1, name
        assert f"{name}=" not in text, name


def test_every_src_name_has_a_caller():
    # a def or class of src/ddrns that src/, bench/ and scripts/ mention
    # only at its definition serves the tests alone, which keep their own
    # in tests/oracles.py; regularity_ratio waits for the run record
    # (ROADMAP item 6)
    text = "\n".join(path.read_text()
                     for top in (SRC, REPO / "bench", REPO / "scripts")
                     for path in sorted(top.rglob("*.py")))
    defined = {name for path in SRC.glob("*.py") for name in
               re.findall(r"^\s*(?:def|class)\s+(\w+)", path.read_text(),
                          re.M)}
    unused = {name for name in defined if not re.fullmatch("__.*__", name)
              and len(re.findall(rf"\b{name}\b", text)) == 1}
    assert unused == {"regularity_ratio"}, sorted(unused)
    # and each solver option is a setting of a run
    fields = {f.name for f in dataclasses.fields(SolverOptions)}
    assert fields <= {attr for attr, _, _ in cli._CONFIG_KEYS.values()}
