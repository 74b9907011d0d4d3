"""Guards on the source of ddrns itself."""

import re
from pathlib import Path

import ddrns

SRC = Path(ddrns.__file__).parent


def test_src_reads_the_mesh_arrays_not_entity_lists():
    # the mesh keeps one array per attribute; a per-entity gather such as
    # `[f.anchor for f in mesh.faces]` has nothing left to read
    pattern = re.compile(r"mesh\.(vertices|edges|faces|cells)\b")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert not hits, hits


def test_ell_is_set_in_spaces_only():
    # DofLayout.ell is the one place the degree of the face and cell
    # moments is set; operators and the other modules read it from the
    # layouts (DofLayout.spaces)
    pattern = re.compile(r"\bell\s*=\s*(self\.)?k\s*-\s*1\b")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "spaces.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert not hits, hits
    assert pattern.search((SRC / "spaces.py").read_text())


def test_error_names_are_spelled_once():
    # ErrorReport.ERRORS names the reported errors; the CSV columns, the
    # observed orders and the CLI log lines and headers read them from
    # there, so no other string literal starts with a name
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    for name in ("E^d_u", "E^p_u", "E^d_p", "E^p_p"):
        assert len(re.findall(f"[\"']{re.escape(name)}", text)) == 1, name
        assert text.count(f'"{name}"') == 1, name
        assert f"{name}=" not in text, name
