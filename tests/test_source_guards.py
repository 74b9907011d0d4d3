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
