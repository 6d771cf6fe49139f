"""The layered benchmark (polybench) wraps engine functions and methods by
name in every Ray worker; a renamed or moved name makes its traced runs
crash at startup, and a changed call shape silently skews its per-layer
metrics.  Installing the wrappers and driving the tracers in a fresh
interpreter keeps the patches out of this test process."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One traced "job": both TilePolygonizer row formats and one stitch tracer
# call.  Every (plane, tile) cell must give exactly one trace.cell span with
# exactly one local.assemble span inside it.
SCRIPT = """
import sys
import numpy as np
import pyarrow as pa
from polybench.spans import JobFlag, Recorder, install, read_spans

span_dir = sys.argv[1]
JobFlag(span_dir).set(1)
install(Recorder(span_dir))

from geo_polygonize_ray.sources.fixtures import grid_lines, linework_table
from geo_polygonize_ray.stages.linework import (
    SaltedSegmentAssigner, SaltedTileAssigner, add_plane_key, explode_linework_to_segments,
)
from geo_polygonize_ray.stages.stitch import EscalatingTilePolygonizer
from geo_polygonize_ray.stages.trace import TilePolygonizer

lines = add_plane_key(linework_table(grid_lines(4)))
bbox = (0.0, 0.0, 4.0, 4.0)
untiled = lines.append_column("tile_id", pa.array(np.zeros(lines.num_rows, dtype=np.int64)))
TilePolygonizer(None)(untiled)
seg_assigner = SaltedSegmentAssigner(bbox, 2.0, 0.5)
segs = seg_assigner.assign_and_clip(explode_linework_to_segments(lines))
TilePolygonizer(seg_assigner)(segs)
line_assigner = SaltedTileAssigner(bbox, 2.0, 1.0)
rows = line_assigner(lines)
EscalatingTilePolygonizer(line_assigner)(rows)

n_cells = 1 + len(np.unique(segs["tile_id"])) + len(np.unique(rows["tile_id"]))
spans = [s for _, s in read_spans(span_dir)]
cells = [s[4] for s in spans if s[1] == "trace.cell"]
assemble_parents = [s[5] for s in spans if s[1] == "local.assemble"]
assert len(cells) == n_cells == 9, (len(cells), n_cells)
assert sorted(assemble_parents) == sorted(cells), (assemble_parents, cells)
"""


def test_benchmark_span_hooks_install(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
