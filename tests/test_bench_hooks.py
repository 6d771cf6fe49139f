"""The layered benchmark (polybench) wraps engine functions and methods by
name in every Ray worker; a renamed or moved name makes its traced runs
crash at startup, and a changed call shape silently skews its per-layer
metrics.  Installing the wrappers and driving the tracers in a fresh
interpreter keeps the patches out of this test process."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Traced job 1: both TilePolygonizer row formats and one stitch tracer call
# on clipped segment rows, as an escalation round sends them.
# Every (plane, tile) cell must give exactly one trace.cell span with exactly
# one span of each kernel phase inside it: local.graph, local.sort,
# local.prune, local.rings and local.assemble (the per-layer split reads
# these five method names).  Traced job 2: one ImageRoundtrip call on
# a batch of two image shapes, which must run each raster kernel once per
# shape (rgb_to_labels and labels_to_linework both record raster.vectorize)
# and decode once per row, all inside its images.task span.
SCRIPT = """
import sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from polybench.spans import JobFlag, Recorder, install, read_spans

span_dir = sys.argv[1]
flag = JobFlag(span_dir)
install(Recorder(span_dir))

from geo_polygonize_ray.pipelines.images import ImageRoundtrip
from geo_polygonize_ray.sources.fixtures import generate_image_table

# built untraced (job 0): the generator decodes and hashes too
batch = pa.concat_tables([
    pq.read_table(generate_image_table(3, f"{span_dir}/img{w}.parquet", w=w, h=h, seed=w))
    for w, h in ((16, 16), (24, 12))
])
flag.set(1)

from geo_polygonize_ray.sources.fixtures import grid_lines, linework_table
from geo_polygonize_ray.stages.linework import (
    SaltedSegmentAssigner, add_plane_key, explode_linework_to_segments,
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
round_assigner = SaltedSegmentAssigner(bbox, 2.0, 1.0)
rows = round_assigner.assign_and_clip(explode_linework_to_segments(lines))
EscalatingTilePolygonizer(round_assigner)(rows)

flag.set(2)
out = ImageRoundtrip()(batch)
flag.set(0)
assert out["phash_ok"].to_pylist() == [True] * 6 and out["roundtrip_ok"].to_pylist() == [True] * 6

n_cells = 1 + len(np.unique(segs["tile_id"])) + len(np.unique(rows["tile_id"]))
spans = [s for _, s in read_spans(span_dir) if s[0] == 1]
cells = [s[4] for s in spans if s[1] == "trace.cell"]
assert len(cells) == n_cells == 9, (len(cells), n_cells)
for name in ("local.graph", "local.sort", "local.prune", "local.rings", "local.assemble"):
    parents = [s[5] for s in spans if s[1] == name]
    assert sorted(parents) == sorted(cells), (name, parents, cells)

spans = [s for _, s in read_spans(span_dir) if s[0] == 2]
tasks = [s[4] for s in spans if s[1] == "images.task"]
assert len(tasks) == 1, tasks
raster = [s for s in spans if s[1].startswith("raster.")]
assert all(s[5] == tasks[0] for s in raster), raster
count = lambda name: sum(s[1] == name for s in raster)
groups = 2
assert count("raster.decode") == batch.num_rows, count("raster.decode")
for name in ("raster.phash", "raster.rasterize", "raster.psnr"):
    assert count(name) == groups, (name, count(name))
assert count("raster.vectorize") == 2 * groups, count("raster.vectorize")
linework = [s for s in raster if s[1] == "raster.vectorize" and s[6]]
assert len(linework) == groups and all(s[6]["segments"] > 0 for s in linework), linework
"""


def test_benchmark_span_hooks_install(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
