"""The command-line entry point, run in-process inside a caller's Ray
session."""

import json

import pyarrow.parquet as pq
import pytest

from geo_polygonize_ray import run
from geo_polygonize_ray.sources.fixtures import grid_lines, linework_table


@pytest.mark.usefixtures("ray_session")
def test_adaptive_without_tile_size_keeps_callers_session(tmp_path):
    """``--adaptive`` with no ``--tile-size`` traces the whole input once
    (grid(4): 16 unit cells), and ``main`` leaves the session it did not
    start running."""
    import ray

    src, dst = tmp_path / "lines.parquet", tmp_path / "polys.geojson"
    pq.write_table(linework_table(grid_lines(4)), src)
    assert run.main(["--input", str(src), "--output", str(dst), "--adaptive"]) == 0
    features = json.loads(dst.read_text())["features"]
    assert len(features) == 16
    assert ray.is_initialized()
