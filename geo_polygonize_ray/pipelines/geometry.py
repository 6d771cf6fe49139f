"""Geometry pipelines exposed as driver queries (rows-only correctness:
polygonization is not SQL-expressible; the driver records row counts and the
pytest conformance corpus pins exact semantics)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.pipelines.images import image_roundtrip_pipeline
from geo_polygonize_ray.pipelines.polygonize import (
    polygonize_dataset,
    polygonize_table_local,
    runs_local,
)
from geo_polygonize_ray.sources.fixtures import (
    cached_image_table,
    grid_lines,
    linework_table,
    random_lines,
)


def _polygonize_summary(table, cfg: PipelineConfig, bbox=None) -> pd.DataFrame:
    """Dispatch: sub-threshold untiled jobs run fully in-process (no Ray —
    the latency path); everything else goes through the Dataset pipeline."""
    if runs_local(cfg, table.num_rows):
        return _poly_summary(polygonize_table_local(table, cfg))
    import ray.data as rd

    return _poly_summary(polygonize_dataset(rd.from_arrow(table), cfg, bbox))


_SUMMARY_COLS = ["tile_id", "poly_id", "area", "cx", "cy", "n_holes"]


def _poly_summary(out) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(out, pa.Table):
        # prune the list columns (shell/hole coordinate payloads) BEFORE the
        # pandas conversion — they dominate to_pandas cost on the fast path
        out = out.select([c for c in _SUMMARY_COLS if c in out.schema.names])
    df = out.to_pandas()  # works for both ray.data.Dataset and pa.Table
    if len(df) == 0:
        return pd.DataFrame({c: [] for c in _SUMMARY_COLS})
    df = df[_SUMMARY_COLS].copy()
    df["area"] = np.round(df["area"], 6)
    df["cx"] = np.round(df["cx"], 6)
    df["cy"] = np.round(df["cy"], 6)
    order = np.lexsort(
        (df["cy"].to_numpy(), df["cx"].to_numpy(), df["area"].to_numpy(), df["tile_id"].to_numpy())
    )
    return df.iloc[order].reset_index(drop=True)


def q_polygonize_grid(sf_dir: str, n: int = 30) -> pd.DataFrame:
    """grid(N) workload (reference bench): exactly N^2 unit cells.

    SQL-CHECKED: a unit grid's faces have closed-form geometry (centroid
    i+0.5/j+0.5 — exact in float64 through the shoelace centroid, area
    exactly 1, no holes), so the canonical (cx, cy, area, n_holes) view is
    hash-compared against a pure range() generator in DuckDB while the
    engine earns every row geometrically (node, trace, assemble)."""
    out = _polygonize_summary(
        linework_table(grid_lines(n)), PipelineConfig(node_input=True)
    )
    return (
        out[["cx", "cy", "area", "n_holes"]]
        .sort_values(["cx", "cy"])
        .reset_index(drop=True)
    )


def q_polygonize_random(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """random(K) segment soup (reference bench), numpy seed 42 goldens."""
    return _polygonize_summary(
        linework_table(random_lines(k, seed=42)), PipelineConfig(node_input=True)
    )


def q_polygonize_skewed(sf_dir: str) -> pd.DataFrame:
    """Dense-grid-patch skew workload through the tiled pipeline with AUTO
    salting (the default).  Exact construction (binary-float pitches,
    closed-form count); polygon extent is bounded by the coarse pitch so
    the fixed tile buffer honors the ownership contract; distributed ==
    local equality is pinned in tests/test_state_salt.py."""
    import ray.data as rd

    from geo_polygonize_ray.sources.fixtures import skewed_grid_lines

    lines, expected = skewed_grid_lines(
        span=100.0,
        coarse_pitch=4.0,
        hot_origins=((20.0, 40.0), (60.0, 0.0)),
        hot_size=16.0,
        fine_pitch=0.125,
    )
    ds = rd.from_arrow(linework_table(lines))
    cfg = PipelineConfig(tile_size=20.0, tile_buffer=5.0)
    out = polygonize_dataset(ds, cfg, bbox=(0.0, 0.0, 100.0, 100.0))
    df = _poly_summary(out)
    assert len(df) == expected, (len(df), expected)
    # canonical closed-form view: binary pitches + grid-aligned hot rects
    # make every centroid/area EXACT in float64, so the SALTED exchange
    # path is value-hash checkable against a pure SQL generator
    return (
        df[["cx", "cy", "area", "n_holes"]]
        .sort_values(["cx", "cy"])
        .reset_index(drop=True)
    )


def q_polygonize_tiled(sf_dir: str, n: int = 20, tile_size: float = 6.0, buffer: float = 4.0) -> pd.DataFrame:
    """Tiled distributed polygonize of grid(N) — must equal the untiled
    result (asserted in tests); exposed so the driver records the row count."""
    import ray.data as rd

    ds = rd.from_arrow(linework_table(grid_lines(n)))
    cfg = PipelineConfig(tile_size=tile_size, tile_buffer=buffer)
    out = polygonize_dataset(ds, cfg, bbox=(0.0, 0.0, float(n), float(n)))
    # canonical closed-form view (see q_polygonize_grid) -> SQL-checkable
    return (
        _poly_summary(out)[["cx", "cy", "area", "n_holes"]]
        .sort_values(["cx", "cy"])
        .reset_index(drop=True)
    )


def q_image_roundtrip(sf_dir: str, n_images: int = 96) -> pd.DataFrame:
    """Flagship image pipeline summary over a deterministic synthetic tile
    table (input_hint schema; the sf dir seeds the scale only)."""
    path = cached_image_table(n_images)
    df = image_roundtrip_pipeline(path, batch_size=32).to_pandas()
    df = df[["image_id", "n_polys", "total_area", "psnr_db", "phash_ok", "roundtrip_ok"]].copy()
    df["total_area"] = np.round(df["total_area"], 6)
    return df.sort_values("image_id").reset_index(drop=True)


def q_spatial_bbox_read(sf_dir: str, n: int = 24) -> pd.DataFrame:
    """Polygonize grid(n), sink it SPATIALLY partitioned (state/spatial.py),
    then answer a bbox query with partition pruning — the full
    produce->layout->prune consumption chain of a 100 TB run.  Returns the
    polygons whose centroid falls in the middle ninth of the plane,
    deterministic by construction."""
    import tempfile

    import ray.data as rd

    from geo_polygonize_ray.config import PipelineConfig
    from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset
    from geo_polygonize_ray.state.spatial import read_polygons_bbox, write_polygons_spatial

    cfg = PipelineConfig(tile_size=float(n) / 3.0, tile_buffer=2.0)
    ds = polygonize_dataset(
        rd.from_arrow(linework_table(grid_lines(n))), cfg, bbox=(0, 0, float(n), float(n))
    )
    out_dir = tempfile.mkdtemp(prefix="gpr_spatial_")
    try:
        write_polygons_spatial(ds, out_dir, cell_size=float(n) / 3.0)
        third = float(n) / 3.0
        got = (
            read_polygons_bbox(out_dir, (third, third, 2 * third, 2 * third))
            .to_pandas()
            .copy()
        )
    finally:
        # the bbox read is fully consumed above, so (unlike the mosaic
        # spill) the layout can be deleted before returning
        import shutil

        shutil.rmtree(out_dir, ignore_errors=True)
    got["area"] = np.round(got["area"], 9)
    got = got[["cx", "cy", "area", "n_holes"]].sort_values(["cx", "cy"])
    return got.reset_index(drop=True)


def q_spatial_join_events(sf_dir: str, n: int = 12) -> pd.DataFrame:
    """Distributed points-in-polygons join, SQL-CHECKED: event rows map to
    deterministic points in [0,n)^2 (irrational-ish scaling keeps them off
    cell edges), the polygon side is polygonize(grid(n)) whose unit cells
    have closed-form geometry — so DuckDB can state the expected
    containment with FLOOR arithmetic while the Ray side earns it through
    the full geometric machinery (cell co-partition + crossing-parity
    PIP).  Output: (point_id, cx, cy) of the containing cell."""
    import pyarrow as pa
    import ray.data as rd

    from geo_polygonize_ray.pipelines.spatialjoin import spatial_join_points_in_polygons

    def to_points(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "point_id": t["event_id"],
                "x": pa.array((v * 0.7919) % float(n), pa.float64()),
                "y": pa.array((v * 1.3173) % float(n), pa.float64()),
            }
        )

    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    points = ev.map_batches(to_points, batch_format="pyarrow")
    cfg = PipelineConfig(tile_size=float(n) / 2.0, tile_buffer=2.0)
    polys = polygonize_dataset(
        rd.from_arrow(linework_table(grid_lines(n))), cfg, bbox=(0, 0, float(n), float(n))
    )
    # poly_id is TILE-LOCAL in the polygonizer output; pack a globally
    # unique join key (tile_id << 20 | poly_id) before using it as one
    def globalize(t: pa.Table) -> pa.Table:
        uid = (t["tile_id"].to_numpy(zero_copy_only=False) << 20) | t[
            "poly_id"
        ].to_numpy(zero_copy_only=False)
        i = t.schema.get_field_index("poly_id")
        return t.set_column(i, "poly_id", pa.array(uid, pa.int64()))

    polys = polys.map_batches(globalize, batch_format="pyarrow")
    joined = spatial_join_points_in_polygons(points, polys, cell_size=float(n) / 4.0)
    # centroid attach: n^2 polygon summaries are cluster-constant-sized, so
    # a driver-side merge is scale-correct (same policy as band edges)
    cent = polys.select_columns(["poly_id", "cx", "cy"]).to_pandas()
    out = joined.to_pandas().merge(cent, on="poly_id")
    return (
        out[["point_id", "cx", "cy"]]
        .sort_values("point_id")
        .reset_index(drop=True)
    )


Q_SPATIAL_JOIN_SQL_TEMPLATE = """
SELECT event_id AS point_id,
       FLOOR(fmod(value * 0.7919, {n})) + 0.5 AS cx,
       FLOOR(fmod(value * 1.3173, {n})) + 0.5 AS cy
FROM events ORDER BY event_id
"""


def q_zonal_stats_events(sf_dir: str, n: int = 12) -> pd.DataFrame:
    """Zonal statistics over the same event-derived points and grid
    polygons as q_spatial_join_events: per-cell point count and value sum
    via the broadcast containment join + partial-aggregate shuffle.
    SQL-checked (closed-form cell geometry -> FLOOR arithmetic)."""
    import pyarrow as pa
    import ray.data as rd

    from geo_polygonize_ray.pipelines.spatialjoin import zonal_stats

    def to_points(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "point_id": t["event_id"],
                "x": pa.array((v * 0.7919) % float(n), pa.float64()),
                "y": pa.array((v * 1.3173) % float(n), pa.float64()),
                "value": t["value"],
            }
        )

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    points = ev.map_batches(to_points, batch_format="pyarrow")
    cfg = PipelineConfig(tile_size=float(n) / 2.0, tile_buffer=2.0)
    polys = polygonize_dataset(
        rd.from_arrow(linework_table(grid_lines(n))), cfg, bbox=(0, 0, float(n), float(n))
    )

    def globalize(t: pa.Table) -> pa.Table:
        uid = (t["tile_id"].to_numpy(zero_copy_only=False) << 20) | t[
            "poly_id"
        ].to_numpy(zero_copy_only=False)
        i = t.schema.get_field_index("poly_id")
        return t.set_column(i, "poly_id", pa.array(uid, pa.int64()))

    polys = polys.map_batches(globalize, batch_format="pyarrow").materialize()
    stats = zonal_stats(points, polys, "value").to_pandas()
    cent = polys.select_columns(["poly_id", "cx", "cy"]).to_pandas()
    out = stats.merge(cent, on="poly_id")
    out["n_points"] = out["n_points"].astype(np.int64)
    out["sum_value"] = np.round(out["sum_value"], 4)
    return (
        out[["cx", "cy", "n_points", "sum_value"]]
        .sort_values(["cx", "cy"])
        .reset_index(drop=True)
    )


Q_ZONAL_SQL_TEMPLATE = """
SELECT FLOOR(fmod(value * 0.7919, {n})) + 0.5 AS cx,
       FLOOR(fmod(value * 1.3173, {n})) + 0.5 AS cy,
       COUNT(*) AS n_points,
       ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY cx, cy ORDER BY cx, cy
"""


Q_GRID_SQL_TEMPLATE = """
SELECT a.i + 0.5 AS cx, b.j + 0.5 AS cy,
       ROUND(1.0, 6) AS area, CAST(0 AS BIGINT) AS n_holes
FROM range({n}) a(i) CROSS JOIN range({n}) b(j)
ORDER BY cx, cy
"""


def build_random_golden_sql() -> str:
    """Oracle for polygonize_random: the seeded random(100) fixture has no
    closed form, so the expectation is the LOCKED canonical summary
    committed at tests/goldens/polygonize_random_canonical.parquet (the
    same recorded-once-then-locked discipline as tests/test_goldens.py,
    FIXTURES.md §4) — the SQL side selects the pinned rows while the
    engine re-earns them through noding/tracing/assembly each round.  A
    golden-freshness test (tests/test_goldens.py) fails if the live query
    ever drifts from the committed file, so the pin cannot go stale
    silently."""
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "tests",
        "goldens",
        "polygonize_random_canonical.parquet",
    )
    return (
        "SELECT tile_id, poly_id, area, cx, cy, n_holes "
        f"FROM read_parquet('{path}') ORDER BY tile_id, poly_id"
    )


# closed-form twin of the skew workload (skewed_grid_lines: 25x25 coarse
# 4.0-pitch cells minus the two hot rects, plus 2 x 128^2 fine 0.125-pitch
# cells) — every constant is an exact binary fraction, so both engines
# land on identical float64 values
Q_SKEWED_SQL = """
WITH coarse AS (
  SELECT 4*a.i + 2.0 AS cx, 4*b.j + 2.0 AS cy, ROUND(16.0, 6) AS area, CAST(0 AS BIGINT) AS n_holes
  FROM range(25) a(i) CROSS JOIN range(25) b(j)
  WHERE NOT (4*a.i >= 20 AND 4*a.i < 36 AND 4*b.j >= 40 AND 4*b.j < 56)
    AND NOT (4*a.i >= 60 AND 4*a.i < 76 AND 4*b.j >= 0 AND 4*b.j < 16)
), fine AS (
  SELECT o.ox + 0.125*kk.k + 0.0625 AS cx, o.oy + 0.125*ll.l + 0.0625 AS cy,
         ROUND(0.015625, 6) AS area, CAST(0 AS BIGINT) AS n_holes
  FROM (VALUES (20.0, 40.0), (60.0, 0.0)) o(ox, oy)
  CROSS JOIN range(128) kk(k) CROSS JOIN range(128) ll(l)
)
SELECT * FROM (SELECT * FROM coarse UNION ALL SELECT * FROM fine) ORDER BY cx, cy
"""


# closed-form twin of q_spatial_bbox_read: the middle ninth of grid(24) is
# the 8x8 block of unit cells with centroids in [8.5, 15.5]
Q_SPATIAL_BBOX_SQL = """
SELECT a.i + 8.5 AS cx, b.j + 8.5 AS cy,
       ROUND(1.0, 9) AS area, CAST(0 AS BIGINT) AS n_holes
FROM range(8) a(i) CROSS JOIN range(8) b(j)
ORDER BY cx, cy
"""


def q_simplify_polygons(sf_dir: str, k: int = 100, eps: float = 0.05) -> pd.DataFrame:
    """Douglas-Peucker simplification stage over the polygonizer output of
    random(k): per-polygon vertex counts before/after at tolerance eps
    (deterministic; the DP error bound and idempotence are pinned in
    tests/test_simplify.py)."""
    import pyarrow as pa
    import ray.data as rd

    from geo_polygonize_ray.stages.simplify import simplify_polygons

    cfg = PipelineConfig(node_input=True, tile_size=25.0, tile_buffer=5.0)
    polys = polygonize_dataset(
        rd.from_arrow(linework_table(random_lines(k, seed=42))), cfg, bbox=(0, 0, 100, 100)
    )

    def stats(batch: pa.Table) -> pa.Table:
        before = np.diff(batch["shell_xs"].combine_chunks().offsets.to_numpy(zero_copy_only=False))
        simp = simplify_polygons(batch, eps=eps)
        after = np.diff(simp["shell_xs"].combine_chunks().offsets.to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "cx": pa.array(np.round(batch["cx"].to_numpy(zero_copy_only=False), 6)),
                "cy": pa.array(np.round(batch["cy"].to_numpy(zero_copy_only=False), 6)),
                "n_verts": pa.array(before.astype(np.int64)),
                "n_verts_simplified": pa.array(after.astype(np.int64)),
            }
        )

    out = polys.map_batches(stats, batch_format="pyarrow").to_pandas()
    return out.sort_values(["cx", "cy"]).reset_index(drop=True)
