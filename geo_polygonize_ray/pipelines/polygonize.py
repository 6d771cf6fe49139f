"""Distributed polygonization pipeline (SURVEY.md §7.1 step 4 / reference §3.3).

Expression of the reference's ``TiledPolygonizer`` on a hash exchange of
plain Ray tasks (functions/exchange.py), with no Ray Data all-to-all:

    linework Dataset (plane_id, line_id, xs, ys)
      -> executed once into block refs, cut into ~n_cpus row slices
      -> prepass tasks over the slices: bbox (if not given), per-tile
         segment histogram -> hot-tile salt map
      -> map task per slice: add_plane_key, explode_linework_to_segments,
         SaltedSegmentAssigner.assign_and_clip (buffered-tile duplication
         + window clip, J5), mixed bucket hash, argsort + slice into R parts
      -> reduce task per bucket: concat its parts, TilePolygonizer (per-tile
         §3.1 with ST3 clip, sliver + ownership, A8)
      -> rd.from_arrow_refs(reduce outputs).materialize(): polygons Dataset

``polygonize_slices`` is the steps from the slices to the reduce output
refs; ``polygonize_dataset`` adds the Dataset at each end and the
in-process fast path for small untiled input.

Untiled input runs the same exchange with whole linework rows and one cell
per plane.  The ownership rule makes the buffered duplication exactly-once:
every polygon's centroid lies in exactly one half-open leaf rect, because
every rect, window and tile range comes from one grid whose neighbouring
leaves share bit-identical edges (``stages/linework.SaltedTileAssigner``).
Correctness contract inherited from the reference (src/tiling.rs): the
buffer must exceed the radius of the largest polygon; violations are
detectable as distributed-vs-local mismatches (tests/test_distributed.py).

Scale notes:
  * the exchange payload is clipped fixed-width segments, never payload
    columns — only plane_id/xs/ys are read by the map tasks (SURVEY.md §7.3);
  * skewed tiles are handled by salting: the prepass counts segments per
    tile and over-full tiles are split k x k (k from the count ratio,
    capped 8), so no single reduce cell explodes;
  * per-tile compute is independent -> linear scaling with cores/nodes.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.functions.exchange import (
    Slice,
    cluster_cpus,
    dataset_slices,
    exchange,
    fetch,
    map_slices,
)
from geo_polygonize_ray.functions.sketch import splitmix64
from geo_polygonize_ray.geom.kernels import explode_index
from geo_polygonize_ray.local.polygonize import Polygon
from geo_polygonize_ray.sources.fixtures import linework_table
from geo_polygonize_ray.stages.linework import (
    SaltedSegmentAssigner,
    SaltedTileAssigner,
    _list_bounds,
    add_plane_key,
    explode_linework_to_segments,
    linework_bboxes,
)
from geo_polygonize_ray.stages.trace import (
    POLYGON_SCHEMA,
    TilePolygonizer,
    table_to_polygons,
)


def _slice_bbox(t: pa.Table) -> tuple[float, float, float, float]:
    bminx, bminy, bmaxx, bmaxy = linework_bboxes(t)
    if not len(bminx):
        return (np.inf, np.inf, -np.inf, -np.inf)
    return (float(bminx.min()), float(bminy.min()), float(bmaxx.max()), float(bmaxy.max()))


def _slices_bbox(slices: list[Slice]) -> tuple[float, float, float, float]:
    """Global bbox of the slices' linework, one task per slice ((0, 0, 0, 0)
    when there are no points)."""
    boxes = np.array(map_slices(_slice_bbox, slices))
    bbox = (*boxes[:, :2].min(axis=0), *boxes[:, 2:].max(axis=0))
    return bbox if np.all(np.isfinite(bbox)) else (0.0, 0.0, 0.0, 0.0)


# --- skew salting (SURVEY.md §4.2, north_rule) -----------------------------
# AUTO threshold: 4x the mean occupied-tile segment count, floored so tiles
# whose absolute work is trivial (sub-millisecond trace) are never
# subdivided — splitting them buys nothing and costs boundary duplication.
_SALT_AUTO_MULT = 4.0
_SALT_AUTO_FLOOR = 512


def segment_tile_counts(t: pa.Table, bbox, tile_size: float, buffer: float) -> pd.Series:
    """Per-tile segment histogram of one linework table (tile_id -> count).
    The prepass runs it as one task per input slice and sums the results on
    the driver, which holds O(n_tiles), never O(rows).

    Counts are the EXACT duplication counts the real assigner will produce
    (the tile ranges come from the same ``SaltedTileAssigner`` grid) — i.e.
    the exchange-bucket row sizes — computed with a 2D difference array
    (+1/-1 at the range corners, double cumsum), so no row is ever
    duplicated: O(segments + n_tiles) per table.  For grids beyond ~4M
    cells the accumulator would dominate memory, so we fall back to counting
    only each segment's bbox-CENTER tile (a skew estimator; the 4x
    auto-threshold safety factor absorbs the error).
    """
    grid = SaltedTileAssigner(bbox, tile_size, buffer)
    n_cols, n_rows = grid.n_cols, grid.n_rows
    exact = n_rows * n_cols <= 4_000_000

    empty = pd.Series([], index=pd.Index([], dtype=np.int64, name="tile_id"), dtype=np.int64)
    if t.num_rows == 0:
        return empty
    xs, xo = _list_bounds(t["xs"])
    ys, _ = _list_bounds(t["ys"])
    i, _ = explode_index(xo)
    if not len(i):
        return empty
    sx0, sx1 = xs[i], xs[i + 1]
    sy0, sy1 = ys[i], ys[i + 1]
    # big tables: stride-sample the flattened segment stream and scale
    # counts back up — the salting decision needs a skew ESTIMATE, and its
    # threshold already carries a 4x safety factor.  Keeps one histogram
    # task at ~0.1s even for multi-million-segment slices.
    stride = 4 if len(sx0) > 200_000 else 1
    if stride > 1:
        sx0, sx1 = sx0[::stride], sx1[::stride]
        sy0, sy1 = sy0[::stride], sy1[::stride]
    c0, c1, r0, r1 = grid.tile_ranges(
        np.minimum(sx0, sx1), np.minimum(sy0, sy1), np.maximum(sx0, sx1), np.maximum(sy0, sy1)
    )
    meets = (c0 <= c1) & (r0 <= r1)
    c0, c1, r0, r1 = c0[meets], c1[meets], r0[meets], r1[meets]
    if exact:
        # corner scatter via bincount on flattened indices — np.add.at is
        # unbuffered and ~20x slower at millions of updates
        w = n_cols + 1
        cells = (n_rows + 1) * w
        acc = (
            np.bincount(r0 * w + c0, minlength=cells)
            - np.bincount(r0 * w + c1 + 1, minlength=cells)
            - np.bincount((r1 + 1) * w + c0, minlength=cells)
            + np.bincount((r1 + 1) * w + c1 + 1, minlength=cells)
        ).reshape(n_rows + 1, w)
        per_tile = acc.cumsum(axis=0).cumsum(axis=1)[:n_rows, :n_cols]
        rr, cc = np.nonzero(per_tile)
        tid, n = rr * n_cols + cc, per_tile[rr, cc]
    else:
        cmid = (c0 + c1) // 2
        rmid = (r0 + r1) // 2
        tid, n = np.unique(rmid * n_cols + cmid, return_counts=True)
    return pd.Series(
        (n * stride).astype(np.int64), index=pd.Index(tid.astype(np.int64), name="tile_id")
    )


def compute_hot_tiles(slices: list[Slice], bbox, cfg: PipelineConfig):
    """(hot, threshold): over-full base tiles -> salt factor k (2..8), from
    the summed ``segment_tile_counts`` of the input slices (one task per
    slice, over the same block refs the exchange maps), and the count
    threshold they exceed.  ``cfg.salt_threshold``: None = auto threshold
    from the histogram, >0 = explicit count."""
    parts = map_slices(
        segment_tile_counts, slices, bbox, cfg.tile_size, cfg.tile_buffer
    )
    counts = pd.concat(parts).groupby(level=0).sum()
    if not len(counts):
        return {}, 0.0
    if cfg.salt_threshold is not None and cfg.salt_threshold > 0:
        thr = float(cfg.salt_threshold)
    else:
        thr = max(_SALT_AUTO_MULT * float(counts.mean()), float(_SALT_AUTO_FLOOR))
    hot: dict[int, int] = {}
    for tid, n in counts.items():
        if n > thr:
            k = int(np.clip(np.ceil(np.sqrt(n / thr)), 2, 8))
            hot[int(tid)] = k
    return hot, thr


def runs_local(cfg: PipelineConfig, rows: int) -> bool:
    """Whether a job of ``rows`` linework rows takes the in-process fast
    path (``polygonize_table_local``): untiled, and at most
    ``cfg.local_fastpath_rows`` rows (0 turns the fast path off)."""
    return not cfg.tiled() and bool(cfg.local_fastpath_rows) and rows <= cfg.local_fastpath_rows


def polygonize_table_local(t: pa.Table, cfg: PipelineConfig | None = None) -> pa.Table:
    """In-process fast path: linework Arrow table -> polygon Arrow table with
    NO Ray involvement (no object-store round trip, no Dataset construction)
    — a sub-threshold untiled job is one shuffle group of single-core work,
    so every Ray hop it skips is pure latency.  It is the untiled exchange's
    map and reduce functions run in this process: one cell per plane."""
    cfg = cfg or PipelineConfig(node_input=True)
    cols = [c for c in ("plane_id", "xs", "ys") if c in t.schema.names]
    group, _ = _untiled_map(cols, 1, t)
    return _untiled_tracer(cfg)(group)


def _exchange_bucket(t: pa.Table, n_buckets: int) -> np.ndarray:
    """Bucket of each (plane_key, tile_id) row: a full 64-bit mix of both
    keys, then the modulo.  Salted leaf ids are tile*64+sub and tile ids
    are small, so any hash whose low output bits depend on few key bits
    collapses them: the former multiply-and-shift hash sent 22 of 25 tiles
    to 2 of 16 buckets."""
    h = t["tile_id"].to_numpy().astype(np.uint64)
    if "plane_key" in t.schema.names:
        h = h ^ splitmix64(t["plane_key"].to_numpy().view(np.uint64))
    return (splitmix64(h) % np.uint64(n_buckets)).astype(np.int64)


def _untiled_map(cols: list[str], n_buckets: int, t: pa.Table):
    """Exchange map side, untiled: whole linework rows, one cell per plane."""
    t = add_plane_key(t.select(cols))
    t = t.append_column("tile_id", pa.array(np.zeros(t.num_rows, dtype=np.int64)))
    return t, _exchange_bucket(t, n_buckets)


def _untiled_tracer(cfg: PipelineConfig) -> TilePolygonizer:
    """Exchange reduce side, untiled: no owner rect, noding as configured."""
    return TilePolygonizer(
        assigner=None,
        node_input=cfg.node_input,
        snap_grid_size=cfg.snap_grid_size,
        max_noding_iters=cfg.max_noding_iters,
    )


def _tiled_map(cols: list[str], assigner: SaltedSegmentAssigner, n_buckets: int, t: pa.Table):
    """Exchange map side, tiled: explode linework to FIXED-WIDTH segments,
    then duplicate each segment to every (salted) tile whose buffered window
    it meets and clip the copy to that window, so the exchange carries
    ~48 B/row window-sized pieces instead of whole (possibly tile-spanning)
    linestrings (SURVEY.md §1.3: segments are the hot payload)."""
    t = add_plane_key(t.select(cols))
    t = explode_linework_to_segments(t)
    t = assigner.assign_and_clip(t)
    return t, _exchange_bucket(t, n_buckets)


def polygonize_slices(
    slices: list[Slice],
    columns: list[str],
    cfg: PipelineConfig,
    bbox: tuple[float, float, float, float] | None = None,
) -> list[ray.ObjectRef]:
    """The exchange core of ``polygonize_dataset`` on linework row slices
    whose tables have ``columns``: returns refs to the reduce tasks' polygon
    tables (POLYGON_SCHEMA, plus plane_key when the input has plane_id).
    ``bbox=None`` derives the bbox of a tiled run from the slices."""
    n_cpus = cluster_cpus()
    # map tasks read only these columns: payload never enters the exchange
    cols = [c for c in ("plane_id", "xs", "ys") if c in columns]
    if not cfg.tiled():
        # untiled: one logical tile per PLANE, each an independent graph;
        # multi-plane input parallelizes across planes
        n_buckets = cfg.n_buckets or (max(2, n_cpus * 2) if "plane_id" in cols else 1)
        map_fn = functools.partial(_untiled_map, cols, n_buckets)
        tracer = _untiled_tracer(cfg)
    else:
        if bbox is None:
            bbox = _slices_bbox(slices)
        hot = {}
        if cfg.salt_threshold is None or cfg.salt_threshold > 0:
            hot, _ = compute_hot_tiles(slices, bbox, cfg)
        assigner = SaltedSegmentAssigner(bbox, cfg.tile_size, cfg.tile_buffer, hot=hot)
        # bucket of tiles, not raw tile_id: one reduce task per bucket, each
        # still polygonizing its (plane, tile) cells independently
        n_tiles = assigner.n_cols * assigner.n_rows
        n_buckets = cfg.n_buckets or max(2, min(n_tiles, n_cpus * 4))
        map_fn = functools.partial(_tiled_map, cols, assigner, n_buckets)
        tracer = TilePolygonizer(
            assigner,
            node_input=True,  # per-tile noding, src/tiling.rs:62-63
            snap_grid_size=cfg.snap_grid_size,
            max_noding_iters=cfg.max_noding_iters,
        )
    refs, _ = exchange([(slices, map_fn)], n_buckets, tracer)
    return refs


def polygonize_dataset(
    ds: rd.Dataset,
    cfg: PipelineConfig | None = None,
    bbox: tuple[float, float, float, float] | None = None,
) -> rd.Dataset:
    """linework Dataset -> polygons Dataset (POLYGON_SCHEMA, plus plane_key
    when the input has plane_id).

    ``ds``'s lineage executes once: the bbox and salting histogram tasks
    read the same block refs as the exchange's map tasks
    (``polygonize_slices``).  The result is a materialized Dataset over the
    reduce tasks' output tables (one block per reduce task).
    ``cfg.salt_threshold == 0`` turns salting off.
    """
    cfg = cfg or PipelineConfig(node_input=True)
    slices, schema, n_rows = dataset_slices(ds, cluster_cpus())

    if runs_local(cfg, n_rows):
        # small-input fast path: run in-process (see PipelineConfig note)
        return rd.from_arrow(polygonize_table_local(fetch(slices), cfg))

    # materialize(): consuming an already-executed plan starts no streaming
    # executor.  The executor's reference cycle would keep every output
    # block in the object store until Python's cyclic GC runs (measured:
    # driver and worker peak RSS grew ~1 MB per job instead of levelling).
    refs = polygonize_slices(slices, schema.names, cfg, bbox)
    return rd.from_arrow_refs(refs).materialize()


def polygonize_lines_distributed(
    lines: list[np.ndarray],
    cfg: PipelineConfig | None = None,
    bbox: tuple[float, float, float, float] | None = None,
) -> list[Polygon]:
    """Convenience driver API mirroring the reference's TiledPolygonizer:
    local linestrings in, Polygon objects out, computed on the Ray cluster.
    Sub-threshold untiled inputs never touch Ray at all (latency path)."""
    t = linework_table(lines)
    _cfg = cfg or PipelineConfig(node_input=True)
    if runs_local(_cfg, t.num_rows):
        return table_to_polygons(polygonize_table_local(t, _cfg))
    ds = rd.from_arrow(t)
    out = polygonize_dataset(ds, cfg, bbox)
    tables = [b for b in out.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not tables:
        return []
    return table_to_polygons(pa.concat_tables(tables))
