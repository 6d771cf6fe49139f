"""Distributed spatial join: points x polygons by grid co-partitioning.

The geospatial companion to the relational joins: given a points table
(point_id, x, y) and a polygon table in the polygonizer's output schema
(poly_id, shell_xs/ys, holes_xs/ys), emit every (point, polygon)
containment pair.  Shape at 100 TB:

* points map to their ONE grid cell (floor(x/cell), floor(y/cell));
* polygons are DUPLICATED to every cell their shell bbox intersects —
  the same buffered-duplication contract as tiled polygonization
  (reference src/tiling.rs:66-77), so a pair can only meet in the
  point's cell and the join is exactly-once with NO post-dedup;
* ONE two-input hash exchange co-groups each cell;
* per cell: a vectorized bbox pre-filter forms candidate pairs, then the
  even-odd crossing parity over shell+hole rings (the K6 PIP kernel,
  identical float math to the rasterizer's fill rule) decides
  containment — a point inside a hole crosses shell+hole an even number
  of times and is excluded, bit-consistently with GEOS semantics.

Everything on both sides of the exchange is Arrow-native: each side's
tag stage emits its own explicit typed schema (list columns stay
list<double>, never pandas object dtype), and ring flattening is pure
Arrow-list-offset arithmetic with no per-row Python (the same flat-ring
pattern as stages/trace.py).

Cell size is the operator's skew knob: cells should be sized near the
typical polygon diameter so per-cell candidate sets stay bounded (the
same sizing rule as polygonize tiles).  For point-skew a cell size
cannot fix (millions of points in ONE hot cell), ``salt`` subdivides
every cell into N salt groups — points pick one by id hash, polygon
copies are duplicated to all N — bounding per-group point counts at the
cost of N x polygon duplication, the same hot-key salting contract as
the polygonizer's skewed exchange (stages/linework.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from geo_polygonize_ray.functions.agg import shuffle, to_dataset
from geo_polygonize_ray.functions.sketch import splitmix64
from geo_polygonize_ray.geom.kernels import pair_points_in_rings
from geo_polygonize_ray.stages.linework import cell_pairs

# cell key packing: (ix + _OFF) << 32 | (iy + _OFF); valid for |ix|,|iy| < 2^31
_OFF = np.int64(1 << 31)

_LIST_F64 = pa.list_(pa.float64())
_LIST_LIST_F64 = pa.list_(_LIST_F64)

# each tag stage's typed schema: a side ships only its own columns
_POINT_SCHEMA = pa.schema(
    [
        ("cell", pa.int64()),
        ("salt", pa.int32()),
        ("point_id", pa.int64()),
        ("x", pa.float64()),
        ("y", pa.float64()),
    ]
)
_POLY_SCHEMA = pa.schema(
    [
        ("cell", pa.int64()),
        ("salt", pa.int32()),
        ("poly_id", pa.int64()),
        ("shell_xs", _LIST_F64),
        ("shell_ys", _LIST_F64),
        ("holes_xs", _LIST_LIST_F64),
        ("holes_ys", _LIST_LIST_F64),
    ]
)

_PAIR_SCHEMA = pa.schema([("point_id", pa.int64()), ("poly_id", pa.int64())])


def _cell_key(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    return ((ix.astype(np.int64) + _OFF) << np.int64(32)) | (iy.astype(np.int64) + _OFF)


def _group_hash(cell: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """Exchange key hash of a (cell, salt) group, identical on both sides
    so a group always co-locates."""
    return splitmix64(cell.view(np.uint64) ^ splitmix64(salt.astype(np.uint64)))


def _list_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """(values, ABSOLUTE offsets) of a list column; offsets may start
    non-zero on sliced arrays, so always index values with them."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return (
        col.values.to_numpy(zero_copy_only=False),
        col.offsets.to_numpy(zero_copy_only=False).astype(np.int64),
    )


def _shell_bboxes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    from geo_polygonize_ray.geom.kernels import bbox_many
    from geo_polygonize_ray.stages.linework import _list_bounds

    xs, xo = _list_bounds(batch["shell_xs"])
    ys, _ = _list_bounds(batch["shell_ys"])
    return bbox_many(xs, ys, xo)


def _flatten_polygons(tbl: pa.Table) -> dict | None:
    """Flat ring storage of a polygon table via Arrow list offsets ONLY —
    no per-row Python (round-5: replaces the ``for k in range(len(pls))``
    re-boxing loop that ran per polygon copy on the reduce side).

    Returns per-POLYGON arrays (bbox, rings_per_poly, ring_starts, gids)
    plus the global flat vertex arrays the parity kernel consumes; ring
    order per polygon is shell first, then holes.  None for 0 rows.
    """
    n = tbl.num_rows
    if n == 0:
        return None
    sx_v, sx_o = _list_parts(tbl["shell_xs"])
    sy_v, sy_o = _list_parts(tbl["shell_ys"])
    hx = tbl["holes_xs"]
    hx = hx.combine_chunks() if isinstance(hx, pa.ChunkedArray) else hx
    hy = tbl["holes_ys"]
    hy = hy.combine_chunks() if isinstance(hy, pa.ChunkedArray) else hy
    hx_outer = hx.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    hy_outer = hy.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    hx_iv, hx_io = _list_parts(hx.values)
    hy_iv, hy_io = _list_parts(hy.values)

    shell_lens = np.diff(sx_o)
    holes_per_poly = np.diff(hx_outer)
    rings_per_poly = 1 + holes_per_poly
    total_rings = int(rings_per_poly.sum())
    ring_starts = np.concatenate([[0], np.cumsum(rings_per_poly)]).astype(np.int64)

    # ring length vector in final order (shell ring of poly i at
    # ring_starts[i], its holes right after — matching inner storage order)
    shell_pos = ring_starts[:-1]
    is_shell = np.zeros(total_rings, dtype=bool)
    is_shell[shell_pos] = True
    ring_lens = np.empty(total_rings, dtype=np.int64)
    ring_lens[is_shell] = shell_lens
    total_holes = int(holes_per_poly.sum())
    if total_holes:
        # hole ring j of the outer list element range, in storage order
        hole_ids_x = np.arange(hx_outer[0], hx_outer[-1])
        hole_ids_y = np.arange(hy_outer[0], hy_outer[-1])
        hole_lens = hx_io[hole_ids_x + 1] - hx_io[hole_ids_x]
        ring_lens[~is_shell] = hole_lens
    offsets = np.concatenate([[0], np.cumsum(ring_lens)]).astype(np.int64)
    flat_x = np.empty(int(offsets[-1]), dtype=np.float64)
    flat_y = np.empty_like(flat_x)

    # scatter shells: contiguous source slices -> per-ring destinations
    tot_s = int(shell_lens.sum())
    intra = np.arange(tot_s) - np.repeat(np.cumsum(shell_lens) - shell_lens, shell_lens)
    dst = np.repeat(offsets[shell_pos], shell_lens) + intra
    shell_cont_x = sx_v[np.repeat(sx_o[:-1], shell_lens) + intra]
    shell_cont_y = sy_v[np.repeat(sy_o[:-1], shell_lens) + intra]
    flat_x[dst] = shell_cont_x
    flat_y[dst] = shell_cont_y
    if total_holes:
        tot_h = int(hole_lens.sum())
        intra_h = np.arange(tot_h) - np.repeat(np.cumsum(hole_lens) - hole_lens, hole_lens)
        hole_pos = np.flatnonzero(~is_shell)
        dst_h = np.repeat(offsets[hole_pos], hole_lens) + intra_h
        flat_x[dst_h] = hx_iv[np.repeat(hx_io[hole_ids_x], hole_lens) + intra_h]
        flat_y[dst_h] = hy_iv[np.repeat(hy_io[hole_ids_y], hole_lens) + intra_h]

    # shell bboxes: reduceat over the shell-contiguous gather
    sb = np.concatenate([[0], np.cumsum(shell_lens)[:-1]]).astype(np.int64)
    return dict(
        flat_x=flat_x,
        flat_y=flat_y,
        offsets=offsets,
        rings_per_poly=rings_per_poly.astype(np.int64),
        ring_starts=ring_starts,
        shminx=np.minimum.reduceat(shell_cont_x, sb),
        shmaxx=np.maximum.reduceat(shell_cont_x, sb),
        shminy=np.minimum.reduceat(shell_cont_y, sb),
        shmaxy=np.maximum.reduceat(shell_cont_y, sb),
        gids=tbl["poly_id"].to_numpy(zero_copy_only=False).astype(np.int64),
    )


def _pairs_for_candidates(
    px: np.ndarray,
    py: np.ndarray,
    pidx: np.ndarray,
    gcand: np.ndarray,
    fl: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """(kept point positions, kept polygon positions) of candidate pairs
    after the even-odd parity test: expand each pair to its polygon's
    rings, evaluate crossings per ring, XOR-reduce per pair."""
    pair_nrings = fl["rings_per_poly"][gcand]
    tot = int(pair_nrings.sum())
    pair_idx = np.repeat(np.arange(len(pidx)), pair_nrings)
    pos = np.arange(tot) - np.repeat(np.cumsum(pair_nrings) - pair_nrings, pair_nrings)
    ring_ids = fl["ring_starts"][gcand][pair_idx] + pos
    hit = pair_points_in_rings(
        px[pidx][pair_idx], py[pidx][pair_idx], ring_ids,
        fl["flat_x"], fl["flat_y"], fl["offsets"],
    )
    inside = np.zeros(len(pidx), dtype=bool)
    np.bitwise_xor.at(inside, pair_idx, hit)
    keep = np.flatnonzero(inside)
    return pidx[keep], gcand[keep]


def _cell_expansion(bminx, bminy, bmaxx, bmaxy, cs: float) -> tuple[np.ndarray, np.ndarray]:
    """(row repeat indices, cell keys) of every cell of the origin-anchored
    ``cs`` grid each bbox touches (closed overlap: the ceil(x-1) keeps the
    lower cell on exact edges)."""
    rep, ix, iy = cell_pairs(
        np.ceil(bminx / cs - 1.0).astype(np.int64),
        np.floor(bmaxx / cs).astype(np.int64),
        np.ceil(bminy / cs - 1.0).astype(np.int64),
        np.floor(bmaxy / cs).astype(np.int64),
    )
    return rep, _cell_key(ix, iy)


def spatial_join_points_in_polygons(
    points: rd.Dataset,
    polygons: rd.Dataset,
    cell_size: float,
    salt: int = 1,
) -> rd.Dataset:
    """(point_id, poly_id) pairs where the point lies inside the polygon
    (even-odd rule over shell + holes).  Both sides are tagged with
    (cell, salt) keys map-side, each in its own typed Arrow schema, one
    two-input exchange co-locates each group, and per-group work is fully
    vectorized.  ``salt`` > 1 splits every cell into that many point
    groups (polygon copies duplicated to all) — the hot-cell escape
    hatch."""
    cs = float(cell_size)
    n_salt = max(int(salt), 1)

    def tag_points(batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.float64)
        pid = batch["point_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(x)
        cell = _cell_key(np.floor(x / cs).astype(np.int64), np.floor(y / cs).astype(np.int64))
        s = (
            ((pid * np.int64(2654435761)) % np.int64(4294967296) % n_salt).astype(np.int32)
            if n_salt > 1
            else np.zeros(n, dtype=np.int32)
        )
        t = pa.Table.from_arrays(
            [
                pa.array(cell, pa.int64()),
                pa.array(s, pa.int32()),
                pa.array(pid, pa.int64()),
                pa.array(x, pa.float64()),
                pa.array(y, pa.float64()),
            ],
            schema=_POINT_SCHEMA,
        )
        return t, _group_hash(cell, s)

    def tag_polygons(batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        if batch.num_rows == 0:
            return _POLY_SCHEMA.empty_table(), np.zeros(0, np.uint64)
        rep, cells = _cell_expansion(*_shell_bboxes(batch), cs)
        if n_salt > 1:
            rep = np.repeat(rep, n_salt)
            cells = np.repeat(cells, n_salt)
            s = np.tile(np.arange(n_salt, dtype=np.int32), len(rep) // n_salt)
        else:
            s = np.zeros(len(rep), dtype=np.int32)
        dup = batch.take(pa.array(rep, pa.int64()))  # stays Arrow, zero object dtype
        t = pa.Table.from_arrays(
            [
                pa.array(cells, pa.int64()),
                pa.array(s, pa.int32()),
                dup["poly_id"].combine_chunks().cast(pa.int64()),
                dup["shell_xs"].combine_chunks(),
                dup["shell_ys"].combine_chunks(),
                dup["holes_xs"].combine_chunks(),
                dup["holes_ys"].combine_chunks(),
            ],
            schema=_POLY_SCHEMA,
        )
        return t, _group_hash(cells, s)

    def join_bucket(pts: pa.Table, polys: pa.Table) -> pa.Table:
        if not pts.num_rows or not polys.num_rows:
            return _PAIR_SCHEMA.empty_table()
        px = pts["x"].to_numpy(zero_copy_only=False)
        py = pts["y"].to_numpy(zero_copy_only=False)
        pid = pts["point_id"].to_numpy(zero_copy_only=False)
        pcell = pts["cell"].to_numpy(zero_copy_only=False)
        psalt = pts["salt"].to_numpy(zero_copy_only=False)
        fl = _flatten_polygons(
            polys.select(["poly_id", "shell_xs", "shell_ys", "holes_xs", "holes_ys"])
        )
        gcell = polys["cell"].to_numpy(zero_copy_only=False)
        gsalt = polys["salt"].to_numpy(zero_copy_only=False)

        # group boundaries on both (cell, salt)-sorted sides
        po = np.lexsort((psalt, pcell))
        pc_s, ps_s = pcell[po], psalt[po]
        pb = np.flatnonzero(
            np.concatenate([[True], (np.diff(pc_s) != 0) | (np.diff(ps_s) != 0)])
        )
        pe = np.concatenate([pb[1:], [len(po)]])
        go = np.lexsort((gsalt, gcell))
        gc_s, gs_s = gcell[go], gsalt[go]
        gb = np.flatnonzero(
            np.concatenate([[True], (np.diff(gc_s) != 0) | (np.diff(gs_s) != 0)])
        )
        ge = np.concatenate([gb[1:], [len(go)]])
        gkc, gks = gc_s[gb], gs_s[gb]

        out_pid, out_gid = [], []
        for i in range(len(pb)):
            c, s = pc_s[pb[i]], ps_s[pb[i]]
            j0 = np.searchsorted(gkc, c, side="left")
            j1 = np.searchsorted(gkc, c, side="right")
            j = j0 + int(np.searchsorted(gks[j0:j1], s))
            if j >= j1 or gks[j] != s:
                continue
            pr = po[pb[i] : pe[i]]  # point rows of this group
            gr = go[gb[j] : ge[j]]  # polygon copies of this group
            # bbox pre-filter forms candidate pairs (dense: groups are
            # bounded by cell sizing / salting)
            cand = (
                (px[pr][:, None] >= fl["shminx"][gr][None, :])
                & (px[pr][:, None] <= fl["shmaxx"][gr][None, :])
                & (py[pr][:, None] >= fl["shminy"][gr][None, :])
                & (py[pr][:, None] <= fl["shmaxy"][gr][None, :])
            )
            pi, gi = np.nonzero(cand)
            if not len(pi):
                continue
            kp, kg = _pairs_for_candidates(px, py, pr[pi], gr[gi], fl)
            out_pid.append(pid[kp])
            out_gid.append(fl["gids"][kg])
        if not out_pid:
            return _PAIR_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate(out_pid), pa.int64()),
                pa.array(np.concatenate(out_gid), pa.int64()),
            ],
            schema=_PAIR_SCHEMA,
        )

    exchanged = shuffle(
        [
            (points, tag_points),
            (
                polygons.select_columns(["poly_id", "shell_xs", "shell_ys", "holes_xs", "holes_ys"]),
                tag_polygons,
            ),
        ],
        join_bucket,
    )
    return to_dataset(exchanged)


def spatial_join_broadcast(
    points: rd.Dataset,
    polygons: rd.Dataset,
    grid_cell: float | None = None,
    point_cols: list[str] | None = None,
) -> rd.Dataset:
    """Small-polygon-side variant: the polygon table (flat rings + a cell
    index) is built ONCE, put in the object store, and every point batch
    probes it map-side — ZERO shuffle, the right plan whenever the polygon
    side fits a worker's heap (dimension-table rule: broadcast small
    sides instead of exchanging the big one).

    ``grid_cell`` sizes the probe index (defaults to the median shell bbox
    diagonal): candidate polygons per point come from a bucketed cell ->
    polygon inverted index instead of a full bbox scan, so per-batch probe
    cost is O(points x local density), not O(points x polygons).

    Exactness: identical even-odd parity kernel and pair formation as
    spatial_join_points_in_polygons — the two plans are interchangeable
    (pinned by an equality test) and differ only in data movement.
    """
    import ray

    extra = list(point_cols or [])

    def _out_schema(batch: pa.Table) -> pa.Schema:
        # typed output schema even for empty results: an empty pandas frame
        # loses its columns inside Ray's block union (the r4
        # PandasBlockSchema(names=[]) class) — Arrow empties never do
        return pa.schema(
            [("point_id", pa.int64()), ("poly_id", pa.int64())]
            + [(c, batch.schema.field(c).type) for c in extra]
        )

    pl_tables = [
        b
        for b in polygons.select_columns(
            ["poly_id", "shell_xs", "shell_ys", "holes_xs", "holes_ys"]
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    fl = _flatten_polygons(pa.concat_tables(pl_tables)) if pl_tables else None
    if fl is None:
        # zero polygons: nothing can match — typed-empty map, no index
        return points.map_batches(
            lambda b: _out_schema(b).empty_table(), batch_format="pyarrow"
        )
    if grid_cell is None:
        diag = np.hypot(fl["shmaxx"] - fl["shminx"], fl["shmaxy"] - fl["shminy"])
        grid_cell = float(max(np.median(diag), 1e-9)) if len(diag) else 1.0
    cs = float(grid_cell)
    # inverted index: cell key -> polygon ids whose bbox touches the cell
    rep, keys = _cell_expansion(fl["shminx"], fl["shminy"], fl["shmaxx"], fl["shmaxy"], cs)
    order = np.argsort(keys, kind="stable")
    fl["idx_keys"] = keys[order]
    fl["idx_polys"] = rep[order]
    fl["cs"] = cs

    index_ref = ray.put(fl)

    def probe(batch: pa.Table) -> pa.Table:
        ix = ray.get(index_ref)
        schema = _out_schema(batch)
        px = batch["x"].to_numpy(zero_copy_only=False)
        py = batch["y"].to_numpy(zero_copy_only=False)
        pid = batch["point_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        extras = {c: batch[c].to_numpy(zero_copy_only=False) for c in extra}
        if not len(px):
            return schema.empty_table()
        key = _cell_key(
            np.floor(px / ix["cs"]).astype(np.int64),
            np.floor(py / ix["cs"]).astype(np.int64),
        )
        lo = np.searchsorted(ix["idx_keys"], key, side="left")
        hi = np.searchsorted(ix["idx_keys"], key, side="right")
        n_cand = hi - lo
        tot = int(n_cand.sum())
        if tot == 0:
            return schema.empty_table()
        pidx = np.repeat(np.arange(len(px)), n_cand)
        pos = np.arange(tot) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
        gcand = ix["idx_polys"][np.repeat(lo, n_cand) + pos]
        # bbox refine
        keep = (
            (px[pidx] >= ix["shminx"][gcand]) & (px[pidx] <= ix["shmaxx"][gcand])
            & (py[pidx] >= ix["shminy"][gcand]) & (py[pidx] <= ix["shmaxy"][gcand])
        )
        pidx, gcand = pidx[keep], gcand[keep]
        if not len(pidx):
            return schema.empty_table()
        kp, kg = _pairs_for_candidates(px, py, pidx, gcand, ix)
        return pa.Table.from_arrays(
            [
                pa.array(pid[kp], pa.int64()),
                pa.array(ix["gids"][kg], pa.int64()),
                *[pa.array(v[kp], schema.field(c).type) for c, v in extras.items()],
            ],
            schema=schema,
        )

    return points.map_batches(probe, batch_format="pyarrow")


ZONAL_SCHEMA = pa.schema(
    [("poly_id", pa.int64()), ("n_points", pa.int64()), ("sum_value", pa.float64())]
)


def zonal_stats(
    points: rd.Dataset,
    polygons: rd.Dataset,
    value_col: str,
    grid_cell: float | None = None,
) -> rd.Dataset:
    """Zonal statistics: per-polygon count/sum/mean of a point value
    column.  Composition of the broadcast containment join (value carried
    through map-side) with the map-side-partial + bucketed-groupby
    aggregation pattern — the shuffle moves per-(batch, polygon) partials,
    never points."""
    joined = spatial_join_broadcast(
        points, polygons, grid_cell=grid_cell, point_cols=[value_col]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("poly_id", as_index=False).agg(
            n_points=(value_col, "size"), sum_value=(value_col, "sum")
        )

    from geo_polygonize_ray.functions import bucketed_groupby

    out = bucketed_groupby(
        joined.map_batches(partial, batch_format="pandas"),
        "poly_id",
        lambda g: g.groupby("poly_id", as_index=False).agg(
            n_points=("n_points", "sum"), sum_value=("sum_value", "sum")
        ),
    )
    # no pairs: Ray Data skips the partials of empty blocks, so the groupby
    # never sees the result's columns
    return out if out.count() else rd.from_arrow(ZONAL_SCHEMA.empty_table())
