"""Per-cell polygonization stage — the stateful heart of the distributed
pipeline (SURVEY.md §2.3 ST3).

One call consumes ONE exchange bucket (post-shuffle) and runs
``polygonize_soup`` on each of its (plane, tile) cells: the full local
polygonizer (reference §3.1 phases) with ``node_input=True`` exactly like
the reference's per-tile run (src/tiling.rs:62-63), then the sliver filter
and the half-open ``[min, max)`` centroid-ownership rule
(src/tiling.rs:95-106) that guarantees each polygon is emitted by exactly
one tile despite the buffered duplication.

Tiled cells (``polygonize_dataset`` and every escalation round of
``polygonize_dataset_adaptive``) arrive as clipped segment rows and are
split by ``plane_tile_segment_groups``; only the untiled exchange still
sends whole linework rows (``plane_tile_line_groups``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geo_polygonize_ray.geom.kernels import explode_index
from geo_polygonize_ray.local.polygonize import Polygon, polygon_views, polygonize_soup
from geo_polygonize_ray.stages.linework import SaltedTileAssigner, _list_bounds

POLYGON_SCHEMA = pa.schema(
    [
        ("tile_id", pa.int64()),
        ("poly_id", pa.int64()),
        ("shell_xs", pa.list_(pa.float64())),
        ("shell_ys", pa.list_(pa.float64())),
        ("holes_xs", pa.list_(pa.list_(pa.float64()))),
        ("holes_ys", pa.list_(pa.list_(pa.float64()))),
        ("area", pa.float64()),
        ("cx", pa.float64()),
        ("cy", pa.float64()),
        ("n_holes", pa.int64()),
    ]
)


def _cells(group: pa.Table):
    """Sort ``group``'s rows by (plane_key, tile_id), stably (input order
    holds within a cell).  Returns the row order, the cells' row bounds in
    that order, and each cell's tile_id and plane_key (0 without the
    column)."""
    n = group.num_rows
    names = group.schema.names
    tile_ids = group["tile_id"].to_numpy() if "tile_id" in names else np.zeros(n, dtype=np.int64)
    if "plane_key" in names:
        planes = group["plane_key"].to_numpy()
        order = np.lexsort((tile_ids, planes))
    else:
        planes = np.zeros(n, dtype=np.int64)
        order = np.argsort(tile_ids, kind="stable")
    st, sp = tile_ids[order], planes[order]
    change = (st[1:] != st[:-1]) | (sp[1:] != sp[:-1])
    starts = np.flatnonzero(np.concatenate([[n > 0], change]))
    return order, np.append(starts, n), st[starts], sp[starts]


def _split(bounds, tiles, planes, cols):
    for i in range(len(tiles)):
        s, e = bounds[i], bounds[i + 1]
        yield int(tiles[i]), int(planes[i]), tuple(c[s:e] for c in cols)


def plane_tile_segment_groups(group: pa.Table):
    """Split one exchange bucket of fixed-width SEGMENT rows into its
    independent polygonization cells: yields (tile_id, plane_key,
    (x0, y0, x1, y1)) per distinct (plane_key, tile_id) pair."""
    order, bounds, tiles, planes = _cells(group)
    cols = [group[c].to_numpy()[order] for c in ("x0", "y0", "x1", "y1")]
    yield from _split(bounds, tiles, planes, cols)


def plane_tile_line_groups(group: pa.Table):
    """Like plane_tile_segment_groups, over whole LINEWORK rows (xs/ys
    lists): yields the same (tile_id, plane_key, (x0, y0, x1, y1)) per
    cell, every row's consecutive point pairs exploded straight from the
    list offsets, rows in input order within a cell."""
    order, bounds, tiles, planes = _cells(group)
    xs, xo = _list_bounds(group["xs"])
    ys, _ = _list_bounds(group["ys"])
    i, nseg = explode_index(xo, order)
    seg_bounds = np.concatenate([[0], np.cumsum(nseg)])[bounds]
    yield from _split(seg_bounds, tiles, planes, (xs[i], ys[i], xs[i + 1], ys[i + 1]))


def flat_to_table(flat: dict, tile_id: int) -> pa.Table:
    """assemble_flat output -> Arrow polygons table via ListArray.from_arrays
    (offsets + values, no per-row Python)."""
    n = len(flat["area"])
    shell_xs = pa.ListArray.from_arrays(
        pa.array(flat["shell_offsets"], pa.int32()), pa.array(flat["shell_values_x"], pa.float64())
    )
    shell_ys = pa.ListArray.from_arrays(
        pa.array(flat["shell_offsets"], pa.int32()), pa.array(flat["shell_values_y"], pa.float64())
    )
    inner_x = pa.ListArray.from_arrays(
        pa.array(flat["hole_ring_offsets"], pa.int32()), pa.array(flat["hole_values_x"], pa.float64())
    )
    inner_y = pa.ListArray.from_arrays(
        pa.array(flat["hole_ring_offsets"], pa.int32()), pa.array(flat["hole_values_y"], pa.float64())
    )
    holes_xs = pa.ListArray.from_arrays(pa.array(flat["poly_hole_offsets"], pa.int32()), inner_x)
    holes_ys = pa.ListArray.from_arrays(pa.array(flat["poly_hole_offsets"], pa.int32()), inner_y)
    return pa.table(
        {
            "tile_id": pa.array(np.full(n, tile_id, dtype=np.int64)),
            "poly_id": pa.array(np.arange(n, dtype=np.int64)),
            "shell_xs": shell_xs,
            "shell_ys": shell_ys,
            "holes_xs": holes_xs,
            "holes_ys": holes_ys,
            "area": pa.array(flat["area"], pa.float64()),
            "cx": pa.array(flat["cx"], pa.float64()),
            "cy": pa.array(flat["cy"], pa.float64()),
            "n_holes": pa.array(flat["n_holes"], pa.int64()),
        },
        schema=POLYGON_SCHEMA,
    )


def table_to_polygons(t: pa.Table) -> list[Polygon]:
    """Polygon views over a polygons table's list buffers."""
    sx, so = _list_bounds(t["shell_xs"])
    sy, _ = _list_bounds(t["shell_ys"])
    hx, hr, ph = _nested_list_bounds(t["holes_xs"])
    hy, _, _ = _nested_list_bounds(t["holes_ys"])
    return polygon_views(
        dict(
            shell_values_x=sx,
            shell_values_y=sy,
            shell_offsets=so,
            hole_values_x=hx,
            hole_values_y=hy,
            hole_ring_offsets=hr,
            poly_hole_offsets=ph,
        )
    )


def _nested_list_bounds(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """flat values, ring offsets and per-row ring offsets of a
    list<list<float64>> column (combined chunks, absolute offsets)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values, ring_offsets = _list_bounds(col.values)
    return values, ring_offsets, col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)


class TilePolygonizer:
    """Exchange reduce payload: one bucket's cells -> owned polygons.

    A bucket holds EVERY row of one or more (plane, tile) cells (tiles are
    bucketed upstream, so the task overhead is paid per *bucket*, not per
    tile — the same high-cardinality-key pattern as functions/agg.py), as
    clipped segment rows (tiled, and every escalation round) or whole
    linework rows (untiled, one cell per plane).  Each cell is one
    ``polygonize_soup`` call — overlapping planes are never noded into one
    graph — with the tile's leaf rect as owner rect when there is an
    assigner.  ``_bucket`` is the loop over a bucket's cells and
    ``_table`` turns one cell's kernel output into rows; the escalation
    tracer (stages/stitch.py) shares the loop and replaces ``_table``.
    Construction is trivial; per-call state is local numpy.
    """

    schema = POLYGON_SCHEMA
    with_unowned = False  # polygonize_soup's escalation extras

    def __init__(
        self,
        assigner: SaltedTileAssigner | None,
        node_input: bool = True,
        snap_grid_size: float = 1e-10,
        max_noding_iters: int = 10,
    ):
        self.assigner = assigner
        self.node_input = node_input
        self.snap_grid_size = snap_grid_size
        self.max_noding_iters = max_noding_iters

    def __call__(self, group: pa.Table) -> pa.Table:
        return self._bucket(group)

    def _bucket(self, group: pa.Table) -> pa.Table:
        """One ``polygonize_soup`` call per (plane, tile) cell of ``group``,
        its ``_table`` rows concatenated (``plane_key`` appended when the
        input has it)."""
        has_plane = "plane_key" in group.schema.names
        empty = self.schema.empty_table()
        if has_plane:
            empty = empty.append_column("plane_key", pa.array([], pa.int64()))
        if group.num_rows == 0:
            return empty
        if "x0" in group.schema.names:
            cells = plane_tile_segment_groups(group)
        else:
            cells = plane_tile_line_groups(group)
        out = []
        for tile_id, plane_key, segs in cells:
            rect = None if self.assigner is None else self.assigner.leaf_rect(tile_id)
            flat = polygonize_soup(
                *segs,
                node_input=self.node_input,
                snap_grid_size=self.snap_grid_size,
                max_noding_iters=self.max_noding_iters,
                owner_rect=rect,
                with_unowned=self.with_unowned,
            )
            t = self._table(flat, tile_id, rect)
            if has_plane:
                t = t.append_column(
                    "plane_key", pa.array(np.full(t.num_rows, plane_key, dtype=np.int64))
                )
            out.append(t)
        return pa.concat_tables(out) if out else empty

    def _table(self, flat: dict, tile_id: int, rect) -> pa.Table:
        return flat_to_table(flat, tile_id)
