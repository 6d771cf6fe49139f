"""Per-tile polygonization stage — the stateful heart of the distributed
pipeline (SURVEY.md §2.3 ST3).

One call consumes ONE tile's linework group (post-shuffle) and runs the full
local polygonizer (reference §3.1 phases) with ``node_input=True`` exactly
like the reference's per-tile run (src/tiling.rs:62-63), then applies the
sliver filter and the half-open ``[min, max)`` centroid-ownership rule
(src/tiling.rs:95-106) that guarantees each polygon is emitted by exactly
one tile despite the buffered duplication.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geo_polygonize_ray.local.noding import SnapNoder
from geo_polygonize_ray.local.polygonize import (
    Polygon,
    assemble_flat,
    dedup_linestrings,
    explode_to_segments,
    trace_rings,
)
from geo_polygonize_ray.stages.linework import TileAssigner, _list_bounds

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


def plane_tile_segment_groups(group: pa.Table):
    """Like plane_tile_line_groups, but over fixed-width SEGMENT tables:
    yields (tile_id, plane_key, (x0, y0, x1, y1)) per (plane, tile) cell."""
    n = group.num_rows
    tile_ids = group["tile_id"].to_numpy() if "tile_id" in group.schema.names else np.zeros(n, dtype=np.int64)
    planes = group["plane_key"].to_numpy() if "plane_key" in group.schema.names else None
    x0 = group["x0"].to_numpy()
    y0 = group["y0"].to_numpy()
    x1 = group["x1"].to_numpy()
    y1 = group["y1"].to_numpy()
    if planes is None:
        order = np.argsort(tile_ids, kind="stable")
        st = tile_ids[order]
        change = st[1:] != st[:-1]
        sp = np.zeros(n, dtype=np.int64)
    else:
        order = np.lexsort((tile_ids, planes))
        st = tile_ids[order]
        sp = planes[order]
        change = (st[1:] != st[:-1]) | (sp[1:] != sp[:-1])
    starts = np.flatnonzero(np.concatenate([[True], change]))
    ends = np.concatenate([starts[1:], [n]])
    for s, e in zip(starts, ends):
        rows = order[s:e]
        yield int(st[s]), int(sp[s]), (x0[rows], y0[rows], x1[rows], y1[rows])


def plane_tile_line_groups(group: pa.Table):
    """Split one shuffle group into its independent polygonization cells:
    yields (tile_id, plane_key, lines) per distinct (plane_key, tile_id)
    pair — plane_key 0 when the table has no plane column."""
    n = group.num_rows
    if "tile_id" in group.schema.names:
        tile_ids = group["tile_id"].to_numpy()
    else:
        tile_ids = np.zeros(n, dtype=np.int64)
    planes = group["plane_key"].to_numpy() if "plane_key" in group.schema.names else None
    xs, xo = _list_bounds(group["xs"])
    ys, _ = _list_bounds(group["ys"])
    if planes is None:
        order = np.argsort(tile_ids, kind="stable")
        st = tile_ids[order]
        change = st[1:] != st[:-1]
        sp = np.zeros(n, dtype=np.int64)
    else:
        order = np.lexsort((tile_ids, planes))
        st = tile_ids[order]
        sp = planes[order]
        change = (st[1:] != st[:-1]) | (sp[1:] != sp[:-1])
    starts = np.flatnonzero(np.concatenate([[True], change]))
    ends = np.concatenate([starts[1:], [n]])
    for s, e in zip(starts, ends):
        rows = order[s:e]
        lines = [
            np.stack([xs[xo[i] : xo[i + 1]], ys[xo[i] : xo[i + 1]]], axis=1) for i in rows
        ]
        yield int(st[s]), int(sp[s]) if planes is not None else 0, lines


def polygons_to_table(polys: list[Polygon], tile_id: int = 0) -> pa.Table:
    rows = {
        "tile_id": [],
        "poly_id": [],
        "shell_xs": [],
        "shell_ys": [],
        "holes_xs": [],
        "holes_ys": [],
        "area": [],
        "cx": [],
        "cy": [],
        "n_holes": [],
    }
    for i, p in enumerate(polys):
        cx, cy = p.centroid()
        rows["tile_id"].append(tile_id)
        rows["poly_id"].append(i)
        rows["shell_xs"].append(p.shell_x.tolist())
        rows["shell_ys"].append(p.shell_y.tolist())
        rows["holes_xs"].append([h.tolist() for h in p.holes_x])
        rows["holes_ys"].append([h.tolist() for h in p.holes_y])
        rows["area"].append(p.area)
        rows["cx"].append(cx)
        rows["cy"].append(cy)
        rows["n_holes"].append(len(p.holes_x))
    return pa.table(rows, schema=POLYGON_SCHEMA)


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
    polys = []
    for i in range(t.num_rows):
        polys.append(
            Polygon(
                np.array(t["shell_xs"][i].as_py()),
                np.array(t["shell_ys"][i].as_py()),
                [np.array(h) for h in t["holes_xs"][i].as_py()],
                [np.array(h) for h in t["holes_ys"][i].as_py()],
            )
        )
    return polys


class TilePolygonizer:
    """Exchange reduce payload: one bucket's buffered tiles' linework ->
    owned polygons.

    Runs inside the exchange's plain reduce tasks (construction is
    trivial); per-call state (graph arenas) is local numpy.
    """

    def __init__(
        self,
        assigner: TileAssigner | None,
        node_input: bool = True,
        snap_grid_size: float = 1e-10,
        max_noding_iters: int = 10,
        ownership: bool = True,
    ):
        self.assigner = assigner
        self.node_input = node_input
        self.snap_grid_size = snap_grid_size
        self.max_noding_iters = max_noding_iters
        self.ownership = ownership

    def __call__(self, group: pa.Table) -> pa.Table:
        """Process one exchange bucket.  A bucket holds EVERY row of one or
        more (plane, tile) cells (tiles are bucketed upstream, so the task
        overhead is paid per *bucket*, not per tile — the same
        high-cardinality-key pattern as functions/agg.py); each (plane,
        tile) cell is still polygonized independently here — overlapping
        planes are never noded into one graph."""
        has_plane = "plane_key" in group.schema.names
        empty = POLYGON_SCHEMA.empty_table()
        if has_plane:
            empty = empty.append_column("plane_key", pa.array([], pa.int64()))
        if group.num_rows == 0:
            return empty
        out_tables = []
        if "x0" in group.schema.names:  # pre-clipped fixed-width segments
            cells = (
                (tid, pk, ("segments", segs))
                for tid, pk, segs in plane_tile_segment_groups(group)
            )
        else:
            cells = (
                (tid, pk, ("lines", lines))
                for tid, pk, lines in plane_tile_line_groups(group)
            )
        for tile_id, plane_key, (kind, payload) in cells:
            if kind == "segments":
                t = self._polygonize_tile_segments(payload, tile_id)
            else:
                t = self._polygonize_tile_table(payload, tile_id)
            if has_plane:
                t = t.append_column(
                    "plane_key", pa.array(np.full(t.num_rows, plane_key, dtype=np.int64))
                )
            out_tables.append(t)
        return pa.concat_tables(out_tables) if out_tables else empty

    def _polygonize_tile_segments(
        self, segs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], tile_id: int
    ) -> pa.Table:
        """One tile from PRE-CLIPPED segment soup (SaltedSegmentAssigner):
        noding always applies (the distributed path is node_input=True);
        clipping already happened map-side with identical float math."""
        if self.ownership and self.assigner is not None:
            if hasattr(self.assigner, "leaf_rect"):
                owner_rect = self.assigner.leaf_rect(tile_id)
            else:
                owner_rect = self.assigner.tile_rect(tile_id)
        else:
            owner_rect = None
        x0, y0, x1, y1 = segs
        noder = SnapNoder(self.snap_grid_size, self.max_noding_iters)
        x0, y0, x1, y1 = noder.node(x0, y0, x1, y1)
        fx, fy, offs = trace_rings(x0, y0, x1, y1)
        flat = assemble_flat(fx, fy, offs, owner_rect=owner_rect)
        return flat_to_table(flat, tile_id)

    def _polygonize_tile_table(self, lines: list[np.ndarray], tile_id: int) -> pa.Table:
        """One tile -> Arrow polygons (flat assembly, no per-poly Python)."""
        if self.node_input:
            lines = dedup_linestrings(lines)
        x0, y0, x1, y1 = explode_to_segments(lines)
        return self._polygonize_raw_segments(x0, y0, x1, y1, tile_id)

    def _polygonize_raw_segments(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray, tile_id: int
    ) -> pa.Table:
        """Segment-array entry (the in-process fast path explodes straight
        from the Arrow list offsets and skips the per-linestring np.stack).
        Identical semantics to the lines entry: duplicate input lines yield
        duplicate segments, which the noder's canonicalize+dedup removes."""
        if self.ownership and self.assigner is not None:
            # salted assigners key groups by leaf id; plain ones by tile id
            if hasattr(self.assigner, "leaf_rect"):
                owner_rect = self.assigner.leaf_rect(tile_id)
            else:
                owner_rect = self.assigner.tile_rect(tile_id)
        else:
            owner_rect = None
        if self.node_input:
            if owner_rect is not None:
                # clip duplicated full-length lines to the buffered window so
                # per-tile work is bounded by the LOCAL extent (faces fully
                # inside the window are unaffected — kernels.clip docstring)
                buf = self.assigner.buffer
                window = (
                    owner_rect[0] - buf,
                    owner_rect[1] - buf,
                    owner_rect[2] + buf,
                    owner_rect[3] + buf,
                )
                from geo_polygonize_ray.geom.kernels import clip_segments_to_rect

                x0, y0, x1, y1 = clip_segments_to_rect(x0, y0, x1, y1, window)
            noder = SnapNoder(self.snap_grid_size, self.max_noding_iters)
            x0, y0, x1, y1 = noder.node(x0, y0, x1, y1)
        fx, fy, offs = trace_rings(x0, y0, x1, y1)
        flat = assemble_flat(fx, fy, offs, owner_rect=owner_rect)
        return flat_to_table(flat, tile_id)
