"""Stateless map_batches stages over the linework table (SURVEY.md §2.2).

Batch format is zero-copy Arrow throughout; all math is vectorized over the
flat list buffers (no per-row Python in the hot path).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geo_polygonize_ray.geom.kernels import bbox_many, explode_index


def _list_bounds(col: pa.ChunkedArray | pa.ListArray) -> tuple[np.ndarray, np.ndarray]:
    """flat values + offsets of a list<float64> column (combined chunks)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False)
    return values, offsets


def linework_bboxes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row bbox of the xs/ys list columns (K2, vectorized)."""
    xs, xo = _list_bounds(batch["xs"])
    ys, _ = _list_bounds(batch["ys"])
    return bbox_many(xs, ys, xo)


def stable_plane_key(plane_id: str) -> int:
    """Deterministic 64-bit key for a plane id (sha1 prefix, never hash()).

    Each plane is an independent polygonization universe (reference: one
    ``Polygonizer`` instance per plane, src/polygonizer.rs:35); keying the
    shuffle by (plane_key, tile_id) keeps overlapping planes from being
    noded into one graph.  Collision probability for a 64-bit key is
    ~n^2 / 2^65 — negligible for any realistic plane count.
    """
    import hashlib

    return int.from_bytes(hashlib.sha1(plane_id.encode("utf-8")).digest()[:8], "big", signed=True)


def add_plane_key(batch: pa.Table) -> pa.Table:
    """Replace the plane_id STRING with an int64 plane_key before the
    shuffle — string payloads stay out of the exchange.  The column is
    dictionary-encoded so the sha1 hash runs once per DISTINCT plane id
    (typically a handful) and the per-row work is a single ``np.take``
    over the int32 indices; no ``to_pylist`` of the full column."""
    if "plane_id" not in batch.schema.names:
        return batch
    col = batch["plane_id"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    dict_keys = np.fromiter(
        (stable_plane_key(v) for v in enc.dictionary.to_pylist()),
        dtype=np.int64,
        count=len(enc.dictionary),
    )
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    keys = dict_keys[idx] if len(dict_keys) else np.empty(0, dtype=np.int64)
    return batch.drop_columns(["plane_id"]).append_column("plane_key", pa.array(keys))


class TileAssigner:
    """flat_map each linework row to every buffered tile its bbox intersects
    (J5, reference src/tiling.rs:66-77: geometry *duplication*, not
    splitting).  Emits the row once per overlapping tile with a ``tile_id``
    column; the downstream ``groupby("tile_id")`` is THE shuffle.

    Tile grid (reference src/tiling.rs:37-58): regular ``tile_size`` grid
    over ``bbox``; ``tile_id = row * n_cols + col``.
    """

    def __init__(
        self,
        bbox: tuple[float, float, float, float],
        tile_size: float,
        buffer: float = 0.0,
    ):
        self.minx, self.miny, self.maxx, self.maxy = bbox
        self.tile_size = tile_size
        self.buffer = buffer
        self.n_cols = max(int(np.ceil((self.maxx - self.minx) / tile_size)), 1)
        self.n_rows = max(int(np.ceil((self.maxy - self.miny) / tile_size)), 1)

    def _bboxes(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-row bbox used for tile membership (overridden for segments)."""
        return linework_bboxes(batch)

    def tile_rect(self, tile_id: int) -> tuple[float, float, float, float]:
        r, c = divmod(tile_id, self.n_cols)
        x0 = self.minx + c * self.tile_size
        y0 = self.miny + r * self.tile_size
        # clamp to global bbox (src/tiling.rs:50-51)
        return (
            x0,
            y0,
            min(x0 + self.tile_size, self.maxx),
            min(y0 + self.tile_size, self.maxy),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column("tile_id", pa.array([], pa.int64()))
        bminx, bminy, bmaxx, bmaxy = self._bboxes(batch)
        ts, buf = self.tile_size, self.buffer
        # tile index ranges whose BUFFERED rect intersects the row bbox
        # (closed-interval overlap, matching geo::Intersects at tiling.rs:74).
        # Tile c covers [c*ts, (c+1)*ts]; closed overlap with [lo, hi] means
        # c in [ceil(lo/ts - 1), floor(hi/ts)] — the ceil(x-1) form keeps the
        # lower tile when lo lands exactly on a tile boundary (the reference's
        # exact-boundary ownership test, src/tiling_tests.rs:52-80).
        lox = (bminx - buf - self.minx) / ts
        hix = (bmaxx + buf - self.minx) / ts
        loy = (bminy - buf - self.miny) / ts
        hiy = (bmaxy + buf - self.miny) / ts
        c0 = np.clip(np.ceil(lox - 1.0), 0, self.n_cols - 1).astype(np.int64)
        c1 = np.clip(np.floor(hix), 0, self.n_cols - 1).astype(np.int64)
        r0 = np.clip(np.ceil(loy - 1.0), 0, self.n_rows - 1).astype(np.int64)
        r1 = np.clip(np.floor(hiy), 0, self.n_rows - 1).astype(np.int64)
        counts = (c1 - c0 + 1) * (r1 - r0 + 1)
        total = int(counts.sum())
        row_idx = np.repeat(np.arange(n), counts)
        local = np.arange(total) - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        width = np.repeat(c1 - c0 + 1, counts)
        dc = local % width
        dr = local // width
        tile_id = (np.repeat(r0, counts) + dr) * self.n_cols + (np.repeat(c0, counts) + dc)
        out = batch.take(pa.array(row_idx))
        return out.append_column("tile_id", pa.array(tile_id, pa.int64()))


SEGMENT_COLS = ("x0", "y0", "x1", "y1")


def explode_linework_to_segments(batch: pa.Table) -> pa.Table:
    """linework rows (xs/ys lists) -> fixed-width segment rows — the hot
    shuffle payload (SURVEY.md §1.3: "pure fixed-width columns").  Exploding
    BEFORE tile assignment lets each duplicated copy be clipped map-side, so
    the exchange carries ~window-sized pieces instead of whole linestrings.
    Vectorized over the list offsets; plane_key (if present) is repeated.
    """
    xs, xo = _list_bounds(batch["xs"])
    ys, _ = _list_bounds(batch["ys"])
    idx, nseg = explode_index(xo)
    cols = {
        "x0": pa.array(xs[idx], pa.float64()),
        "y0": pa.array(ys[idx], pa.float64()),
        "x1": pa.array(xs[idx + 1], pa.float64()),
        "y1": pa.array(ys[idx + 1], pa.float64()),
    }
    if "plane_key" in batch.schema.names:
        cols["plane_key"] = pa.array(np.repeat(batch["plane_key"].to_numpy(), nseg))
    return pa.table(cols)


def segment_bboxes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    x0 = batch["x0"].to_numpy()
    y0 = batch["y0"].to_numpy()
    x1 = batch["x1"].to_numpy()
    y1 = batch["y1"].to_numpy()
    return np.minimum(x0, x1), np.minimum(y0, y1), np.maximum(x0, x1), np.maximum(y0, y1)


# max sub-tiles per salted base tile: k x k with k <= 8 -> 6 bits of sub key
_SALT_SUBS = 64


class SaltedTileAssigner(TileAssigner):
    """TileAssigner with explicit skew salting (SURVEY.md §4.2, north_rule).

    Hot base tiles (identified by a cheap count pre-pass) are subdivided
    into k x k sub-tiles; the shuffle key becomes
    ``leaf = tile_id * 64 + sub_idx`` so an over-full cell's work fans out
    across k^2 groups.  Sub-rects partition the base rect exactly, so the
    centroid-ownership rule stays exactly-once; the buffered-duplication
    contract (buffer >= max polygon radius) applies per sub-rect.
    """

    def __init__(self, bbox, tile_size, buffer=0.0, hot: dict[int, int] | None = None):
        super().__init__(bbox, tile_size, buffer)
        self.hot = {int(k): int(v) for k, v in (hot or {}).items()}
        for k, v in self.hot.items():
            if not (2 <= v <= 8):
                raise ValueError(f"salt factor {v} for tile {k} outside 2..8")
        # sorted lookup arrays for the vectorized per-row salt-factor path
        self._hot_keys = np.array(sorted(self.hot), dtype=np.int64)
        self._hot_vals = np.array([self.hot[int(k)] for k in self._hot_keys], dtype=np.int64)

    def _salt_factors(self, tile_ids: np.ndarray) -> np.ndarray:
        """Per-row salt factor k (1 for cold tiles), via searchsorted on the
        precomputed sorted hot-key array — no per-row Python."""
        tids = np.asarray(tile_ids, dtype=np.int64)
        if not len(self._hot_keys) or not len(tids):
            return np.ones(len(tids), dtype=np.int64)
        p = np.minimum(np.searchsorted(self._hot_keys, tids), len(self._hot_keys) - 1)
        return np.where(self._hot_keys[p] == tids, self._hot_vals[p], 1)

    def leaf_rect(self, leaf_id: int) -> tuple[float, float, float, float]:
        base, sub = divmod(int(leaf_id), _SALT_SUBS)
        x0, y0, x1, y1 = self.tile_rect(base)
        k = self.hot.get(base, 1)
        if k == 1:
            return x0, y0, x1, y1
        r, c = divmod(sub, k)
        w = (x1 - x0) / k
        h = (y1 - y0) / k
        return (x0 + c * w, y0 + r * h, x0 + (c + 1) * w, y0 + (r + 1) * h)

    def leaf_rects(
        self, leaf_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized leaf_rect over an int64 array (same math, incl. the
        global-bbox clamp and hot-tile k x k subdivision)."""
        leaf = np.asarray(leaf_ids, dtype=np.int64)
        base, sub = np.divmod(leaf, _SALT_SUBS)
        r, c = np.divmod(base, self.n_cols)
        x0 = self.minx + c * self.tile_size
        y0 = self.miny + r * self.tile_size
        x1 = np.minimum(x0 + self.tile_size, self.maxx)
        y1 = np.minimum(y0 + self.tile_size, self.maxy)
        if self.hot:
            k = self._salt_factors(base)
            rr, cc = np.divmod(sub, k)
            w = (x1 - x0) / k
            h = (y1 - y0) / k
            x0 = x0 + cc * w
            y0 = y0 + rr * h
            x1 = x0 + w
            y1 = y0 + h
        return x0, y0, x1, y1

    def __call__(self, batch: pa.Table) -> pa.Table:
        base = super().__call__(batch)
        tid_idx = base.schema.get_field_index("tile_id")
        if not self.hot or base.num_rows == 0:
            if base.num_rows:
                leaf = base["tile_id"].to_numpy() * _SALT_SUBS
            else:
                leaf = np.empty(0, dtype=np.int64)
            return base.set_column(tid_idx, "tile_id", pa.array(leaf.astype(np.int64)))
        tids = base["tile_id"].to_numpy()
        kfac = self._salt_factors(tids)
        cold = np.flatnonzero(kfac == 1)
        out_parts = []
        if len(cold):
            t = base.take(pa.array(cold))
            leaf = tids[cold] * _SALT_SUBS
            out_parts.append(t.set_column(tid_idx, "tile_id", pa.array(leaf)))
        hot_rows = np.flatnonzero(kfac > 1)
        if len(hot_rows):
            # fully vectorized: per-row salt factor + per-row base-tile rect,
            # one repeat/offset expansion for every hot row regardless of k
            t = base.take(pa.array(hot_rows))
            bminx, bminy, bmaxx, bmaxy = self._bboxes(t)
            htids = tids[hot_rows]
            hk = kfac[hot_rows]
            r, c = np.divmod(htids, self.n_cols)
            tx0 = self.minx + c * self.tile_size
            ty0 = self.miny + r * self.tile_size
            tx1 = np.minimum(tx0 + self.tile_size, self.maxx)
            ty1 = np.minimum(ty0 + self.tile_size, self.maxy)
            w = (tx1 - tx0) / hk
            h = (ty1 - ty0) / hk
            buf = self.buffer
            c0 = np.clip(np.ceil((bminx - buf - tx0) / w - 1.0), 0, hk - 1).astype(np.int64)
            c1 = np.clip(np.floor((bmaxx + buf - tx0) / w), 0, hk - 1).astype(np.int64)
            r0 = np.clip(np.ceil((bminy - buf - ty0) / h - 1.0), 0, hk - 1).astype(np.int64)
            r1 = np.clip(np.floor((bmaxy + buf - ty0) / h), 0, hk - 1).astype(np.int64)
            counts = (c1 - c0 + 1) * (r1 - r0 + 1)
            total = int(counts.sum())
            rr = np.repeat(np.arange(len(hot_rows)), counts)
            local = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            width = np.repeat(c1 - c0 + 1, counts)
            dc = local % width
            dr = local // width
            sub = (np.repeat(r0, counts) + dr) * np.repeat(hk, counts) + (
                np.repeat(c0, counts) + dc
            )
            lf = htids[rr] * _SALT_SUBS + sub
            t2 = t.take(pa.array(rr))
            out_parts.append(t2.set_column(tid_idx, "tile_id", pa.array(lf.astype(np.int64))))
        return pa.concat_tables(out_parts) if out_parts else base.slice(0, 0)


class SaltedSegmentAssigner(SaltedTileAssigner):
    """SaltedTileAssigner over FIXED-WIDTH segment rows, with map-side
    clipping: each duplicated (segment, tile) copy is Liang-Barsky-clipped
    to its tile's buffered window BEFORE the shuffle, so the exchange
    carries window-sized pieces (~48 B/row) instead of whole linestrings.
    Identical float math to the tracer's former post-shuffle clip — the
    noder sees byte-identical input."""

    def _bboxes(self, batch: pa.Table):
        return segment_bboxes(batch)

    def assign_and_clip(self, batch: pa.Table) -> pa.Table:
        from geo_polygonize_ray.geom.kernels import clip_segments_to_rect

        t = self(batch)
        empty_cols = {c: pa.array([], pa.float64()) for c in SEGMENT_COLS}
        empty_cols["tile_id"] = pa.array([], pa.int64())
        if "plane_key" in batch.schema.names:
            empty_cols["plane_key"] = pa.array([], pa.int64())
        if t.num_rows == 0:
            return pa.table(empty_cols)
        tid = t["tile_id"].to_numpy()
        lx0, ly0, lx1, ly1 = self.leaf_rects(tid)
        buf = self.buffer
        cx0, cy0, cx1, cy1, keep = clip_segments_to_rect(
            t["x0"].to_numpy(),
            t["y0"].to_numpy(),
            t["x1"].to_numpy(),
            t["y1"].to_numpy(),
            (lx0 - buf, ly0 - buf, lx1 + buf, ly1 + buf),
            return_mask=True,
        )
        cols = {
            "x0": pa.array(cx0, pa.float64()),
            "y0": pa.array(cy0, pa.float64()),
            "x1": pa.array(cx1, pa.float64()),
            "y1": pa.array(cy1, pa.float64()),
            "tile_id": pa.array(tid[keep]),
        }
        if "plane_key" in t.schema.names:
            cols["plane_key"] = pa.array(t["plane_key"].to_numpy()[keep])
        return pa.table(cols)
