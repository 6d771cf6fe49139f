"""Stateless map_batches stages over the linework table (SURVEY.md §2.2).

Batch format is zero-copy Arrow throughout; all math is vectorized over the
flat list buffers (no per-row Python in the hot path).

``SaltedTileAssigner`` is the one tile grid: tile and sub-tile edges, leaf
rects and buffered windows, the cell range a buffered bbox meets and the
leaf that owns a point all come from it, and ``cell_pairs`` is the one
range -> (row, cell) expansion.  The salting histogram
(``pipelines/polygonize.segment_tile_counts``), the escalation rounds
(``stages/stitch.py``) and the spatial-join grid call them.
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
# inner edge indices 1..7 of a base tile split k <= 8 ways
_INNER = np.arange(1, 8)


def cell_pairs(c0, c1, r0, r1):
    """Expand inclusive per-row cell ranges [c0, c1] x [r0, r1] into
    (row index, column, grid row) arrays, row-major within each row; an
    empty range (c1 < c0 or r1 < r0) gives no pairs."""
    width = np.maximum(c1 - c0 + 1, 0)
    counts = width * np.maximum(r1 - r0 + 1, 0)
    rep = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(rep)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rep, c0[rep] + local % width[rep], r0[rep] + local // width[rep]


def _edges(lo: float, hi: float, n: int, step: float) -> np.ndarray:
    """The n + 1 edges lo + i * step of a grid axis, clamped to hi, the
    last one hi itself."""
    e = np.minimum(lo + np.arange(n + 1) * step, hi)
    e[-1] = hi
    return e


def _split_edges(lo, hi, k, j):
    """Edge j (0..k) of [lo, hi] cut into k equal parts: lo + j * (hi - lo) / k,
    with edges 0 and k exactly lo and hi, the edges the neighbours share."""
    return np.where(j == 0, lo, np.where(j == k, hi, lo + j * ((hi - lo) / k)))


def _inner_edges(lo, hi, k):
    """(m, 7) inner edges 1..7 of each [lo, hi] cut k ways, and the mask of
    the ones that exist (index < k)."""
    return _split_edges(lo[:, None], hi[:, None], k[:, None], _INNER), _INNER < k[:, None]


def _axis_range(edges: np.ndarray, buf: float, lo, hi):
    """Inclusive range [i0, i1] of the cells [edges[i], edges[i + 1]], grown
    by ``buf``, that each [lo, hi] meets (closed overlap)."""
    return (
        np.searchsorted(edges[1:] + buf, lo, "left"),
        np.searchsorted(edges[:-1] - buf, hi, "right") - 1,
    )


def _split_range(inner_edges, inner, buf: float, lo, hi):
    """``_axis_range`` over each row's k parts (``_inner_edges``), for a
    [lo, hi] that meets the whole split interval grown by ``buf``."""
    return (
        (inner & (inner_edges + buf < lo[:, None])).sum(axis=1),
        (inner & (inner_edges - buf <= hi[:, None])).sum(axis=1),
    )


class SaltedTileAssigner:
    """The tile grid, and the flat_map of each segment row to every leaf
    whose buffered window its bbox meets (J5, reference src/tiling.rs:66-77:
    geometry *duplication*, not splitting).  Emits the row once per leaf
    with a ``tile_id`` column holding the leaf id; the exchange keys on it.

    Grid (reference src/tiling.rs:37-58): a regular ``tile_size`` grid
    over ``bbox``, ``tile_id = row * n_cols + col``.  Column c spans
    [xe[c], xe[c + 1]) with xe[c] = minx + c * tile_size and the last edge
    clamped to maxx; rows likewise.  Skew salting (SURVEY.md §4.2): a hot
    base tile (salt factor k from a count prepass) is split k x k, with
    sub-edges x0 + j * (x1 - x0) / k and the last sub-edge the base tile's
    own edge, so an over-full cell's work fans out across k^2 groups;
    ``leaf = tile_id * 64 + sub_row * k + sub_col`` (``tile_id * 64`` when
    cold).

    Every leaf rect, buffered window, cell range and owner lookup derives
    from these edges, so neighbouring leaves share bit-identical edges and
    the half-open [min, max) centroid rule gives each polygon to exactly
    one leaf.  A row goes to a leaf exactly when its bbox meets the leaf's
    buffered window (closed overlap, geo::Intersects at tiling.rs:74): the
    window ``assign_and_clip`` clips it to.  The buffered-duplication
    contract (buffer >= max polygon radius) applies per leaf.
    """

    def __init__(self, bbox, tile_size, buffer=0.0, hot: dict[int, int] | None = None):
        self.minx, self.miny, self.maxx, self.maxy = bbox
        self.tile_size = tile_size
        self.buffer = buffer
        self.n_cols = max(int(np.ceil((self.maxx - self.minx) / tile_size)), 1)
        self.n_rows = max(int(np.ceil((self.maxy - self.miny) / tile_size)), 1)
        self.xe = _edges(self.minx, self.maxx, self.n_cols, tile_size)
        self.ye = _edges(self.miny, self.maxy, self.n_rows, tile_size)
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

    def leaf_rects(
        self, leaf_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x0, y0, x1, y1) owner rects of an int64 array of leaf ids."""
        base, sub = np.divmod(np.asarray(leaf_ids, dtype=np.int64), _SALT_SUBS)
        r, c = np.divmod(base, self.n_cols)
        x0, y0, x1, y1 = self.xe[c], self.ye[r], self.xe[c + 1], self.ye[r + 1]
        k = self._salt_factors(base)
        h = np.flatnonzero(k > 1)
        if len(h):
            kh, (sr, sc) = k[h], np.divmod(sub[h], k[h])
            x0[h], x1[h] = _split_edges(x0[h], x1[h], kh, sc), _split_edges(x0[h], x1[h], kh, sc + 1)
            y0[h], y1[h] = _split_edges(y0[h], y1[h], kh, sr), _split_edges(y0[h], y1[h], kh, sr + 1)
        return x0, y0, x1, y1

    def leaf_rect(self, leaf_id: int) -> tuple[float, float, float, float]:
        return tuple(float(v[0]) for v in self.leaf_rects(np.array([leaf_id])))

    def leaf_windows(self, leaf_ids: np.ndarray, buf=None):
        """The leaves' rects grown by ``buf`` (scalar or per leaf; default
        this assigner's buffer): the windows rows are assigned and clipped
        to."""
        buf = self.buffer if buf is None else buf
        x0, y0, x1, y1 = self.leaf_rects(leaf_ids)
        return x0 - buf, y0 - buf, x1 + buf, y1 + buf

    def tile_ranges(self, bminx, bminy, bmaxx, bmaxy):
        """Inclusive base-tile ranges (c0, c1, r0, r1) whose buffered windows
        each bbox meets; c1 < c0 or r1 < r0 when it meets none."""
        return (
            *_axis_range(self.xe, self.buffer, bminx, bmaxx),
            *_axis_range(self.ye, self.buffer, bminy, bmaxy),
        )

    def owner_leaves(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The leaf whose half-open rect holds each point (a point outside
        the bbox goes to the nearest edge tile)."""
        c = np.clip(np.searchsorted(self.xe, x, "right") - 1, 0, self.n_cols - 1)
        r = np.clip(np.searchsorted(self.ye, y, "right") - 1, 0, self.n_rows - 1)
        base = r * self.n_cols + c
        k = self._salt_factors(base)
        ex, inner = _inner_edges(self.xe[c], self.xe[c + 1], k)
        ey, _ = _inner_edges(self.ye[r], self.ye[r + 1], k)
        sc = (inner & (ex <= np.asarray(x)[:, None])).sum(axis=1)
        sr = (inner & (ey <= np.asarray(y)[:, None])).sum(axis=1)
        return base * _SALT_SUBS + sr * k + sc

    def __call__(self, batch: pa.Table) -> pa.Table:
        bminx, bminy, bmaxx, bmaxy = segment_bboxes(batch)
        rep, c, r = cell_pairs(*self.tile_ranges(bminx, bminy, bmaxx, bmaxy))
        base = r * self.n_cols + c
        leaf = base * _SALT_SUBS
        k = self._salt_factors(base)
        hot = np.flatnonzero(k > 1)
        if len(hot):
            # a hot copy meets its base tile's window, so it meets at least
            # one sub-window: expand it over the sub-cell ranges it meets
            rh, ch, rr, kh = rep[hot], c[hot], r[hot], k[hot]
            ex, inner = _inner_edges(self.xe[ch], self.xe[ch + 1], kh)
            ey, _ = _inner_edges(self.ye[rr], self.ye[rr + 1], kh)
            sub, sc, sr = cell_pairs(
                *_split_range(ex, inner, self.buffer, bminx[rh], bmaxx[rh]),
                *_split_range(ey, inner, self.buffer, bminy[rh], bmaxy[rh]),
            )
            cold = k == 1
            rep = np.concatenate([rep[cold], rh[sub]])
            leaf = np.concatenate([leaf[cold], leaf[hot][sub] + sr * kh[sub] + sc])
        return batch.take(pa.array(rep)).append_column("tile_id", pa.array(leaf, pa.int64()))


class SaltedSegmentAssigner(SaltedTileAssigner):
    """SaltedTileAssigner over FIXED-WIDTH segment rows, with map-side
    clipping: each duplicated (segment, tile) copy is Liang-Barsky-clipped
    to its tile's buffered window BEFORE the shuffle, so the exchange
    carries window-sized pieces (~48 B/row) instead of whole linestrings.
    Identical float math to the tracer's former post-shuffle clip — the
    noder sees byte-identical input."""

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
        cx0, cy0, cx1, cy1, keep = clip_segments_to_rect(
            t["x0"].to_numpy(),
            t["y0"].to_numpy(),
            t["x1"].to_numpy(),
            t["y1"].to_numpy(),
            self.leaf_windows(tid),
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
