"""Vectorized geometry kernels (SURVEY.md §2.6 K1-K10).

From-scratch numpy implementations of every scalar/geometric function the
reference consumes from the ``geo`` / ``robust`` / ``wide`` crates or
implements in ``src/utils``.  File:line citations point into
``/root/reference`` for parity checking.
"""

from __future__ import annotations

import numpy as np

from geo_polygonize_ray.geom.robust import orient2d_sign_arrays

# ---------------------------------------------------------------------------
# K9: sortable float + Morton (Z-order) interleave — reference src/utils/mod.rs:11-37
# ---------------------------------------------------------------------------


def sortable_float(f: np.ndarray) -> np.ndarray:
    """Map f64 -> u64 preserving total order (reference src/utils/mod.rs:18-25)."""
    bits = np.asarray(f, dtype=np.float64).view(np.uint64)
    neg = (bits & np.uint64(0x8000000000000000)) != 0
    return np.where(neg, ~bits, bits ^ np.uint64(0x8000000000000000))


def part1by1(n: np.ndarray) -> np.ndarray:
    """Interleave lower 32 bits to even positions (reference src/utils/mod.rs:29-37)."""
    n = np.asarray(n, dtype=np.uint64) & np.uint64(0x00000000FFFFFFFF)
    n = (n | (n << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    n = (n | (n << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    n = (n | (n << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    n = (n | (n << np.uint64(2))) & np.uint64(0x3333333333333333)
    n = (n | (n << np.uint64(1))) & np.uint64(0x5555555555555555)
    return n


def z_order_index(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """64-bit Morton code of a 2D f64 coordinate (reference src/utils/mod.rs:11-15).

    NOTE (parity-exact quirk): the reference truncates ``sortable_float`` to
    its *low* 32 bits before interleaving (``part1by1(x as u64)`` masks with
    0xFFFFFFFF), so this is a locality key only, not an injective key.  We
    reproduce it bit-for-bit; the graph build uses the full (x_bits, y_bits)
    pair for exact node identity.
    """
    sx = sortable_float(x)
    sy = sortable_float(y)
    return part1by1(sx) | (part1by1(sy) << np.uint64(1))


# ---------------------------------------------------------------------------
# K1: shoelace signed area — reference src/polygonizer.rs:136 via geo::Area
# ---------------------------------------------------------------------------


def signed_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """Shoelace signed area of a (closed or open) ring; CCW > 0."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 3:
        return 0.0
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    return 0.5 * float(np.sum(xs * y2 - x2 * ys))


def _running_sums(edge_values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-ring sums of per-edge values of flat rings (value i belongs to
    the edge from vertex i to vertex i + 1; the edges between two rings are
    left out), as differences of one running sum over all rings."""
    csum = np.concatenate([[0.0], np.cumsum(edge_values)])
    starts = offsets[:-1]
    ends = np.maximum(offsets[1:] - 1, starts)
    return csum[ends] - csum[starts]


def _ring_sums(edge_values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sums of ``_running_sums``, each over its own ring's values only,
    so a ring's sum is the same bits whatever rings are stored with it (a
    difference of running sums rounds with the rings before it).
    ``bincount`` adds each ring's values in edge order, starting at 0."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    ring = np.repeat(np.arange(n), np.diff(offsets))[:-1]
    between = offsets[1:-1] - 1  # edges from one ring's last vertex to the next's first
    ring[between[between >= 0]] = n
    return np.bincount(ring, weights=edge_values, minlength=n + 1)[:n]


def signed_area_many(flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Shoelace area of many rings stored flat with list offsets (Arrow layout).

    ``offsets`` has length n_rings+1.  Rings are assumed *closed*
    (first == last coordinate), as produced by ring tracing
    (reference src/graph/planar_graph.rs:546-556), so the wrap term is zero.
    """
    flat_x = np.asarray(flat_x, dtype=np.float64)
    flat_y = np.asarray(flat_y, dtype=np.float64)
    cross = flat_x[:-1] * flat_y[1:] - flat_x[1:] * flat_y[:-1]
    return 0.5 * _running_sums(cross, offsets)


# ---------------------------------------------------------------------------
# K2: bounding rect — reference src/polygonizer.rs:22-24
# ---------------------------------------------------------------------------


def bbox(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    return float(np.min(xs)), float(np.min(ys)), float(np.max(xs)), float(np.max(ys))


def bbox_many(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-ring bboxes for flat list layout; returns (minx, miny, maxx, maxy)."""
    flat_x = np.asarray(flat_x, dtype=np.float64)
    flat_y = np.asarray(flat_y, dtype=np.float64)
    n = len(offsets) - 1
    idx = np.repeat(np.arange(n), np.diff(offsets))
    minx = np.full(n, np.inf)
    miny = np.full(n, np.inf)
    maxx = np.full(n, -np.inf)
    maxy = np.full(n, -np.inf)
    np.minimum.at(minx, idx, flat_x)
    np.minimum.at(miny, idx, flat_y)
    np.maximum.at(maxx, idx, flat_x)
    np.maximum.at(maxy, idx, flat_y)
    return minx, miny, maxx, maxy


# ---------------------------------------------------------------------------
# K3: polygon centroid with degenerate fallback — reference src/polygonizer.rs:211-214
# ---------------------------------------------------------------------------


def ring_centroid(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Area-weighted centroid of a closed ring.

    Degenerate (zero-area) rings fall back to the first coordinate, matching
    the reference's ``centroid().unwrap_or(first point)``
    (src/polygonizer.rs:211-214; geo itself falls back for zero-area shapes,
    but such rings are filtered before reaching this point — |area| < 1e-9
    rings are dropped at classification, src/polygonizer.rs:138).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    cross = xs[:-1] * ys[1:] - xs[1:] * ys[:-1]
    a = 0.5 * float(np.sum(cross))
    if a == 0.0:
        return float(xs[0]), float(ys[0])
    cx = float(np.sum((xs[:-1] + xs[1:]) * cross)) / (6.0 * a)
    cy = float(np.sum((ys[:-1] + ys[1:]) * cross)) / (6.0 * a)
    return cx, cy


def ring_centroid_many(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-ring centroids with the first-point degenerate fallback."""
    return _centroids(flat_x, flat_y, offsets, _running_sums)


def ring_centroid_isolated(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``ring_centroid_many`` with each ring's sums over its own edges only:
    the same ring gives the same bits in any tile, whatever else the tile
    traced, which the half-open ownership rule needs to give a centroid on
    a shared tile edge to exactly one tile.  (``ring_centroid_many`` keeps
    its running sums: the emitted centroids are pinned by goldens.)"""
    return _centroids(flat_x, flat_y, offsets, _ring_sums)


def _centroids(flat_x, flat_y, offsets, sums) -> tuple[np.ndarray, np.ndarray]:
    flat_x = np.asarray(flat_x, dtype=np.float64)
    flat_y = np.asarray(flat_y, dtype=np.float64)
    cross = flat_x[:-1] * flat_y[1:] - flat_x[1:] * flat_y[:-1]
    starts = offsets[:-1]
    a2 = sums(cross, offsets)  # 2 * signed area
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = sums((flat_x[:-1] + flat_x[1:]) * cross, offsets) / (3.0 * a2)
        cy = sums((flat_y[:-1] + flat_y[1:]) * cross, offsets) / (3.0 * a2)
    degen = a2 == 0.0
    if degen.any():
        cx = np.where(degen, flat_x[starts], cx)
        cy = np.where(degen, flat_y[starts], cy)
    return cx, cy


# ---------------------------------------------------------------------------
# K5: quadrant classification — reference src/utils/mod.rs:87-95
# ---------------------------------------------------------------------------


def quadrant(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """CCW quadrant from +X axis with the reference's exact boundary rules:
    0: dx>0 & dy>=0 | 1: dx<=0 & dy>0 | 2: dx<0 & dy<=0 | 3: otherwise.
    """
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    q = np.full(dx.shape, 3, dtype=np.uint8)
    q = np.where((dx < 0) & (dy <= 0), 2, q)
    q = np.where((dx <= 0) & (dy > 0), 1, q)
    q = np.where((dx > 0) & (dy >= 0), 0, q)
    return q


def pseudo_angle_within_quadrant(dx: np.ndarray, dy: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Monotone-in-angle key within each quadrant (float approximation).

    Used as a fast vectorized sort key; exact ordering is then certified /
    repaired with the robust orient2d comparator (see local/graph.py), so
    rounding here never changes the final order.
    """
    adx = np.abs(dx)
    ady = np.abs(dy)
    denom = adx + ady
    with np.errstate(divide="ignore", invalid="ignore"):
        t_dy = ady / denom
        t_dx = adx / denom
    t_dy = np.where(denom == 0, 0.0, t_dy)
    t_dx = np.where(denom == 0, 0.0, t_dx)
    # quads 0 and 2 sweep from the x-axis (key grows with |dy| share);
    # quads 1 and 3 sweep from the y-axis (key grows with |dx| share).
    return np.where((q == 0) | (q == 2), t_dy, t_dx)


# ---------------------------------------------------------------------------
# K6: ray-casting point-in-polygon — reference src/utils/simd.rs:31-79
# ---------------------------------------------------------------------------


def points_in_ring(px: np.ndarray, py: np.ndarray, ring_x: np.ndarray, ring_y: np.ndarray) -> np.ndarray:
    """Crossing-parity PIP of many points against one closed ring.

    Same crossing rule (incl. the float division, for bit-parity) as the
    reference's SimdRing::contains (src/utils/simd.rs:70-71):
        (y_i > p_y) != (y_j > p_y)  and  p_x < (x_j-x_i)*(p_y-y_i)/(y_j-y_i) + x_i
    numpy vectorizes across points x segments, wider than the 4-lane SIMD;
    the point axis is chunked so the broadcast temporaries stay cache-sized.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = len(px)
    nseg = len(ring_x) - 1
    if n * nseg > (1 << 16) and n > 8:
        return _points_in_ring_inverted(px, py, ring_x, ring_y)
    xi = np.asarray(ring_x, dtype=np.float64)[None, :-1]
    yi = np.asarray(ring_y, dtype=np.float64)[None, :-1]
    xj = np.asarray(ring_x, dtype=np.float64)[None, 1:]
    yj = np.asarray(ring_y, dtype=np.float64)[None, 1:]
    out = np.empty(n, dtype=bool)
    chunk = max(1, (1 << 20) // max(nseg, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, n, chunk):
            cpx = px[s : s + chunk, None]
            cpy = py[s : s + chunk, None]
            in_range = (yi > cpy) != (yj > cpy)
            ix = (xj - xi) * (cpy - yi) / (yj - yi) + xi
            crossing = in_range & (cpx < ix)
            out[s : s + chunk] = (crossing.sum(axis=1) % 2).astype(bool)
    return out


def _points_in_ring_inverted(px, py, ring_x, ring_y) -> np.ndarray:
    """Segment-major PIP: points sorted by y once, then each segment only
    touches the points inside its y-span (searchsorted range).  Identical
    crossing rule and float math as the dense path; total work is
    sum(points-in-y-span) instead of n_points * n_segments.
    """
    xi = np.asarray(ring_x, dtype=np.float64)[:-1]
    yi = np.asarray(ring_y, dtype=np.float64)[:-1]
    xj = np.asarray(ring_x, dtype=np.float64)[1:]
    yj = np.asarray(ring_y, dtype=np.float64)[1:]
    n = len(px)
    order = np.argsort(py, kind="stable")
    spy = py[order]
    spx = px[order]
    crossings = np.zeros(n, dtype=np.int64)
    # crossing rule (yi > py) != (yj > py) <=> min(yi,yj) <= py < max(yi,yj)
    ylo = np.minimum(yi, yj)
    yhi = np.maximum(yi, yj)
    lo_idx = np.searchsorted(spy, ylo, side="left")
    hi_idx = np.searchsorted(spy, yhi, side="left")
    active = np.flatnonzero(hi_idx > lo_idx)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in active:
            a, b = lo_idx[s], hi_idx[s]
            cpy = spy[a:b]
            ix = (xj[s] - xi[s]) * (cpy - yi[s]) / (yj[s] - yi[s]) + xi[s]
            hit = spx[a:b] < ix
            np.add.at(crossings, order[a:b][hit], 1)
    return (crossings % 2).astype(bool)


def pair_points_in_rings(
    px: np.ndarray,
    py: np.ndarray,
    ring_ids: np.ndarray,
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Batched pairwise PIP: for each i, is point (px[i], py[i]) inside ring
    ``ring_ids[i]`` of the flat ring storage?  One vectorized pass over the
    expanded (pair, segment) table — no per-ring Python.  Crossing rule and
    float math are identical to :func:`points_in_ring` (bit-parity), and the
    per-pair crossing COUNT is order-independent, so results match exactly.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    rid = np.asarray(ring_ids, dtype=np.int64)
    n = len(rid)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    starts = offsets[rid]
    nseg = (offsets[rid + 1] - starts - 1).astype(np.int64)
    nseg = np.maximum(nseg, 0)

    # HEAVY rings (many points against one big ring, e.g. a grid outline
    # versus every interior hole) route through points_in_ring, whose
    # y-span inverted path does sum(points-in-span) work instead of
    # points x segments; the remaining light pairs run batched below.
    uniq, inv, counts = np.unique(rid, return_inverse=True, return_counts=True)
    u_nseg = offsets[uniq + 1] - offsets[uniq] - 1
    heavy = (counts > 8) & (counts * np.maximum(u_nseg, 0) > (1 << 16))
    if heavy.any():
        light_mask = ~heavy[inv]
        for u in np.flatnonzero(heavy):
            sel = np.flatnonzero(inv == u)
            s, e = offsets[uniq[u]], offsets[uniq[u] + 1]
            out[sel] = points_in_ring(px[sel], py[sel], flat_x[s:e], flat_y[s:e])
        if not light_mask.any():
            return out
        sub = np.flatnonzero(light_mask)
        out[sub] = pair_points_in_rings(px[sub], py[sub], rid[sub], flat_x, flat_y, offsets)
        return out
    # chunk over pairs so the expanded table stays cache/memory-bounded
    csum = np.cumsum(nseg)
    limit = 1 << 22
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < n:
            hi = int(np.searchsorted(csum, (csum[lo - 1] if lo else 0) + limit, side="right")) + 1
            hi = max(lo + 1, min(hi, n))
            seg = nseg[lo:hi]
            tot = int(seg.sum())
            if tot == 0:
                lo = hi
                continue
            prep = np.repeat(np.arange(lo, hi), seg)
            pos = np.arange(tot) - np.repeat(np.cumsum(seg) - seg, seg)
            base = np.repeat(starts[lo:hi], seg) + pos
            xi = flat_x[base]
            yi = flat_y[base]
            xj = flat_x[base + 1]
            yj = flat_y[base + 1]
            cpx = px[prep]
            cpy = py[prep]
            in_range = (yi > cpy) != (yj > cpy)
            ix = (xj - xi) * (cpy - yi) / (yj - yi) + xi
            crossing = in_range & (cpx < ix)
            cnt = np.bincount(prep[crossing] - lo, minlength=hi - lo)
            out[lo:hi] = (cnt % 2).astype(bool)
            lo = hi
    return out


def point_in_ring(px: float, py: float, ring_x: np.ndarray, ring_y: np.ndarray) -> bool:
    return bool(points_in_ring(np.array([px]), np.array([py]), ring_x, ring_y)[0])


# ---------------------------------------------------------------------------
# M4: snap-to-grid — reference src/noding/snap.rs:109-115
# ---------------------------------------------------------------------------


def snap_to_grid(c: np.ndarray, grid_size: float) -> np.ndarray:
    """(c / grid).round() * grid; identity for grid 0 (src/noding/snap.rs:110).

    numpy rounds half-to-even while Rust f64::round rounds half-away-from-zero;
    replicate Rust exactly via floor(x + 0.5) on the magnitude.
    """
    if grid_size == 0.0:
        return np.asarray(c, dtype=np.float64)
    q = np.asarray(c, dtype=np.float64) / grid_size
    r = np.sign(q) * np.floor(np.abs(q) + 0.5)
    return r * grid_size


def explode_index(
    offsets: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Segment explode over flat linestring storage (src/polygonizer.rs:86-100):
    the flat index of every segment's first point (its second point is the
    next index), each linestring's consecutive pairs in order, plus the
    per-linestring segment counts.  ``rows`` picks and orders the
    linestrings (default: all, in storage order)."""
    starts, ends = offsets[:-1], offsets[1:]
    if rows is not None:
        starts, ends = starts[rows], ends[rows]
    nseg = np.maximum(ends - starts - 1, 0)
    pos = np.arange(int(nseg.sum())) - np.repeat(np.cumsum(nseg) - nseg, nseg)
    return np.repeat(starts, nseg) + pos, nseg


# ---------------------------------------------------------------------------
# K7: segment x segment intersection (proper + collinear overlap)
# geo::line_intersection semantics as consumed at src/noding/snap.rs:140-167
# ---------------------------------------------------------------------------

def clip_segments_to_rect(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    rect: tuple,
    return_mask: bool = False,
) -> tuple:
    """Liang-Barsky clip of a segment soup to a closed rectangle, vectorized.

    Used per tile to bound noding/tracing work by the LOCAL window instead of
    the global extent of duplicated lines: faces fully inside the window are
    unaffected (all their linework and intersections are local — same
    soundness argument as stages/stitch.py), and faces touching the clip
    boundary were never owned/trusted by this tile anyway.

    ``rect`` entries may be scalars (one window) or per-segment arrays (each
    segment clipped to its own window — the map-side pre-shuffle clip);
    the float math is identical either way.  ``return_mask=True`` appends
    the kept-row index array so callers can filter parallel columns.
    """
    rx0, ry0, rx1, ry1 = rect
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    dx = x1 - x0
    dy = y1 - y0
    t0 = np.zeros(len(x0))
    t1 = np.ones(len(x0))
    ok = np.ones(len(x0), dtype=bool)
    for p, q in (
        (-dx, x0 - rx0),
        (dx, rx1 - x0),
        (-dy, y0 - ry0),
        (dy, ry1 - y0),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = q / p
        par_out = (p == 0) & (q < 0)  # parallel and outside
        ok &= ~par_out
        ent = p < 0  # entering
        t0 = np.where(ent & ~par_out, np.maximum(t0, r), t0)
        t1 = np.where((p > 0) & ~par_out, np.minimum(t1, r), t1)
    ok &= t0 <= t1
    cx0 = np.where(t0 > 0, x0 + t0 * dx, x0)
    cy0 = np.where(t0 > 0, y0 + t0 * dy, y0)
    cx1 = np.where(t1 < 1, x0 + t1 * dx, x1)
    cy1 = np.where(t1 < 1, y0 + t1 * dy, y1)
    if return_mask:
        return cx0[ok], cy0[ok], cx1[ok], cy1[ok], np.flatnonzero(ok)
    return cx0[ok], cy0[ok], cx1[ok], cy1[ok]


# classification codes
NO_INTERSECTION = 0
SINGLE_POINT = 1
COLLINEAR_OVERLAP = 2


def segment_intersections(
    p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pairwise segment intersection, robust classification.

    Inputs are equal-length arrays of candidate pairs (segment P = p1-p2,
    segment Q = q1-q2).  Returns (kind, ax, ay, bx, by):
      kind == SINGLE_POINT      -> (ax, ay) is the intersection point
      kind == COLLINEAR_OVERLAP -> (ax,ay)-(bx,by) is the overlap interval
      kind == NO_INTERSECTION   -> coords are NaN

    Orientation classification uses the robust predicate (exact where the
    float filter is uncertain) so the *kind* is always correct; the proper
    intersection point itself is computed in float (the caller snaps it to
    the noding grid, reference src/noding/snap.rs:143, which absorbs last-ulp
    differences vs geo's normalized formula).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y)]
    p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y = arrays
    n = len(p1x)
    kind = np.zeros(n, dtype=np.int8)
    ax = np.full(n, np.nan)
    ay = np.full(n, np.nan)
    bx = np.full(n, np.nan)
    by = np.full(n, np.nan)
    if n == 0:
        return kind, ax, ay, bx, by

    # signs of q-endpoints wrt line P and p-endpoints wrt line Q;
    # orient2d(a,b,c) = cross(a-c, b-c) = cross(b-a, c-a), i.e. which side of
    # ray a->b the point c lies on (+1 = left).
    s_q1 = orient2d_sign_arrays(p1x, p1y, p2x, p2y, q1x, q1y)
    s_q2 = orient2d_sign_arrays(p1x, p1y, p2x, p2y, q2x, q2y)
    s_p1 = orient2d_sign_arrays(q1x, q1y, q2x, q2y, p1x, p1y)
    s_p2 = orient2d_sign_arrays(q1x, q1y, q2x, q2y, p2x, p2y)

    disjoint = ((s_q1 == s_q2) & (s_q1 != 0)) | ((s_p1 == s_p2) & (s_p1 != 0))
    collinear = (s_q1 == 0) & (s_q2 == 0) & (s_p1 == 0) & (s_p2 == 0)

    # --- collinear: overlap interval on the dominant axis ---
    if collinear.any():
        ci = np.flatnonzero(collinear)
        use_x = np.abs(p2x[ci] - p1x[ci]) >= np.abs(p2y[ci] - p1y[ci])
        # parameterize by the dominant coordinate
        pc_lo = np.where(use_x, np.minimum(p1x[ci], p2x[ci]), np.minimum(p1y[ci], p2y[ci]))
        pc_hi = np.where(use_x, np.maximum(p1x[ci], p2x[ci]), np.maximum(p1y[ci], p2y[ci]))
        qc_lo = np.where(use_x, np.minimum(q1x[ci], q2x[ci]), np.minimum(q1y[ci], q2y[ci]))
        qc_hi = np.where(use_x, np.maximum(q1x[ci], q2x[ci]), np.maximum(q1y[ci], q2y[ci]))
        lo = np.maximum(pc_lo, qc_lo)
        hi = np.minimum(pc_hi, qc_hi)
        overlap = lo <= hi
        # recover the actual endpoints whose dominant coordinate equals lo/hi:
        # candidates are the 4 endpoints; pick the one matching each bound.
        ex = np.stack([p1x[ci], p2x[ci], q1x[ci], q2x[ci]], axis=1)
        ey = np.stack([p1y[ci], p2y[ci], q1y[ci], q2y[ci]], axis=1)
        ec = np.where(use_x[:, None], ex, ey)
        lo_pick = np.argmax(ec == lo[:, None], axis=1)
        hi_pick = np.argmax(ec == hi[:, None], axis=1)
        rows = np.arange(len(ci))
        lax, lay = ex[rows, lo_pick], ey[rows, lo_pick]
        hbx, hby = ex[rows, hi_pick], ey[rows, hi_pick]
        same = (lax == hbx) & (lay == hby)
        sel = ci[overlap & ~same]
        kind[sel] = COLLINEAR_OVERLAP
        ax[sel] = lax[overlap & ~same]
        ay[sel] = lay[overlap & ~same]
        bx[sel] = hbx[overlap & ~same]
        by[sel] = hby[overlap & ~same]
        selp = ci[overlap & same]
        kind[selp] = SINGLE_POINT
        ax[selp] = lax[overlap & same]
        ay[selp] = lay[overlap & same]

    # --- improper single point: an endpoint lies on the other segment ---
    touching = ~disjoint & ~collinear
    if touching.any():
        ti = np.flatnonzero(touching)
        # priority order mirrors "the intersection is the on-line endpoint"
        tz_q1 = s_q1[ti] == 0
        tz_q2 = s_q2[ti] == 0
        tz_p1 = s_p1[ti] == 0
        tz_p2 = s_p2[ti] == 0
        improper = tz_q1 | tz_q2 | tz_p1 | tz_p2
        ii = ti[improper]
        if len(ii):
            ptx = np.where(
                s_q1[ii] == 0,
                q1x[ii],
                np.where(s_q2[ii] == 0, q2x[ii], np.where(s_p1[ii] == 0, p1x[ii], p2x[ii])),
            )
            pty = np.where(
                s_q1[ii] == 0,
                q1y[ii],
                np.where(s_q2[ii] == 0, q2y[ii], np.where(s_p1[ii] == 0, p1y[ii], p2y[ii])),
            )
            kind[ii] = SINGLE_POINT
            ax[ii] = ptx
            ay[ii] = pty
        # --- proper crossing ---
        pi = ti[~improper]
        if len(pi):
            rpx = p2x[pi] - p1x[pi]
            rpy = p2y[pi] - p1y[pi]
            rqx = q2x[pi] - q1x[pi]
            rqy = q2y[pi] - q1y[pi]
            denom = rpx * rqy - rpy * rqx
            t = ((q1x[pi] - p1x[pi]) * rqy - (q1y[pi] - p1y[pi]) * rqx) / denom
            kind[pi] = SINGLE_POINT
            ax[pi] = p1x[pi] + t * rpx
            ay[pi] = p1y[pi] + t * rpy

    return kind, ax, ay, bx, by
