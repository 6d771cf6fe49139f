"""Vectorized Douglas-Peucker polyline/ring simplification (K-family).

The classic tolerance-based simplifier, restated for flat Arrow ring
storage: instead of one recursive call per ring, ALL active (start, end)
chord intervals across every ring of a batch advance together each
round — perpendicular distances for every interval's interior points are
computed in one repeat/offset expansion, the per-interval argmax comes
from ``np.maximum.reduceat``, and intervals split or retire in bulk.
Rounds are O(max recursion depth), work per round is one vectorized pass
— no per-point or per-ring Python in the loop.

Guarantee (standard DP): every dropped vertex lies within ``eps`` of the
simplified polyline; chord endpoints are always kept.  Closed rings
(first == last vertex) get the standard ring treatment — the recursion is
seeded with the farthest-from-start vertex as a second anchor (the
first==last chord is a degenerate point and carries no direction), and a
minimum of 4 stored vertices (3 distinct points) is enforced per closed
ring, so no eps can collapse a ring below a triangle: non-degenerate
where the input permits (a ring whose vertices are all collinear has zero
area whatever is kept).
"""

from __future__ import annotations

import numpy as np


def _chord_distances(
    px: np.ndarray, py: np.ndarray, ax, ay, bx, by
) -> np.ndarray:
    """Perpendicular (segment) distance of points to chords, elementwise.
    Degenerate chords (a == b, a closed ring's full loop) fall back to
    point distance."""
    dx = bx - ax
    dy = by - ay
    L2 = dx * dx + dy * dy
    # parameter of the projection clamped to the segment
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(L2 > 0.0, ((px - ax) * dx + (py - ay) * dy) / L2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    qx = ax + t * dx
    qy = ay + t * dy
    return np.hypot(px - qx, py - qy)


def _interval_expand(a: np.ndarray, b: np.ndarray):
    """(seg, idx, bound) expansion of the interior points of intervals
    [a_i+1, b_i): ``seg`` maps each expanded point to its interval, ``idx``
    is its flat index, ``bound`` the reduceat boundaries."""
    counts = b - a - 1
    tot = int(counts.sum())
    seg = np.repeat(np.arange(len(a)), counts)
    pos = np.arange(tot) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(a + 1, counts) + pos
    bound = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return seg, idx, bound


def _first_argmax(d: np.ndarray, dmax: np.ndarray, seg: np.ndarray, idx: np.ndarray, k: int):
    """Per-interval flat index of the FIRST interior point attaining dmax."""
    hit = np.flatnonzero(d == dmax[seg])
    first = np.zeros(k, dtype=np.int64)
    u, fi = np.unique(seg[hit], return_index=True)
    first[u] = idx[hit[fi]]
    return first


def simplify_mask(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray, eps: float
) -> np.ndarray:
    """Boolean keep-mask over the flat vertex storage of many rings
    (``offsets``: int64, one slice [offsets[i], offsets[i+1]) per ring,
    first == last vertex for closed rings)."""
    n = len(flat_x)
    keep = np.zeros(n, dtype=bool)
    starts = offsets[:-1].astype(np.int64)
    ends = (offsets[1:] - 1).astype(np.int64)  # index of the closing vertex
    keep[starts[starts < n]] = True
    keep[ends[ends >= 0]] = True
    has_int = ends - starts > 1
    s_i, e_i = starts[has_int], ends[has_int]
    # closed-ring anchor pass: the first==last chord is a degenerate point,
    # so seed those rings with the farthest-from-start interior vertex as a
    # second anchor (standard ring DP) — the ring's extent then survives
    # ANY eps instead of collapsing to a 2-vertex point
    closed = (flat_x[s_i] == flat_x[e_i]) & (flat_y[s_i] == flat_y[e_i])
    cs, ce = s_i[closed], e_i[closed]
    if len(cs):
        seg, idx, bound = _interval_expand(cs, ce)
        d = np.hypot(flat_x[idx] - flat_x[cs][seg], flat_y[idx] - flat_y[cs][seg])
        dmax = np.maximum.reduceat(d, bound)
        far = _first_argmax(d, dmax, seg, idx, len(cs))
        keep[far] = True
        a = np.concatenate([s_i[~closed], cs, far])
        b = np.concatenate([e_i[~closed], far, ce])
    else:
        a, b = s_i, e_i
    live = b - a > 1
    a, b = a[live], b[live]
    while len(a):
        seg, idx, bound = _interval_expand(a, b)
        d = _chord_distances(
            flat_x[idx], flat_y[idx], flat_x[a][seg], flat_y[a][seg],
            flat_x[b][seg], flat_y[b][seg],
        )
        dmax = np.maximum.reduceat(d, bound)
        first = _first_argmax(d, dmax, seg, idx, len(a))
        split = dmax > eps
        sp = first[split]
        keep[sp] = True
        # each split interval becomes two; the rest retire
        a2 = np.concatenate([a[split], sp])
        b2 = np.concatenate([sp, b[split]])
        inner = b2 - a2 > 1
        a, b = a2[inner], b2[inner]
    # minimum-vertex guarantee: a closed ring that kept only (start, far,
    # closing duplicate) has 2 distinct points and zero area; force-keep the
    # interior vertex farthest from the start–far chord so every surviving
    # closed ring stores >= 4 vertices (a triangle, non-degenerate where the
    # input permits: if every vertex lies on the chord, the area stays 0)
    if len(cs):
        kept_per = np.add.reduceat(keep.astype(np.int64), offsets[:-1])[has_int][closed]
        thin = (kept_per < 4) & (ce - cs >= 3)
        ts, te, tf = cs[thin], ce[thin], far[thin]
        if len(ts):
            seg, idx, bound = _interval_expand(ts, te)
            d = _chord_distances(
                flat_x[idx], flat_y[idx], flat_x[ts][seg], flat_y[ts][seg],
                flat_x[tf][seg], flat_y[tf][seg],
            )
            d[keep[idx]] = -1.0  # never re-pick an already-kept vertex
            dmax = np.maximum.reduceat(d, bound)
            keep[_first_argmax(d, dmax, seg, idx, len(ts))] = True
    return keep


def apply_mask_to_lists(
    flat: np.ndarray, offsets: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(flat values, offsets) of the kept vertices — vectorized rebuild of
    the list column after simplification."""
    new_flat = flat[keep]
    per_ring = np.add.reduceat(keep.astype(np.int64), offsets[:-1]) if len(offsets) > 1 else np.array([], np.int64)
    # reduceat quirk: empty trailing slices repeat the prior value; rings
    # here are never empty (>= 2 kept endpoints), so this is safe
    new_offsets = np.concatenate([[0], np.cumsum(per_ring)]).astype(np.int64)
    return new_flat, new_offsets
