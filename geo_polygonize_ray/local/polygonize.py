"""Single-cell polygonizer kernel (reference src/polygonizer.rs, all 8 phases).

``polygonize_soup`` is the engine's one per-cell phase sequence.  Every
caller that wants polygons runs it on one cell's segment soup, entirely in
numpy, mirroring src/polygonizer.rs:112-262: the exchange reduce tasks
(stages/trace.TilePolygonizer, which also serves the in-process fast path)
and the convenience API ``polygonize_lines``.

  1. [node] snap, canonicalize + dedup, split to fixpoint (SnapNoder)
  2. build graph + angular sort    5. classify shells/holes (signed area)
  3. prune dangles                 6. promote twin-less CW rings to shells
  4. trace edge rings              7. assign holes to min-area containing shell
                                   8. assemble + sliver filter [+ ownership]

Its output is ``assemble_flat``'s flat dict (values + offsets, Arrow-ready);
``Polygon`` is a view over it (``polygon_views``) for GeoJSON, the
convenience API and tests.  The escalation tracer (stages/stitch.py) runs
it too, asking for the unowned shells and the traced graph
(``with_unowned``); the image round trip (pipelines/images.py) keeps its
own sequence, rasterizing the traced rings before assembling them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from geo_polygonize_ray.geom.kernels import (
    explode_index,
    pair_points_in_rings,
    ring_centroid_isolated,
    ring_centroid_many,
    signed_area,
    signed_area_many,
    bbox_many,
)
from geo_polygonize_ray.local.graph import PlanarGraph
from geo_polygonize_ray.local.noding import SnapNoder


@dataclass
class Polygon:
    """One assembled polygon: a closed shell ring and closed hole rings,
    each a slice of the flat assembly arrays (``polygon_views``)."""

    shell_x: np.ndarray
    shell_y: np.ndarray
    holes_x: list[np.ndarray] = field(default_factory=list)
    holes_y: list[np.ndarray] = field(default_factory=list)

    @property
    def area(self) -> float:
        """Unsigned area of shell minus holes (geo::Area on Polygon with
        CW-wound interiors, as used at src/polygonizer.rs:256)."""
        a = signed_area(self.shell_x[:-1], self.shell_y[:-1])
        for hx, hy in zip(self.holes_x, self.holes_y):
            a += signed_area(hx[:-1], hy[:-1])  # holes traced CW -> negative
        return abs(a)


def polygon_views(flat: dict) -> list[Polygon]:
    """Polygons over ``assemble_flat``-layout arrays, in output order; every
    ring is a slice of the flat values (offsets may be absolute, as in an
    Arrow list column's buffers)."""
    sx, sy = flat["shell_values_x"], flat["shell_values_y"]
    hx, hy = flat["hole_values_x"], flat["hole_values_y"]
    so = flat["shell_offsets"].tolist()
    hr = flat["hole_ring_offsets"].tolist()
    ph = flat["poly_hole_offsets"].tolist()
    out = []
    for i in range(len(so) - 1):
        holes = range(ph[i], ph[i + 1])
        out.append(
            Polygon(
                sx[so[i] : so[i + 1]],
                sy[so[i] : so[i + 1]],
                [hx[hr[j] : hr[j + 1]] for j in holes],
                [hy[hr[j] : hr[j + 1]] for j in holes],
            )
        )
    return out


def polygonize_lines(
    lines: list[np.ndarray],
    node_input: bool = False,
    snap_grid_size: float = 1e-10,
    max_noding_iters: int = 10,
) -> list[Polygon]:
    """Convenience API (reference ``Polygonizer``, src/polygonizer.rs:27-54):
    (N, 2) linestrings -> one ``polygonize_soup`` cell -> Polygon views.
    Polygon rings are passed as linework (extract_lines semantics,
    src/polygonizer.rs:265-288)."""
    pts = [np.asarray(ls, dtype=np.float64).reshape(-1, 2) for ls in lines]
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in pts])]).astype(np.int64)
    xy = np.concatenate(pts) if pts else np.empty((0, 2))
    i, _ = explode_index(offsets)
    flat = polygonize_soup(
        xy[i, 0], xy[i, 1], xy[i + 1, 0], xy[i + 1, 1],
        node_input=node_input,
        snap_grid_size=snap_grid_size,
        max_noding_iters=max_noding_iters,
    )
    return polygon_views(flat)


def polygonize_soup(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    *,
    node_input: bool = False,
    snap_grid_size: float = 1e-10,
    max_noding_iters: int = 10,
    owner_rect: tuple[float, float, float, float] | None = None,
    with_unowned: bool = False,
) -> dict[str, np.ndarray]:
    """Phases 1-8 over one cell's segment soup -> ``assemble_flat`` dict.
    ``node_input`` runs the snap noder first (the reference's node_input;
    without it the soup must already be noded); ``owner_rect`` applies the
    tiling sliver + centroid-ownership filter.  ``with_unowned`` (with an
    ``owner_rect``) adds ``assemble_flat``'s unowned extras and ``graph``,
    the traced ``PlanarGraph`` (pruned edges, ring of each half-edge): the
    escalation's evidence (stages/stitch.py)."""
    if node_input:
        x0, y0, x1, y1 = SnapNoder(snap_grid_size, max_noding_iters).node(x0, y0, x1, y1)
    graph = _pruned_graph(x0, y0, x1, y1)
    flat = assemble_flat(
        *graph.get_edge_rings(), owner_rect=owner_rect, with_unowned=with_unowned
    )
    if with_unowned:
        flat["graph"] = graph
    return flat


def _pruned_graph(x0, y0, x1, y1) -> PlanarGraph:
    """Phases 2-3 over an already-noded segment soup: build graph, angular
    sort, prune dangles."""
    graph = PlanarGraph(x0, y0, x1, y1)
    graph.sort_edges()
    graph.prune_dangles()
    return graph


def trace_rings(x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phases 2-4 over an already-noded segment soup: build graph, angular
    sort, prune dangles, trace edge rings.  Returns the flat ring layout."""
    return _pruned_graph(x0, y0, x1, y1).get_edge_rings()


def _assemble_core(flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray):
    """Phases 5-7 of ``assemble_flat``: classify, promote, assign holes.

    Exact reference semantics:
      * |area| < 1e-9 rings dropped as degenerate   (src/polygonizer.rs:138)
      * CCW -> shell, CW -> hole                     (src/polygonizer.rs:142-148)
      * CW ring promoted to (CCW-rewound) shell iff no CCW shell with
        |area diff| < 1e-6 AND bit-identical bbox    (src/polygonizer.rs:151-185)
      * every hole assigned to the minimum-area shell that PIP-contains its
      centroid and has area > hole_area + 1e-6       (src/polygonizer.rs:199-249)

    Returns (shells, n_orig, shell_areas, hole_ids, assigned, areas,
    cx_all, cy_all, ring_bbox) where ``assigned[i]`` is the shell index
    owning hole i (or -1) and ``ring_bbox`` is the per-ring
    (minx, miny, maxx, maxy) arrays.
    """
    areas = signed_area_many(flat_x, flat_y, offsets)
    keep = np.abs(areas) >= 1e-9
    shell_ids = np.flatnonzero(keep & (areas > 0))
    hole_ids = np.flatnonzero(keep & (areas < 0))

    minx, miny, maxx, maxy = bbox_many(flat_x, flat_y, offsets)

    # --- promotion anti-join (src/polygonizer.rs:151-185) ------------------
    # keyed scan instead of the reference's O(H*S) loop.  A twin shares its
    # hole's exact bbox, so only shells whose minx occurs among the holes'
    # and holes whose minx occurs among those shells can pair up; those
    # are grouped by bit-exact bbox (lexsort + adjacent-compare, no Python
    # dict), and the 1e-6 area check runs vectorized per bbox group.
    has_twin = np.zeros(len(hole_ids), dtype=bool)
    if len(shell_ids) and len(hole_ids):
        s_cand, h_cand = _shared_values(minx[shell_ids], minx[hole_ids])
        hc = np.flatnonzero(h_cand)
        if len(hc):
            has_twin[hc] = _twins(
                shell_ids[s_cand], hole_ids[hc], areas, minx, miny, maxx, maxy
            )
    promoted = hole_ids[~has_twin]
    shells = np.concatenate([shell_ids, promoted.astype(np.int64)]).astype(np.int64)
    n_orig = len(shell_ids)

    shell_areas = np.abs(areas[shells])

    # --- hole assignment (src/polygonizer.rs:199-249), fully batched -------
    # Equivalent restatement of "min-area shell that PIP-contains the hole
    # centroid and has area > hole_area + 1e-6": gather ALL area+bbox
    # eligible (shell, hole) candidate pairs from a uniform bucket grid over
    # the hole centroids (the R-tree envelope query's role), test them with
    # ONE batched pairwise PIP, then give each hole the min-area hit
    # (ties broken by ascending-area stable scan order, exactly like the
    # sequential first-hit formulation this replaces).  Zero per-shell
    # Python in the hot path.
    cx_all, cy_all = ring_centroid_many(flat_x, flat_y, offsets)
    n_h = len(hole_ids)
    assigned = np.full(n_h, -1, dtype=np.int64)
    if n_h:
        h_area = np.abs(areas[hole_ids])
        h_cx = cx_all[hole_ids]
        h_cy = cy_all[hole_ids]
        sorted_h_area = np.sort(h_area, kind="stable")

        # bucket grid over hole centroids
        gx0, gy0 = float(h_cx.min()), float(h_cy.min())
        gx1, gy1 = float(h_cx.max()), float(h_cy.max())
        B = max(1, int(np.sqrt(n_h)))
        bw = (gx1 - gx0) / B or 1.0
        bh = (gy1 - gy0) / B or 1.0
        hbx = np.clip(((h_cx - gx0) / bw).astype(np.int64), 0, B - 1)
        hby = np.clip(((h_cy - gy0) / bh).astype(np.int64), 0, B - 1)
        hbucket = hby * B + hbx
        border = np.argsort(hbucket, kind="stable")
        sorted_bucket = hbucket[border]

        # vectorized per-shell precompute: area short-circuit + bucket ranges
        n_s = len(shells)
        s_minx = minx[shells]
        s_miny = miny[shells]
        s_maxx = maxx[shells]
        s_maxy = maxy[shells]
        has_elig = np.searchsorted(sorted_h_area, shell_areas - 1e-6, side="left") > 0
        overlaps = ~((s_maxx < gx0) | (s_minx > gx1) | (s_maxy < gy0) | (s_miny > gy1))
        sbx0 = np.clip(np.floor((s_minx - gx0) / bw), 0, B - 1).astype(np.int64)
        sbx1 = np.clip(np.floor((s_maxx - gx0) / bw), 0, B - 1).astype(np.int64)
        sby0 = np.clip(np.floor((s_miny - gy0) / bh), 0, B - 1).astype(np.int64)
        sby1 = np.clip(np.floor((s_maxy - gy0) / bh), 0, B - 1).astype(np.int64)

        rank = np.empty(n_s, dtype=np.int64)
        area_order = np.argsort(shell_areas, kind="stable")
        rank[area_order] = np.arange(n_s)
        sel = area_order[has_elig[area_order] & overlaps[area_order]]
        # chunks of ascending-area shells: vectorized within a chunk, and
        # holes assigned by earlier (smaller) chunks prune later (bigger)
        # shells' candidate pairs — without this, the largest shells (whose
        # bboxes cover everything) would be PIP-tested against every hole
        CHUNK = 1024
        for c0 in range(0, len(sel), CHUNK):
            csel = sel[c0 : c0 + CHUNK]
            nrows = (sby1[csel] - sby0[csel] + 1).astype(np.int64)
            sr_shell = np.repeat(csel, nrows)
            row_pos = np.arange(int(nrows.sum())) - np.repeat(np.cumsum(nrows) - nrows, nrows)
            rowv = sby0[sr_shell] + row_pos
            a = np.searchsorted(sorted_bucket, rowv * B + sbx0[sr_shell], side="left")
            b = np.searchsorted(sorted_bucket, rowv * B + sbx1[sr_shell], side="right")
            cnt = (b - a).astype(np.int64)
            tot = int(cnt.sum())
            if not tot:
                continue
            prep = np.repeat(np.arange(len(a)), cnt)
            ppos = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            hidx = border[np.repeat(a, cnt) + ppos]
            sidx = sr_shell[prep]
            m = (
                (assigned[hidx] == -1)
                & (h_area[hidx] < shell_areas[sidx] - 1e-6)
                & (h_cx[hidx] >= s_minx[sidx])
                & (h_cx[hidx] <= s_maxx[sidx])
                & (h_cy[hidx] >= s_miny[sidx])
                & (h_cy[hidx] <= s_maxy[sidx])
            )
            hidx, sidx = hidx[m], sidx[m]
            if not len(hidx):
                continue
            inside = pair_points_in_rings(
                h_cx[hidx], h_cy[hidx], shells[sidx], flat_x, flat_y, offsets
            )
            hidx, sidx = hidx[inside], sidx[inside]
            if not len(hidx):
                continue
            # min-area winner per hole within the chunk; tie-break =
            # position in the stable ascending-area shell order (exactly
            # the sequential first-hit scan's behavior)
            order2 = np.lexsort((rank[sidx], hidx))
            hs, ss = hidx[order2], sidx[order2]
            first = np.concatenate([[True], hs[1:] != hs[:-1]])
            assigned[hs[first]] = ss[first]

    return (
        shells, n_orig, shell_areas, hole_ids, assigned, areas, cx_all, cy_all,
        (minx, miny, maxx, maxy),
    )


def _shared_values(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the elements of ``a`` whose value occurs in ``b`` and of
    ``b`` whose value occurs in ``a`` (``np.isin`` both ways), from one
    sort of the shorter array."""
    if len(a) > len(b):
        in_a, in_b = _shared_values(b, a)
        return in_b, in_a
    order = np.argsort(a)
    sa = a[order]
    i = np.minimum(np.searchsorted(sa, b), len(sa) - 1)
    b_in = sa[i] == b
    # searchsorted finds the first of a run of equal values: mark the runs
    run = np.cumsum(np.concatenate([[True], sa[1:] != sa[:-1]])) - 1
    hit = np.zeros(run[-1] + 1, dtype=bool)
    hit[run[i[b_in]]] = True
    a_in = np.empty(len(a), dtype=bool)
    a_in[order] = hit[run]
    return a_in, b_in


def _twins(shell_ids, hole_ids, areas, minx, miny, maxx, maxy) -> np.ndarray:
    """Per hole: does a shell with the bit-identical bbox and an absolute
    area within 1e-6 exist (the reference's twin test)?"""
    sb = np.stack([minx[shell_ids], miny[shell_ids], maxx[shell_ids], maxy[shell_ids]], axis=1)
    hb = np.stack([minx[hole_ids], miny[hole_ids], maxx[hole_ids], maxy[hole_ids]], axis=1)
    both = np.concatenate([sb, hb])
    order = np.lexsort((both[:, 3], both[:, 2], both[:, 1], both[:, 0]))
    sb_sorted = both[order]
    new_grp = np.concatenate([[True], np.any(sb_sorted[1:] != sb_sorted[:-1], axis=1)])
    gid = np.empty(len(both), dtype=np.int64)
    gid[order] = np.cumsum(new_grp) - 1
    g_shell = gid[: len(sb)]
    g_hole = gid[len(sb):]
    cand = np.isin(g_hole, g_shell)  # holes sharing a shell's exact bbox
    has_twin = np.zeros(len(hole_ids), dtype=bool)
    if cand.any():
        # per candidate (hole, shell) pair in the same bbox group:
        # twin iff | |area_s| - |area_h| | < 1e-6
        so = np.argsort(g_shell, kind="stable")
        gs, sa = g_shell[so], np.abs(areas[shell_ids])[so]
        ch = np.flatnonzero(cand)
        lo = np.searchsorted(gs, g_hole[ch], side="left")
        hi = np.searchsorted(gs, g_hole[ch], side="right")
        cnt = hi - lo
        rep = np.repeat(np.arange(len(ch)), cnt)
        pos = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        match = np.abs(sa[np.repeat(lo, cnt) + pos] - np.abs(areas[hole_ids[ch]])[rep]) < 1e-6
        hit = np.zeros(len(ch), dtype=bool)
        np.logical_or.at(hit, rep, match)
        has_twin[ch] = hit
    return has_twin


def assemble_flat(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    offsets: np.ndarray,
    owner_rect: tuple[float, float, float, float] | None = None,
    with_unowned: bool = False,
) -> dict[str, np.ndarray]:
    """Phases 5-8 as flat numpy arrays (Arrow-ready, zero per-polygon Python).

    Output dict: shell_values_x/y + shell_offsets (one ring per polygon),
    hole_values_x/y + hole_ring_offsets + poly_hole_offsets (list<list>),
    area (residual), cx, cy (shell-ring centroid), n_holes.

    ``owner_rect`` applies the tiling sliver + half-open [min,max)
    centroid-ownership filter (src/tiling.rs:95-106); ownership and the
    emitted cx/cy use the polygon centroid INCLUDING holes (geo's
    ``poly.centroid()`` semantics, src/tiling.rs:90).

    ``with_unowned`` (escalation support, stages/stitch.py): additionally
    return ``unowned_cx/unowned_cy/unowned_bbox`` for polygons that passed
    the sliver filter but failed the ownership test — the tracing tile uses
    these to route escalation to the centroid-owner tile.  Also always
    returns ``owned_bbox`` (shell ring bbox per KEPT polygon) when set, and
    ``owned_ccw``/``unowned_ccw``: whether each shell is a traced CCW ring
    (the outer ring of a connected piece) rather than a promoted face ring.
    """
    empty = dict(
        shell_values_x=np.empty(0),
        shell_values_y=np.empty(0),
        shell_offsets=np.zeros(1, dtype=np.int64),
        hole_values_x=np.empty(0),
        hole_values_y=np.empty(0),
        hole_ring_offsets=np.zeros(1, dtype=np.int64),
        poly_hole_offsets=np.zeros(1, dtype=np.int64),
        area=np.empty(0),
        cx=np.empty(0),
        cy=np.empty(0),
        n_holes=np.empty(0, dtype=np.int64),
    )
    if with_unowned:
        empty.update(
            unowned_cx=np.empty(0),
            unowned_cy=np.empty(0),
            unowned_bbox=np.empty((0, 4)),
            owned_bbox=np.empty((0, 4)),
            unowned_ccw=np.empty(0, dtype=bool),
            owned_ccw=np.empty(0, dtype=bool),
        )
    if len(offsets) - 1 == 0:
        return empty
    (
        shells, n_orig, shell_areas, hole_ids, assigned, areas, cx_all, cy_all,
        (r_minx, r_miny, r_maxx, r_maxy),
    ) = _assemble_core(flat_x, flat_y, offsets)
    n_s = len(shells)
    if n_s == 0:
        return empty

    # residual area per shell (scatter-subtract assigned hole areas)
    residual = shell_areas.copy()
    valid_h = assigned >= 0
    if valid_h.any():
        np.subtract.at(residual, assigned[valid_h], np.abs(areas[hole_ids[valid_h]]))

    keep = np.abs(residual) > 1e-6  # src/polygonizer.rs:256

    # polygon centroid INCLUDING holes (geo parity, used for ownership at
    # src/tiling.rs:90): subtract hole first-moments from the shell's
    m_x = cx_all[shells] * shell_areas
    m_y = cy_all[shells] * shell_areas
    if valid_h.any():
        h_rids = hole_ids[valid_h]
        ha = np.abs(areas[h_rids])
        np.subtract.at(m_x, assigned[valid_h], cx_all[h_rids] * ha)
        np.subtract.at(m_y, assigned[valid_h], cy_all[h_rids] * ha)
    safe = np.where(residual != 0.0, residual, 1.0)
    s_cx = np.where(residual != 0.0, m_x / safe, cx_all[shells])
    s_cy = np.where(residual != 0.0, m_y / safe, cy_all[shells])
    # OWNERSHIP anchor = the SHELL ring centroid, not the hole-inclusive
    # centroid above.  The min-area hole-assignment rule can attach a ring
    # that is not geometrically inside the shell (pinned reference
    # semantics), making the hole-inclusive point land arbitrarily far
    # outside the shell bbox — outside EVERY tile, so no tile owns the
    # polygon and it silently vanishes from distributed output (found on
    # the 1024-image mosaic: net area 104 with an 836/732 shell/"hole"
    # pair put the anchor at x=-94).  The shell ring centroid lies in the
    # ring's convex hull (inside the traced window by the buffer contract)
    # and is bit-deterministic across tiles because rings always start at
    # their canonical minimal edge and ring_centroid_isolated sums each
    # ring over its own edges only.  Emitted cx/cy keep geo parity.
    if owner_rect is not None:
        own_cx, own_cy = ring_centroid_isolated(flat_x, flat_y, offsets)
        own_cx, own_cy = own_cx[shells], own_cy[shells]
        tx0, ty0, tx1, ty1 = owner_rect
        owned = (own_cx >= tx0) & (own_cx < tx1) & (own_cy >= ty0) & (own_cy < ty1)
        if with_unowned:
            un = np.flatnonzero(keep & ~owned)
            un_rids = shells[un]
            empty["unowned_cx"] = own_cx[un]
            empty["unowned_cy"] = own_cy[un]
            empty["unowned_bbox"] = np.stack(
                [r_minx[un_rids], r_miny[un_rids], r_maxx[un_rids], r_maxy[un_rids]], axis=1
            )
            empty["unowned_ccw"] = un < n_orig
        keep &= owned

    kept_idx = np.flatnonzero(keep)
    n_p = len(kept_idx)
    if n_p == 0:
        return empty
    rids = shells[kept_idx]
    if with_unowned:
        empty["owned_bbox"] = np.stack(
            [r_minx[rids], r_miny[rids], r_maxx[rids], r_maxy[rids]], axis=1
        )
        empty["owned_ccw"] = kept_idx < n_orig

    # --- shell coords gather (promoted rings reversed, vectorized) ---------
    starts = offsets[rids]
    ends = offsets[rids + 1]
    lens = ends - starts
    shell_offsets = np.concatenate([[0], np.cumsum(lens)])
    promoted_mask = kept_idx >= n_orig
    base = np.where(promoted_mask, ends - 1, starts)
    step = np.where(promoted_mask, -1, 1)
    pos = np.arange(shell_offsets[-1]) - np.repeat(shell_offsets[:-1], lens)
    gather = np.repeat(base, lens) + np.repeat(step, lens) * pos
    shell_vx = flat_x[gather]
    shell_vy = flat_y[gather]

    # --- holes (grouped by owning kept polygon, vectorized) ----------------
    # map shell index -> kept polygon position (-1 when dropped: its holes
    # vanish with it, matching the reference's dropped-polygon behavior)
    shell_to_poly = np.full(n_s, -1, dtype=np.int64)
    shell_to_poly[kept_idx] = np.arange(n_p)
    h_poly = np.where(valid_h, shell_to_poly[np.where(valid_h, assigned, 0)], -1)
    hv = np.flatnonzero(h_poly >= 0)
    if len(hv):
        h_order = hv[np.argsort(h_poly[hv], kind="stable")]
        h_rids = hole_ids[h_order]
        h_starts = offsets[h_rids]
        h_lens = offsets[h_rids + 1] - h_starts
        hole_ring_offsets = np.concatenate([[0], np.cumsum(h_lens)])
        h_pos = np.arange(hole_ring_offsets[-1]) - np.repeat(hole_ring_offsets[:-1], h_lens)
        h_gather = np.repeat(h_starts, h_lens) + h_pos
        hole_vx = flat_x[h_gather]
        hole_vy = flat_y[h_gather]
        n_holes = np.bincount(h_poly[hv], minlength=n_p).astype(np.int64)
        poly_hole_offsets = np.concatenate([[0], np.cumsum(n_holes)])
    else:
        hole_vx = np.empty(0)
        hole_vy = np.empty(0)
        hole_ring_offsets = np.zeros(1, dtype=np.int64)
        n_holes = np.zeros(n_p, dtype=np.int64)
        poly_hole_offsets = np.zeros(n_p + 1, dtype=np.int64)

    out = dict(
        shell_values_x=shell_vx,
        shell_values_y=shell_vy,
        shell_offsets=shell_offsets.astype(np.int64),
        hole_values_x=hole_vx,
        hole_values_y=hole_vy,
        hole_ring_offsets=hole_ring_offsets.astype(np.int64),
        poly_hole_offsets=poly_hole_offsets.astype(np.int64),
        area=np.abs(residual[kept_idx]),
        cx=s_cx[kept_idx],
        cy=s_cy[kept_idx],
        n_holes=n_holes,
    )
    if with_unowned:
        out.update({k: v for k, v in empty.items() if k not in out})
    return out
