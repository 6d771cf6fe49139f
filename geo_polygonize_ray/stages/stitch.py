"""Cross-tile boundary resolution (SURVEY.md J6, north_star: "merges rings
crossing tile edges").

The buffered-duplication scheme (J5 + A8) inherits the reference's contract:
a polygon larger than the tile buffer can be mis-traced (src/tiling.rs
caveat, SURVEY.md §3.3).  The north-star sketches a kNN endpoint-stitching
join; we implement **adaptive buffer escalation with centroid-routed
witnesses** as a thin layer over the tiled path: each round's map is the
tiled map (explode the linework, duplicate every segment to each buffered
leaf window it meets and clip it there, ``assign_and_clip``) run with the
round's buffer on the active tiles only, and each cell is one
``polygonize_soup`` call that also returns the unowned shells and the
traced graph.  When tiles are still active at the last permitted round
(or a round's buffer would reach the span), that round is one untiled
trace of the whole linework (``pipelines/polygonize.polygonize_slices``)
instead, whose output replaces every earlier round's.

Setting.  Leaf T has the half-open owner rect R = [x0, x1) x [y0, y1)
and, in a round with buffer b, the closed window W = R grown by b.  T's
cell holds every input segment that meets W, clipped to W.  So in the
open window the cell's linework is the global linework: every global
vertex and crossing there is a local one, with all its global edges.
Clipping only adds free ends on the boundary of W: every local cycle is a
global cycle, and a chain that leaves W ends there as a dangle.  (Clip
points are rounded once; the snap noder absorbs that, as on the tiled
path.)  The rects tile the bbox, which holds all the linework (the tile
grid assumes it too).

Trust.  Let S be a face ring traced in T (a promoted CW ring) whose bbox
lies strictly inside W.  A chain entering S's bounded side cannot reach
the boundary of W without crossing S, which would be a local vertex; so
the chains there are complete, their dangles are global dangles, and at
each vertex of S the local angular order on S's bounded side is the
global one.  Tracing follows that order, so S bounds a face of the global
arrangement.  A local shell that is not global touches the boundary of W
and so cannot nest inside S.  The reference gives a shell each hole ring
whose centroid it holds (and no smaller shell does), so a hole ring can
leave S's bbox and even W; one that leaves W is cut there, and the
bounded face on its inner side is open where it is cut.  So S is trusted
only when its bbox meets no open face's bbox (``_trusted``): then the
holes seen are the global ones unless a hole ring lies wholly outside W
or its open part stays clear of S's bbox, which the centroid rule allows
but which this argument does not cover.  Hence, up to that case,

    a polygon whose shell bbox is strictly inside the window and meets
    no open face is EXACT.

A CCW shell (the outer ring of a connected piece, kept when the
reference's hole rule leaves it a residual) is traced on its unbounded
side, where a chain can leave W without crossing it; cut there and
pruned, it would shrink the ring to one that exists in no global trace.
So such a shell is trusted only when, besides, no pruned edge meets its
bbox (``_trusted``).

Open faces.  A point of W is *closed* when a local cycle encloses it (it
lies in a face the cell traces) and *open* otherwise.  The open linework
(the pruned edges, and the edges of the CCW outer rings where the closed
part ends) and the frame of W cut the open part into *open faces*, and
every open face runs along the frame: a region of W bounded by local
edges alone is enclosed by a local cycle, so it is closed.  An open face
that holds a point outside the bbox lies in the global unbounded face: a
path inside it crosses no linework of W, which is the global linework
there, and outside the bbox there is none.  ``_open_faces`` traces the open
faces as the faces of a second graph, the open linework plus the frame
(the frame chains the corners of W and every node within rounding of its
edges), and keeps those whose ring runs along the frame.

Escalation evidence.  A tile reports itself unresolved when

  1. *untrusted owned shell* — it owns a polygon whose shell is not
     trusted as above (possibly a merged or partial face), or
  2. *open face* — an open face that holds no point outside the bbox
     meets the interior of R: an edge of its boundary (its ring, or a
     piece floating inside it) crosses the open rect, or it holds R's
     centre;

and emits

  3. *centroid-routed witnesses* — for each shell it traces but does not
     own, a witness row (tile_id = the centroid owner C, the shell bbox),
     unless the shell is trusted AND its bbox fits strictly inside C's
     ROUND-0 window (then C traced it exactly in round 0 itself).  C may
     hold none of the linework (a large ring's centroid tile) and would
     resolve vacuously.  The driver keeps C active until C runs a round
     whose window strictly contains the witness bbox: C then traces the
     face exactly itself.

Completeness.  Let F be a bounded face of the global arrangement.  F is
open and inside the bbox, so it meets the interior of some rect R, at a
point p; let T be R's tile, in T's last round.  If p is open in T, its
open face holds no point outside the bbox (else F would be the unbounded
face), so T flags (2) and that was not its last round.  So p is closed:
the local face L around p is bounded by global edges, hence F lies in L.
If L's shell is strictly inside W, L is F, traced exactly; if not, L is
an untrusted shell, and T flags (1) when it owns L, or else witnesses L
to its owner, which runs until its window strictly holds L's bbox and
with it F's shell.  Either way some tile traces F exactly, owns it or
witnesses it to F's centroid owner, which then traces it exactly itself.
A polygon whose shell is the CCW ring of a piece that is one simple cycle
covers the bounded face inside it and is found the same way.  The
argument does not cover the residual of the CCW ring of a piece with
several faces (the hole rule's leftover, whose outer side is the
unbounded face): that polygon is found when a tile's piece of it leaves a
residual too, an untrusted shell there.  All of this holds when the
rounds end with no tile active.  A job that would go on past its last
permitted round ends instead in one untiled trace of the whole linework,
which is by definition the exact answer.

Exactly-once: each tile's final contribution comes from the LAST round it
ran (a re-run's window is a superset, so its owned trusted output is a
superset of the earlier one); ownership rects are fixed and disjoint.  The
half-open [min, max) centroid rule is exactly-once only because
neighbouring tiles share their edges bit for bit (every owner rect, window,
tile range and witness owner comes from the one ``SaltedTileAssigner``
grid, whose tile c spans [minx + c * tile_size, minx + (c + 1) *
tile_size)) and agree on each centroid bit for bit (the shell's centroid
is summed over its own ring only, ``kernels.ring_centroid_isolated``).
The untiled trace emits each face once and replaces every round's
output; each of its rows gets the tile_id of the leaf that owns its
shell's centroid, the tile a tiled round gives the polygon to.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.functions.exchange import (
    Slice,
    cluster_cpus,
    dataset_slices,
    exchange,
)
from geo_polygonize_ray.geom.kernels import bbox_many, ring_centroid_isolated, signed_area_many
from geo_polygonize_ray.local.graph import PlanarGraph
from geo_polygonize_ray.pipelines.polygonize import _slices_bbox, polygonize_slices
from geo_polygonize_ray.stages.linework import (
    _SALT_SUBS,
    SaltedSegmentAssigner,
    SaltedTileAssigner,
    _list_bounds,
    add_plane_key,
    explode_linework_to_segments,
    linework_bboxes,
)
from geo_polygonize_ray.stages.trace import POLYGON_SCHEMA, TilePolygonizer, flat_to_table

RESOLVE_SCHEMA = POLYGON_SCHEMA.append(pa.field("resolved", pa.bool_()))

# poly_id sentinels in RESOLVE_SCHEMA rows
_CUT_SENTINEL = -1  # tile produced nothing but an open face meets its rect
_WITNESS = -2  # row's tile_id is the CENTROID OWNER of a shell traced elsewhere


class EscalatingTilePolygonizer(TilePolygonizer):
    """TilePolygonizer's bucket loop, whose cells also return the unowned
    shells and the traced graph, with a per-cell step that tags each tile's
    output with a ``resolved`` verdict and emits centroid-routed witness
    rows for shells owned by other tiles (soundness rules in the module
    docstring).  One instance per round."""

    schema = RESOLVE_SCHEMA
    with_unowned = True

    def __init__(self, assigner: SaltedTileAssigner, snap_grid_size: float = 1e-10,
                 max_noding_iters: int = 10, base_buffer: float | None = None):
        super().__init__(assigner, True, snap_grid_size, max_noding_iters)
        # the round-0 buffer: every tile is guaranteed to have run with it
        self.base_buffer = assigner.buffer if base_buffer is None else float(base_buffer)

    def __call__(self, group: pa.Table) -> pa.Table:
        return self._bucket(group)

    def _table(self, flat: dict, tile_id: int, rect) -> pa.Table:
        a = self.assigner
        ax0, ay0, ax1, ay1 = rect
        window = (ax0 - a.buffer, ay0 - a.buffer, ax1 + a.buffer, ay1 + a.buffer)
        graph = flat["graph"]
        pb = _pruned_boxes(graph)
        t = flat_to_table(flat, tile_id)
        n = t.num_rows

        # clip points lie on the window edge up to rounding and the snap
        tol = 2 * self.snap_grid_size + 8 * np.finfo(float).eps * max(map(abs, window))
        of = _open_faces(graph, window, (a.minx, a.miny, a.maxx, a.maxy), tol)
        # resolved: every owned polygon's shell exact (``_trusted``) and no
        # open face inside the bbox reaching the owner rect
        trusted = _trusted(flat["owned_bbox"], flat["owned_ccw"], window, pb, of)
        resolved = bool(trusted.all()) and not _meets_open_face(of, rect)

        parts: list[pa.Table] = []
        if n == 0 and not resolved:
            # sentinel: a tile with NO output but an open face must still
            # report itself unresolved (missing faces are invisible otherwise)
            parts.append(_sentinel_table(tile_id))
        else:
            parts.append(t.append_column("resolved", pa.array(np.full(n, resolved))))

        # centroid-routed witnesses for unowned shells
        ub = flat["unowned_bbox"]
        if len(ub):
            u_trust = _trusted(ub, flat["unowned_ccw"], window, pb, of)
            owner = a.owner_leaves(flat["unowned_cx"], flat["unowned_cy"])
            covered_r0 = _inside(ub, a.leaf_windows(owner, self.base_buffer))
            emit = np.flatnonzero(~(u_trust & covered_r0) & (owner != tile_id))
            if len(emit):
                parts.append(_witness_table(owner[emit], ub[emit], u_trust[emit]))
        return pa.concat_tables(parts)


def _sentinel_table(tile_id: int) -> pa.Table:
    return pa.table(
        {
            "tile_id": pa.array([tile_id], pa.int64()),
            "poly_id": pa.array([_CUT_SENTINEL], pa.int64()),
            "shell_xs": pa.array([[]], pa.list_(pa.float64())),
            "shell_ys": pa.array([[]], pa.list_(pa.float64())),
            "holes_xs": pa.array([[]], pa.list_(pa.list_(pa.float64()))),
            "holes_ys": pa.array([[]], pa.list_(pa.list_(pa.float64()))),
            "area": pa.array([0.0]),
            "cx": pa.array([float("nan")]),
            "cy": pa.array([float("nan")]),
            "n_holes": pa.array([0], pa.int64()),
            "resolved": pa.array([False]),
        },
        schema=RESOLVE_SCHEMA,
    )


def _witness_table(owner: np.ndarray, bbox: np.ndarray, trusted: np.ndarray) -> pa.Table:
    """Witness rows: tile_id = centroid-owner leaf, bbox packed into
    shell_xs=[minx, maxx] / shell_ys=[miny, maxy], resolved = trusted."""
    m = len(owner)
    return pa.table(
        {
            "tile_id": pa.array(owner.astype(np.int64)),
            "poly_id": pa.array(np.full(m, _WITNESS, dtype=np.int64)),
            "shell_xs": pa.array(bbox[:, [0, 2]].tolist(), pa.list_(pa.float64())),
            "shell_ys": pa.array(bbox[:, [1, 3]].tolist(), pa.list_(pa.float64())),
            "holes_xs": pa.array([[]] * m, pa.list_(pa.list_(pa.float64()))),
            "holes_ys": pa.array([[]] * m, pa.list_(pa.list_(pa.float64()))),
            "area": pa.array(np.zeros(m)),
            "cx": pa.array(np.full(m, np.nan)),
            "cy": pa.array(np.full(m, np.nan)),
            "n_holes": pa.array(np.zeros(m, dtype=np.int64)),
            "resolved": pa.array(trusted.astype(bool).tolist()),
        },
        schema=RESOLVE_SCHEMA,
    )


def _keep_polys(t: pa.Table) -> pa.Table:
    """Drop sentinel + witness rows and the resolved column."""
    return t.filter(pc.greater_equal(t["poly_id"], 0)).drop_columns(["resolved"])


def _inside(bbox: np.ndarray, w) -> np.ndarray:
    """Which (m, 4) [minx, miny, maxx, maxy] boxes lie strictly inside the
    windows (wx0, wy0, wx1, wy1), one window or one per box."""
    return (bbox[:, 0] > w[0]) & (bbox[:, 1] > w[1]) & (bbox[:, 2] < w[2]) & (bbox[:, 3] < w[3])


def _trusted(bbox: np.ndarray, ccw: np.ndarray, window, pruned: np.ndarray, of) -> np.ndarray:
    """Which shells are exact (module docstring, Trust): bbox strictly
    inside the window, meeting no open face's bbox (a hole given to the
    shell by its centroid may run out of the window there) and, for an
    outer (CCW) ring, no pruned edge's bbox (a chain cut off at the
    window may hang there); boxes meet when they overlap, closed."""
    ok = _inside(bbox, window)
    if of is not None:
        i = np.flatnonzero(ok)
        ok[i] = ~_meets_any(bbox[i], of[-1])
    i = np.flatnonzero(ok & ccw)
    ok[i] = ~_meets_any(bbox[i], pruned)
    return ok


def _meets_any(boxes: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Which (k, 4) boxes overlap (closed) any of the (m, 4) ``others``, in
    (boxes, others) blocks of at most 2^20."""
    out = np.zeros(len(boxes), dtype=bool)
    step = max(1, (1 << 20) // max(len(others), 1))
    for lo in range(0, len(boxes) if len(others) else 0, step):
        b = boxes[lo : lo + step, None, :]
        out[lo : lo + step] = np.any(
            (others[:, 0] <= b[..., 2]) & (others[:, 2] >= b[..., 0])
            & (others[:, 1] <= b[..., 3]) & (others[:, 3] >= b[..., 1]),
            axis=1,
        )
    return out


def _pruned_boxes(graph: PlanarGraph) -> np.ndarray:
    """(m, 4) [minx, miny, maxx, maxy] boxes of the edges dangle pruning
    removed."""
    e = np.flatnonzero(graph.de_marked[0::2])
    ends = np.stack([graph.edge_src[e], graph.edge_dst[e]])
    x, y = graph.nodes_x[ends], graph.nodes_y[ends]
    return np.column_stack([x.min(0), y.min(0), x.max(0), y.max(0)])


class _OpenGraph(PlanarGraph):
    """The open-face graph of ``_open_faces``: PlanarGraph's phases, bound in
    this class body.  It is escalation work, not a phase of the cell's
    kernel, so polybench's per-phase ``local.*`` spans (which wrap the
    methods in PlanarGraph's own body) keep counting the kernel alone."""

    __init__ = PlanarGraph.__init__
    sort_edges = PlanarGraph.sort_edges
    prune_dangles = PlanarGraph.prune_dangles
    get_edge_rings = PlanarGraph.get_edge_rings


def _open_faces(graph: PlanarGraph, window, bbox, tol: float):
    """The open faces of the traced cell (module docstring) that hold no
    point outside ``bbox``, or None: traced as the faces of a second,
    small graph, the open linework (pruned edges and the edges of the CCW
    outer rings) plus the window frame, keeping the faces whose ring runs
    along the frame.  Returns the edges (xa, ya, xb, yb, ring) of those
    rings and of the floating pieces (rings the frame does not reach:
    holes of faces), the masks of both over the rings, and the (m, 4)
    bboxes of the open rings."""
    live, ring = graph.live_rings
    x, y = graph.nodes_x, graph.nodes_y
    s, d = graph.de_src[live], graph.de_dst[live]
    twice_area = np.bincount(ring, x[s] * y[d] - x[d] * y[s], minlength=ring.max(initial=-1) + 1)
    e = np.union1d(np.flatnonzero(graph.de_marked[0::2]), live[twice_area[ring] > 0] >> 1)
    a, b = graph.edge_src[e], graph.edge_dst[e]
    wx0, wy0, wx1, wy1 = window
    x, y = np.append(x, [wx0, wx1, wx1, wx0]), np.append(y, [wy0, wy0, wy1, wy1])
    fa, fb = _frame(x, y, np.union1d(a, b), window, tol)
    # a frame piece that is an edge of the linework already stays linework
    key = lambda u, v: np.minimum(u, v) * len(x) + np.maximum(u, v)
    keep = ~np.isin(key(fa, fb), key(a, b))
    a, b = np.concatenate([a, fa[keep]]), np.concatenate([b, fb[keep]])
    frame = np.arange(len(a)) >= len(e)
    # PlanarGraph's degenerate filter, applied here so edge ids stay put
    ok = ~((np.abs(x[a] - x[b]) < 1e-12) & (np.abs(y[a] - y[b]) < 1e-12))
    a, b, frame = a[ok], b[ok], frame[ok]

    g = _OpenGraph(x[a], y[a], x[b], y[b])
    g.sort_edges()
    g.prune_dangles()
    fx, fy, offs = g.get_edge_rings()
    live, ring = g.live_rings
    n = len(offs) - 1
    on_frame = np.zeros(n, dtype=bool)
    on_frame[ring[frame[live >> 1]]] = True
    area = signed_area_many(fx, fy, offs)
    rx0, ry0, rx1, ry1 = bbox_many(fx, fy, offs)
    bx0, by0, bx1, by1 = bbox
    open_ = on_frame & (area < 0)
    open_ &= (rx0 >= bx0) & (ry0 >= by0) & (rx1 <= bx1) & (ry1 <= by1)
    if not open_.any():
        return None
    floating = ~on_frame & (area > 0)
    ring_at = np.repeat(np.arange(n), np.diff(offs))
    last = np.zeros(len(fx), dtype=bool)
    last[offs[1:] - 1] = True
    p = np.flatnonzero((open_ | floating)[ring_at] & ~last)  # edge p -> p + 1
    edges = fx[p], fy[p], fx[p + 1], fy[p + 1], ring_at[p]
    boxes = np.column_stack([rx0, ry0, rx1, ry1])[open_]
    return edges, open_, floating, n, fx[offs[:-1]], fy[offs[:-1]], boxes


def _meets_open_face(of, rect) -> bool:
    """Open-face evidence (module docstring): does one of the open faces
    ``of`` (``_open_faces``) meet the interior of the owner rect?"""
    if of is None:
        return False
    edges, open_, floating, n, first_x, first_y, _ = of
    cross = _crosses_open_rect(*edges[:4], rect)
    if open_[edges[4][cross]].any():
        return True
    # a floating piece crossing the rect borders the open face it lies in
    k = np.unique(edges[4][cross])
    o = open_[edges[4]]
    if len(k) and _holds(first_x[k], first_y[k], *(v[o] for v in edges), n)[:, open_].any():
        return True
    # no open face's boundary crosses the rect: one meets it iff it holds
    # the centre, outside every floating piece
    centre = np.array([(rect[0] + rect[2]) / 2]), np.array([(rect[1] + rect[3]) / 2])
    c = _holds(*centre, *edges, n)
    return bool(c[0, open_].any() and not c[0, floating].any())


def _holds(px, py, xa, ya, xb, yb, ring, n: int) -> np.ndarray:
    """(points, n) mask: which of the n rings, given as edges (xa, ya) ->
    (xb, yb) with their ring ids, hold each point (crossing parity)."""
    px, py = px[:, None], py[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = xa + (py - ya) * (xb - xa) / (yb - ya)
    i, j = np.nonzero(((ya > py) != (yb > py)) & (xc > px))
    hits = np.zeros((len(px), n), dtype=np.int64)
    np.add.at(hits, (i, ring[j]), 1)
    return hits % 2 == 1


def _frame(x: np.ndarray, y: np.ndarray, ids: np.ndarray, window, tol: float):
    """The window frame as segments (i, j) into ``x``/``y``, whose last four
    points are the window corners: each side chains, in order, its corners
    and the nodes ``ids`` within ``tol`` of it.  A node within ``tol`` of a
    corner stands in for the corner."""
    wx0, wy0, wx1, wy1 = window
    corner = np.arange(len(x) - 4, len(x))
    near = (np.abs(x[ids, None] - x[corner]) <= tol) & (np.abs(y[ids, None] - y[corner]) <= tol)
    pts = np.concatenate([ids, corner[~near.any(axis=0)]])
    px, py = x[pts], y[pts]
    ends = []
    for across, along, at, lo, hi in (
        (px, py, wx0, wy0, wy1), (px, py, wx1, wy0, wy1),
        (py, px, wy0, wx0, wx1), (py, px, wy1, wx0, wx1),
    ):
        k = np.flatnonzero((np.abs(across - at) <= tol) & (along >= lo - tol) & (along <= hi + tol))
        k = pts[k[np.argsort(along[k])]]
        ends.append(np.stack([k[:-1], k[1:]]))
    fa, fb = np.unique(np.concatenate(ends, axis=1), axis=1)
    return fa, fb


def _crosses_open_rect(x0, y0, x1, y1, rect) -> np.ndarray:
    """Which segments meet the open rect (separating axes: both axes, and
    the segment's line with the four corners strictly on both sides)."""
    rx0, ry0, rx1, ry1 = rect
    hit = (np.minimum(x0, x1) < rx1) & (np.maximum(x0, x1) > rx0)
    hit &= (np.minimum(y0, y1) < ry1) & (np.maximum(y0, y1) > ry0)
    dx, dy = x1 - x0, y1 - y0
    side = np.stack([dx * (cy - y0) - dy * (cx - x0) for cx, cy in
                     ((rx0, ry0), (rx1, ry0), (rx1, ry1), (rx0, ry1))])
    return hit & (side.min(axis=0) < 0) & (side.max(axis=0) > 0)


def _prefilter(t: pa.Table, assigner: SaltedTileAssigner, keep) -> pa.Table:
    """Rows whose bbox meets the buffered window of at least one of the
    (unsalted) leaves ``keep``; every row when ``keep`` is None.  Each row's
    tile range is tested against a 2-D prefix sum of the kept-tile mask:
    O(rows + tiles)."""
    if keep is None or t.num_rows == 0:
        return t
    c0, c1, r0, r1 = assigner.tile_ranges(*linework_bboxes(t))
    kept = np.zeros((assigner.n_rows + 1, assigner.n_cols + 1), dtype=np.int64)
    r, c = np.divmod(keep // _SALT_SUBS, assigner.n_cols)
    kept[r + 1, c + 1] = 1
    s = kept.cumsum(axis=0).cumsum(axis=1)
    # an empty range has c0 <= n_cols and c1 >= -1 (r likewise): the
    # lookups stay in bounds and the mask below drops it
    n = s[r1 + 1, c1 + 1] - s[r0, c1 + 1] - s[r1 + 1, c0] + s[r0, c0]
    return t.filter(pa.array((c0 <= c1) & (r0 <= r1) & (n > 0)))


def _round_map(cols, assigner: SaltedSegmentAssigner, keep, n_buckets, t: pa.Table):
    """Exchange map side of one round: the tiled map
    (``pipelines/polygonize._tiled_map``: add_plane_key, explode,
    assign_and_clip) over the linework rows that meet an active tile's
    window, restricted to the active tiles (``keep``, sorted; None in
    round 0).

    A tile's bucket is its rank in the round's tile list modulo
    ``n_buckets`` (in round 0 every tile runs, and leaf = tile * 64), so a
    round with no more tiles than reduce tasks runs one tile per task."""
    t = _prefilter(add_plane_key(t.select(cols)), assigner, keep)
    t = assigner.assign_and_clip(explode_linework_to_segments(t))
    if keep is None:
        return t, t["tile_id"].to_numpy() // _SALT_SUBS % n_buckets
    t = t.filter(pa.array(np.isin(t["tile_id"].to_numpy(), keep)))
    return t, np.searchsorted(keep, t["tile_id"].to_numpy()) % n_buckets


def _round_verdicts(t: pa.Table) -> tuple[np.ndarray, pa.Table]:
    """One reduce output's escalation evidence: the tiles with an unresolved
    verdict, and the witness rows (tile_id = owner leaf, bbox in shell_xs /
    shell_ys).  The polygon payload stays in the object store."""
    pid = t["poly_id"].to_numpy()
    bad = (pid >= _CUT_SENTINEL) & ~t["resolved"].to_numpy()
    wit = t.filter(pa.array(pid == _WITNESS)).select(["tile_id", "shell_xs", "shell_ys"])
    return np.unique(t["tile_id"].to_numpy()[bad]), wit


def _final_polys(t: pa.Table, superseded: np.ndarray) -> pa.Table:
    """A round's polygon rows, minus the tiles a later round ran again."""
    t = _keep_polys(t)
    if len(superseded) and t.num_rows:
        t = t.filter(pa.array(~np.isin(t["tile_id"].to_numpy(), superseded)))
    return t


def _owner_tiles(t: pa.Table, grid: SaltedTileAssigner) -> pa.Table:
    """The untiled trace's rows, each tile_id set to the leaf that owns its
    shell's anchor (``ring_centroid_isolated``): the tile a tiled round
    gives the polygon to."""
    xs, offsets = _list_bounds(t["shell_xs"])
    ys, _ = _list_bounds(t["shell_ys"])
    owner = grid.owner_leaves(*ring_centroid_isolated(xs, ys, offsets))
    return t.set_column(t.schema.get_field_index("tile_id"), "tile_id", pa.array(owner))


_verdicts_task = ray.remote(_round_verdicts)
_final_polys_task = ray.remote(_final_polys)
_owner_tiles_task = ray.remote(_owner_tiles)


def polygonize_dataset_adaptive(
    ds: rd.Dataset,
    cfg: PipelineConfig,
    bbox: tuple[float, float, float, float] | None = None,
    max_rounds: int = 4,
    spill_dir: str | None = None,
) -> rd.Dataset:
    """Tiled polygonize with adaptive buffer escalation: correct even for
    polygons (arbitrarily) larger than the initial tile buffer.

    ``ds`` executes once into block refs cut into ~n_cpus row slices
    (functions/exchange.py), which ``polygonize_slices_adaptive`` runs;
    the result is a materialized Dataset over its output refs.
    ``bbox=None`` derives the bbox from the input.

    ``spill_dir`` is unused: nothing is written to disk.  It stays in the
    signature because ``polybench/workloads.py`` still passes it.
    """
    slices, schema, _ = dataset_slices(ds, cluster_cpus())
    refs = polygonize_slices_adaptive(slices, schema.names, cfg, bbox, max_rounds)
    # materialize(): see polygonize_dataset (an unexecuted plan's streaming
    # executor would pin the output blocks until Python's cyclic GC)
    return rd.from_arrow_refs(refs).materialize()


def polygonize_slices_adaptive(
    slices: list[Slice],
    columns: list[str],
    cfg: PipelineConfig,
    bbox: tuple[float, float, float, float] | None = None,
    max_rounds: int = 4,
) -> list[ray.ObjectRef]:
    """``polygonize_dataset_adaptive`` on linework row slices whose tables
    have ``columns``: returns refs to the polygon tables.

    Round r uses buffer = max(tile_buffer, tile_size/2) * 2^r, restricted to
    the tiles still active (unresolved or witness-flagged).  Each tile's
    final contribution is its LAST round's output (supersede), which makes
    re-running a previously-resolved tile safe (no duplicates).  A round
    whose buffer would reach the span, or the last of ``max_rounds`` (the
    first when ``max_rounds <= 1``), is instead one untiled trace of the
    whole linework (``polygonize_slices``), whose output replaces every
    earlier round's; an untiled ``cfg`` (``tile_size <= 0``) runs that
    trace alone.  Both trace with noding on, like every tiled round.
    ``bbox=None`` derives the bbox from the slices.

    Scale shape: every round is one hash exchange of plain Ray tasks over
    the same slices, carrying clipped segment rows (``_round_map``).
    Rounds 1+ pre-filter each slice's linework rows by
    bbox-intersects-active-windows before exploding and assigning them, so
    a late round touching a handful of tiles assigns ~those tiles'
    linework, not the whole input.  Each round's reduce outputs (polygons
    plus verdict and witness rows) stay in the object store as refs; one
    small task per ref sends the driver only the unresolved tile ids and
    the witness rows.  At the end one task per ref keeps the polygon rows
    of each tile's last round, or, after the untiled trace, sets each
    row's tile_id to the leaf that owns it.  Every round's output is held
    in the object store until the job returns (Ray spills objects to disk
    under memory pressure).

    Documented limitation: the adaptive path runs UNSALTED (hot={}) — its
    per-round window bookkeeping and witness routing key on unsalted leaf
    ids.  A workload combining dense skew AND polygons larger than the
    buffer should use a smaller tile_size (more, lighter tiles) instead;
    group-count overhead stays bounded by the ~4x-cores bucketing.
    """
    exact_cfg = replace(cfg, tile_size=0.0, node_input=True)
    if not cfg.tiled():
        return polygonize_slices(slices, columns, exact_cfg)
    n_cpus = cluster_cpus()
    # map tasks read only these columns: payload never enters the exchange
    cols = [c for c in ("plane_id", "xs", "ys") if c in columns]
    if bbox is None:
        bbox = _slices_bbox(slices)

    span = max(bbox[2] - bbox[0], bbox[3] - bbox[1])
    buffer0 = max(cfg.tile_buffer, cfg.tile_size / 2.0)

    active: set[int] | None = None  # None = all tiles in round 0
    rounds: list[tuple[list, set[int] | None]] = []  # (reduce refs, tiles ran)
    geom = SaltedTileAssigner(bbox, cfg.tile_size)
    # per base tile, the buffer of its LAST run (every tile runs in round 0)
    last_buf = np.full(geom.n_cols * geom.n_rows, buffer0)
    # witnesses not yet covered: owner leaf, bbox (minx, miny, maxx, maxy)
    wit_tile, wit_box = np.empty(0, dtype=np.int64), np.empty((0, 4))

    for r in range(max(max_rounds, 1)):
        buf = buffer0 * (2**r)
        if buf >= span or r >= max_rounds - 1:
            # tracing the whole linework once is the exact answer
            refs = polygonize_slices(slices, columns, exact_cfg)
            return [_owner_tiles_task.remote(ref, geom) for ref in refs]
        assigner = SaltedSegmentAssigner(bbox, cfg.tile_size, buf, hot={})

        # rounds 1+: keep only the active tiles; the map side pre-filters
        # its rows to those meeting an active tile's window before assignment
        keep = None if active is None else np.array(sorted(active), dtype=np.int64)
        n_tiles = len(last_buf) if keep is None else len(keep)
        n_buckets = max(2, min(n_tiles, 4 * n_cpus))
        tracer = EscalatingTilePolygonizer(
            assigner, cfg.snap_grid_size, cfg.max_noding_iters, base_buffer=buffer0
        )
        map_fn = functools.partial(_round_map, cols, assigner, keep, n_buckets)
        refs, _ = exchange([(slices, map_fn)], n_buckets, tracer)
        rounds.append((refs, active))
        if keep is not None:
            last_buf[keep // _SALT_SUBS] = buf

        verdicts = ray.get([_verdicts_task.remote(ref) for ref in refs])
        unresolved = set(np.concatenate([u for u, _ in verdicts]).tolist())

        wit = pa.concat_tables([w for _, w in verdicts])
        xs = pc.list_flatten(wit["shell_xs"]).to_numpy().reshape(-1, 2)
        ys = pc.list_flatten(wit["shell_ys"]).to_numpy().reshape(-1, 2)
        wit_tile = np.concatenate([wit_tile, wit["tile_id"].to_numpy()])
        wit_box = np.concatenate([wit_box, np.column_stack([xs[:, 0], ys[:, 0], xs[:, 1], ys[:, 1]])])
        # a witness is covered once its owner's last-run window strictly
        # contains its bbox: the owner then provably held ALL linework in
        # that region and judged it with its own (strictly stronger) evidence
        last = last_buf[wit_tile // _SALT_SUBS]
        open_ = ~_inside(wit_box, geom.leaf_windows(wit_tile, last))
        wit_tile, wit_box = wit_tile[open_], wit_box[open_]

        active = unresolved | set(wit_tile.tolist())
        if not active:
            break

    # supersede: each tile contributes from the LAST round it ran
    outputs: list = []
    later: set[int] = set()
    for refs, ran in reversed(rounds):
        superseded = np.array(sorted(later), dtype=np.int64)
        outputs[:0] = [_final_polys_task.remote(ref, superseded) for ref in refs]
        later |= ran or set()
    return outputs
