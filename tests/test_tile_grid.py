"""The tile grid (``stages/linework.SaltedTileAssigner``): the half-open
centroid-ownership rule gives each polygon to exactly one leaf only when
neighbouring leaves share their edges bit for bit.  On a non-dyadic grid
``(minx + c*ts) + ts`` and ``minx + (c+1)*ts`` differ by an ulp for many c,
so a rect formula that writes one tile's right edge the first way and the
next tile's left edge the second way leaves a gap no tile owns."""

import numpy as np
import pytest
import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.local import polygonize_lines
from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset
from geo_polygonize_ray.sources.fixtures import linework_table
from geo_polygonize_ray.stages.linework import _SALT_SUBS, SaltedTileAssigner
from geo_polygonize_ray.stages.stitch import polygonize_dataset_adaptive

# the square [0.5, 0.7]^2: its shell centroid computes to exactly 0.6, the
# edge between tiles 5 and 6 of a 0.1 grid at the origin
EDGE_SQUARE = [np.array([[0.5, 0.5], [0.7, 0.5], [0.7, 0.7], [0.5, 0.7], [0.5, 0.5]])]
EDGE_CFG = PipelineConfig(tile_size=0.1, tile_buffer=0.3)
EDGE_BBOX = (0.0, 0.0, 2.0, 2.0)


@pytest.mark.usefixtures("ray_session")
class TestCentroidOnTileEdge:
    def test_local(self):
        assert len(polygonize_lines(EDGE_SQUARE, node_input=True)) == 1

    def test_tiled(self):
        ds = rd.from_arrow(linework_table(EDGE_SQUARE))
        assert polygonize_dataset(ds, EDGE_CFG, bbox=EDGE_BBOX).count() == 1

    def test_adaptive(self):
        ds = rd.from_arrow(linework_table(EDGE_SQUARE))
        assert polygonize_dataset_adaptive(ds, EDGE_CFG, EDGE_BBOX).count() == 1


def _grid(ts: float) -> SaltedTileAssigner:
    """A 7 x 6 grid at a non-dyadic origin whose extent is no multiple of
    ``ts`` (the last column and row are clamped).  Columns 0-3 are salted
    with k = 3, 5 and 7 mixed, so salted tiles of different k meet; columns
    4-6 are cold, so cold tiles meet each other and salted ones."""
    o = -3.3
    bbox = (o, o, o + 6.5 * ts, o + 5.2 * ts)
    hot = {t: (3, 5, 7)[(t % 7 + t // 7) % 3] for t in range(42) if t % 7 < 4}
    return SaltedTileAssigner(bbox, ts, 0.0, hot=hot)


def _leaves(g: SaltedTileAssigner) -> np.ndarray:
    return np.array(
        [t * _SALT_SUBS + s for t in range(g.n_cols * g.n_rows) for s in range(g.hot.get(t, 1) ** 2)]
    )


@pytest.mark.parametrize("ts", [0.1, 0.3, 0.7, 1.1])
def test_adjacent_leaves_share_edges(ts):
    """Base-base, sub-sub and sub-base neighbours: the right (top) edge of
    every leaf is bit-identical to the left (bottom) edge of the leaf next
    to it, and the outer edges are the bbox's."""
    g = _grid(ts)
    leaves = _leaves(g)
    x0, y0, x1, y1 = g.leaf_rects(leaves)
    rect = {int(lf): (a, b, c, d) for lf, a, b, c, d in zip(leaves, x0, y0, x1, y1)}
    for t in range(g.n_cols * g.n_rows):
        r, c = divmod(t, g.n_cols)
        k = g.hot.get(t, 1)
        for sr in range(k):
            for sc in range(k):
                lx0, ly0, lx1, ly1 = rect[t * _SALT_SUBS + sr * k + sc]
                if sc + 1 < k:  # sub-sub, inside the tile
                    assert rect[t * _SALT_SUBS + sr * k + sc + 1][0] == lx1
                elif c + 1 < g.n_cols:  # to the next tile's first sub-column
                    n = t + 1
                    kn = g.hot.get(n, 1)
                    assert {rect[n * _SALT_SUBS + j * kn][0] for j in range(kn)} == {lx1}
                else:
                    assert lx1 == g.maxx
                if sr + 1 < k:
                    assert rect[t * _SALT_SUBS + (sr + 1) * k + sc][1] == ly1
                elif r + 1 < g.n_rows:
                    n = t + g.n_cols
                    kn = g.hot.get(n, 1)
                    assert {rect[n * _SALT_SUBS + j][1] for j in range(kn)} == {ly1}
                else:
                    assert ly1 == g.maxy
                if sc == 0 and c == 0:
                    assert lx0 == g.minx
                if sr == 0 and r == 0:
                    assert ly0 == g.miny


@pytest.mark.parametrize("ts", [0.1, 0.3, 0.7, 1.1])
def test_every_point_has_exactly_one_owner(ts):
    """Every leaf edge value, its neighbouring floats and the midpoints
    between edges, as x and as y: each point inside the bbox lies in
    exactly one leaf's half-open rect, and ``owner_leaves`` names it."""
    g = _grid(ts)
    leaves = _leaves(g)
    x0, y0, x1, y1 = g.leaf_rects(leaves)

    def samples(edges, lo, hi):
        e = np.unique(edges)
        v = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), (e[1:] + e[:-1]) / 2])
        return np.unique(v[(v >= lo) & (v < hi)])

    xs = samples(np.concatenate([x0, x1]), g.minx, g.maxx)
    ys = samples(np.concatenate([y0, y1]), g.miny, g.maxy)
    px, py = (a.ravel() for a in np.meshgrid(xs, ys))
    inside = (
        (px[:, None] >= x0) & (px[:, None] < x1) & (py[:, None] >= y0) & (py[:, None] < y1)
    )
    assert np.all(inside.sum(axis=1) == 1)
    assert np.array_equal(leaves[inside.argmax(axis=1)], g.owner_leaves(px, py))
