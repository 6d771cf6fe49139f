"""Douglas-Peucker simplification kernel + stage (geom/simplify.py)."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from geo_polygonize_ray.geom.simplify import (
    _chord_distances,
    apply_mask_to_lists,
    simplify_mask,
)


def _ring(pts):
    a = np.asarray(pts, dtype=np.float64)
    return a[:, 0], a[:, 1]


def _flat(rings):
    xs = np.concatenate([r[0] for r in rings])
    ys = np.concatenate([r[1] for r in rings])
    off = np.concatenate([[0], np.cumsum([len(r[0]) for r in rings])]).astype(np.int64)
    return xs, ys, off


def _polyline_dist(px, py, xs, ys):
    """Brute-force distance of a point to a polyline (all segments)."""
    best = np.inf
    for i in range(len(xs) - 1):
        d = _chord_distances(
            np.array([px]), np.array([py]),
            np.array([xs[i]]), np.array([ys[i]]),
            np.array([xs[i + 1]]), np.array([ys[i + 1]]),
        )[0]
        best = min(best, d)
    return best


class TestSimplifyMask:
    def test_collinear_points_dropped_square_kept(self):
        # unit square with a redundant midpoint on every edge
        ring = _ring(
            [(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1), (0, 0.5), (0, 0)]
        )
        xs, ys, off = _flat([ring])
        keep = simplify_mask(xs, ys, off, eps=1e-9)
        nx, no = apply_mask_to_lists(xs, off, keep)
        assert len(nx) == 5  # 4 corners + closure
        assert keep[0] and keep[-1]

    def test_eps_zero_keeps_genuine_vertices(self):
        ring = _ring([(0, 0), (2, 0.5), (4, 0), (4, 4), (0, 4), (0, 0)])
        xs, ys, off = _flat([ring])
        keep = simplify_mask(xs, ys, off, eps=0.0)
        assert keep.all()

    def test_error_bound_holds(self):
        # noisy sine-ish open polyline: every dropped point must be within
        # eps of the simplified chain (the DP guarantee)
        rng = np.random.default_rng(4)
        x = np.linspace(0, 10, 200)
        y = np.sin(x) + rng.normal(scale=0.02, size=200)
        off = np.array([0, 200], dtype=np.int64)
        eps = 0.15
        keep = simplify_mask(x, y, off, eps)
        sx, sy = x[keep], y[keep]
        assert keep.sum() < 60  # actually simplified
        for i in np.flatnonzero(~keep):
            assert _polyline_dist(x[i], y[i], sx, sy) <= eps + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.random(100))
        y = rng.random(100)
        off = np.array([0, 100], dtype=np.int64)
        k1 = simplify_mask(x, y, off, 0.2)
        x2, o2 = apply_mask_to_lists(x, off, k1)
        y2, _ = apply_mask_to_lists(y, off, k1)
        k2 = simplify_mask(x2, y2, o2, 0.2)
        assert k2.all()

    def test_many_rings_at_once(self):
        rings = [
            _ring([(i, 0), (i + 0.5, 1e-6), (i + 1, 0), (i + 1, 1), (i, 1), (i, 0)])
            for i in range(50)
        ]
        xs, ys, off = _flat(rings)
        keep = simplify_mask(xs, ys, off, eps=1e-3)
        nx, no = apply_mask_to_lists(xs, off, keep)
        assert np.array_equal(np.diff(no), np.full(50, 5))  # all midpoints dropped


@pytest.mark.usefixtures("ray_session")
def test_stage_on_polygonizer_output():
    from geo_polygonize_ray.config import PipelineConfig
    from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset
    from geo_polygonize_ray.sources.fixtures import linework_table
    from geo_polygonize_ray.stages.simplify import simplify_polygons

    # nested squares with collinear midpoints on the outer shell
    outer = np.array(
        [(0, 0), (4, 0), (8, 0), (8, 8), (0, 8), (0, 0)], dtype=np.float64
    )
    inner = np.array([(2, 2), (6, 2), (6, 6), (2, 6), (2, 2)], dtype=np.float64)
    cfg = PipelineConfig(tile_size=8.0, tile_buffer=2.0)
    polys = polygonize_dataset(
        rd.from_arrow(linework_table([outer, inner])), cfg, bbox=(0, 0, 8, 8)
    )
    out = polys.map_batches(
        simplify_polygons, fn_kwargs=dict(eps=1e-9), batch_format="pyarrow"
    ).to_pandas()
    assert len(out) == 2
    # the shell with the hole keeps only corners after simplification
    ring_row = out[out["n_holes"] == 1].iloc[0]
    assert len(ring_row["shell_xs"]) == 5
    assert len(ring_row["holes_xs"][0]) == 5
    # non-geometry columns untouched
    assert set(out.columns) >= {"area", "cx", "cy", "n_holes"}


class TestClosedRingGuarantees:
    def test_large_eps_keeps_valid_triangle(self):
        # ADVICE r4: the degenerate first==last chord collapsed rings to
        # 2-3 vertices / zero area at large eps; ring DP must keep >= 4
        # stored vertices (3 distinct points) with positive area
        xs = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        ys = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
        off = np.array([0, 5], dtype=np.int64)
        for eps in (0.9, 5.0, 1e6):
            keep = simplify_mask(xs, ys, off, eps)
            nx, _ = apply_mask_to_lists(xs, off, keep)
            ny, _ = apply_mask_to_lists(ys, off, keep)
            assert keep.sum() >= 4
            area = 0.5 * abs(np.sum(nx[:-1] * ny[1:] - nx[1:] * ny[:-1]))
            assert area > 0

    def test_all_collinear_ring_keeps_four_vertices(self):
        # every interior vertex on the start-far chord: no kept set has
        # positive area, but the ring still stores >= 4 vertices
        xs = np.array([0.0, 1.0, 2.0, 3.0, 1.5, 0.0])
        ys = np.zeros(6)
        off = np.array([0, 6], dtype=np.int64)
        for eps in (0.0, 0.5, 1e6):
            assert simplify_mask(xs, ys, off, eps).sum() >= 4

    def test_ring_extent_survives_any_eps(self):
        # farthest-point anchor: the kept ring must still span the
        # original bbox diagonal (the old point-chord seed lost it)
        th = np.linspace(0, 2 * np.pi, 33)
        xs = np.concatenate([np.cos(th[:-1]), [1.0]]) * 7.0
        ys = np.concatenate([np.sin(th[:-1]), [0.0]]) * 7.0
        off = np.array([0, 33], dtype=np.int64)
        keep = simplify_mask(xs, ys, off, eps=100.0)
        nx, _ = apply_mask_to_lists(xs, off, keep)
        assert nx.max() - nx.min() >= 7.0  # start (7,0) and far (-7,0) kept

    def test_mixed_open_and_closed_batch(self):
        ring = _ring([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        line = _ring([(0, 0), (5, 0.01), (10, 0)])
        xs, ys, off = _flat([ring, line])
        keep = simplify_mask(xs, ys, off, eps=0.5)
        assert keep[:5].sum() >= 4  # closed ring protected
        assert keep[5] and keep[7] and not keep[6]  # open polyline simplifies
