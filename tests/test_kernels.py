"""Unit tests for geom/kernels.py (SURVEY.md §2.6) and geom/robust.py."""

import numpy as np
import pytest

from geo_polygonize_ray.geom import kernels as K
from geo_polygonize_ray.geom.robust import orient2d_exact, orient2d_sign_arrays


class TestMorton:
    def test_sortable_float_order(self):
        vals = np.array([-1e9, -1.0, -0.0, 0.0, 1e-300, 1.0, 1e9])
        s = K.sortable_float(vals)
        # -0.0 and 0.0 map adjacent; order otherwise strictly increasing
        assert list(np.argsort(s, kind="stable")) == list(range(len(vals)))

    def test_part1by1(self):
        # 0b1111 -> 0b01010101
        assert int(K.part1by1(np.array([0b1111], dtype=np.uint64))[0]) == 0b01010101

    def test_z_order_locality(self):
        z1 = K.z_order_index(np.array([1.0]), np.array([1.0]))
        z2 = K.z_order_index(np.array([1.0]), np.array([1.0]))
        assert z1 == z2


class TestArea:
    def test_ccw_square(self):
        xs = np.array([0.0, 10, 10, 0])
        ys = np.array([0.0, 0, 10, 10])
        assert K.signed_area(xs, ys) == 100.0

    def test_cw_negative(self):
        xs = np.array([0.0, 0, 10, 10])
        ys = np.array([0.0, 10, 10, 0])
        assert K.signed_area(xs, ys) == -100.0

    def test_many_closed(self):
        # two closed rings flat-packed: CCW unit square, CW triangle
        fx = np.array([0, 1, 1, 0, 0, 0, 0, 2, 0], dtype=float)
        fy = np.array([0, 0, 1, 1, 0, 0, 2, 0, 0], dtype=float)
        offs = np.array([0, 5, 9])
        a = K.signed_area_many(fx, fy, offs)
        assert a[0] == pytest.approx(1.0)
        assert a[1] == pytest.approx(-2.0)


class TestCentroid:
    def test_square_centroid(self):
        xs = np.array([0.0, 10, 10, 0, 0])
        ys = np.array([0.0, 0, 10, 10, 0])
        cx, cy = K.ring_centroid(xs, ys)
        assert (cx, cy) == (5.0, 5.0)

    def test_degenerate_falls_back_to_first_point(self):
        xs = np.array([3.0, 4.0, 3.0])
        ys = np.array([7.0, 7.0, 7.0])
        assert K.ring_centroid(xs, ys) == (3.0, 7.0)

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(42)
        rings = []
        for _ in range(5):
            n = rng.integers(3, 12)
            pts = rng.uniform(0, 100, (n, 2))
            ring = np.vstack([pts, pts[:1]])
            rings.append(ring)
        fx = np.concatenate([r[:, 0] for r in rings])
        fy = np.concatenate([r[:, 1] for r in rings])
        offs = np.concatenate([[0], np.cumsum([len(r) for r in rings])])
        cx, cy = K.ring_centroid_many(fx, fy, offs)
        for i, r in enumerate(rings):
            scx, scy = K.ring_centroid(r[:, 0], r[:, 1])
            assert cx[i] == pytest.approx(scx)
            assert cy[i] == pytest.approx(scy)

    def test_isolated_centroid_ignores_neighbour_rings(self):
        """A ring's ``ring_centroid_isolated`` has the same bits whatever
        rings are stored before it (a tile and its neighbour trace the same
        ring beside different rings), and is the ring's centroid."""
        rng = np.random.default_rng(7)
        rings = []
        for _ in range(40):
            n = rng.integers(3, 9)
            pts = rng.uniform(-1e3, 1e3, 2) + rng.uniform(0, 3, (n, 2))
            rings.append(np.vstack([pts, pts[:1]]))
        fx = np.concatenate([r[:, 0] for r in rings])
        fy = np.concatenate([r[:, 1] for r in rings])
        offs = np.concatenate([[0], np.cumsum([len(r) for r in rings])])
        cx, cy = K.ring_centroid_isolated(fx, fy, offs)
        for i, r in enumerate(rings):
            ax, ay = K.ring_centroid_isolated(r[:, 0], r[:, 1], np.array([0, len(r)]))
            assert (cx[i], cy[i]) == (ax[0], ay[0])
            scx, scy = K.ring_centroid(r[:, 0], r[:, 1])
            assert cx[i] == pytest.approx(scx) and cy[i] == pytest.approx(scy)


class TestQuadrant:
    def test_reference_boundaries(self):
        # reference src/utils/mod.rs:87-95 exact boundary conventions
        dx = np.array([1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0, 1.0])
        dy = np.array([0.0, 1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0])
        expect = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert np.array_equal(K.quadrant(dx, dy), expect)


class TestRobust:
    def test_exact_collinear(self):
        assert orient2d_exact(0.0, 0.0, 1.0, 1.0, 2.0, 2.0) == 0

    def test_filter_matches_exact_near_collinear(self):
        # classic Shewchuk stress: points nearly on a line
        rng = np.random.default_rng(7)
        base = rng.uniform(0, 1, (200, 2))
        ax, ay = base[:, 0], base[:, 1]
        bx, by = ax * 2.0, ay * 2.0
        cx = ax * 3.0 + rng.choice([0.0, 1e-18, -1e-18], 200)
        cy = ay * 3.0
        s = orient2d_sign_arrays(ax, ay, bx, by, cx, cy)
        for i in range(200):
            assert s[i] == orient2d_exact(ax[i], ay[i], bx[i], by[i], cx[i], cy[i])

    def test_ccw_sign(self):
        s = orient2d_sign_arrays(
            np.array([0.0]), np.array([0.0]),
            np.array([1.0]), np.array([0.0]),
            np.array([0.0]), np.array([1.0]),
        )
        assert s[0] == 1  # (0,0)->(1,0), (0,1) is left -> CCW positive


class TestPIP:
    def test_square(self):
        rx = np.array([0.0, 10, 10, 0, 0])
        ry = np.array([0.0, 0, 10, 10, 0])
        px = np.array([5.0, 15.0, -1.0, 5.0])
        py = np.array([5.0, 5.0, 5.0, 15.0])
        assert list(K.points_in_ring(px, py, rx, ry)) == [True, False, False, False]

    def test_concave(self):
        # L-shape
        rx = np.array([0.0, 4, 4, 2, 2, 0, 0])
        ry = np.array([0.0, 0, 2, 2, 4, 4, 0])
        assert K.point_in_ring(1.0, 3.0, rx, ry)
        assert not K.point_in_ring(3.0, 3.0, rx, ry)


class TestSnap:
    def test_grid_zero_identity(self):
        c = np.array([1.23456789])
        assert K.snap_to_grid(c, 0.0)[0] == c[0]

    def test_rounds_half_away_from_zero(self):
        # Rust f64::round: 0.5 -> 1, -0.5 -> -1 (numpy would give 0)
        assert K.snap_to_grid(np.array([0.5]), 1.0)[0] == 1.0
        assert K.snap_to_grid(np.array([-0.5]), 1.0)[0] == -1.0
        assert K.snap_to_grid(np.array([1.4999]), 1.0)[0] == 1.0


class TestSegmentIntersection:
    def run(self, p1, p2, q1, q2):
        return K.segment_intersections(
            *[np.array([v], dtype=float) for v in (p1[0], p1[1], p2[0], p2[1], q1[0], q1[1], q2[0], q2[1])]
        )

    def test_proper_cross(self):
        kind, ax, ay, _, _ = self.run((0, 0), (10, 10), (0, 10), (10, 0))
        assert kind[0] == K.SINGLE_POINT
        assert (ax[0], ay[0]) == (5.0, 5.0)

    def test_endpoint_touch(self):
        kind, ax, ay, _, _ = self.run((0, 0), (10, 0), (5, 0), (5, 5))
        assert kind[0] == K.SINGLE_POINT
        assert (ax[0], ay[0]) == (5.0, 0.0)

    def test_disjoint(self):
        kind, *_ = self.run((0, 0), (1, 0), (0, 1), (1, 1))
        assert kind[0] == K.NO_INTERSECTION

    def test_disjoint_collinear(self):
        kind, *_ = self.run((0, 0), (1, 0), (2, 0), (3, 0))
        assert kind[0] == K.NO_INTERSECTION

    def test_collinear_overlap(self):
        kind, ax, ay, bx, by = self.run((0, 0), (10, 0), (5, 0), (15, 0))
        assert kind[0] == K.COLLINEAR_OVERLAP
        pts = sorted([(ax[0], ay[0]), (bx[0], by[0])])
        assert pts == [(5.0, 0.0), (10.0, 0.0)]

    def test_collinear_touch_at_point(self):
        kind, ax, ay, _, _ = self.run((0, 0), (5, 0), (5, 0), (10, 0))
        assert kind[0] == K.SINGLE_POINT
        assert (ax[0], ay[0]) == (5.0, 0.0)

    def test_t_junction_on_line_but_outside_segment(self):
        # q1 on line(P) extended beyond the segment: no intersection
        kind, *_ = self.run((0, 0), (1, 0), (3, 0), (3, 1))
        assert kind[0] == K.NO_INTERSECTION


class TestSortKeys:
    def test_float_sort_key_total_order(self):
        """_float_sort_key's uint64 view must order exactly like float64
        (negatives bit-complemented, -0.0 == +0.0, subnormals ordered)."""
        import numpy as np

        from geo_polygonize_ray.local.noding import _float_sort_key

        rng = np.random.default_rng(7)
        x = np.concatenate(
            [rng.normal(0, 1e3, 4000), rng.normal(0, 1e-300, 64), [-0.0, 0.0, 1e-310, -1e-310]]
        )
        assert np.array_equal(
            x[np.argsort(x, kind="stable")], x[np.argsort(_float_sort_key(x), kind="stable")]
        )
        assert _float_sort_key(np.array([-0.0]))[0] == _float_sort_key(np.array([0.0]))[0]

    def test_canonicalize_two_phase_matches_lexsort(self):
        """The quicksort+refinement canonical sort must reproduce the old
        4-key stable lexsort bit-for-bit (duplicate-heavy soups included)."""
        import numpy as np

        from geo_polygonize_ray.local.noding import _canonicalize_dedup

        for seed in range(8):
            r = np.random.default_rng(seed)
            n = int(r.integers(1, 1500))
            vals = r.integers(-50, 50, (n, 4)).astype(float) + r.choice([0.0, 0.5], (n, 4))
            nx0, ny0, nx1, ny1 = vals.T
            got = _canonicalize_dedup(nx0.copy(), ny0.copy(), nx1.copy(), ny1.copy())
            swap = (nx0 > nx1) | ((np.abs(nx0 - nx1) < 1e-12) & (ny0 > ny1))
            tx0 = np.where(swap, nx1, nx0)
            ty0 = np.where(swap, ny1, ny0)
            tx1 = np.where(swap, nx0, nx1)
            ty1 = np.where(swap, ny0, ny1)
            order = np.lexsort((ty1, tx1, ty0, tx0))
            tx0, ty0, tx1, ty1 = tx0[order], ty0[order], tx1[order], ty1[order]
            keep = np.empty(n, bool)
            keep[0] = True
            keep[1:] = (
                (tx0[1:] != tx0[:-1])
                | (ty0[1:] != ty0[:-1])
                | (tx1[1:] != tx1[:-1])
                | (ty1[1:] != ty1[:-1])
            )
            for a, b in zip(got, (tx0[keep], ty0[keep], tx1[keep], ty1[keep])):
                assert np.array_equal(a, b), f"seed {seed}"
