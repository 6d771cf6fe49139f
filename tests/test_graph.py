"""Graph-level micro-fixtures (FIXTURES.md §3, reference src/graph/tests.rs)."""

import numpy as np
import pytest
from test_local_polygonizer import SCENES, _soup, explode, ls
from test_stitch import square_sides

from geo_polygonize_ray.geom.kernels import bbox_many, signed_area_many, z_order_index
from geo_polygonize_ray.local.graph import _WALK_STEPS, PlanarGraph
from geo_polygonize_ray.local.noding import SnapNoder
from geo_polygonize_ray.local.polygonize import _assemble_core, trace_rings
from geo_polygonize_ray.sources.fixtures import grid_lines, random_lines, skewed_grid_lines
from polybench.workloads import unit_grid_edges


def seg_arrays(segs):
    a = np.array(segs, dtype=np.float64)
    return a[:, 0], a[:, 1], a[:, 2], a[:, 3]


def find_node(g: PlanarGraph, x: float, y: float) -> int:
    idx = np.flatnonzero((g.nodes_x == x) & (g.nodes_y == y))
    assert len(idx) == 1
    return int(idx[0])


class TestGraphConstruction:
    def test_counts(self):
        # reference src/graph/tests.rs:7-22
        g = PlanarGraph(*seg_arrays([(0, 0, 10, 0), (0, 0, 0, 10)]))
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert len(g.de_src) == 4
        origin = find_node(g, 0.0, 0.0)
        assert g.adj_offsets[origin + 1] - g.adj_offsets[origin] == 2
        assert g.nodes_degree[origin] == 2

    def test_edge_sorting_ccw(self):
        # reference src/graph/tests.rs:25-65: Right, Up, Left, Down
        g = PlanarGraph(
            *seg_arrays([(0, 0, 10, 0), (0, 0, 0, 10), (0, 0, -10, 0), (0, 0, 0, -10)])
        )
        g.sort_edges()
        origin = find_node(g, 0.0, 0.0)
        adj = g.adj[g.adj_offsets[origin] : g.adj_offsets[origin + 1]]
        dsts = [(g.nodes_x[g.de_dst[e]], g.nodes_y[g.de_dst[e]]) for e in adj]
        assert dsts == [(10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)]

    def test_dangle_pruning(self):
        # reference src/graph/tests.rs:68-85
        g = PlanarGraph(
            *seg_arrays([(0, 0, 10, 0), (10, 0, 0, 10), (0, 10, 0, 0), (10, 0, 20, 0)])
        )
        g.sort_edges()
        assert g.prune_dangles() == 1
        b = find_node(g, 10.0, 0.0)
        assert g.nodes_degree[b] == 2

    def test_simple_cycle_two_rings(self):
        # reference src/graph/tests.rs:88-99
        g = PlanarGraph(*seg_arrays([(0, 0, 10, 0), (10, 0, 0, 10), (0, 10, 0, 0)]))
        g.sort_edges()
        fx, fy, offs = g.get_edge_rings()
        assert len(offs) - 1 == 2

    def test_iterative_dangle_chain(self):
        # chain of dangles peels completely into the triangle
        g = PlanarGraph(
            *seg_arrays(
                [(0, 0, 10, 0), (10, 0, 0, 10), (0, 10, 0, 0), (10, 0, 20, 0), (20, 0, 30, 0)]
            )
        )
        g.sort_edges()
        assert g.prune_dangles() == 2
        fx, fy, offs = g.get_edge_rings()
        assert len(offs) - 1 == 2


class TestSignedZero:
    def test_zeros_make_one_node(self):
        g = PlanarGraph(*seg_arrays([(0.0, 0, 10, 0), (-0.0, 0, 0, 10)]))
        assert g.n_nodes == 3
        origin = np.flatnonzero((g.nodes_x == 0) & (g.nodes_y == 0))
        assert len(origin) == 1
        assert g.nodes_degree[origin[0]] == 2


# --- reference oracles ------------------------------------------------------
# The graph as built before hashed node identity, slot-ordered adjacency and
# the short-ring walk: nodes numbered in the reference's (z, x, y) endpoint
# order, the generic angular sort for every graph, and the ring trace by
# pointer doubling over all live half-edges with a sorted layout.


class ReferenceGraph(PlanarGraph):
    def __init__(self, x0, y0, x1, y1):
        x0, y0, x1, y1 = (np.asarray(a, dtype=np.float64) for a in (x0, y0, x1, y1))
        keep = ~((np.abs(x0 - x1) < 1e-12) & (np.abs(y0 - y1) < 1e-12))
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
        m = len(x0)
        ex = np.concatenate([x0, x1])
        ey = np.concatenate([y0, y1])
        order = np.lexsort((ey, ex, z_order_index(ex, ey)))
        sx, sy = ex[order], ey[order]
        new = np.ones(2 * m, dtype=bool)
        new[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
        self.nodes_x, self.nodes_y = sx[new], sy[new]
        endpoint_node = np.empty(2 * m, dtype=np.int64)
        endpoint_node[order] = np.cumsum(new) - 1
        n = len(self.nodes_x)
        self.n_nodes, self.n_edges = n, m
        self.edge_src, self.edge_dst = endpoint_node[:m], endpoint_node[m:]
        self.de_src = np.stack([self.edge_src, self.edge_dst], axis=1).ravel()
        self.de_dst = np.stack([self.edge_dst, self.edge_src], axis=1).ravel()
        self.de_marked = np.zeros(2 * m, dtype=bool)
        self.nodes_degree = np.bincount(self.de_src, minlength=n).astype(np.int64)
        self.nodes_marked = np.zeros(n, dtype=bool)
        self.adj = np.argsort(self.de_src, kind="stable")
        self.adj_offsets = np.concatenate([[0], np.cumsum(self.nodes_degree)]).astype(np.int64)

    def sort_edges(self):
        self._sort_generic()

    def get_edge_rings(self):
        n_de = 2 * self.n_edges
        next_ptr = np.full(n_de, -1, dtype=np.int64)
        kept = self.adj[~self.de_marked[self.adj]]
        if len(kept):
            srcs = self.de_src[kept]
            nxt = np.roll(kept, -1)
            boundaries = np.flatnonzero(srcs[1:] != srcs[:-1])
            nxt[np.append(boundaries, len(kept) - 1)] = kept[np.insert(boundaries + 1, 0, 0)]
            next_ptr[kept] = nxt
        live = np.flatnonzero(~self.de_marked)
        if not len(live):
            return np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64)
        step_all = next_ptr[live ^ 1]
        if np.any(step_all == -1):
            return self._get_edge_rings_scalar(next_ptr)
        local = np.full(n_de, -1, dtype=np.int64)
        local[live] = np.arange(len(live))
        nxt = local[step_all]
        m = len(live)
        lab, jump = live.copy(), nxt.copy()
        for _ in range(m.bit_length()):
            lab = np.minimum(lab, lab[jump])
            jump = jump[jump]
        leader_local = local[lab]
        prev = np.empty(m, dtype=np.int64)
        prev[nxt] = np.arange(m)
        ptr = nxt.copy()
        ptr[prev[leader_local]] = prev[leader_local]
        dist = (ptr != np.arange(m)).astype(np.int64)
        for _ in range(m.bit_length()):
            dist = dist + dist[ptr]
            ptr = ptr[ptr]
        rank = np.bincount(leader_local, minlength=m)[leader_local] - 1 - dist
        order = np.lexsort((rank, lab))
        edges, leaders = live[order], lab[order]
        starts = np.flatnonzero(np.concatenate([[True], leaders[1:] != leaders[:-1]]))
        sizes = np.diff(np.append(starts, m))
        offsets = np.concatenate([[0], np.cumsum(sizes + 1)]).astype(np.int64)
        nodes = np.empty(m + len(starts), dtype=np.int64)
        nodes[offsets[:-1]] = self.de_src[edges[starts]]
        nodes[np.arange(m) + np.repeat(np.arange(1, len(starts) + 1), sizes)] = self.de_dst[edges]
        return self.nodes_x[nodes], self.nodes_y[nodes], offsets


def trace(cls, segs):
    g = cls(*segs)
    g.sort_edges()
    g.prune_dangles()
    return g.get_edge_rings()


def assert_same_rings(segs):
    got = trace(PlanarGraph, segs)
    want = trace(ReferenceGraph, segs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


def slot_ordered(segs) -> bool:
    return PlanarGraph(*segs)._sort_axis_aligned()


def noded(segs):
    return SnapNoder(1e-10, 10).node(*segs)


def aa_soup(seed, dup):
    """Random horizontal and vertical integer segments, noded, then (when
    ``dup``) with some segments appended again, half of them reversed."""
    rng = np.random.default_rng(seed)
    k = 30
    a = rng.integers(0, 10, k).astype(float)
    b = rng.integers(0, 10, k).astype(float)
    c = rng.integers(0, 10, k).astype(float)
    horiz = rng.random(k) < 0.5
    x0, y0, x1, y1 = (np.where(horiz, a, b), np.where(horiz, b, a),
                      np.where(horiz, c, b), np.where(horiz, b, c))
    x0, y0, x1, y1 = noded((x0, y0, x1, y1))
    if dup:
        pick = rng.choice(len(x0), 6)
        fwd, rev = pick[:3], pick[3:]
        x0, y0, x1, y1 = (
            np.concatenate([x0, x0[fwd], x1[rev]]), np.concatenate([y0, y0[fwd], y1[rev]]),
            np.concatenate([x1, x1[fwd], x0[rev]]), np.concatenate([y1, y1[fwd], y0[rev]]),
        )
    return x0, y0, x1, y1


def skew_scene():
    """A coarse grid with one fine box, noded: the skew workload's hot cell
    scaled down."""
    lines, _ = skewed_grid_lines(span=40.0, coarse_pitch=4.0, hot_origins=((8.0, 12.0),),
                                 hot_size=8.0, fine_pitch=0.25)
    return noded(explode(lines))


class TestReferenceOracle:
    @pytest.mark.parametrize("node_input", [False, True])
    @pytest.mark.parametrize("name", list(SCENES))
    def test_fixture_scenes(self, name, node_input):
        segs = explode(SCENES[name])
        assert_same_rings(noded(segs) if node_input else segs)

    def test_unit_grids(self):
        for n in range(1, 51):
            segs = unit_grid_edges(n, 0, 0)
            assert slot_ordered(segs)
            fx, fy, offs = assert_same_rings(segs)
            assert len(offs) - 1 == n * n + 1

    def test_skew_scene_with_long_rings(self):
        segs = skew_scene()
        assert slot_ordered(segs)
        fx, fy, offs = assert_same_rings(segs)
        assert np.diff(offs).max() - 1 > _WALK_STEPS

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_soups(self, seed):
        assert_same_rings(explode(_soup(seed)))
        segs = aa_soup(seed, dup=False)
        assert slot_ordered(segs)
        assert_same_rings(segs)
        segs = aa_soup(seed, dup=True)
        assert not slot_ordered(segs)
        assert_same_rings(segs)

    @pytest.mark.parametrize("seed", range(4))
    def test_float_soups(self, seed):
        segs = noded(explode(random_lines(60, seed=seed)))
        assert not slot_ordered(segs)
        assert_same_rings(segs)

    def test_collinear_unnoded_fallback(self):
        # two half-edges leave (0, 0) eastwards: the overlap was never noded
        segs = seg_arrays([(0, 0, 2, 0), (0, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1),
                           (0, 1, 0, 0), (2, 0, 2, 1), (2, 1, 1, 1)])
        assert not slot_ordered(segs)
        assert_same_rings(segs)

    def test_empty_and_all_dangles(self):
        fx, fy, offs = assert_same_rings((np.empty(0),) * 4)
        assert len(fx) == 0 and offs.tolist() == [0]
        fx, fy, offs = assert_same_rings(seg_arrays([(0, 0, 1, 0), (1, 0, 1, 1), (1, 0, 2, 0)]))
        assert len(fx) == 0 and offs.tolist() == [0]


def reference_shells(flat_x, flat_y, offsets):
    """Shell ring ids (CCW shells, then promoted twin-less CW rings) by the
    promotion scan over every ring's bbox."""
    areas = signed_area_many(flat_x, flat_y, offsets)
    keep = np.abs(areas) >= 1e-9
    shell_ids = np.flatnonzero(keep & (areas > 0))
    hole_ids = np.flatnonzero(keep & (areas < 0))
    box = np.stack(bbox_many(flat_x, flat_y, offsets), axis=1)
    has_twin = np.array([
        any(np.array_equal(box[h], box[s]) and abs(abs(areas[s]) - abs(areas[h])) < 1e-6
            for s in shell_ids)
        for h in hole_ids
    ], dtype=bool)
    return np.concatenate([shell_ids, hole_ids[~has_twin]]).astype(np.int64), has_twin


def twin_scenes():
    def square(x, y, s):
        return ls((x, y), (x + s, y), (x + s, y + s), (x, y + s), (x, y))

    yield "touching", [square(0, 0, 50), square(50, 0, 50)]
    yield "apart", [square(0, 0, 1), square(3, 0, 1), square(0, 3, 2)]
    yield "ring_sides", square_sides(80)
    yield "nested_rings", [square(0, 0, 24), square(6, 6, 12)]
    yield "grid_and_squares", grid_lines(16) + [square(0.5, 0.5, 15), square(3.25, 3.25, 9.5)]
    yield from SCENES.items()


class TestPromotionScan:
    @pytest.mark.parametrize("name,lines", list(twin_scenes()))
    def test_shells_match_full_scan(self, name, lines):
        rings = trace_rings(*noded(explode(lines)))
        want, has_twin = reference_shells(*rings)
        got = _assemble_core(*rings)[0]
        assert got.tobytes() == want.tobytes()

    def test_scenes_have_twins(self):
        twins = [reference_shells(*trace_rings(*noded(explode(lines))))[1].any()
                 for _, lines in twin_scenes()]
        assert sum(twins) >= 5
