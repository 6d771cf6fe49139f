"""Property-based fuzzing with hypothesis: the engine's core invariants hold
for arbitrary segment soups (FIXTURES.md §6)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geo_polygonize_ray.geom.kernels import signed_area
from geo_polygonize_ray.local import polygonize_lines

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def segs_to_lines(segs):
    return [np.array([[a, b], [c, d]]) for a, b, c, d in segs]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=25))
def test_polygonize_never_crashes_and_invariants(segs):
    """Any segment soup: no crash; every output polygon has positive area,
    a closed CCW shell, and holes with smaller total area."""
    polys = polygonize_lines(segs_to_lines(segs), node_input=True)
    for p in polys:
        assert p.area > 1e-6
        assert p.shell_x[0] == p.shell_x[-1] and p.shell_y[0] == p.shell_y[-1]
        assert signed_area(p.shell_x[:-1], p.shell_y[:-1]) != 0.0
        hole_area = sum(
            abs(signed_area(hx[:-1], hy[:-1])) for hx, hy in zip(p.holes_x, p.holes_y)
        )
        shell_area = abs(signed_area(p.shell_x[:-1], p.shell_y[:-1]))
        assert hole_area < shell_area + 1e-6


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(coord, coord, coord, coord), min_size=2, max_size=16),
    st.floats(min_value=20.0, max_value=60.0),
)
def test_total_area_bounded_by_hull(segs, _tile):
    """Total polygon area can never exceed the bbox of the input."""
    lines = segs_to_lines(segs)
    polys = polygonize_lines(lines, node_input=True)
    if not polys:
        return
    allx = np.concatenate([ls[:, 0] for ls in lines])
    ally = np.concatenate([ls[:, 1] for ls in lines])
    bbox_area = (allx.max() - allx.min()) * (ally.max() - ally.min())
    total = sum(p.area for p in polys)
    assert total <= bbox_area + 1e-6


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_closed_grid_of_random_offsets(n, seed):
    """Translated/scaled grids always yield exactly n^2 unit-ish faces."""
    rng = np.random.default_rng(seed)
    ox, oy = rng.uniform(-50, 50, 2)
    s = rng.uniform(0.5, 3.0)
    lines = []
    for i in range(n + 1):
        lines.append(np.array([[ox, oy + i * s], [ox + n * s, oy + i * s]]))
        lines.append(np.array([[ox + i * s, oy], [ox + i * s, oy + n * s]]))
    polys = polygonize_lines(lines, node_input=True)
    assert len(polys) == n * n
    assert np.allclose(sorted(p.area for p in polys), s * s, rtol=1e-9)


# Metamorphic transforms: an integer translation and a 90-degree rotation
# map the arrangement onto itself, so polygon count, areas and hole counts
# must not change (float rounding moves areas by far less than 1e-6).
TRANSFORMS = {
    "translate": lambda xy: xy + np.array([37.0, -12.0]),
    "rotate90": lambda xy: np.stack([-xy[..., 1], xy[..., 0]], axis=-1),
}


def _random_soup(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, (int(rng.integers(20, 60)), 2, 2))
    return [pts[i] for i in range(len(pts))]


def assert_same_shape(a, b):
    assert len(a) == len(b)
    assert np.allclose(sorted(p.area for p in a), sorted(p.area for p in b), rtol=0, atol=1e-6)
    assert sorted(len(p.holes_x) for p in a) == sorted(len(p.holes_x) for p in b)


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("seed", range(6))
def test_local_invariant_under_translation_and_rotation(seed, transform):
    lines = _random_soup(seed)
    moved = [TRANSFORMS[transform](ls) for ls in lines]
    assert_same_shape(
        polygonize_lines(moved, node_input=True), polygonize_lines(lines, node_input=True)
    )


class TestDistributedEquivalenceFuzz:
    """Random soups + random tile configs: distributed == local, always.
    (Plain parametrized randomness rather than hypothesis: each example runs
    a Ray pipeline, so we keep the count small and the seeds fixed.)"""

    import pytest as _pytest

    @_pytest.mark.usefixtures("ray_session")
    @_pytest.mark.parametrize("seed", [3, 11, 29, 47])
    def test_random_soup_any_tiling(self, seed):
        from geo_polygonize_ray.config import PipelineConfig
        from geo_polygonize_ray.pipelines.polygonize import polygonize_lines_distributed

        rng = np.random.default_rng(seed)
        k = int(rng.integers(20, 60))
        pts = rng.uniform(0, 100, (k, 2, 2))
        lines = [pts[i] for i in range(k)]
        local = polygonize_lines(lines, node_input=True)
        tile = float(rng.uniform(15, 40))
        cfg = PipelineConfig(tile_size=tile, tile_buffer=120.0)  # buffer > domain
        dist = polygonize_lines_distributed(lines, cfg, bbox=(0, 0, 100, 100))

        def key(p):
            return (
                round(p.area, 9),
                round(float(p.shell_x.min()), 9),
                round(float(p.shell_y.max()), 9),
                len(p.holes_x),
            )

        assert sorted(map(key, dist)) == sorted(map(key, local))

    @_pytest.mark.usefixtures("ray_session")
    @_pytest.mark.parametrize("transform", list(TRANSFORMS))
    @_pytest.mark.parametrize("seed", [3, 29])
    def test_tiled_invariant_under_translation_and_rotation(self, seed, transform):
        from geo_polygonize_ray.config import PipelineConfig
        from geo_polygonize_ray.pipelines.polygonize import polygonize_lines_distributed

        lines = _random_soup(seed)
        corners = TRANSFORMS[transform](np.array([[0.0, 0.0], [100.0, 100.0]]))
        bbox = (*corners.min(axis=0), *corners.max(axis=0))
        cfg = PipelineConfig(tile_size=30.0, tile_buffer=120.0)  # buffer > domain
        moved = [TRANSFORMS[transform](ls) for ls in lines]
        assert_same_shape(
            polygonize_lines_distributed(moved, cfg, bbox=bbox),
            polygonize_lines_distributed(lines, cfg, bbox=(0, 0, 100, 100)),
        )


# ---------------------------------------------------------------------------
# metamorphic: polygons whose centroids sit exactly on tile edges
# ---------------------------------------------------------------------------

EDGE_ORIGIN = -3.3


def _edge_values(ts, k):
    """Every k-way sub-tile edge of tiles 1..6 of the ``ts`` grid at
    EDGE_ORIGIN (k = 1: the tile edges), each written two ways that differ
    by an ulp for many edges of a non-dyadic grid: x0 + j*w, and the edge
    before it plus w."""
    out = []
    for c in range(1, 7):
        x0, x1 = EDGE_ORIGIN + c * ts, EDGE_ORIGIN + (c + 1) * ts
        w = (x1 - x0) / k
        out += [x0, (EDGE_ORIGIN + (c - 1) * ts) + ts]
        out += [v for j in range(1, k) for v in (x0 + j * w, (x0 + (j - 1) * w) + w)]
    return out


def _on_edge_squares(ts, k):
    """Disjoint squares [p - h, p + h]^2 down the diagonal, one for each edge
    value p that some h = m * ts / 64 (m = 1..32) puts the shell centroid
    the local polygonizer computes exactly on: centroid (p, p)."""
    from geo_polygonize_ray.pipelines.polygonize import polygonize_table_local
    from geo_polygonize_ray.sources.fixtures import linework_table

    squares, right = [], -np.inf
    for p in sorted(set(_edge_values(ts, k))):
        if p - ts / 2 <= right:
            continue
        for m in range(1, 33):
            a, b = p - m * ts / 64, p + m * ts / 64
            sq = np.array([[a, a], [b, a], [b, b], [a, b], [a, a]])
            t = polygonize_table_local(linework_table([sq]))
            if (t["cx"][0].as_py(), t["cy"][0].as_py()) == (p, p):
                squares.append(sq)
                right = b
                break
    return squares


def _count_area(areas):
    return len(areas), float(np.sum(areas))


def _assert_same_count_area(got, want):
    assert got[0] == want[0]
    # a lost or doubled square moves the sum by over 1e-3 of it
    assert np.isclose(got[1], want[1], rtol=1e-9, atol=0)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("ts", [0.1, 0.3, 0.7, 1.1])
def test_centroids_on_tile_edges(ts):
    """Squares centred exactly on tile and sub-tile edges of a non-dyadic
    grid: the tiled run (unsalted, and salted k x k in every tile for k =
    3, 5, 7), the adaptive run and the local run give the same polygon
    count and area sum.  A polygon whose centroid falls between two
    neighbours' owner rects is lost by every tiled path."""
    import ray.data as rd

    from geo_polygonize_ray.config import PipelineConfig
    from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset
    from geo_polygonize_ray.sources.fixtures import linework_table
    from geo_polygonize_ray.stages.linework import (
        SaltedSegmentAssigner,
        add_plane_key,
        explode_linework_to_segments,
    )
    from geo_polygonize_ray.stages.stitch import polygonize_dataset_adaptive
    from geo_polygonize_ray.stages.trace import TilePolygonizer

    o = EDGE_ORIGIN
    bbox = (o, o, o + 8 * ts, o + 8 * ts)
    for k in (1, 3, 5, 7):
        lines = _on_edge_squares(ts, k)
        assert len(lines) >= 3, (ts, k, len(lines))
        local = _count_area([p.area for p in polygonize_lines(lines, node_input=True)])
        assert local[0] == len(lines)
        # the tiled map and reduce functions in process, with every tile
        # salted k x k (k = 1: unsalted)
        hot = {t: k for t in range(64)} if k > 1 else {}
        assigner = SaltedSegmentAssigner(bbox, ts, ts, hot=hot)
        segs = explode_linework_to_segments(add_plane_key(linework_table(lines)))
        tiled = TilePolygonizer(assigner)(assigner.assign_and_clip(segs))
        _assert_same_count_area(_count_area(tiled["area"].to_numpy()), local)
        if k > 1:
            continue
        cfg = PipelineConfig(tile_size=ts, tile_buffer=ts, salt_threshold=0)
        for run in (polygonize_dataset, polygonize_dataset_adaptive):
            out = run(rd.from_arrow(linework_table(lines)), cfg, bbox).to_pandas()
            _assert_same_count_area(_count_area(out["area"].to_numpy()), local)


def _polylines_and_rings(seed):
    """Random polylines of 3-6 vertices and 2-3 closed rings (one linestring
    each, 5-8 vertices at radius 25-45 around a point near the centre) in
    [0, 100]^2: rings several escalation windows wide."""
    rng = np.random.default_rng(seed)
    lines = [rng.uniform(0, 100, (int(rng.integers(3, 7)), 2)) for _ in range(rng.integers(6, 12))]
    for _ in range(rng.integers(2, 4)):
        c, r = rng.uniform(40, 60, 2), rng.uniform(25, 45)
        a = np.sort(rng.uniform(0, 2 * np.pi, int(rng.integers(5, 9))))
        ring = np.clip(c + r * np.stack([np.cos(a), np.sin(a)], axis=1), 0, 100)
        lines.append(np.vstack([ring, ring[:1]]))
    return lines


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 21])
def test_adaptive_matches_local_on_large_rings(seed, adaptive_rounds):
    """Escalation on clipped segment rows: for random polylines and closed
    rings far larger than the round-0 window (tile 10, buffer 5), the
    adaptive run and the local run give the same polygon count and area
    sum, and at least one escalation round runs.  In seed 21 a shell's
    hole ring (given by its centroid) runs out of a window that holds the
    shell: a shell whose bbox meets an open face is not trusted."""
    import ray.data as rd

    from geo_polygonize_ray.config import PipelineConfig
    from geo_polygonize_ray.sources.fixtures import linework_table
    from geo_polygonize_ray.stages.stitch import polygonize_dataset_adaptive

    lines = _polylines_and_rings(seed)
    local = _count_area([p.area for p in polygonize_lines(lines, node_input=True)])
    cfg = PipelineConfig(tile_size=10.0, tile_buffer=1.0)
    out = polygonize_dataset_adaptive(
        rd.from_arrow(linework_table(lines)), cfg, (0, 0, 100, 100)
    ).to_pandas()
    assert len(adaptive_rounds) >= 2, adaptive_rounds
    _assert_same_count_area(_count_area(out["area"].to_numpy()), local)


# ---------------------------------------------------------------------------
# engine-function properties: packing + exact quantiles
# ---------------------------------------------------------------------------

from geo_polygonize_ray.functions.packing import pack_bucket_lengths  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=100),
)
def test_pack_next_fit_properties(lengths, cap):
    """Any lengths/capacity: pack ids are 0..k consecutive nondecreasing;
    each window's clipped total fits; packing is greedily maximal (the
    first item of window i+1 would have overflowed window i)."""
    lens = np.array(lengths, dtype=np.int64)
    pid = pack_bucket_lengths(lens, cap)
    assert pid[0] == 0
    steps = np.diff(pid)
    assert ((steps == 0) | (steps == 1)).all()
    clipped = np.minimum(lens, cap)
    for k in range(pid.max() + 1):
        m = pid == k
        assert m.sum() >= 1
        assert clipped[m].sum() <= cap or m.sum() == 1
    starts = np.flatnonzero(np.diff(pid)) + 1
    for s in starts:  # next-fit maximality at each boundary
        prev = pid[s] - 1
        assert clipped[pid == prev].sum() + clipped[s] > cap


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        min_size=2,
        max_size=400,
    ),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_exact_quantile_matches_order_statistics(vals, q):
    """Histogram refinement (forced through rounds by a tiny collect_cap)
    equals direct sorted-order interpolation for arbitrary value sets,
    including heavy duplicates and q at the extremes."""
    import pandas as pd

    import ray.data as rd

    from geo_polygonize_ray.functions.quantile import exact_group_quantiles

    v = np.array(vals, dtype=np.float64)
    ds = rd.from_pandas(pd.DataFrame({"k": ["g"] * len(v), "v": v}))
    out = exact_group_quantiles(ds, "k", "v", qs=(q,), n_bins=4, collect_cap=3)
    sv = np.sort(v)
    pos = (len(sv) - 1) * q
    k_lo, k_hi = int(np.floor(pos)), int(np.ceil(pos))
    expect = sv[k_lo] + (sv[k_hi] - sv[k_lo]) * (pos - k_lo)
    assert out.loc[0, f"q{q}"] == expect
