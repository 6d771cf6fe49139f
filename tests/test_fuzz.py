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
