"""Distributed points-in-polygons spatial join (pipelines/spatialjoin.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset
from geo_polygonize_ray.pipelines.spatialjoin import spatial_join_points_in_polygons
from geo_polygonize_ray.sources.fixtures import grid_lines, linework_table


def _grid_polygons(n, tile=None):
    cfg = PipelineConfig(tile_size=tile or float(n), tile_buffer=2.0)
    return polygonize_dataset(
        rd.from_arrow(linework_table(grid_lines(n))), cfg, bbox=(0, 0, float(n), float(n))
    )


def _points(px, py):
    return rd.from_pandas(
        pd.DataFrame(
            {"point_id": np.arange(len(px), dtype=np.int64), "x": px, "y": py}
        )
    )


@pytest.mark.usefixtures("ray_session")
class TestSpatialJoin:
    def test_grid_points_match_floor_assignment(self):
        n = 8
        rng = np.random.default_rng(3)
        px = rng.uniform(0.01, n - 0.01, 200)
        py = rng.uniform(0.01, n - 0.01, 200)
        # keep clear of cell edges so floor() is the unambiguous truth
        px = np.where(np.abs(px - np.round(px)) < 1e-3, px + 0.01, px)
        py = np.where(np.abs(py - np.round(py)) < 1e-3, py + 0.01, py)

        polys = _grid_polygons(n).materialize()
        got = (
            spatial_join_points_in_polygons(_points(px, py), polys, cell_size=2.0)
            .to_pandas()
            .sort_values("point_id")
            .reset_index(drop=True)
        )
        # every point inside exactly one unit cell
        assert len(got) == 200
        assert got["point_id"].is_unique
        # match via polygon centroid lookup
        pdf = polys.to_pandas()[["poly_id", "cx", "cy"]]
        merged = got.merge(pdf, on="poly_id")
        assert np.array_equal(np.floor(px[merged["point_id"]]), merged["cx"] - 0.5)
        assert np.array_equal(np.floor(py[merged["point_id"]]), merged["cy"] - 0.5)

    def test_cell_size_does_not_change_result(self):
        n = 6
        rng = np.random.default_rng(5)
        px = rng.uniform(0.1, n - 0.1, 60)
        py = rng.uniform(0.1, n - 0.1, 60)
        polys = _grid_polygons(n).materialize()
        outs = []
        for cs in (1.0, 2.5, 10.0):
            out = (
                spatial_join_points_in_polygons(_points(px, py), polys, cell_size=cs)
                .to_pandas()
                .sort_values(["point_id", "poly_id"])
                .reset_index(drop=True)
            )
            outs.append(out)
        for o in outs[1:]:
            pd.testing.assert_frame_equal(outs[0], o)

    def test_hole_excluded_island_included(self):
        # nested squares: outer [0,8]^2 with island [2,6]^2 -> two polygons:
        # the ring-shaped outer (1 hole) and the island
        lines = [
            np.array([(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0), (0.0, 0.0)]),
            np.array([(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0), (2.0, 2.0)]),
        ]
        cfg = PipelineConfig(tile_size=8.0, tile_buffer=2.0)
        polys = polygonize_dataset(
            rd.from_arrow(linework_table(lines)), cfg, bbox=(0, 0, 8, 8)
        ).materialize()
        pdf = polys.to_pandas()
        outer_id = int(pdf.loc[pdf["n_holes"] == 1, "poly_id"].iloc[0])
        island_id = int(pdf.loc[pdf["n_holes"] == 0, "poly_id"].iloc[0])

        # p0 in the ring area, p1 inside the island, p2 outside everything
        got = (
            spatial_join_points_in_polygons(
                _points(np.array([1.0, 4.0, 9.5]), np.array([1.0, 4.0, 9.5])),
                polys,
                cell_size=4.0,
            )
            .to_pandas()
            .sort_values("point_id")
            .reset_index(drop=True)
        )
        assert len(got) == 2
        assert got.loc[got["point_id"] == 0, "poly_id"].iloc[0] == outer_id
        assert got.loc[got["point_id"] == 1, "poly_id"].iloc[0] == island_id

    def test_polygon_spanning_many_cells_joined_once(self):
        # one big square [0,10]^2, tiny cells: the polygon duplicates to
        # 100+ cells but each point still pairs with it exactly once
        lines = [
            np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)])
        ]
        cfg = PipelineConfig(tile_size=10.0, tile_buffer=2.0)
        polys = polygonize_dataset(
            rd.from_arrow(linework_table(lines)), cfg, bbox=(0, 0, 10, 10)
        ).materialize()
        got = (
            spatial_join_points_in_polygons(
                _points(np.array([0.5, 5.5, 9.5]), np.array([0.5, 5.5, 9.5])),
                polys,
                cell_size=1.0,
            )
            .to_pandas()
            .sort_values("point_id")
            .reset_index(drop=True)
        )
        assert len(got) == 3
        assert got["point_id"].is_unique

    def test_no_matches_is_empty_not_error(self):
        polys = _grid_polygons(4).materialize()
        got = spatial_join_points_in_polygons(
            _points(np.array([100.0]), np.array([100.0])), polys, cell_size=2.0
        ).to_pandas()
        assert len(got) == 0


@pytest.mark.usefixtures("ray_session")
class TestBroadcastSpatialJoin:
    def test_broadcast_equals_copartitioned(self):
        from geo_polygonize_ray.pipelines.spatialjoin import spatial_join_broadcast

        n = 8
        rng = np.random.default_rng(9)
        px = rng.uniform(0.05, n - 0.05, 300)
        py = rng.uniform(0.05, n - 0.05, 300)
        polys = _grid_polygons(n).materialize()

        a = (
            spatial_join_points_in_polygons(_points(px, py), polys, cell_size=2.0)
            .to_pandas()
            .sort_values(["point_id", "poly_id"])
            .reset_index(drop=True)
        )
        b = (
            spatial_join_broadcast(_points(px, py), polys)
            .to_pandas()
            .sort_values(["point_id", "poly_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_broadcast_holes_and_miss(self):
        from geo_polygonize_ray.pipelines.spatialjoin import spatial_join_broadcast

        lines = [
            np.array([(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0), (0.0, 0.0)]),
            np.array([(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0), (2.0, 2.0)]),
        ]
        cfg = PipelineConfig(tile_size=8.0, tile_buffer=2.0)
        polys = polygonize_dataset(
            rd.from_arrow(linework_table(lines)), cfg, bbox=(0, 0, 8, 8)
        ).materialize()
        got = (
            spatial_join_broadcast(
                _points(np.array([1.0, 4.0, 9.5]), np.array([1.0, 4.0, 9.5])), polys
            )
            .to_pandas()
            .sort_values("point_id")
            .reset_index(drop=True)
        )
        pdf = polys.to_pandas()
        outer_id = int(pdf.loc[pdf["n_holes"] == 1, "poly_id"].iloc[0])
        island_id = int(pdf.loc[pdf["n_holes"] == 0, "poly_id"].iloc[0])
        assert len(got) == 2
        assert got.loc[got["point_id"] == 0, "poly_id"].iloc[0] == outer_id
        assert got.loc[got["point_id"] == 1, "poly_id"].iloc[0] == island_id


@pytest.mark.usefixtures("ray_session")
def test_zonal_stats_matches_pandas():
    from geo_polygonize_ray.pipelines.spatialjoin import zonal_stats

    n = 6
    rng = np.random.default_rng(13)
    px = rng.uniform(0.05, n - 0.05, 150)
    py = rng.uniform(0.05, n - 0.05, 150)
    val = rng.random(150)
    pts = rd.from_pandas(
        pd.DataFrame(
            {"point_id": np.arange(150, dtype=np.int64), "x": px, "y": py, "value": val}
        )
    )
    polys = _grid_polygons(n).materialize()
    got = (
        zonal_stats(pts, polys, "value")
        .to_pandas()
        .sort_values("poly_id")
        .reset_index(drop=True)
    )
    # pandas truth: assign each point to its unit cell, aggregate
    cent = polys.to_pandas()[["poly_id", "cx", "cy"]]
    truth = (
        pd.DataFrame({"cx": np.floor(px) + 0.5, "cy": np.floor(py) + 0.5, "value": val})
        .merge(cent, on=["cx", "cy"])
        .groupby("poly_id", as_index=False)
        .agg(n_points=("value", "size"), sum_value=("value", "sum"))
        .sort_values("poly_id")
        .reset_index(drop=True)
    )
    assert np.array_equal(got["poly_id"], truth["poly_id"])
    assert np.array_equal(got["n_points"], truth["n_points"])
    assert np.allclose(got["sum_value"], truth["sum_value"])


@pytest.mark.usefixtures("ray_session")
class TestSkewAndEdgeCases:
    def test_salted_hot_cell_matches_unsalted(self):
        # ALL points in one cell (the skew a cell size cannot fix): the
        # salted plan must return the identical pair set
        n = 6
        rng = np.random.default_rng(21)
        px = rng.uniform(2.05, 2.95, 400)  # every point in cell (2..3)^2
        py = rng.uniform(2.05, 2.95, 400)
        polys = _grid_polygons(n).materialize()
        base = (
            spatial_join_points_in_polygons(_points(px, py), polys, cell_size=1.0)
            .to_pandas()
            .sort_values(["point_id", "poly_id"])
            .reset_index(drop=True)
        )
        salted = (
            spatial_join_points_in_polygons(
                _points(px, py), polys, cell_size=1.0, salt=8
            )
            .to_pandas()
            .sort_values(["point_id", "poly_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(base, salted)
        assert len(salted) == 400

    def test_salt_bounds_group_size(self):
        # the salt hash must actually spread points across groups
        from geo_polygonize_ray.pipelines.spatialjoin import _cell_key

        pid = np.arange(10000, dtype=np.int64)
        s = ((pid * np.int64(2654435761)) % np.int64(4294967296) % 8).astype(np.int32)
        counts = np.bincount(s, minlength=8)
        assert counts.max() < 10000 * 0.25  # no salt group holds the cell

    def test_broadcast_empty_polygon_side(self):
        # ADVICE r4: zero polygons crashed index construction (IndexError
        # on first_ring) before the probe's len-guard could run
        from geo_polygonize_ray.pipelines.spatialjoin import (
            spatial_join_broadcast,
            zonal_stats,
        )

        empty_polys = _grid_polygons(4).filter(lambda r: False).materialize()
        pts = _points(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        out = spatial_join_broadcast(pts, empty_polys)
        # blocks stay TYPED (Ray's to_pandas drops columns of an all-empty
        # dataset, but the block schema must survive for downstream stages)
        assert out.schema().names == ["point_id", "poly_id"]
        assert len(out.to_pandas()) == 0
        pts_v = rd.from_pandas(
            pd.DataFrame(
                {"point_id": np.array([0, 1]), "x": [1.0, 2.0], "y": [1.0, 2.0],
                 "value": [3.0, 4.0]}
            )
        )
        zs = zonal_stats(pts_v, empty_polys, "value")
        assert len(zs.to_pandas()) == 0
        schema = zs.schema().base_schema
        assert schema.names == ["poly_id", "n_points", "sum_value"]
        assert schema.types == [pa.int64(), pa.int64(), pa.float64()]

    def test_copartitioned_empty_polygon_side(self):
        empty_polys = _grid_polygons(4).filter(lambda r: False).materialize()
        pts = _points(np.array([1.0]), np.array([1.0]))
        got = spatial_join_points_in_polygons(pts, empty_polys, cell_size=1.0).to_pandas()
        assert len(got) == 0
