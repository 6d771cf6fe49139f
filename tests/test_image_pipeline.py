"""Flagship image pipeline tests (FIXTURES.md §6.3: per-row invariants)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import pytest

from geo_polygonize_ray.local.polygonize import assemble_flat, trace_rings
from geo_polygonize_ray.pipelines.images import (
    IMAGE_RESULT_SCHEMA,
    ImageRoundtrip,
    _roundtrip_piece,
    image_roundtrip_pipeline,
)
from geo_polygonize_ray.raster import decode_image, rgb_to_labels
from geo_polygonize_ray.sources.fixtures import cached_image_table, generate_image_table
from test_raster import (
    _per_ring_faces,
    reference_labels_to_linework,
    reference_phash64,
    reference_psnr,
)

ROW_COLS = ["image_id", "n_polys", "total_area", "psnr_db", "phash_ok", "caption"]


def _rows(ds):
    return ds.to_pandas()[ROW_COLS].sort_values("image_id").reset_index(drop=True)


def _stats_names(ds) -> list[str]:
    todo, names = [ds._plan.stats()], []
    while todo:
        st = todo.pop()
        todo.extend(st.parents)
        names.extend(st.metadata)
    return names


def _mixed_shape_table(tmp_path):
    """Rows of 64x64, 48x80 and 17x33 images, interleaved."""
    parts = []
    for k, (h, w) in enumerate([(64, 64), (48, 80), (17, 33)]):
        path = generate_image_table(7, str(tmp_path / f"shape{k}.parquet"), w=w, h=h, seed=k)
        t = pq.read_table(path)
        ids = [f"{h}x{w}-{i}" for i in t["image_id"].to_pylist()]
        parts.append(t.set_column(0, "image_id", pa.array(ids, pa.string())))
    t = pa.concat_tables(parts)
    return t.take(np.argsort(np.arange(t.num_rows) % 7, kind="stable"))


def _oracle_rows(table) -> list[dict]:
    """One image at a time through the per-image reference kernels."""
    out = []
    for r in table.to_pylist():
        img = decode_image(r["bytes"], r["w"], r["h"], r["fmt"])
        fx, fy, offs = trace_rings(*reference_labels_to_linework(rgb_to_labels(img)))
        area = assemble_flat(fx, fy, offs)["area"]
        p = reference_psnr(img, _per_ring_faces(fx, fy, offs, img))
        out.append({
            "image_id": r["image_id"],
            "caption": r["caption"],
            "n_polys": len(area),
            "total_area": float(area.sum()),
            "psnr_db": p,
            "phash_ok": reference_phash64(img) == r["phash"],
            "roundtrip_ok": p >= 40.0,
        })
    return out


def test_mixed_shape_batch_matches_per_image_oracle(tmp_path):
    table = _mixed_shape_table(tmp_path)
    want = _oracle_rows(table)
    assert ImageRoundtrip()(table).to_pylist() == want
    one_by_one = [ImageRoundtrip()(table.slice(i, 1)).to_pylist()[0] for i in range(table.num_rows)]
    assert one_by_one == want


@pytest.mark.parametrize("batch_size", [None, 4, 64])
def test_row_range_pieces_read_their_rows(tmp_path, batch_size):
    """Row ranges of a one-row-group file, the last ending on its last row."""
    path = str(tmp_path / "one.parquet")
    table = pq.read_table(cached_image_table(48))
    pq.write_table(table, path)
    assert pq.ParquetFile(path).metadata.num_row_groups == 1
    fs = pafs.LocalFileSystem()
    for offset, rows in [(0, 48), (0, 5), (13, 11), (36, 12), (47, 1)]:
        got = _roundtrip_piece(path, 0, offset, rows, fs, lambda t: t, batch_size)
        assert got.equals(table.slice(offset, rows)), (offset, rows)


@pytest.mark.usefixtures("ray_session")
class TestImagePipeline:
    def test_roundtrip_invariants(self):
        path = cached_image_table(48)
        df = image_roundtrip_pipeline(path, batch_size=16).to_pandas()
        assert len(df) == 48
        # per-row invariants (BASELINE.json input_hint)
        assert df["phash_ok"].all(), "recomputed phash must match stored"
        assert df["roundtrip_ok"].all(), "PSNR >= 40 dB for every row"
        assert (df["n_polys"] >= 1).all()
        # lossless formats round-trip exactly (psnr capped at 999)
        assert (df["psnr_db"] == 999.0).all()
        # captions pass through byte-identical
        assert df["caption"].str.startswith("tile ").all()
        # total polygon area covers the full 64x64 tile for grid/nested scenes
        grid_rows = df[df["caption"].str.contains("grid")]
        assert np.allclose(grid_rows["total_area"], 64 * 64)

    def test_emit_polygons(self):
        path = cached_image_table(6)
        ds = image_roundtrip_pipeline(path, batch_size=4, emit_polygons=True)
        t = ds.to_pandas()
        assert {"image_id", "shell_xs", "area"} <= set(t.columns)
        assert t.groupby("image_id").size().min() >= 1

    def test_no_read_or_map_operator(self):
        ds = image_roundtrip_pipeline(cached_image_table(48), batch_size=16)
        assert len(ds.to_pandas()) == 48
        names = _stats_names(ds)
        assert names
        for op in ("ReadParquet", "MapBatches"):
            assert not any(op in n for n in names), names

    def test_input_layouts_give_identical_rows(self, tmp_path):
        """A directory of shards, one file of several row groups and one
        file of one row group (cut into row ranges) give the same rows."""
        single = cached_image_table(48)
        table = pq.read_table(single)
        assert pq.ParquetFile(single).metadata.num_row_groups == 1
        shards = tmp_path / "shards"
        os.makedirs(shards)
        for k in range(3):
            pq.write_table(table.slice(16 * k, 16), shards / f"part-{k}.parquet")
        groups = tmp_path / "groups.parquet"
        pq.write_table(table, groups, row_group_size=10)
        assert pq.ParquetFile(groups).metadata.num_row_groups == 5

        one = image_roundtrip_pipeline(single, batch_size=16)
        assert one.num_blocks() > 1  # one task per row range, not per file
        want = _rows(one)
        assert len(want) == 48
        for path in (shards, groups):
            got = _rows(image_roundtrip_pipeline(str(path), batch_size=16))
            assert got.equals(want), path

    def test_per_image_and_slab_batched_rows_match(self):
        path = cached_image_table(48)
        per_image = _rows(image_roundtrip_pipeline(path, batch_size=1))
        slab = _rows(image_roundtrip_pipeline(path, batch_size=None))
        assert len(slab) == 48
        assert per_image.equals(slab)

    def test_mixed_shapes_one_row_per_batch(self, tmp_path):
        table = _mixed_shape_table(tmp_path)
        path = tmp_path / "mixed.parquet"
        pq.write_table(table, path)
        got = image_roundtrip_pipeline(str(path), batch_size=1).to_pandas()
        assert got.to_dict("records") == _oracle_rows(table)

    def test_empty_table_is_typed(self, tmp_path):
        path = tmp_path / "empty.parquet"
        pq.write_table(pq.read_table(cached_image_table(6)).slice(0, 0), path)
        ds = image_roundtrip_pipeline(str(path))
        assert ds.count() == 0
        assert ds.schema().base_schema.equals(IMAGE_RESULT_SCHEMA)
