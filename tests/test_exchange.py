"""The plain-task exchange behind ``polygonize_dataset``.

Equivalence: every (plane, polygon) the distributed path emits matches the
in-process ``polygonize_table_local`` of the same table, compared as sorted
(area, cx, cy, n_holes) rows per plane, across tile sizes, salting modes,
multi-plane input and inputs with more blocks than CPUs.  Edge cases: empty
input and zero-row reduce tasks give typed empty output.  Structure: the
polygonize path runs no Ray Data all-to-all, and the input lineage executes
once.
"""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.functions.exchange import dataset_slices, exchange, row_ranges, slice_table
from geo_polygonize_ray.pipelines.polygonize import (
    _exchange_bucket,
    polygonize_dataset,
    polygonize_table_local,
)
from geo_polygonize_ray.sources.fixtures import (
    grid_lines,
    linework_table,
    random_lines,
    skewed_grid_lines,
)
from geo_polygonize_ray.stages.linework import stable_plane_key
from geo_polygonize_ray.stages.trace import POLYGON_SCHEMA

OUT_COLUMNS = POLYGON_SCHEMA.names + ["plane_key"]


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=np.float64)


def nested_lines():
    """Squares 0..100, 20..80, 40..60: areas {6400, 3200, 400}, holes [1, 1, 0]."""
    return [square(0, 0, 100, 100), square(20, 20, 80, 80), square(40, 40, 60, 60)]


def strip_lines():
    """Coarse grid (pitch 4 over [0, 40]) plus 1023 horizontals splitting the
    cell [0, 4]^2 into 1024 strips: the tile holding them exceeds the auto
    salting floor, while the polygon count stays small."""
    lines, _ = skewed_grid_lines(span=40.0, coarse_pitch=4.0, hot_origins=())
    pitch = 4.0 / 1024
    lines += [np.array([[0.0, i * pitch], [4.0, i * pitch]]) for i in range(1, 1024)]
    return lines


def poly_rows(t: pa.Table) -> dict:
    """plane_key -> sorted (area, cx, cy, n_holes) rows."""
    out: dict = {}
    for pk, a, cx, cy, nh in zip(
        t["plane_key"].to_numpy(),
        t["area"].to_numpy(),
        t["cx"].to_numpy(),
        t["cy"].to_numpy(),
        t["n_holes"].to_numpy(),
    ):
        out.setdefault(int(pk), []).append((round(a, 9), round(cx, 9), round(cy, 9), int(nh)))
    return {k: sorted(v) for k, v in out.items()}


def consume(ds: rd.Dataset) -> pa.Table:
    """All rows, as a polybench job consumes them (an all-empty Dataset
    yields no batches: its schema stands in)."""
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else ds.schema().base_schema.empty_table()


def assert_matches_local(table: pa.Table, cfg: PipelineConfig, bbox=None, n_blocks: int = 1):
    if n_blocks > 1:
        bounds = np.linspace(0, table.num_rows, n_blocks + 1).astype(int)
        ds = rd.from_arrow([table.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])])
    else:
        ds = rd.from_arrow(table)
    out = consume(polygonize_dataset(ds, cfg, bbox=bbox))
    assert out.schema.names == OUT_COLUMNS
    local = polygonize_table_local(table, PipelineConfig(node_input=True))
    got, want = poly_rows(out), poly_rows(local)
    assert got == want
    return out


def two_planes(lines_a, lines_b) -> pa.Table:
    return pa.concat_tables(
        [linework_table(lines_a, plane_id="plane-a"), linework_table(lines_b, plane_id="plane-b")]
    )


@pytest.mark.usefixtures("ray_session")
class TestExchangeEquivalence:
    @pytest.mark.parametrize(
        "name,lines,tile,buffer,bbox",
        [
            ("grid", grid_lines(12), 4.0, 2.0, (0, 0, 12, 12)),
            ("grid_unaligned", grid_lines(12), 3.7, 2.0, (0, 0, 12, 12)),
            ("random", random_lines(60, seed=42), 25.0, 100.0, (0, 0, 100, 100)),
            ("nested", nested_lines(), 30.0, 100.0, (0, 0, 100, 100)),
            ("nested_no_bbox", nested_lines(), 30.0, 100.0, None),
        ],
    )
    def test_tiled_matches_local(self, name, lines, tile, buffer, bbox):
        cfg = PipelineConfig(tile_size=tile, tile_buffer=buffer)
        assert_matches_local(linework_table(lines), cfg, bbox)

    @pytest.mark.parametrize("salt_threshold", [50, None, 0])
    def test_salting_modes_match_local(self, salt_threshold):
        """Forced (small threshold), auto and off.  The strip fixture makes
        auto salting split the strip tile, so all three modes salt
        differently yet must agree with the local run."""
        cfg = PipelineConfig(tile_size=10.0, tile_buffer=5.0, salt_threshold=salt_threshold)
        out = assert_matches_local(linework_table(strip_lines()), cfg, (0, 0, 40, 40))
        assert out.num_rows == 1024 + 99
        salted = np.any(out["tile_id"].to_numpy() % 64 != 0)
        assert salted == (salt_threshold != 0)

    @pytest.mark.parametrize("tiled", [True, False])
    def test_multi_plane_matches_local(self, tiled):
        table = two_planes(grid_lines(6), random_lines(40, seed=3))
        if tiled:
            cfg = PipelineConfig(tile_size=25.0, tile_buffer=100.0)
        else:  # fast path off: the untiled branch runs the exchange too
            cfg = PipelineConfig(node_input=True, local_fastpath_rows=0)
        out = assert_matches_local(table, cfg, (0, 0, 100, 100) if tiled else None)
        assert len(set(out["plane_key"].to_numpy())) == 2

    @pytest.mark.parametrize("tiled", [True, False])
    def test_more_blocks_than_cpus(self, tiled):
        table = two_planes(grid_lines(10), nested_lines())
        if tiled:
            cfg = PipelineConfig(tile_size=30.0, tile_buffer=100.0)
        else:
            cfg = PipelineConfig(node_input=True, local_fastpath_rows=0)
        assert_matches_local(table, cfg, (0, 0, 100, 100) if tiled else None, n_blocks=11)


@pytest.mark.usefixtures("ray_session")
class TestExchangeEdges:
    @pytest.mark.parametrize(
        "cfg,bbox",
        [
            (PipelineConfig(tile_size=5.0, tile_buffer=1.0), (0, 0, 10, 10)),
            (PipelineConfig(tile_size=5.0, tile_buffer=1.0), None),
            (PipelineConfig(node_input=True, local_fastpath_rows=0), None),
        ],
    )
    def test_empty_input(self, cfg, bbox):
        out = polygonize_dataset(rd.from_arrow(linework_table([])), cfg, bbox=bbox)
        assert out.count() == 0
        assert out.schema().names == OUT_COLUMNS
        assert consume(out).num_rows == 0

    def test_zero_row_reduce_tasks(self):
        """16 reduce tasks for 4 tiles: most buckets are empty, and their
        tasks return typed empty tables."""
        table = linework_table(grid_lines(4))
        cfg = PipelineConfig(tile_size=2.0, tile_buffer=1.0, n_buckets=16)
        out = polygonize_dataset(rd.from_arrow(table), cfg, bbox=(0, 0, 4, 4))
        blocks = [ray.get(r) for r in out.to_arrow_refs()]
        assert len(blocks) == 16
        assert sum(b.num_rows == 0 for b in blocks) >= 12
        assert all(b.schema.names == OUT_COLUMNS for b in blocks)
        assert out.count() == 16  # unit cells
        assert poly_rows(consume(out)) == poly_rows(polygonize_table_local(table))

    def test_exchange_routes_rows_by_bucket(self):
        """The primitive alone: rows reach the reduce task of their bucket,
        in slice order, with empty buckets keeping the schema."""
        t = pa.table({"k": np.arange(20, dtype=np.int64)})
        slices, _, _ = dataset_slices(rd.from_arrow(t), 3)
        assert len(slices) == 3

        def by_parity(tb):
            return tb, np.where(tb["k"].to_numpy() % 2 == 0, 0, 2)

        refs, rows = exchange([(slices, by_parity)], 3, lambda tb: tb)
        even, empty, odd = ray.get(refs)
        assert ray.get(rows) == [10, 0, 10]
        assert even["k"].to_pylist() == list(range(0, 20, 2))
        assert odd["k"].to_pylist() == list(range(1, 20, 2))
        assert empty.num_rows == 0 and empty.schema == t.schema


@pytest.mark.parametrize("plane_id", ["plane-0", "plane-a", "x"])
@pytest.mark.parametrize("n_tiles,n_buckets", [(9, 8), (9, 16), (25, 16)])
def test_bucket_hash_spreads_small_tile_ids(plane_id, n_tiles, n_buckets):
    """Unsalted leaf ids are tile*64 with small tile ids; the bucket hash
    must still spread them (a multiply-and-shift hash put 8 of 9 tiles in
    one of 16 buckets, serializing the trace stage)."""
    t = pa.table(
        {
            "tile_id": np.arange(n_tiles, dtype=np.int64) * 64,
            "plane_key": np.full(n_tiles, stable_plane_key(plane_id), dtype=np.int64),
        }
    )
    counts = np.bincount(_exchange_bucket(t, n_buckets), minlength=n_buckets)
    assert counts.max() <= 5


@pytest.mark.usefixtures("ray_session")
class TestExchangeStructure:
    def test_no_all_to_all_in_stats_tree(self):
        cfg = PipelineConfig(tile_size=4.0, tile_buffer=2.0)
        out = polygonize_dataset(
            rd.from_arrow(linework_table(grid_lines(8))), cfg, bbox=(0, 0, 8, 8)
        )
        assert consume(out).num_rows == 64
        todo, names = [out._plan.stats()], []
        while todo:
            st = todo.pop()
            todo.extend(st.parents)
            # an all-to-all records its sub-operators as several entries
            assert len(st.metadata) <= 1, list(st.metadata)
            names.extend(st.metadata)
        assert names
        for op in ("Repartition", "Sort", "MapGroups", "Aggregate"):
            assert not any(op in n for n in names), names
            assert op not in out.stats()

    def test_input_lineage_executes_once(self, tmp_path):
        """Salting histogram, bbox and exchange all read the same blocks:
        an upstream UDF runs once per input block, not once per pass."""
        log = tmp_path / "calls"

        def tag(batch: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write("x\n")
            return batch

        ds = rd.from_arrow(linework_table(strip_lines())).map_batches(
            tag, batch_format="pyarrow", batch_size=None
        )
        cfg = PipelineConfig(tile_size=10.0, tile_buffer=5.0)  # auto salting, no bbox
        out = consume(polygonize_dataset(ds, cfg))
        assert out.num_rows == 1024 + 99
        assert log.read_text().count("x") == 1


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_blocks", [1, 5])
def test_in_memory_input_slices(n_blocks):
    """A materialized input is cut into the same (block, first row, rows)
    slices as reading its bundles directly, over the same block objects."""
    t = pa.table({"a": np.arange(1000, dtype=np.int64)})
    step = 1000 // n_blocks
    ds = rd.from_arrow([t.slice(i * step, step) for i in range(n_blocks)])
    blocks = [b for bundle in ds.iter_internal_ref_bundles() for b in bundle.blocks]
    want = [(blocks[i][0], lo, n) for i, lo, n in row_ranges([m.num_rows for _, m in blocks], 4)]
    slices, schema, total = dataset_slices(ds, 4)
    assert slices == want
    assert schema == t.schema and total == 1000
    got = pa.concat_tables(ray.get(ref).slice(lo, n) for ref, lo, n in slices)
    assert got.equals(t)


@pytest.mark.usefixtures("ray_session")
def test_pandas_input_schema():
    """Pandas blocks carry no Arrow schema: it is read from the first
    block in a task, and equals the Arrow conversion of the frame."""
    import pandas as pd

    df = pd.DataFrame(
        {"a": np.arange(10, dtype=np.int64), "s": [str(i) for i in range(10)], "f": np.linspace(0, 1, 10)}
    )
    slices, schema, total = dataset_slices(rd.from_pandas(df), 4)
    assert schema.equals(pa.Schema.from_pandas(df, preserve_index=False), check_metadata=True)
    assert total == 10
    got = pa.concat_tables(slice_table(ray.get(ref), lo, n) for ref, lo, n in slices)
    assert got.to_pandas().equals(df)
