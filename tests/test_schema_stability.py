"""Typed exchange outputs without patches to Ray + the engine's hash_join.

Ray 2.49's sort-based exchange fabricates schema-less empty blocks, which
once broke chained acero joins (CORRECTNESS_r04 q3_top_orders /
minhash_dedup_groups).  The engine no longer runs that exchange, nor
patches Ray: every join, groupby and as-of join is one plain-task
exchange (functions/exchange.py) whose result keeps only the non-empty
buckets' typed outputs.  These tests pin that contract: importing the
engine leaves Ray's internals alone, the queries run no Ray Data
all-to-all operator, results carry the non-empty buckets' types, an
all-empty input gives no rows, and the engine's hash_join matches pandas
exactly.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd

ALL_TO_ALL = ("Sort", "Aggregate", "MapGroups", "Repartition", "Union")


def test_import_leaves_ray_internals_alone():
    """The package installs nothing into Ray: the internals the former
    shims replaced are Ray's own objects after the import, and no worker
    preload is exported."""
    code = """
import os
from ray.data._internal.arrow_block import ArrowBlockAccessor
from ray.data._internal.execution.operators.map_transformer import (
    BlocksToBatchesMapTransformFn,
)
from ray.data._internal.logical.operators.map_operator import Project
from ray.data._internal.planner.planner import Planner

before = (
    ArrowBlockAccessor.sort,
    BlocksToBatchesMapTransformFn.__call__,
    Planner._DEFAULT_PLAN_FNS[Project],
)
import geo_polygonize_ray
import geo_polygonize_ray.functions
import geo_polygonize_ray.pipelines.relational

after = (
    ArrowBlockAccessor.sort,
    BlocksToBatchesMapTransformFn.__call__,
    Planner._DEFAULT_PLAN_FNS[Project],
)
assert all(a is b for a, b in zip(before, after)), after
assert "RAY_preload_python_modules" not in os.environ
"""
    repo = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=repo)
    assert proc.returncode == 0, proc.stderr


def _stats_names(ds: rd.Dataset) -> list[str]:
    todo, names = [ds._plan.stats()], []
    while todo:
        st = todo.pop()
        todo.extend(st.parents)
        names.extend(st.metadata)
    return names


@pytest.fixture
def executed_datasets(monkeypatch):
    """Every Dataset a query executes (through ``to_pandas`` or the
    exchange's ``iter_internal_ref_bundles``)."""
    seen: list = []
    for name in ("to_pandas", "iter_internal_ref_bundles"):
        orig = getattr(rd.Dataset, name)

        def wrapped(self, *a, _orig=orig, **kw):
            seen.append(self)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(rd.Dataset, name, wrapped)
    return seen


@pytest.mark.usefixtures("ray_session")
class TestNoAllToAll:
    @pytest.mark.parametrize(
        "module,query",
        [
            ("relational", "q_hash_join_order_revenue"),
            ("relational", "q_busy_customers"),
            ("temporal", "q_asof_join_last_order"),
            ("relational", "q_top_orders_by_price"),
        ],
    )
    def test_query_runs_no_all_to_all(self, executed_datasets, sf_dir, module, query):
        import importlib

        fn = getattr(importlib.import_module(f"geo_polygonize_ray.pipelines.{module}"), query)
        assert len(fn(sf_dir))
        names = [n for ds in executed_datasets for n in _stats_names(ds)]
        assert names
        for op in ALL_TO_ALL:
            assert not any(op in n for n in names), (op, names)


@pytest.mark.usefixtures("ray_session")
class TestTypedBuckets:
    def test_empty_buckets_carry_non_empty_types(self):
        """Two string keys over 2 x CPUs reduce tasks: most buckets are
        empty (pandas would type their empty string column as null), and
        the result holds only the non-empty buckets' typed blocks."""
        from geo_polygonize_ray.functions import bucketed_groupby
        from geo_polygonize_ray.functions.exchange import exchange_buckets

        df = pd.DataFrame({"k": ["a", "b", "a"], "v": np.array([1, 2, 3], np.int64)})
        out = bucketed_groupby(
            rd.from_pandas(df),
            "k",
            lambda g: g.groupby("k", as_index=False).agg(n=("v", "size"), s=("v", "sum")),
        )
        want = pa.schema([("k", pa.string()), ("n", pa.int64()), ("s", pa.int64())])
        assert exchange_buckets() > 2
        blocks = [ray.get(r) for r in out.to_arrow_refs()]
        assert 1 <= len(blocks) <= 2 and all(b.num_rows for b in blocks)
        assert all(b.schema.remove_metadata() == want for b in blocks), [b.schema for b in blocks]
        assert out.schema().base_schema.remove_metadata() == want
        got = out.to_pandas().sort_values("k").reset_index(drop=True)
        assert got.to_dict("list") == {"k": ["a", "b"], "n": [2, 1], "s": [4, 2]}

    def test_all_empty_input_without_columns(self):
        """Ray Data forwards an empty batch past a map_batches UDF, so an
        all-empty input may reach an exchange with another stage's columns
        or none: the join and the groupby return no rows, not a KeyError."""
        from geo_polygonize_ray.functions import bucketed_groupby, hash_join

        bare = rd.from_arrow_refs([ray.put(pa.table({}))])
        rows = rd.from_pandas(pd.DataFrame({"k": np.arange(4, dtype=np.int64)}))
        per_key = lambda g: g.groupby("k", as_index=False).agg(n=("k", "size"))  # noqa: E731
        assert bucketed_groupby(bare, "k", per_key).count() == 0
        joined = hash_join(
            rows, bare, on="k", right_on="r", left_cols={"k": "int64"}, right_cols={"r": "int64"}
        )
        assert joined.count() == 0


@pytest.mark.usefixtures("ray_session")
class TestHashJoin:
    def _sides(self, n_left=2000, n_right=300, seed=7):
        rng = np.random.default_rng(seed)
        left = pd.DataFrame(
            {
                "lk": rng.integers(0, 400, n_left).astype(np.int64),
                "lv": rng.random(n_left),
            }
        )
        right = pd.DataFrame(
            {
                "rk": rng.permutation(400)[:n_right].astype(np.int64),
                "rtag": [f"t{i}" for i in range(n_right)],
            }
        )
        return left, right

    def test_matches_pandas_inner_merge(self):
        from geo_polygonize_ray.functions import hash_join

        left, right = self._sides()
        got = (
            hash_join(
                rd.from_pandas(left).repartition(8),
                rd.from_pandas(right).repartition(4),
                on="lk",
                right_on="rk",
                left_cols={"lk": "int64", "lv": "float64"},
                right_cols={"rk": "int64", "rtag": "object"},
            )
            .to_pandas()
            .sort_values(["lk", "lv", "rtag"], kind="stable")
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, left_on="lk", right_on="rk")
            .sort_values(["lk", "lv", "rtag"], kind="stable")
            .reset_index(drop=True)[got.columns]
        )
        pd.testing.assert_frame_equal(got, want)

    def test_post_fuses_aggregation_into_shuffle(self):
        from geo_polygonize_ray.functions import hash_join

        left, right = self._sides()
        got = (
            hash_join(
                rd.from_pandas(left),
                rd.from_pandas(right),
                on="lk",
                right_on="rk",
                left_cols={"lk": "int64", "lv": "float64"},
                right_cols={"rk": "int64", "rtag": "object"},
                post=lambda m: m.groupby("lk", as_index=False).agg(s=("lv", "sum")),
            )
            .to_pandas()
            .sort_values("lk")
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, left_on="lk", right_on="rk")
            .groupby("lk", as_index=False)
            .agg(s=("lv", "sum"))
            .sort_values("lk")
            .reset_index(drop=True)
        )
        assert np.array_equal(got["lk"], want["lk"])
        assert np.allclose(got["s"], want["s"])

    def test_empty_side_yields_empty_typed(self):
        from geo_polygonize_ray.functions import hash_join

        left, right = self._sides()
        got = hash_join(
            rd.from_pandas(left),
            rd.from_pandas(right.iloc[:0]),
            on="lk",
            right_on="rk",
            left_cols={"lk": "int64", "lv": "float64"},
            right_cols={"rk": "int64", "rtag": "object"},
        ).to_pandas()
        assert len(got) == 0

    def test_chained_joins_stable_across_runs(self):
        # the r4 flake was nondeterministic; chain two engine joins and
        # repeat — results must be identical every time
        from geo_polygonize_ray.functions import hash_join

        left, right = self._sides()
        mid = pd.DataFrame({"mk": np.arange(400, dtype=np.int64)})
        results = []
        for _ in range(3):
            j1 = hash_join(
                rd.from_pandas(left).repartition(6),
                rd.from_pandas(mid).repartition(6),
                on="lk",
                right_on="mk",
                left_cols={"lk": "int64", "lv": "float64"},
                right_cols={"mk": "int64"},
            ).select_columns(["lk", "lv"])
            j2 = hash_join(
                j1,
                rd.from_pandas(right),
                on="lk",
                right_on="rk",
                left_cols={"lk": "int64", "lv": "float64"},
                right_cols={"rk": "int64", "rtag": "object"},
                post=lambda m: m.groupby("lk", as_index=False).agg(s=("lv", "sum")),
            )
            df = j2.to_pandas().sort_values("lk").reset_index(drop=True)
            results.append(df)
        for r in results[1:]:
            pd.testing.assert_frame_equal(results[0], r)
