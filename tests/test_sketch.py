"""HyperLogLog sketch accuracy + mergeability."""

import numpy as np
import pytest

from geo_polygonize_ray.functions.sketch import (
    approx_distinct,
    hll_estimate,
    hll_merge,
    hll_partial,
)


class TestHLLLocal:
    @pytest.mark.parametrize("n", [100, 5_000, 200_000])
    def test_accuracy(self, n):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 2**62, n)
        est = hll_estimate(hll_partial(vals))
        # p=12 -> standard error ~1.04/sqrt(4096) = 1.6%; allow 4 sigma
        assert abs(est - len(np.unique(vals))) / n < 0.065

    def test_merge_equals_union(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2**62, 50_000)
        b = rng.integers(0, 2**62, 50_000)
        merged = hll_merge([hll_partial(a), hll_partial(b)])
        whole = hll_partial(np.concatenate([a, b]))
        assert np.array_equal(merged, whole)

    def test_duplicates_dont_inflate(self):
        vals = np.tile(np.arange(1000, dtype=np.int64), 100)  # 100k rows, 1k distinct
        est = hll_estimate(hll_partial(vals))
        assert abs(est - 1000) / 1000 < 0.05

    @pytest.mark.parametrize("p", [4, 10, 11])
    def test_low_precision_rejected(self, p):
        """Below p=12 a register can reach 64 - p + 1 > 53, where the exact
        register sum would take a negative shift; both entry points refuse
        such a p with a message naming the precision."""
        regs = np.zeros(1 << p, dtype=np.uint8)
        regs[0] = 64 - p + 1  # the largest register hll_partial can emit
        with pytest.raises(ValueError, match="precision p="):
            hll_estimate(regs, p)
        with pytest.raises(ValueError, match="precision p="):
            hll_estimate(hll_partial(np.arange(1000, dtype=np.int64), p), p)
        with pytest.raises(ValueError, match="precision p="):
            approx_distinct(None, "k", p)

    def test_precision_12_accepted(self):
        est = hll_estimate(hll_partial(np.arange(1000, dtype=np.int64), 12), 12)
        assert abs(est - 1000) / 1000 < 0.05


@pytest.mark.usefixtures("ray_session")
class TestHLLDistributed:
    def test_approx_distinct_orderkeys(self, sf_dir):
        import duckdb
        import ray.data as rd

        ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
        est = approx_distinct(ds, "l_orderkey")
        exact = duckdb.sql(
            f"SELECT COUNT(DISTINCT l_orderkey) FROM read_parquet('{sf_dir}/lineitem.parquet')"
        ).fetchone()[0]
        assert abs(est - exact) / exact < 0.05
