"""Bucketed table layout + shuffle-free co-located join.

The single biggest all-to-all cost in a 100 TB pipeline is the join
shuffle, and the classic fix (Hive/Spark bucketed tables) is a LAYOUT
decision: hash-partition each table by its join key ONCE at write time,
into the SAME number of buckets with the SAME hash, and every subsequent
join on that key becomes embarrassingly parallel — task b reads bucket b
of both sides and merges locally.  No exchange at query time; the cost is
amortized across every join that reuses the layout.

Ray-Data-native shape:

* ``write_bucketed_parquet`` — one ``map_batches`` to stamp
  ``_bucket = knuth64(key) % B``, then a partitioned ``write_parquet``
  (one directory per bucket — also the resumability grain).  A
  ``_LAYOUT.json`` manifest pins (key, n_buckets, hash) and a
  ``_SUCCESS`` marker makes the publish atomic (build into a tmp dir,
  rename into place — same discipline as the IVF index publish,
  pipelines/ann.py).
* ``bucket_join`` — a Dataset of bucket ids fanned out with
  ``map_batches``: each task reads ONLY its bucket directory from both
  layouts (column-pruned pyarrow read) and merges in pandas.  The
  manifests are validated to agree before any work is scheduled, so a
  mis-bucketed join fails fast instead of returning silently wrong rows.

The bucket hash is the Knuth multiplicative hash on the int64 key —
process-independent (unlike Python ``hash()``), and the same family the
sampling operators use (functions/sample.py).  String keys must be
pre-hashed to int64 by the caller (e.g. ``stable_plane_key``); restricting
the layout key to int64 keeps the on-disk contract trivially portable.

Reference parity note: the reference engine has no persistent-layout
operator; this family is part of the LLM-data-pipeline superset (brief:
"pick ONE partitioning key and reuse it across stages").
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

_KNUTH64 = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio

LAYOUT_MANIFEST = "_LAYOUT.json"
SUCCESS_MARKER = "_SUCCESS"


def bucket_of(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Deterministic bucket id for int64 keys (Knuth multiplicative mix).

    uint64 multiply wraps mod 2^64 (numpy semantics), so the result is
    identical on every worker and every run.
    """
    k = np.ascontiguousarray(keys, dtype=np.int64).view(np.uint64)
    return ((k * _KNUTH64) >> np.uint64(40)).astype(np.int64) % n_buckets


def write_bucketed_parquet(
    ds: rd.Dataset,
    path: str,
    key: str,
    n_buckets: int = 64,
) -> str:
    """Write ``ds`` hash-bucketed by int64 column ``key`` into
    ``path/_bucket=b/`` directories with a validating manifest.

    Build-into-tmp + atomic rename: a reader never observes a partial
    layout, and a concurrent builder of the same path loses the rename
    race harmlessly (its tmp dir is discarded).
    """
    schema = ds.schema()
    key_type = dict(zip(schema.names, schema.types))[key]
    is_int = (
        pa.types.is_integer(key_type)
        if isinstance(key_type, pa.DataType)
        else np.issubdtype(np.dtype(key_type), np.integer)
    )
    if not is_int:
        raise TypeError(f"bucketed layout key {key!r} must be an integer column, got {key_type}")

    tmp = f"{path}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)

    def stamp(batch: pa.Table) -> pa.Table:
        b = bucket_of(batch[key].to_numpy(zero_copy_only=False), n_buckets)
        return batch.append_column("_bucket", pa.array(b, pa.int64()))

    ds.map_batches(stamp, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["_bucket"]
    )
    with open(os.path.join(tmp, LAYOUT_MANIFEST), "w") as f:
        json.dump({"key": key, "n_buckets": int(n_buckets), "hash": "knuth64>>40"}, f)
    with open(os.path.join(tmp, SUCCESS_MARKER), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, path)
    except OSError:
        import shutil

        if os.path.exists(os.path.join(path, SUCCESS_MARKER)):
            shutil.rmtree(tmp, ignore_errors=True)  # lost the race to a valid layout
        else:
            raise
    return path


def read_layout_manifest(path: str) -> dict:
    if not os.path.exists(os.path.join(path, SUCCESS_MARKER)):
        raise FileNotFoundError(f"{path!r} is not a published bucketed layout (no _SUCCESS)")
    with open(os.path.join(path, LAYOUT_MANIFEST)) as f:
        return json.load(f)


def _bucket_files(path: str, b: int) -> list[str]:
    d = os.path.join(path, f"_bucket={b}")
    if not os.path.isdir(d):
        return []
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


class _BucketJoiner:
    """Per-task co-located join: reads bucket b of both layouts and merges.

    Stateless-callable instance (construction is a few strings), so it runs
    on the session's warm task pool; the parquet reads inside are
    column-pruned.
    """

    def __init__(
        self,
        left_path: str,
        right_path: str,
        left_on: str,
        right_on: str,
        how: str,
        left_cols: list[str] | None,
        right_cols: list[str] | None,
    ):
        self.left_path = left_path
        self.right_path = right_path
        self.left_on = left_on
        self.right_on = right_on
        self.how = how
        self.left_cols = left_cols
        self.right_cols = right_cols

    def _empty(self, path: str, cols: list[str] | None) -> pd.DataFrame:
        """Typed zero-row frame from the layout's parquet schema (so empty
        buckets emit schema-compatible blocks Ray can unify)."""
        import glob as _glob

        import pyarrow.parquet as pq

        any_file = sorted(_glob.glob(os.path.join(path, "_bucket=*", "*.parquet")))[0]
        schema = pq.read_schema(any_file)
        t = schema.empty_table()
        return (t.select(cols) if cols else t).to_pandas()

    def _read(self, path: str, b: int, cols: list[str] | None) -> pd.DataFrame:
        import pyarrow.parquet as pq

        files = _bucket_files(path, b)
        if not files:
            return self._empty(path, cols)
        t = pa.concat_tables(pq.read_table(f, columns=cols) for f in files)
        return t.to_pandas()

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        frames = []
        for b in batch["bucket"].to_numpy(zero_copy_only=False):
            lf = self._read(self.left_path, int(b), self.left_cols)
            rf = self._read(self.right_path, int(b), self.right_cols)
            frames.append(
                lf.merge(rf, how=self.how, left_on=self.left_on, right_on=self.right_on)
            )
        return pd.concat(frames, ignore_index=True)


def bucket_lookup(path: str, keys: np.ndarray) -> pd.DataFrame:
    """Point lookup: rows of the layout matching ``keys``, reading ONLY the
    buckets those keys hash into — bytes scanned are |hit buckets| / B of
    the table, independent of total size.  Driver-side by design (the
    result is a small frame for a small key set); fan a Dataset over
    buckets via ``bucket_aggregate`` when the key set is itself large."""
    import pyarrow.parquet as pq

    m = read_layout_manifest(path)
    keys = np.asarray(keys, dtype=np.int64)
    want = np.unique(keys)
    frames = []
    for b in np.unique(bucket_of(want, int(m["n_buckets"]))):
        files = _bucket_files(path, int(b))
        if not files:
            continue
        t = pa.concat_tables(pq.read_table(f) for f in files)
        mask = pa.compute.is_in(t[m["key"]], value_set=pa.array(want, pa.int64()))
        frames.append(t.filter(mask).to_pandas())
    if not frames:
        return pd.DataFrame()
    return pd.concat(frames, ignore_index=True)


class _BucketAggregator:
    """Per-task exact aggregation over one bucket of a published layout.

    Because the layout hash-partitions by the key, every row of a key is
    in exactly one bucket — so a per-bucket pandas groupby is EXACT
    per-key output with no shuffle at all (the exchange was paid once at
    layout-write time, like the join)."""

    def __init__(self, path: str, per_key_fn, cols: list[str] | None):
        self.path = path
        self.per_key_fn = per_key_fn
        self.cols = cols

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        import pyarrow.parquet as pq

        import glob as _glob

        frames = []
        for b in batch["bucket"].to_numpy(zero_copy_only=False):
            files = _bucket_files(self.path, int(b))
            if not files:
                # typed empty via the layout schema so Ray can unify blocks
                any_file = sorted(
                    _glob.glob(os.path.join(self.path, "_bucket=*", "*.parquet"))
                )[0]
                t = pq.read_schema(any_file).empty_table()
                t = t.select(self.cols) if self.cols else t
            else:
                t = pa.concat_tables(pq.read_table(f, columns=self.cols) for f in files)
            frames.append(self.per_key_fn(t.to_pandas()))
        return pd.concat(frames, ignore_index=True)


def bucket_aggregate(
    path: str,
    per_key_fn,
    cols: list[str] | None = None,
) -> rd.Dataset:
    """Shuffle-free exact per-key aggregation over a published bucketed
    layout: one task per bucket, ``per_key_fn`` (a pandas groupby over the
    layout key, same contract as ``bucketed_groupby``) runs on each
    bucket's complete rows."""
    m = read_layout_manifest(path)
    n = int(m["n_buckets"])
    ids = rd.from_items([{"bucket": b} for b in range(n)], override_num_blocks=n)
    return ids.map_batches(
        _BucketAggregator(path, per_key_fn, cols), batch_format="pyarrow", batch_size=1
    )


def bucket_join(
    left_path: str,
    right_path: str,
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
) -> rd.Dataset:
    """Shuffle-free join of two published bucketed layouts.

    Validates that both manifests pin the SAME bucket count and hash (the
    co-location precondition), then fans one task per bucket.  The result
    streams — no stage holds more than a bucket pair in memory, and wall
    time scales with buckets / cores on any cluster size.
    """
    right_on = right_on or left_on
    lm = read_layout_manifest(left_path)
    rm = read_layout_manifest(right_path)
    if lm["key"] != left_on:
        raise ValueError(f"left layout is bucketed by {lm['key']!r}, join asks {left_on!r}")
    if rm["key"] != right_on:
        raise ValueError(f"right layout is bucketed by {rm['key']!r}, join asks {right_on!r}")
    if (lm["n_buckets"], lm["hash"]) != (rm["n_buckets"], rm["hash"]):
        raise ValueError(
            f"layouts are not co-located: {lm['n_buckets']}/{lm['hash']} vs "
            f"{rm['n_buckets']}/{rm['hash']} — rebuild one side"
        )
    n = int(lm["n_buckets"])
    ids = rd.from_items([{"bucket": b} for b in range(n)], override_num_blocks=n)
    joiner = _BucketJoiner(left_path, right_path, left_on, right_on, how, left_cols, right_cols)
    return ids.map_batches(joiner, batch_format="pyarrow", batch_size=1)
