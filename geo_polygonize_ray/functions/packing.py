"""Sequence packing — greedy next-fit packing of documents into
fixed-capacity context windows, the standard LLM pre-training step that
turns ragged documents into dense training sequences.

Packing is inherently order-sequential, so the distributed shape is:
hash-bucket the corpus (ONE exchange, same key reused by dedup), then pack
each bucket independently in deterministic ``id`` order.  Bucket packing
is exact next-fit; the only cross-bucket loss is <=1 partially-filled tail
window per bucket, i.e. utilization loss O(n_buckets / n_windows) — nil at
scale.  Deterministic: same input -> same packs, any cluster size.

The per-bucket kernel loops over PACKS, not rows: each iteration finds the
next pack boundary with a ``searchsorted`` on the running-length cumsum,
so cost is O(n_packs log n) — a 1e6-doc bucket at ~8 docs/window costs
~125k searchsorted steps, not 1e6 Python rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from geo_polygonize_ray.functions.agg import key_groups, shuffle
from geo_polygonize_ray.functions.sketch import splitmix64


def pack_bucket_lengths(lengths: np.ndarray, capacity: int) -> np.ndarray:
    """Next-fit pack ids for ``lengths`` taken in order.  Oversize items
    (> capacity) get a window of their own rather than being dropped —
    callers typically truncate afterwards."""
    n = len(lengths)
    pack_id = np.empty(n, dtype=np.int64)
    clipped = np.minimum(lengths.astype(np.int64), capacity)
    csum = np.concatenate([[0], np.cumsum(clipped)])
    start, pid = 0, 0
    while start < n:
        # last j with csum[j] - csum[start] <= capacity, at least start+1
        end = int(np.searchsorted(csum, csum[start] + capacity, side="right")) - 1
        end = max(end, start + 1)
        pack_id[start:end] = pid
        start, pid = end, pid + 1
    return pack_id


def pack_documents(
    ds: rd.Dataset,
    id_col: str,
    len_col: str,
    capacity: int,
    n_buckets: int = 64,
) -> rd.Dataset:
    """Corpus -> one row per packed window: ``bucket, pack_id, n_docs,
    total_len, utilization, doc_ids``.  ``pack_id`` is globally unique
    (bucket-prefixed) and stable across runs and cluster sizes."""

    def add_bucket(batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (ids * 2654435761 % 4294967296) % n_buckets
        t = batch.select([id_col, len_col]).append_column("_bucket", pa.array(b, pa.int64()))
        return t, splitmix64(b.view(np.uint64))

    def pack_one_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            # typed empty: an empty reduce task keeps the output schema
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype=np.int64),
                    "pack_id": pd.Series([], dtype=np.int64),
                    "n_docs": pd.Series([], dtype=np.int64),
                    "total_len": pd.Series([], dtype=np.int64),
                    "utilization": pd.Series([], dtype=np.float64),
                    "doc_ids": pd.Series([], dtype=object),
                }
            )
        g = g.sort_values(id_col, kind="stable")
        bucket = int(g["_bucket"].iloc[0])
        ids = g[id_col].to_numpy(np.int64)
        lens = g[len_col].to_numpy(np.int64)
        pid = pack_bucket_lengths(lens, capacity)
        # per-pack rollup via the repeat/offset idiom (pid is sorted)
        starts = np.concatenate([[0], np.flatnonzero(np.diff(pid)) + 1])
        ends = np.concatenate([starts[1:], [len(pid)]])
        csum = np.concatenate([[0], np.cumsum(np.minimum(lens, capacity))])
        total = csum[ends] - csum[starts]
        return pd.DataFrame(
            {
                "bucket": np.full(len(starts), bucket, np.int64),
                "pack_id": bucket * (1 << 40) + pid[starts],
                "n_docs": (ends - starts).astype(np.int64),
                "total_len": total.astype(np.int64),
                "utilization": total / float(capacity),
                "doc_ids": [ids[s:e].tolist() for s, e in zip(starts, ends)],
            }
        )

    def pack_buckets(t: pa.Table) -> pd.DataFrame:
        return pd.concat(
            [pack_one_bucket(g.to_pandas()) for g in key_groups(t, "_bucket")], ignore_index=True
        )

    # pandas blocks keep doc_ids a column of Python lists
    refs, _ = shuffle([(ds, add_bucket)], pack_buckets)
    return rd.from_pandas_refs(refs).materialize()
