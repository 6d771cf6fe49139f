"""Hash-partitioned joins and groupbys on the plain-task exchange.

Every all-to-all here is one ``functions.exchange.exchange``: each input
Dataset executes once into row slices, its map tasks hash a key into
``exchange_buckets()`` buckets (two per cluster CPU), and one reduce task
per bucket runs the per-key work in pandas (C speed) on that bucket's rows.
Every key lands in exactly one bucket, so per-key results are exact.
Skew: a single hot key cannot be split by this scheme (same as any hash
partitioning); callers with known-hot keys should pre-aggregate map-side
first (see relational.q1) so the exchange carries partials, not rows.

Inputs are exchanged side by side, never unioned: a join's two sides keep
their own columns, and a multi-input groupby's reduce concatenates the
inputs' rows only inside the bucket.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from geo_polygonize_ray.functions.exchange import (
    cluster_cpus,
    dataset_slices,
    exchange,
    exchange_buckets,
)
from geo_polygonize_ray.functions.sketch import splitmix64

# keyed map fn: table -> (table to ship, one uint64 key hash per row)
KeyedFn = Callable[[pa.Table], tuple[pa.Table, np.ndarray]]


def _route(keyed_fn: KeyedFn, n_out: int, t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    t, h = keyed_fn(t)
    return t, (h % np.uint64(n_out)).astype(np.int64)


def shuffle(
    inputs: Sequence[tuple[rd.Dataset, KeyedFn]], reduce_fn: Callable[..., object]
) -> tuple[list[ray.ObjectRef], list[ray.ObjectRef]]:
    """One exchange over every (Dataset, keyed map fn) input; rows with
    equal key hashes meet in one reduce task, which gets one table per
    input.  Returns the reduce output refs and their row-count refs."""
    n_out = exchange_buckets()
    n_parts = cluster_cpus()
    sides = [
        (dataset_slices(ds, n_parts)[0], functools.partial(_route, fn, n_out))
        for ds, fn in inputs
    ]
    return exchange(sides, n_out, reduce_fn)


def to_dataset(exchanged: tuple[list[ray.ObjectRef], list[ray.ObjectRef]]) -> rd.Dataset:
    """The non-empty Arrow reduce outputs of an exchange as one materialized
    Dataset (one empty output when all are empty).  Empty buckets carry no
    rows, and leaving them out keeps pandas' typing of empty frames (an
    object column becomes null) out of the result."""
    refs, rows = exchanged
    kept = [ref for ref, n in zip(refs, ray.get(rows)) if n] or refs[:1]
    return rd.from_arrow_refs(kept).materialize()


def key_groups(t: pa.Table, key: str) -> list[pa.Table]:
    """``t``'s rows grouped by equal ``key`` (in key order, rows in their
    order within a group); an empty ``t`` is one empty group."""
    k = t[key].to_numpy()
    order = np.argsort(k, kind="stable")
    t, k = t.take(pa.array(order)), k[order]
    bounds = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1), len(k)]
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


_ARROW_TYPES = {"int64": pa.int64(), "float64": pa.float64()}


def _join_side(key: str, cols: dict[str, str], t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    if not t.num_rows:  # an all-empty input may carry another stage's columns, or none
        t = pa.table({c: pa.array([], _ARROW_TYPES.get(dt, pa.string())) for c, dt in cols.items()})
    t = t.select(list(cols))
    t = t.cast(pa.schema([(c, _ARROW_TYPES.get(dt, t.schema.field(c).type)) for c, dt in cols.items()]))
    return t, splitmix64(t[key].to_numpy().view(np.uint64))


def _merge_bucket(on, right_on, out_cols, post, lt: pa.Table, rt: pa.Table) -> pa.Table:
    m = lt.to_pandas().merge(rt.to_pandas(), left_on=on, right_on=right_on, how="inner")
    m = m[out_cols]
    return pa.Table.from_pandas(post(m) if post is not None else m, preserve_index=False)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    right_on: str,
    left_cols: dict[str, str],
    right_cols: dict[str, str],
    post: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
) -> rd.Dataset:
    """Distributed inner hash join as ONE exchange.

    Each side's map tasks ship only that side's columns, typed as declared,
    bucketed by a splitmix64 hash of the (integral) join key; each reduce
    task merges its bucket's two sides in pandas.  Every key lives in
    exactly one bucket, so the join is exact.

    ``left_cols`` / ``right_cols``: ``{column: dtype}`` for every column of
    each side (disjoint names; dtypes in {"int64", "float64", "object"}).
    ``post``, if given, runs per bucket on the merged rows — a join whose
    downstream groupby key equals (or functionally depends on) the join key
    can fuse its aggregation into the same exchange.
    """
    assert not (set(left_cols) & set(right_cols)), "join sides must have disjoint columns"
    exchanged = shuffle(
        [
            (left, functools.partial(_join_side, on, left_cols)),
            (right, functools.partial(_join_side, right_on, right_cols)),
        ],
        functools.partial(_merge_bucket, on, right_on, [*left_cols, *right_cols], post),
    )
    return to_dataset(exchanged)


def _hash_keys(key_cols: list[str], t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    if not t.num_rows:  # as in _join_side
        return t, np.zeros(0, np.uint64)
    return t, pd.util.hash_pandas_object(t.select(key_cols).to_pandas(), index=False).to_numpy()


def _per_bucket(per_key_fn, *tables: pa.Table) -> pa.Table:
    frames = [t.to_pandas() for t in tables if t.num_rows]
    if frames:
        out = per_key_fn(pd.concat(frames, ignore_index=True))
        return pa.Table.from_pandas(out, preserve_index=False)
    try:  # typed like a non-empty bucket, for an all-empty result
        return pa.Table.from_pandas(per_key_fn(tables[0].to_pandas()), preserve_index=False)
    except KeyError:  # as in _join_side
        return tables[0]


def bucketed_groupby(
    ds: rd.Dataset | Sequence[rd.Dataset],
    key_cols: list[str] | str,
    per_key_fn: Callable[[pd.DataFrame], pd.DataFrame],
) -> rd.Dataset:
    """Exact per-key aggregation via hash bucketing.

    ``per_key_fn`` receives one bucket's rows (a pandas DataFrame containing
    every row of every key hashing into the bucket, from every input
    Dataset when ``ds`` is a list) and must itself group by the key
    column(s) and return the per-key result rows.
    """
    if isinstance(key_cols, str):
        key_cols = [key_cols]
    inputs = [ds] if isinstance(ds, rd.Dataset) else list(ds)
    keyed = functools.partial(_hash_keys, key_cols)
    return to_dataset(shuffle([(d, keyed) for d in inputs], functools.partial(_per_bucket, per_key_fn)))


def top_k(ds: rd.Dataset, by: list[str], descending: list[bool], k: int) -> pd.DataFrame:
    """The first ``k`` rows of ``ds`` ordered by ``by``: a top-k per batch
    on the workers, then the top-k of those survivors on the driver (no
    global sort).  Rows equal on every ``by`` column keep input order."""
    asc = [not d for d in descending]

    def head(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=asc, kind="stable").head(k)

    return head(ds.map_batches(head, batch_format="pandas").to_pandas()).reset_index(drop=True)
