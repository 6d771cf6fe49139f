"""Hash exchange made of plain Ray tasks.

A Ray Data all-to-all (``repartition``, the sort-based ``groupby``) pays a
Dataset execution with several scheduling rounds, which dominates a job
whose kernels take a fraction of a second.  A one-shot hash exchange of
Arrow tables needs only three kinds of task:

    Dataset --execute once--> block refs --split--> slices (ref, offset, rows)
      side tasks   fn(slice) per slice, results to the driver
                   (histograms, bounding boxes: same refs, no re-execution)
      map tasks    map_fn(slice) -> (table, bucket); stable argsort by
                   bucket, one Arrow slice per bucket (num_returns=R)
      reduce tasks one per bucket: per input, concat its parts;
                   reduce_fn(table per input); a second return carries
                   the output's row count

An exchange may have several inputs, each with its own slices and map_fn
(the two sides of a join): their rows never share a table, so no input is
padded to another's schema.

Ray's Arrow serializer ships only the rows of a sliced table, so a map
task's R outputs together cost one copy of its table.  The number of map
tasks in flight is bounded, and every ``ray.get``/``ray.wait`` here waits
only on refs submitted by the same call.

Task functions are module-level and take their callables as arguments, so
workers resolve the callables' engine functions by module-level name.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

# (block ref, first row, row count)
Slice = tuple[ray.ObjectRef, int, int]


def cluster_cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def exchange_buckets() -> int:
    """Reduce-task count of a keyed exchange: two per cluster CPU."""
    return 2 * cluster_cpus()


def dataset_slices(ds: rd.Dataset, n_parts: int) -> tuple[list[Slice], pa.Schema, int]:
    """Execute ``ds`` once and cut its blocks into about ``n_parts`` row
    ranges of similar size (one per block when there are more blocks).

    Returns (slices, schema, total rows).  Zero-row blocks are skipped; an
    input with no rows yields one empty slice of its schema, so downstream
    tasks still see the columns.

    An in-memory input (``rd.from_arrow`` and the like) is materialized
    first: the copy holds its computed blocks, so reading them starts no
    streaming executor.  A lazy input still executes once, here."""
    if isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    blocks, schema = [], None
    for bundle in ds.iter_internal_ref_bundles():
        blocks.extend((ref, meta.num_rows) for ref, meta in bundle.blocks)
        schema = schema or bundle.schema
    if schema is None:  # only empty blocks, which may carry no schema
        schema = ds.schema()
    schema = getattr(schema, "base_schema", schema)
    if not isinstance(schema, pa.Schema):  # non-Arrow blocks: a task reads one
        schema = ray.get(_call_task.remote(_arrow_schema, blocks[0][0]))
    blocks = [(ref, n) for ref, n in blocks if n]
    total = sum(n for _, n in blocks)
    if not total:
        return [(ray.put(schema.empty_table()), 0, 0)], schema, 0
    ranges = row_ranges([n for _, n in blocks], n_parts)
    return [(blocks[i][0], lo, n) for i, lo, n in ranges], schema, total


def row_ranges(counts: Sequence[int], n_parts: int) -> list[tuple[int, int, int]]:
    """Cut parts of ``counts`` rows each into about ``n_parts`` row ranges
    of similar size (one per non-empty part when there are more parts).
    Returns (part index, first row, row count) per range, in part order."""
    total = sum(counts)
    out = []
    for i, n in enumerate(counts):
        if not n:
            continue
        k = max(1, min(n, round(n_parts * n / total)))
        bounds = [n * j // k for j in range(k + 1)]
        out.extend((i, lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return out


def _to_arrow(block) -> pa.Table:
    return block if isinstance(block, pa.Table) else BlockAccessor.for_block(block).to_arrow()


def _arrow_schema(block) -> pa.Schema:
    return _to_arrow(block).schema


def slice_table(block, offset: int, rows: int) -> pa.Table:
    return _to_arrow(block).slice(offset, rows)


def fetch(slices: Sequence[Slice]) -> pa.Table:
    """The slices' rows as one driver-side table."""
    blocks = ray.get([ref for ref, _, _ in slices])
    return pa.concat_tables(
        [slice_table(b, off, n) for b, (_, off, n) in zip(blocks, slices)]
    )


def _submit_bounded(submit: Callable, items: Sequence) -> list:
    """``[submit(s) for s in items]``, waiting before each submission while
    two tasks per cluster CPU are unfinished.  ``submit`` returns one ref or
    a list of refs that finish together."""
    limit = 2 * cluster_cpus()
    out: list = []
    pending: list[ray.ObjectRef] = []
    for s in items:
        if len(pending) >= limit:
            _, pending = ray.wait(pending, num_returns=1, fetch_local=False)
        refs = submit(s)
        out.append(refs)
        pending.append(refs[0] if isinstance(refs, list) else refs)
    return out


def _apply(block, offset: int, rows: int, fn: Callable, *args):
    return fn(slice_table(block, offset, rows), *args)


def _call(fn: Callable, *args):
    return fn(*args)


def _map_partition(map_fn: Callable, n_out: int, block, offset: int, rows: int):
    t, bucket = map_fn(slice_table(block, offset, rows))
    order = np.argsort(bucket, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(bucket[order], np.arange(n_out + 1))
    parts = [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return parts if n_out > 1 else parts[0]


def _concat(parts: Sequence[pa.Table]) -> pa.Table:
    """Zero-row parts are left out, so an empty slice whose map output has
    another schema cannot fail the concat."""
    return pa.concat_tables([p for p in parts if p.num_rows] or list(parts[:1]))


def _reduce_partition(reduce_fn: Callable, n_parts: Sequence[int], *parts: pa.Table):
    bounds = np.cumsum([0, *n_parts])
    out = reduce_fn(*(_concat(parts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])))
    return out, len(out)


_call_task = ray.remote(_call)
_map_task = ray.remote(_map_partition)
_reduce_task = ray.remote(num_returns=2)(_reduce_partition)


def map_refs(fn: Callable, items: Sequence[tuple], *args) -> list[ray.ObjectRef]:
    """One task ``fn(*item, *args)`` per item, submitted under the map
    tasks' bound; returns the result refs without waiting for the last."""
    return _submit_bounded(lambda item: _call_task.remote(fn, *item, *args), items)


def map_slices(fn: Callable, slices: Sequence[Slice], *args) -> list:
    """``[fn(table, *args) for each slice]``, one task per slice."""
    return ray.get(map_refs(_apply, slices, fn, *args))


def exchange(
    inputs: Sequence[tuple[Sequence[Slice], Callable[[pa.Table], tuple[pa.Table, np.ndarray]]]],
    n_out: int,
    reduce_fn: Callable[..., pa.Table],
) -> tuple[list[ray.ObjectRef], list[ray.ObjectRef]]:
    """Hash exchange over ``inputs``, each a (slices, map_fn) pair:
    ``map_fn`` returns a table and each row's bucket in ``[0, n_out)``.
    Reduce task j calls ``reduce_fn`` with one table per input: bucket j's
    rows from every slice of that input, in slice order.  Returns the
    ``n_out`` reduce output refs and refs to their row counts (not waited
    on).  The map outputs of one input must share one schema."""
    mapper = _map_task.options(num_returns=n_out)
    jobs = [(map_fn, s) for slices, map_fn in inputs for s in slices]
    outs = _submit_bounded(lambda job: mapper.remote(job[0], n_out, *job[1]), jobs)
    if n_out == 1:
        outs = [[o] for o in outs]
    n_parts = [len(slices) for slices, _ in inputs]
    reduced = [_reduce_task.remote(reduce_fn, n_parts, *(o[j] for o in outs)) for j in range(n_out)]
    return [out for out, _ in reduced], [rows for _, rows in reduced]
