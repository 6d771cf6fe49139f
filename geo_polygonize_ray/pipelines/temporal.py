"""Temporal / window / interval operators over the events+orders tables —
the streaming-shaped operator family the reference lacks but any
training-data pipeline needs (event-time joins, lag windows, rolling
aggregates, interval joins).  Each query is paired with an ANSI-SQL oracle
(``__ray_entry__.oracle_sql``) for the driver's DuckDB correctness gate.

Scale notes (100 TB posture):
  * the as-of join co-partitions BOTH large sides by the join key with ONE
    two-input hash exchange — nothing event- or order-scale is broadcast
    or materialized on the driver;
  * the lag-window query is the same one-shuffle shape (partition by key,
    sort inside the group, vectorized diff) — per-key state never leaves
    the bucket;
  * the rolling-window query pre-aggregates map-side so the shuffle
    carries per-(batch, day) partials; the final window runs over the
    per-day table, whose size is bounded by the CALENDAR (days), not the
    data;
  * the interval (range) join broadcasts only the fixed band table and
    emits per-batch per-band partials — the classic small-side range-join
    pattern (sorted-edge searchsorted, no shuffle at all).

Timestamps are carried as int64 epoch-microseconds end-to-end (the
``events_hourly`` convention): bit-exact to hash, no datetime-unit drift
between Arrow, pandas and DuckDB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from geo_polygonize_ray.functions.agg import shuffle
from geo_polygonize_ray.functions.sketch import splitmix64
from geo_polygonize_ray.pipelines.relational import _read, r4

# ---------------------------------------------------------------------------
# as-of join: each event -> the most recent order of the same customer
# ---------------------------------------------------------------------------


def _asof_events(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    key = t["user_id"].to_numpy().astype(np.int64)
    out = pa.table(
        {
            "key": key,
            "t_us": t["ts"].cast(pa.int64()),
            "event_id": t["event_id"].cast(pa.int64()),
        }
    )
    return out, splitmix64(key.view(np.uint64))


def _asof_orders(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    key = t["o_custkey"].to_numpy().astype(np.int64)
    out = pa.table(
        {
            "key": key,
            "t_us": t["o_orderdate"].cast(pa.int64()),
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
            "o_totalprice": t["o_totalprice"].cast(pa.float64()),
        }
    )
    return out, splitmix64(key.view(np.uint64))


_ASOF_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("ts_us", pa.int64()),
        ("last_orderkey", pa.int64()),
        ("last_totalprice", pa.float64()),
    ]
)


def _asof_bucket(events: pa.Table, orders: pa.Table) -> pa.Table:
    """Backward as-of merge of one bucket's events and orders, by key."""
    if not events.num_rows or not orders.num_rows:
        return _ASOF_SCHEMA.empty_table()
    ev = events.to_pandas().sort_values("t_us", kind="stable")
    # within equal dates the LAST row has the max orderkey -> tiebreak
    od = orders.to_pandas().sort_values(["t_us", "o_orderkey"], kind="stable")
    m = pd.merge_asof(ev, od, on="t_us", by="key", direction="backward", allow_exact_matches=True)
    m = m[m["o_orderkey"].notna()]
    return pa.Table.from_arrays(
        [
            pa.array(m["event_id"].to_numpy(np.int64)),
            pa.array(m["key"].to_numpy(np.int64)),
            pa.array(m["t_us"].to_numpy(np.int64)),
            pa.array(m["o_orderkey"].to_numpy(np.int64)),
            pa.array(m["o_totalprice"].to_numpy(np.float64)),
        ],
        schema=_ASOF_SCHEMA,
    )


def q_asof_join_last_order(sf_dir: str) -> pd.DataFrame:
    """Event-time as-of join (inner, backward): for every event, the most
    recent order of the same customer with ``o_orderdate <= ts``; ties on
    the date break to the highest ``o_orderkey``.

    Both sides are O(data)-large, so the implementation is one two-input
    hash exchange on the key (each side ships its own columns), then a
    vectorized ``pd.merge_asof`` per bucket (sorted by time, ``by=`` the
    key) — the canonical distributed as-of shape.  No side is broadcast.
    """
    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    refs, _ = shuffle([(events, _asof_events), (orders, _asof_orders)], _asof_bucket)
    out = pa.concat_tables(ray.get(refs)).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


Q_ASOF_SQL = """
SELECT event_id, user_id, ts_us, o_orderkey AS last_orderkey,
       o_totalprice AS last_totalprice
FROM (
  SELECT e.event_id, e.user_id, epoch_us(e.ts) AS ts_us,
         o.o_orderkey, o.o_totalprice,
         ROW_NUMBER() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
WHERE rn = 1
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# lag window: per-user inter-event gaps
# ---------------------------------------------------------------------------


def q_user_event_gaps(sf_dir: str) -> pd.DataFrame:
    """LAG-window family: per user, the gaps between consecutive events
    (ordered by ``ts`` then ``event_id``).  One hash shuffle on the user
    key; inside each bucket the whole frame is sorted ONCE and the lag is
    a vectorized diff with a first-row-of-user mask — no per-user loop.
    Gaps are integer microseconds, so sums/averages are exact.
    """
    from geo_polygonize_ray.functions import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def gaps(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        t = g["ts"].astype("int64").to_numpy()
        gap = np.diff(t)
        same = uid[1:] == uid[:-1]  # gap row i belongs to user uid[i+1]
        guid, gap = uid[1:][same], gap[same]
        if not len(gap):
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "n_gaps": pd.Series([], dtype=np.int64),
                    "avg_gap_s": pd.Series([], dtype=np.float64),
                    "max_gap_us": pd.Series([], dtype=np.int64),
                }
            )
        df = pd.DataFrame({"user_id": guid, "gap_us": gap})
        agg = df.groupby("user_id", as_index=False).agg(
            n_gaps=("gap_us", "size"),
            sum_gap=("gap_us", "sum"),
            max_gap_us=("gap_us", "max"),
        )
        # int64 sum / count -> double, the same expression DuckDB's
        # AVG(BIGINT) evaluates (exact while the per-user span < 2^53 us);
        # reported in SECONDS so the 4dp rounding sits well inside double
        # resolution (at 1e10 us the 4th decimal is a last-ulp coin flip)
        agg["avg_gap_s"] = r4(
            agg["sum_gap"].to_numpy() / agg["n_gaps"].to_numpy() / 1e6
        )
        return agg[["user_id", "n_gaps", "avg_gap_s", "max_gap_us"]]

    out = bucketed_groupby(ds, "user_id", gaps).to_pandas()
    out["n_gaps"] = out["n_gaps"].astype(np.int64)
    out["max_gap_us"] = out["max_gap_us"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


Q_GAPS_SQL = """
WITH g AS (
  SELECT user_id,
         date_diff('microsecond',
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                   ts) AS gap_us
  FROM events
)
SELECT user_id, COUNT(*) AS n_gaps,
       ROUND(AVG(gap_us) / 1000000.0, 4) AS avg_gap_s,
       MAX(gap_us) AS max_gap_us
FROM g WHERE gap_us IS NOT NULL
GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# rolling window: 7-day rolling revenue over per-day aggregates
# ---------------------------------------------------------------------------


def q_rolling_revenue_7d(sf_dir: str) -> pd.DataFrame:
    """RANGE-window family: daily order revenue plus the trailing-7-day
    rolling sum.  Map-side partials carry (day, sum, count) so the shuffle
    moves per-(batch, day) rows, not orders; the rolling window then runs
    over the per-day table — whose row count is bounded by the calendar,
    not the data, so finishing it driver-side is scale-correct.  Revenue
    is fixed to integer cents before the window, making the rolling sum
    exact int64 arithmetic (bit-stable against summation order).
    """
    from geo_polygonize_ray.functions import bucketed_groupby

    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        day = (df["o_orderdate"].astype("int64").to_numpy() // 86_400_000_000) * 86_400_000_000
        g = pd.DataFrame({"day_us": day, "rev": df["o_totalprice"].to_numpy()}).groupby(
            "day_us", as_index=False
        )["rev"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_day = bucketed_groupby(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "day_us",
        lambda g: g.groupby("day_us", as_index=False)["rev"].sum(),
    ).to_pandas()

    per_day = per_day.sort_values("day_us").reset_index(drop=True)
    day_us = per_day["day_us"].to_numpy(np.int64)
    # half-up to cents, matching DuckDB ROUND() for positive values
    cents = np.floor(per_day["rev"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(cents)])
    # trailing window [day-6d, day]: first index with day >= d-6d
    lo = np.searchsorted(day_us, day_us - 6 * 86_400_000_000, side="left")
    roll_c = csum[np.arange(1, len(cents) + 1)] - csum[lo]
    return pd.DataFrame(
        {
            "day_us": day_us,
            "day_rev": cents / 100.0,
            "roll7_rev": roll_c / 100.0,
        }
    )


Q_ROLLING_SQL = """
WITH d AS (
  SELECT epoch_us(date_trunc('day', o_orderdate)) AS day_us,
         CAST(ROUND(SUM(o_totalprice) * 100) AS BIGINT) AS rev_c
  FROM orders GROUP BY 1
)
SELECT day_us,
       rev_c / 100.0 AS day_rev,
       SUM(rev_c) OVER (
         ORDER BY day_us
         RANGE BETWEEN 518400000000 PRECEDING AND CURRENT ROW
       ) / 100.0 AS roll7_rev
FROM d ORDER BY day_us
"""


# ---------------------------------------------------------------------------
# interval (range) join: parts vs overlapping price bands
# ---------------------------------------------------------------------------

_BAND_LO0, _BAND_STEP, _BAND_WIDTH, _N_BANDS = 880.0, 20.0, 40.0, 7


def q_range_join_price_bands(sf_dir: str) -> pd.DataFrame:
    """Interval join against a small side: overlapping price bands
    ``[880+20i, 920+20i)`` (each part matches up to 2 bands — a genuine
    many-to-many range join, not binning).  The band table is fixed-size,
    so the join is the broadcast pattern: sorted band edges live in the
    task closure, each batch finds its per-row band range with TWO
    ``searchsorted`` calls, expands with repeat/offset, and emits per-band
    partials — zero shuffle; the final combine is over
    O(batches x bands) rows.
    """
    los = _BAND_LO0 + _BAND_STEP * np.arange(_N_BANDS)
    his = los + _BAND_WIDTH

    ds = _read(sf_dir, "part", columns=["p_retailprice"])

    def partial(batch: pa.Table) -> pa.Table:
        p = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        # bands are sorted, fixed width: matches are a contiguous id range
        i_hi = np.searchsorted(los, p, side="right")  # first NON-match above
        i_lo = np.searchsorted(his, p, side="right")  # first match
        n = i_hi - i_lo  # 0..2 matches per part
        band = np.repeat(i_lo, n) + _ranges(n)
        price = np.repeat(p, n)
        cnt = np.bincount(band, minlength=_N_BANDS)
        tot = np.bincount(band, weights=price, minlength=_N_BANDS)
        return pa.table(
            {
                "band_id": np.arange(_N_BANDS, dtype=np.int64),
                "n_parts": cnt.astype(np.int64),
                "sum_price": tot,
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536).to_pandas()
    agg = parts.groupby("band_id", as_index=False).agg(
        n_parts=("n_parts", "sum"), sum_price=("sum_price", "sum")
    )
    agg = agg[agg["n_parts"] > 0].reset_index(drop=True)
    return pd.DataFrame(
        {
            "band_id": agg["band_id"].to_numpy(np.int64),
            "lo": _BAND_LO0 + _BAND_STEP * agg["band_id"].to_numpy(),
            "hi": _BAND_LO0 + _BAND_WIDTH + _BAND_STEP * agg["band_id"].to_numpy(),
            "n_parts": agg["n_parts"].to_numpy(np.int64),
            "avg_price": r4(agg["sum_price"].to_numpy() / agg["n_parts"].to_numpy()),
        }
    )


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for a counts vector (repeat/offset idiom)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


Q_RANGE_JOIN_SQL = """
SELECT i AS band_id, 880 + i * 20.0 AS lo, 920 + i * 20.0 AS hi,
       COUNT(*) AS n_parts,
       ROUND(AVG(p_retailprice), 4) AS avg_price
FROM range(0, 7) t(i)
JOIN part ON p_retailprice >= 880 + i * 20.0
         AND p_retailprice <  920 + i * 20.0
GROUP BY i ORDER BY i
"""


# ---------------------------------------------------------------------------
# exact distributed quantiles (histogram refinement) per priority class
# ---------------------------------------------------------------------------


def q_priority_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-group quantiles (p50/p90/p99 of ``o_totalprice`` per
    ``o_orderpriority``) via the streaming histogram-refinement engine in
    :mod:`geo_polygonize_ray.functions.quantile` — NO global sort, no
    per-group materialization: each refinement round is one streaming scan
    that narrows every (group, rank) to a 1/n_bins slice, so 100 TB needs
    ~3-4 scans before the final bounded collect.
    """
    from geo_polygonize_ray.functions.quantile import exact_group_quantiles

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    out = exact_group_quantiles(
        ds, "o_orderpriority", "o_totalprice", qs=(0.5, 0.9, 0.99)
    )
    out = out.rename(columns={"q0.5": "p50", "q0.9": "p90", "q0.99": "p99"})
    for c in ("p50", "p90", "p99"):
        out[c] = r4(out[c])
    return (
        out.rename(columns={"key": "o_orderpriority"})
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


Q_QUANTILES_SQL = """
SELECT o_orderpriority,
       ROUND(quantile_cont(o_totalprice, 0.5), 4) AS p50,
       ROUND(quantile_cont(o_totalprice, 0.9), 4) AS p90,
       ROUND(quantile_cont(o_totalprice, 0.99), 4) AS p99
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""
