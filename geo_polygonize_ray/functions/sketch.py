"""Mergeable sketches (the approximate-aggregate family, ray_guide.md:
"emit one serialized sketch per batch and merge them in a second, tiny
stage — sketches are designed to be mergeable").

HyperLogLog (Flajolet et al. 2007, public algorithm) with 2^p registers,
fully vectorized: one numpy pass per batch produces a 2^p-byte register
array; merging is elementwise max; the estimator uses the standard alpha_m
bias constant with the small-range (linear counting) correction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd


# The estimator's exact register sum needs every register <= 53; registers
# reach 64 - p + 1, so precisions below 12 cannot be estimated exactly.
MIN_PRECISION = 12


def _check_precision(p: int) -> None:
    if p < MIN_PRECISION:
        raise ValueError(
            f"HyperLogLog precision p={p} is below {MIN_PRECISION}: registers "
            f"reach 64 - p + 1 = {65 - p} > 53, which the exact register sum "
            "cannot represent"
        )


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (public splitmix64 constants)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hll_partial(values: np.ndarray, p: int = 12) -> np.ndarray:
    """One batch of int64 keys -> 2^p uint8 register maxima."""
    m = 1 << p
    h = splitmix64(np.asarray(values, dtype=np.int64).view(np.uint64))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad low bits with 1s
    # rho = leading zeros of `rest` + 1, vectorized via float exponent trick
    # (values are nonzero by construction thanks to the pad)
    lz = 63 - np.floor(np.log2(rest.astype(np.float64))).astype(np.int64)
    lz = np.clip(lz, 0, 64 - p)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, (lz + 1).astype(np.uint8))
    return regs


def hll_merge(partials: list[np.ndarray]) -> np.ndarray:
    out = partials[0].copy()
    for q in partials[1:]:
        np.maximum(out, q, out=out)
    return out


def hll_estimate(regs: np.ndarray, p: int = 12) -> float:
    """Cardinality estimate from 2^p merged registers (p >= 12)."""
    _check_precision(p)
    if len(regs) != 1 << p:
        raise ValueError(f"{len(regs)} registers do not match precision p={p}")
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    # the register sum as the EXACT integer 2^53 * sum(2^-reg) (every term
    # 2^(53-reg) is integral since reg <= 64-p+1 <= 53): summation-order
    # independent, so the DuckDB oracle (Q_HLL_SQL) reproduces the estimate
    # bit-for-bit — a float np.sum differs from SQL's sequential sum in the
    # last ulp
    counts = np.bincount(regs.astype(np.int64), minlength=54)
    s_exact = sum(int(c) << (53 - r) for r, c in enumerate(counts) if c)
    est = alpha * m * m * 9007199254740992.0 / s_exact
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros > 0:  # linear-counting small-range correction
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds: rd.Dataset, column: str, p: int = 12) -> float:
    """Distributed approximate COUNT(DISTINCT column) for int64 columns:
    one 4 KiB sketch per batch, merged driver-side (mergeable => the merge
    could equally run as a tree reduction on a cluster).  ``p`` >= 12."""
    _check_precision(p)

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[column].to_numpy(zero_copy_only=False)
        regs = hll_partial(vals, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    regs = hll_merge([np.frombuffer(b, dtype=np.uint8) for b in parts["regs"]])
    return hll_estimate(regs, p)


def build_hll_sql(table: str, column: str, p: int = 12) -> str:
    """DuckDB twin of approx_distinct: the full HyperLogLog pipeline in
    SQL — splitmix64 (uint64 wrap via HUGEINT % 2^64, xor/>> on UBIGINT),
    register maxima over the same float-log2 rho trick the engine uses,
    and the bit-identical estimator (the register sum is the exact integer
    2^53 * sum(2^-reg), see hll_estimate).  Valid at ANY scale factor —
    this is a derivation, not a pin."""
    m = 1 << p
    c1 = 0x9E3779B97F4A7C15
    c2 = 0xBF58476D1CE4E5B9
    c3 = 0x94D049BB133111EB
    two64 = 1 << 64
    two53 = 1 << 53
    maxlz = 64 - p

    def wrapmul(a: str, b: int) -> str:
        # (a * b) mod 2^64 without overflowing signed INT128: split the
        # constant b = bh*2^32 + bl so every partial product stays < 2^97
        bh, bl = b >> 32, b & 0xFFFFFFFF
        return (
            f"((({a})::HUGEINT * {bl}::HUGEINT"
            f" + ((({a})::HUGEINT % 4294967296::HUGEINT) * {bh}::HUGEINT"
            f"    % 4294967296::HUGEINT) * 4294967296::HUGEINT)"
            f" % {two64}::HUGEINT)"
        )

    return f"""
WITH u AS (
  SELECT DISTINCT CASE WHEN {column} < 0
              THEN {column}::HUGEINT + {two64}::HUGEINT
              ELSE {column}::HUGEINT END AS u0
  FROM {table}
), z1 AS (
  SELECT ((u0 + {c1}::HUGEINT) % {two64}::HUGEINT)::UBIGINT AS z FROM u
), z2 AS (
  SELECT ({wrapmul("xor(z, z >> 30)", c2)})::UBIGINT AS z FROM z1
), z3 AS (
  SELECT ({wrapmul("xor(z, z >> 27)", c3)})::UBIGINT AS z FROM z2
), h AS (
  SELECT xor(z, z >> 31) AS h FROM z3
), rho AS (
  SELECT (h >> {64 - p})::BIGINT AS idx,
         LEAST(GREATEST(63 - FLOOR(LOG2(CAST(
           ((h::HUGEINT * {1 << p}::HUGEINT) % {two64}::HUGEINT)::UBIGINT
             | {(1 << p) - 1}::UBIGINT AS DOUBLE))), 0), {maxlz})::BIGINT + 1 AS reg
  FROM h
), regs AS (
  SELECT idx, MAX(reg) AS reg FROM rho GROUP BY idx
), agg AS (
  SELECT SUM(CAST(POWER(2, 53 - reg) AS HUGEINT))
           + ({m} - COUNT(*))::HUGEINT * {two53}::HUGEINT AS s,
         {m} - COUNT(*) AS zeros
  FROM regs
)
SELECT ROUND(CASE WHEN raw <= {2.5 * m} AND zeros > 0
            THEN {float(m)} * LN({float(m)} / zeros)
            ELSE raw END, 1) AS approx_distinct_{column}
FROM (SELECT 0.7213 / (1 + 1.079 / {float(m)}) * {float(m)} * {float(m)}
             * {float(two53)} / CAST(s AS DOUBLE) AS raw, zeros FROM agg) t
"""
