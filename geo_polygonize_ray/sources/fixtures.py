"""Deterministic synthetic fixtures (FIXTURES.md §1, §4).

* ``generate_image_table`` — the driver ``input_hint``-shaped image+caption
  Parquet table: each row is a rasterized mini-geometry scene (grid cells /
  nested squares / random rectangles) so vectorize -> polygonize ->
  rasterize round-trips are checkable per row.
* ``grid_lines`` / ``random_lines`` — the reference's benchmark generators
  (reference benches/polygonize_bench.rs:7-38): grid N = (N+1) horizontal +
  (N+1) vertical lines over [0,N]^2; random K = K segments uniform in
  [0,100]^2.  The reference seeds Rust StdRng(42) whose stream is not
  reproducible here; we use numpy default_rng(seed) and lock our own goldens.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from geo_polygonize_ray.raster.codec import encode_image
from geo_polygonize_ray.raster.phash import phash64
from geo_polygonize_ray.sources.table import IMAGE_SCHEMA

_SCENES = ("grid", "nested", "rects")
_FMTS = ("rgb8-raw", "png", "rgb8-q6")

# a small palette of well-separated colors so quantized formats stay regional
_PALETTE = np.array(
    [
        [16, 32, 64],
        [200, 40, 40],
        [40, 180, 60],
        [60, 80, 220],
        [230, 200, 40],
        [150, 60, 180],
        [40, 200, 200],
        [240, 240, 240],
    ],
    dtype=np.uint8,
)


def make_scene(i: int, w: int = 64, h: int = 64, seed: int = 42) -> tuple[np.ndarray, str, int]:
    """Deterministic flat-color scene for image i -> (img, scene_name, n_regions)."""
    rng = np.random.default_rng(seed * 1_000_003 + i)
    scene = _SCENES[i % len(_SCENES)]
    img = np.empty((h, w, 3), dtype=np.uint8)
    if scene == "grid":
        k = int(rng.integers(2, 6))
        ys = np.linspace(0, h, k + 1).astype(int)
        xs = np.linspace(0, w, k + 1).astype(int)
        n = 0
        for r in range(k):
            for c in range(k):
                img[ys[r] : ys[r + 1], xs[c] : xs[c + 1]] = _PALETTE[int(rng.integers(0, len(_PALETTE)))]
                n += 1
        regions = n
    elif scene == "nested":
        img[:] = _PALETTE[0]
        m = int(rng.integers(2, 5))
        step = min(w, h) // (2 * m + 1)
        for j in range(1, m + 1):
            a = j * step
            img[a : h - a, a : w - a] = _PALETTE[j % len(_PALETTE)]
        regions = m + 1
    else:  # random axis-aligned rectangles painted over a background
        img[:] = _PALETTE[0]
        nrect = int(rng.integers(3, 9))
        for _ in range(nrect):
            x0, x1 = sorted(rng.integers(0, w, 2).tolist())
            y0, y1 = sorted(rng.integers(0, h, 2).tolist())
            if x1 - x0 < 2 or y1 - y0 < 2:
                continue
            img[y0:y1, x0:x1] = _PALETTE[int(rng.integers(1, len(_PALETTE)))]
        regions = -1  # not known a priori
    return img, scene, regions


def generate_image_table(
    n_rows: int,
    out_path: str,
    w: int = 64,
    h: int = 64,
    seed: int = 42,
    row_group_size: int = 2048,
    shard_rows: int | None = None,
) -> str:
    """Write the input_hint-shaped Parquet table; returns the path.

    Columns (BASELINE.json input_hint): image_id:string, bytes:binary,
    w:int32, h:int32, fmt:string, caption:string, phash:int64.
    ``phash`` is computed over the DECODED pixels (so it re-verifies after a
    lossy decode).  Caption embeds the scene so byte-equality survives the
    whole pipeline.

    ``shard_rows``: write ``out_path`` as a DIRECTORY of part-NNN.parquet
    shards instead of one file (the many-file input shape).  The image
    pipeline runs one task per row group either way, and cuts row groups
    into row ranges when there are fewer than cluster CPUs.
    """
    ids, blobs, fmts, captions, hashes = [], [], [], [], []
    from geo_polygonize_ray.raster.codec import decode_image

    for i in range(n_rows):
        img, scene, k = make_scene(i, w, h, seed)
        fmt = _FMTS[i % len(_FMTS)]
        data = encode_image(img, fmt)
        decoded = decode_image(data, w, h, fmt)
        ids.append(f"img-{i:08d}")
        blobs.append(data)
        fmts.append(fmt)
        captions.append(f"tile {i}: {scene} with {k} cells" if k >= 0 else f"tile {i}: {scene} scene")
        hashes.append(phash64(decoded))

    table = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array([w] * n_rows, pa.int32()),
            "h": pa.array([h] * n_rows, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(hashes, pa.int64()),
        },
        schema=IMAGE_SCHEMA,
    )
    if shard_rows is not None and n_rows > shard_rows:
        os.makedirs(out_path, exist_ok=True)
        k = 0
        for lo in range(0, n_rows, shard_rows):
            pq.write_table(
                table.slice(lo, shard_rows),
                os.path.join(out_path, f"part-{k:03d}.parquet"),
                row_group_size=row_group_size,
            )
            k += 1
        return out_path
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    pq.write_table(table, out_path, row_group_size=row_group_size)
    return out_path


_CACHE_SHARD_ROWS = 64


def cached_image_table(n_rows: int, w: int = 64, h: int = 64, seed: int = 42) -> str:
    """Generate-once cache under /tmp for tests and benches.  Tables larger
    than one shard are directories of parquet files, smaller ones a single
    file of one row group."""
    import uuid

    sharded = n_rows > _CACHE_SHARD_ROWS
    suffix = "" if sharded else ".parquet"
    path = f"/tmp/gpr_cache/images_n{n_rows}_w{w}_h{h}_s{seed}{suffix}"
    if not os.path.exists(path):
        # per-builder unique tmp: concurrent cold-cache builders (parallel
        # test workers) must not share a staging dir; whoever renames first
        # wins and the loser just discards its copy (contents identical)
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        generate_image_table(
            n_rows, tmp, w, h, seed, shard_rows=_CACHE_SHARD_ROWS if sharded else None
        )
        try:
            os.rename(tmp, path)
        except OSError:
            import shutil

            if os.path.isdir(tmp):
                shutil.rmtree(tmp, ignore_errors=True)
            elif os.path.exists(tmp):
                os.remove(tmp)
    return path


# ---------------------------------------------------------------------------
# reference bench workload generators (benches/polygonize_bench.rs:7-38)
# ---------------------------------------------------------------------------


def grid_lines(n: int) -> list[np.ndarray]:
    """(n+1) horizontal + (n+1) vertical lines over [0, n]^2 -> n^2 cells."""
    lines = []
    for i in range(n + 1):
        lines.append(np.array([[0.0, float(i)], [float(n), float(i)]]))
    for i in range(n + 1):
        lines.append(np.array([[float(i), 0.0], [float(i), float(n)]]))
    return lines


def random_lines(k: int, seed: int = 42) -> list[np.ndarray]:
    """k random segments with endpoints uniform in [0, 100]^2."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 100.0, (k, 2, 2))
    return [pts[i] for i in range(k)]


def clustered_lines(
    k: int,
    seed: int = 42,
    n_clusters: int = 3,
    frac_hot: float = 0.9,
    sigma: float = 6.0,
    len_lo: float = 0.3,
    len_hi: float = 1.0,
) -> list[np.ndarray]:
    """Clustered random segment soup over [0, 100]^2 — the SKEW workload
    (analogue of the reference's dense-grid blowup,
    rust_bench_output.txt:12-17): ``frac_hot`` of the k segments are SHORT
    segments packed around ``n_clusters`` Gaussian centers (each dense
    region spans a few tiles), the rest uniform background.  Deterministic
    in ``seed``."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(25.0, 75.0, (n_clusters, 2))
    n_hot = int(k * frac_hot)
    which = rng.integers(0, n_clusters, n_hot)
    p0 = centers[which] + rng.normal(0.0, sigma, (n_hot, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, n_hot)
    ln = rng.uniform(len_lo, len_hi, n_hot)
    p1 = p0 + np.stack([np.cos(ang), np.sin(ang)], axis=1) * ln[:, None]
    hot = np.stack([np.clip(p0, 0.0, 100.0), np.clip(p1, 0.0, 100.0)], axis=1)
    cold = rng.uniform(0.0, 100.0, (k - n_hot, 2, 2))
    return [hot[i] for i in range(n_hot)] + [cold[i] for i in range(k - n_hot)]


def skewed_grid_lines(
    span: float = 400.0,
    coarse_pitch: float = 4.0,
    hot_origins: tuple = ((48.0, 48.0), (200.0, 240.0), (320.0, 120.0)),
    hot_size: float = 32.0,
    fine_pitch: float = 0.0625,
) -> tuple[list[np.ndarray], int]:
    """Dense-grid-patch SKEW workload (the reference's dense-grid blowup,
    rust_bench_output.txt:12-17, as a tiled job): a coarse grid over
    [0, span]^2 plus fine-pitch grid patches in a few hot boxes.  All
    parameters default to exact binary floats with fine_pitch dividing
    coarse_pitch and box corners on coarse multiples, so every coordinate
    is exact, coincident lines dedup exactly, and the polygon count has a
    CLOSED FORM — returned as the second element:

        (span/coarse)^2 - n_boxes*(hot/coarse)^2 + n_boxes*(hot/fine)^2

    Polygon extent is bounded by coarse_pitch (ownership contract holds for
    any buffer > coarse_pitch), unlike random soups whose rim faces can
    span tens of units.
    """
    lines: list[np.ndarray] = []
    n = int(round(span / coarse_pitch))
    for i in range(n + 1):
        c = i * coarse_pitch
        lines.append(np.array([[0.0, c], [span, c]]))
        lines.append(np.array([[c, 0.0], [c, span]]))
    m = int(round(hot_size / fine_pitch))
    for ox, oy in hot_origins:
        for i in range(m + 1):
            c = i * fine_pitch
            lines.append(np.array([[ox, oy + c], [ox + hot_size, oy + c]]))
            lines.append(np.array([[ox + c, oy], [ox + c, oy + hot_size]]))
    k = int(round(hot_size / coarse_pitch))
    expected = n * n + len(hot_origins) * (m * m - k * k)
    return lines, expected


def linework_table(lines: list[np.ndarray], plane_id: str = "plane-0") -> pa.Table:
    """LineStrings as an Arrow list-typed linework table (SURVEY.md §1.3).

    Built from flat buffers + offsets (one concatenate per axis), not
    per-row Python lists — the tolist() construction was ~22 ms at 200
    rows, dominating the small-job latency path."""
    n = len(lines)
    lens = np.fromiter((len(ls) for ls in lines), dtype=np.int64, count=n)
    offs = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int32))
    if n:
        flat = np.concatenate([np.asarray(ls, dtype=np.float64) for ls in lines])
        fx, fy = np.ascontiguousarray(flat[:, 0]), np.ascontiguousarray(flat[:, 1])
    else:
        fx = fy = np.empty(0, dtype=np.float64)
    return pa.table(
        {
            "plane_id": pa.array([plane_id] * n, pa.string()),
            "line_id": pa.array(range(n), pa.int64()),
            "xs": pa.ListArray.from_arrays(offs, pa.array(fx, pa.float64())),
            "ys": pa.ListArray.from_arrays(offs, pa.array(fy, pa.float64())),
        }
    )
