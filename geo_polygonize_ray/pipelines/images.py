"""Flagship pipeline: image+caption tiles -> vectorize -> polygonize ->
rasterize -> verify (SURVEY.md §7.1 step 3, BASELINE.json north_star).

Each image tile is an independent planar graph, so this path needs NO
shuffle at all: the driver lists the table's Parquet row groups from the
file footers, and one plain Ray task per row group (or row range of one)
reads its rows and emits per-image polygon stats + the verified per-row
invariant (decoded-pixel PSNR >= threshold vs the round-trip
reconstruction, recomputed phash == stored phash, caption passed through
byte-identical).  Embarrassingly parallel, zero-copy binary columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from geo_polygonize_ray.config import PipelineConfig
from geo_polygonize_ray.functions.exchange import cluster_cpus, map_refs, row_ranges
from geo_polygonize_ray.local.polygonize import assemble_flat, trace_rings
from geo_polygonize_ray.raster.codec import decode_image, psnr
from geo_polygonize_ray.raster.phash import phash64
from geo_polygonize_ray.raster.rasterize import rasterize_faces
from geo_polygonize_ray.raster.vectorize import labels_to_linework, rgb_to_labels
from geo_polygonize_ray.stages.trace import flat_to_table

IMAGE_RESULT_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("caption", pa.string()),
        ("n_polys", pa.int64()),
        ("total_area", pa.float64()),
        ("psnr_db", pa.float64()),
        ("phash_ok", pa.bool_()),
        ("roundtrip_ok", pa.bool_()),
    ]
)


class ImageRoundtrip:
    """Roundtrip stage (ST4): decode + verify + vectorize + polygonize +
    rasterize per image of an Arrow batch of the image table."""

    def __init__(self, psnr_threshold_db: float = 40.0, emit_polygons: bool = False):
        self.psnr_threshold_db = psnr_threshold_db
        self.emit_polygons = emit_polygons

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        image_ids = batch["image_id"].to_pylist()
        captions = batch["caption"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        hashes = batch["phash"].to_numpy()

        n_polys = np.zeros(n, dtype=np.int64)
        total_area = np.zeros(n, dtype=np.float64)
        psnr_db = np.zeros(n, dtype=np.float64)
        phash_ok = np.zeros(n, dtype=bool)
        roundtrip_ok = np.zeros(n, dtype=bool)
        poly_tables = []

        if not self.emit_polygons and n > 1:
            # Batched trace/assembly ACROSS the images of the batch: each
            # image's (integer-coordinate) linework is translated into its
            # own disjoint slab (x += i * 2^13 — exact float arithmetic, and
            # every geometric decision below is translation-invariant), ONE
            # trace_rings + assemble_flat runs over the merged soup (graph
            # components stay per-image), and results split back by slab.
            # Replaces 2 x n vectorized-but-tiny calls whose fixed numpy
            # overhead dominated at 64x64 tiles (~1.7 ms of 4.9 ms/image).
            # slab stride: power of two strictly above the widest image so
            # slabs never collide (and i*STRIDE stays exact in float64)
            STRIDE = float(1 << max(13, int(np.ceil(np.log2(float(ws.max()) + 2.0)))))
            imgs = []
            sx0, sy0, sx1, sy1 = [], [], [], []
            for i in range(n):
                img = decode_image(blobs[i], int(ws[i]), int(hs[i]), fmts[i])
                phash_ok[i] = phash64(img) == int(hashes[i])
                imgs.append(img)
                x0, y0, x1, y1 = labels_to_linework(rgb_to_labels(img))
                off = i * STRIDE
                sx0.append(x0 + off)
                sy0.append(y0)
                sx1.append(x1 + off)
                sy1.append(y1)
            fx, fy, offs = trace_rings(
                np.concatenate(sx0), np.concatenate(sy0),
                np.concatenate(sx1), np.concatenate(sy1),
            )
            flat = assemble_flat(fx, fy, offs)
            # attribute polygons by their shell's FIRST VERTEX — always
            # inside the slab, unlike the hole-inclusive centroid which can
            # leave the bbox for heavily-holed polygons
            sh_off = flat["shell_offsets"]
            slab = (flat["shell_values_x"][sh_off[:-1]] // STRIDE).astype(np.int64)
            n_polys[:] = np.bincount(slab, minlength=n)
            total_area[:] = np.bincount(slab, weights=flat["area"], minlength=n)
            # group traced FACES by slab and rasterize per image
            ring_slab = (fx[offs[:-1]] // STRIDE).astype(np.int64) if len(offs) > 1 else np.empty(0, np.int64)
            order = np.argsort(ring_slab, kind="stable")
            sorted_slab = ring_slab[order]
            for i in range(n):
                lo = np.searchsorted(sorted_slab, i)
                hi = np.searchsorted(sorted_slab, i + 1)
                ridx = order[lo:hi]
                lens = offs[ridx + 1] - offs[ridx]
                loffs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
                pos = np.arange(loffs[-1]) - np.repeat(loffs[:-1], lens)
                g = np.repeat(offs[ridx], lens) + pos
                recon = rasterize_faces(fx[g] - i * STRIDE, fy[g], loffs, imgs[i])
                p = psnr(imgs[i], recon)
                psnr_db[i] = p
                roundtrip_ok[i] = p >= self.psnr_threshold_db
        else:
            for i in range(n):
                img = decode_image(blobs[i], int(ws[i]), int(hs[i]), fmts[i])
                phash_ok[i] = phash64(img) == int(hashes[i])
                x0, y0, x1, y1 = labels_to_linework(rgb_to_labels(img))
                fx, fy, offs = trace_rings(x0, y0, x1, y1)
                flat = assemble_flat(fx, fy, offs)
                n_polys[i] = len(flat["area"])
                total_area[i] = float(flat["area"].sum())
                # reconstruction uses the face decomposition (exact); polygon
                # assembly keeps reference parity for the stats/polygons output
                recon = rasterize_faces(fx, fy, offs, img)
                p = psnr(img, recon)
                psnr_db[i] = p
                roundtrip_ok[i] = p >= self.psnr_threshold_db
                if self.emit_polygons:
                    t = flat_to_table(flat, tile_id=0)
                    t = t.append_column("image_id", pa.array([image_ids[i]] * t.num_rows))
                    poly_tables.append(t)

        if self.emit_polygons:
            if not poly_tables:
                from geo_polygonize_ray.stages.trace import POLYGON_SCHEMA

                return POLYGON_SCHEMA.empty_table().append_column(
                    "image_id", pa.array([], pa.string())
                )
            return pa.concat_tables(poly_tables)

        return pa.table(
            {
                "image_id": pa.array(image_ids, pa.string()),
                "caption": pa.array(captions, pa.string()),
                "n_polys": pa.array(n_polys),
                "total_area": pa.array(total_area),
                "psnr_db": pa.array(psnr_db),
                "phash_ok": pa.array(phash_ok),
                "roundtrip_ok": pa.array(roundtrip_ok),
            },
            schema=IMAGE_RESULT_SCHEMA,
        )


def _roundtrip_piece(
    path: str, row_group: int, offset: int, rows: int, filesystem, stage, batch_size
) -> pa.Table:
    """``stage`` over rows [offset, offset + rows) of one row group."""
    with filesystem.open_input_file(path) as f:
        t = pq.ParquetFile(f).read_row_group(row_group).slice(offset, rows)
    step = batch_size or rows
    return pa.concat_tables([stage(t.slice(lo, step)) for lo in range(0, rows, step)])


def image_roundtrip_pipeline(
    image_table_path: str,
    cfg: PipelineConfig | None = None,
    batch_size: int | None = 64,
    emit_polygons: bool = False,
) -> rd.Dataset:
    """Image table (one Parquet file or a directory of them) -> one result
    row per image (or, with ``emit_polygons``, one row per polygon).

    The driver reads only the file footers: every row group is one task,
    and when there are fewer row groups than cluster CPUs they are cut into
    row ranges, so a single-file table still uses every CPU.  Each task
    reads its rows and runs ``ImageRoundtrip`` over ``batch_size``-row
    slices (``None``: the whole piece in one slab-batched call).
    """
    cfg = cfg or PipelineConfig()
    stage = ImageRoundtrip(cfg.psnr_threshold_db, emit_polygons)
    ds = pads.dataset(image_table_path, format="parquet")
    groups = [
        (frag.path, rg.id, rg.num_rows)
        for frag in sorted(ds.get_fragments(), key=lambda f: f.path)
        for rg in frag.row_groups
    ]
    pieces = [
        (*groups[i][:2], lo, n)
        for i, lo, n in row_ranges([n for _, _, n in groups], cluster_cpus())
    ]
    if pieces:
        refs = map_refs(_roundtrip_piece, pieces, ds.filesystem, stage, batch_size)
    else:  # no rows: the stage's own typed empty output
        refs = [ray.put(stage(ds.schema.empty_table()))]
    return rd.from_arrow_refs(refs).materialize()
