"""Flagship pipeline: image+caption tiles -> vectorize -> polygonize ->
rasterize -> verify (SURVEY.md §7.1 step 3, BASELINE.json north_star).

Each image tile is an independent planar graph, so this path needs NO
shuffle at all: the driver lists the table's Parquet row groups from the
file footers, and one plain Ray task per row group (or row range of one)
reads its rows, up to the end of its range, and emits per-image polygon
stats + the verified per-row invariant (decoded-pixel PSNR >= threshold vs
the round-trip reconstruction, recomputed phash == stored phash, caption
passed through byte-identical).  Within a batch the raster kernels run once
per image shape over the stack of that shape's images, and trace/assembly
once per shape over their slab-offset linework.  Embarrassingly parallel,
zero-copy binary columns.
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
from geo_polygonize_ray.raster.vectorize import labels_to_linework, rgb_to_labels, slab_stride
from geo_polygonize_ray.stages.trace import POLYGON_SCHEMA, flat_to_table

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
    rasterize the images of an Arrow batch of the image table."""

    def __init__(self, psnr_threshold_db: float = 40.0, emit_polygons: bool = False):
        self.psnr_threshold_db = psnr_threshold_db
        self.emit_polygons = emit_polygons

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One result row per image (or, with ``emit_polygons``, one row per
        polygon), in batch order.

        The rows are grouped by image shape (h, w); each blob is decoded on
        its own into its group's (n, h, w, 3) stack, and every raster kernel
        (phash, vectorize, rasterize, PSNR) runs once per group over it.
        Trace and assembly run once per group as well, over the group's
        linework translated into disjoint slabs (image i at x + i * slab_stride(w));
        every geometric decision is translation-invariant and the integer
        coordinates stay exact, so each image's results are those of a
        one-image call.  Results are scattered back by row.  With
        ``emit_polygons`` every image is traced as its own one-image stack
        and nothing is verified."""
        n = batch.num_rows
        image_ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        fmts = batch["fmt"].to_pylist()

        def decode(i):
            return decode_image(blobs[i], int(ws[i]), int(hs[i]), fmts[i])

        if self.emit_polygons:
            tables = []
            for i in range(n):
                _, flat = _polygonize(decode(i)[None])
                t = flat_to_table(flat, tile_id=0)
                tables.append(t.append_column("image_id", pa.array([image_ids[i]] * t.num_rows)))
            if not tables:
                return POLYGON_SCHEMA.empty_table().append_column(
                    "image_id", pa.array([], pa.string())
                )
            return pa.concat_tables(tables)

        phash = np.zeros(n, dtype=np.int64)
        n_polys = np.zeros(n, dtype=np.int64)
        total_area = np.zeros(n, dtype=np.float64)
        psnr_db = np.zeros(n, dtype=np.float64)
        shapes = hs.astype(np.int64) << 32 | ws.astype(np.int64)
        for shape in np.unique(shapes):
            rows = np.flatnonzero(shapes == shape)
            stack = np.stack([decode(i) for i in rows])
            phash[rows], n_polys[rows], total_area[rows], psnr_db[rows] = _roundtrip(stack)

        return pa.table(
            {
                "image_id": pa.array(image_ids, pa.string()),
                "caption": pa.array(batch["caption"].to_pylist(), pa.string()),
                "n_polys": pa.array(n_polys),
                "total_area": pa.array(total_area),
                "psnr_db": pa.array(psnr_db),
                "phash_ok": pa.array(phash == batch["phash"].to_numpy()),
                "roundtrip_ok": pa.array(psnr_db >= self.psnr_threshold_db),
            },
            schema=IMAGE_RESULT_SCHEMA,
        )


def _polygonize(stack: np.ndarray):
    """(n, h, w, 3) stack -> its traced rings (flat_x, flat_y, offsets) and
    assembled polygons, image i at x + i * slab_stride(w)."""
    x0, y0, x1, y1 = labels_to_linework(rgb_to_labels(stack))
    fx, fy, offs = trace_rings(x0, y0, x1, y1)
    return (fx, fy, offs), assemble_flat(fx, fy, offs)


def _roundtrip(stack: np.ndarray):
    """(n, h, w, 3) stack -> per-image (phash, n_polys, total_area, psnr_db)."""
    n, _, w, _ = stack.shape
    hashes = phash64(stack)
    rings, flat = _polygonize(stack)
    # attribute polygons by their shell's FIRST VERTEX — always inside the
    # slab, unlike the hole-inclusive centroid which can leave the bbox for
    # heavily-holed polygons
    sh_off = flat["shell_offsets"]
    slab = (flat["shell_values_x"][sh_off[:-1]] // slab_stride(w)).astype(np.int64)
    # reconstruction uses the face decomposition (exact); polygon assembly
    # keeps reference parity for the stats/polygons output
    recon = rasterize_faces(*rings, stack)
    return (
        hashes,
        np.bincount(slab, minlength=n),
        np.bincount(slab, weights=flat["area"], minlength=n),
        psnr(stack, recon),
    )


def _roundtrip_piece(
    path: str, row_group: int, offset: int, rows: int, filesystem, stage, batch_size
) -> pa.Table:
    """``stage`` over rows [offset, offset + rows) of one row group; the
    row group is read only up to the end of the range."""
    step = batch_size or rows
    batches, end = [], offset + rows
    with filesystem.open_input_file(path) as f:
        for b in pq.ParquetFile(f).iter_batches(batch_size=step, row_groups=[row_group]):
            batches.append(b)
            end -= b.num_rows
            if end <= 0:
                break
    t = pa.Table.from_batches(batches).slice(offset, rows)
    return pa.concat_tables([stage(t.slice(lo, step)) for lo in range(0, rows, step)])


def table_pieces(path: str) -> tuple[pads.Dataset, list[tuple[str, int, int, int]]]:
    """The Parquet table at ``path`` (one file or a directory of them) and
    its pieces (file, row group, first row, rows), listed from the file
    footers alone: one per row group, and when there are fewer row groups
    than cluster CPUs they are cut into row ranges, so a single-file table
    still uses every CPU."""
    ds = pads.dataset(path, format="parquet")
    groups = [
        (frag.path, rg.id, rg.num_rows)
        for frag in sorted(ds.get_fragments(), key=lambda f: f.path)
        for rg in frag.row_groups
    ]
    ranges = row_ranges([n for _, _, n in groups], cluster_cpus())
    return ds, [(*groups[i][:2], lo, n) for i, lo, n in ranges]


def image_roundtrip_pipeline(
    image_table_path: str,
    cfg: PipelineConfig | None = None,
    batch_size: int | None = 64,
    emit_polygons: bool = False,
) -> rd.Dataset:
    """Image table (one Parquet file or a directory of them) -> one result
    row per image (or, with ``emit_polygons``, one row per polygon).

    The driver reads only the file footers: every piece (``table_pieces``)
    is one task, which reads its rows and runs ``ImageRoundtrip`` over
    ``batch_size``-row slices (``None``: the whole piece in one
    slab-batched call).
    """
    cfg = cfg or PipelineConfig()
    stage = ImageRoundtrip(cfg.psnr_threshold_db, emit_polygons)
    ds, pieces = table_pieces(image_table_path)
    if pieces:
        refs = map_refs(_roundtrip_piece, pieces, ds.filesystem, stage, batch_size)
    else:  # no rows: the stage's own typed empty output
        refs = [ray.put(stage(ds.schema.empty_table()))]
    return rd.from_arrow_refs(refs).materialize()
