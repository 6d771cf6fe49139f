"""The four benchmark workloads.

Each workload is a pure function of the seed: ``build`` makes the input and
the expected output from how the input is constructed (closed forms or the
generator's own records, never an earlier run of the engine), ``job`` builds
one job's output Dataset through the engine's public API (the runner
consumes it), and ``check`` compares the consumed result with the
expectation.

``SIZES`` holds the measured ("full") input sizes and the tiny ("smoke")
sizes the smoke test runs.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SIZES = {
    "full": {
        "grid_tiled": {"n": 150},
        # two 8x8 boxes of 1/32 pitch, each inside one 40-unit tile
        "skew_tiled": {
            "span": 200.0, "boxes": ((48.0, 48.0), (128.0, 88.0)),
            "hot_size": 8.0, "fine_pitch": 1 / 32,
        },
        "image_roundtrip": {"images": 256},
        "stitch_adaptive": {"n": 30, "rings": 2, "side": 24},
    },
    "smoke": {
        "grid_tiled": {"n": 24},
        "skew_tiled": {
            "span": 80.0, "boxes": ((48.0, 8.0),), "hot_size": 8.0, "fine_pitch": 0.25,
        },
        "image_roundtrip": {"images": 16},
        "stitch_adaptive": {"n": 12, "rings": 2, "side": 24},
    },
}

SHARD_ROWS = 64


def edge_linework(x0, y0, x1, y1) -> pa.Table:
    """One 2-point linestring per segment, in the engine's linework schema."""
    m = len(x0)
    offs = pa.array(np.arange(0, 2 * m + 1, 2, dtype=np.int32))
    xs = np.stack([x0, x1], axis=1).ravel().astype(np.float64)
    ys = np.stack([y0, y1], axis=1).ravel().astype(np.float64)
    return pa.table(
        {
            "plane_id": pa.array(["plane-0"] * m, pa.string()),
            "line_id": pa.array(np.arange(m, dtype=np.int64)),
            "xs": pa.ListArray.from_arrays(offs, pa.array(xs, pa.float64())),
            "ys": pa.ListArray.from_arrays(offs, pa.array(ys, pa.float64())),
        }
    )


def unit_grid_edges(n: int, ox: int, oy: int):
    """Every unit edge of the n x n grid with lower-left corner (ox, oy)."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
    i, j = i.ravel(), j.ravel()
    x0 = np.concatenate([j + ox, i + ox])  # horizontal edges, then vertical
    y0 = np.concatenate([i + oy, j + oy])
    x1 = np.concatenate([j + ox + 1, i + ox])
    y1 = np.concatenate([i + oy, j + oy + 1])
    return x0, y0, x1, y1


def unit_cells_ok(t: pa.Table, n: int, ox: int, oy: int) -> bool:
    """``t`` holds exactly the n*n unit squares of the grid at (ox, oy): each
    has area 1, no hole, and a centroid at a distinct cell centre."""
    if t.num_rows != n * n:
        return False
    area = t["area"].to_numpy()
    holes = t["n_holes"].to_numpy()
    fx = t["cx"].to_numpy() - ox - 0.5
    fy = t["cy"].to_numpy() - oy - 0.5
    ix, iy = np.rint(fx), np.rint(fy)
    if not (
        np.all(np.abs(area - 1.0) < 1e-9)
        and np.all(holes == 0)
        and np.all(np.abs(fx - ix) < 1e-7)
        and np.all(np.abs(fy - iy) < 1e-7)
        and np.all((ix >= 0) & (ix < n) & (iy >= 0) & (iy < n))
    ):
        return False
    cells = np.bincount((iy * n + ix).astype(np.int64), minlength=n * n)
    if not np.all(cells == 1):
        return False
    # centroid sums in closed form: n^2 (o + n/2) on each axis
    want_x, want_y = n * n * (ox + n / 2), n * n * (oy + n / 2)
    tol = 1e-9 * n * n * (abs(ox) + abs(oy) + n + 1)
    return abs(t["cx"].to_numpy().sum() - want_x) < tol and abs(
        t["cy"].to_numpy().sum() - want_y
    ) < tol


class Workload:
    name = ""

    def build(self, seed: int, size: dict, work_dir: str) -> dict:
        raise NotImplementedError

    def job(self, state: dict, job_dir: str):
        raise NotImplementedError

    def check(self, state: dict, out: pa.Table) -> bool:
        raise NotImplementedError

    def count(self, out: pa.Table) -> int:
        """Polygons in one job's output."""
        return out.num_rows

    def corrupt(self, out: pa.Table) -> pa.Table:
        """Smoke-test hook: drop one polygon row."""
        return out.slice(0, out.num_rows - 1)


class GridTiled(Workload):
    """Unit grid fed as one 2-point linestring per unit edge, tiled."""

    name = "grid_tiled"

    def build(self, seed, size, work_dir):
        n = size["n"]
        ox, oy = (int(v) for v in np.random.default_rng(seed).integers(-500, 500, 2))
        table = edge_linework(*unit_grid_edges(n, ox, oy))
        return {"n": n, "ox": ox, "oy": oy, "table": table}

    def job(self, state, job_dir):
        import ray.data as rd

        from geo_polygonize_ray.config import PipelineConfig
        from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset

        n, ox, oy = state["n"], state["ox"], state["oy"]
        cfg = PipelineConfig(tile_size=50.0, tile_buffer=2.0)
        bbox = (float(ox), float(oy), float(ox + n), float(oy + n))
        return polygonize_dataset(rd.from_arrow(state["table"]), cfg, bbox=bbox)

    def check(self, state, out):
        return out is not None and unit_cells_ok(out, state["n"], state["ox"], state["oy"])


class SkewTiled(Workload):
    """``skewed_grid_lines``: a coarse grid of long lines plus fine-pitch hot
    boxes on coarse multiples, translated by a seeded multiple of the coarse
    pitch.  Auto salting.  The boxes keep their place relative to the tile
    grid, so every seed gives the same hot tiles and the same salted leaves:
    placing them anywhere else changes how many tiles they straddle and moved
    the job time by up to 40% between seeds."""

    name = "skew_tiled"
    coarse = 4.0
    tile = 40.0

    def build(self, seed, size, work_dir):
        from geo_polygonize_ray.sources.fixtures import linework_table, skewed_grid_lines

        span, hot, fine = size["span"], size["hot_size"], size["fine_pitch"]
        tx, ty = (float(v) * self.coarse for v in np.random.default_rng(seed).integers(-100, 100, 2))
        lines, expected = skewed_grid_lines(
            span=span, coarse_pitch=self.coarse, hot_origins=size["boxes"],
            hot_size=hot, fine_pitch=fine,
        )
        shift = np.array([tx, ty])
        m = int(round(hot / fine))
        return {
            "table": linework_table([line + shift for line in lines]),
            "bbox": (tx, ty, tx + span, ty + span),
            "span": span,
            "expected": expected,
            "n_fine": len(size["boxes"]) * m * m,
            "fine_area": fine * fine,
        }

    def job(self, state, job_dir):
        import ray.data as rd

        from geo_polygonize_ray.config import PipelineConfig
        from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset

        cfg = PipelineConfig(tile_size=self.tile, tile_buffer=5.0)
        return polygonize_dataset(rd.from_arrow(state["table"]), cfg, bbox=state["bbox"])

    def check(self, state, out):
        if out is None or out.num_rows != state["expected"]:
            return False
        area = out["area"].to_numpy()
        fine = np.abs(area - state["fine_area"]) < 1e-9
        coarse = np.abs(area - self.coarse**2) < 1e-9
        span = state["span"]
        return (
            int(fine.sum()) == state["n_fine"]
            and int(coarse.sum()) == state["expected"] - state["n_fine"]
            and bool(np.all(out["n_holes"].to_numpy() == 0))
            and abs(float(area.sum()) - span * span) < 1e-6 * span * span
        )


class ImageRoundtrip(Workload):
    """Image+caption parquet shards through ``image_roundtrip_pipeline``."""

    name = "image_roundtrip"

    def build(self, seed, size, work_dir):
        from geo_polygonize_ray.sources.fixtures import generate_image_table

        path = os.path.join(work_dir, "images")
        shutil.rmtree(path, ignore_errors=True)
        generate_image_table(size["images"], path, seed=seed, shard_rows=SHARD_ROWS)
        # expected ids and captions: the generator's own records
        written = pq.read_table(path, columns=["image_id", "caption"])
        captions = dict(zip(written["image_id"].to_pylist(), written["caption"].to_pylist()))
        return {"path": path, "captions": captions}

    def job(self, state, job_dir):
        from geo_polygonize_ray.pipelines.images import image_roundtrip_pipeline

        return image_roundtrip_pipeline(state["path"])

    def check(self, state, out):
        want = state["captions"]
        if out is None or out.num_rows != len(want):
            return False
        ids = out["image_id"].to_pylist()
        if len(set(ids)) != len(ids) or set(ids) != set(want):
            return False
        caps = out["caption"].to_pylist()
        return (
            all(want[i].encode() == c.encode() for i, c in zip(ids, caps))
            and bool(np.all(out["phash_ok"].to_numpy(zero_copy_only=False)))
            and bool(np.all(out["psnr_db"].to_numpy() >= 40.0))
            and bool(np.all(out["n_polys"].to_numpy() >= 1))
        )

    def count(self, out):
        return int(out["n_polys"].to_numpy().sum())

    def corrupt(self, out):
        """Smoke-test hook: change one caption byte."""
        caps = out["caption"].to_pylist()
        caps[0] = ("#" if caps[0][:1] != "#" else "$") + caps[0][1:]
        i = out.schema.get_field_index("caption")
        return out.set_column(i, "caption", pa.array(caps, pa.string()))


class StitchAdaptive(Workload):
    """Unit grid plus k nested square rings several tiles wide, through the
    adaptive escalation path."""

    name = "stitch_adaptive"
    tile = 20.0

    def build(self, seed, size, work_dir):
        n, k, side = size["n"], size["rings"], size["side"]
        # the seed translates the whole scene; the rings sit a fixed gap to
        # the right of the grid, so every seed gives the same tiling and the
        # same escalation rounds
        gx, gy = (int(v) for v in np.random.default_rng(seed).integers(-500, 500, 2))
        step = side // (2 * k)
        sides = [side - 2 * step * i for i in range(k)]
        rx, ry = gx + n + 4, gy
        x0, y0, x1, y1 = (list(a) for a in unit_grid_edges(n, gx, gy))
        for i, s in enumerate(sides):
            a, b = rx + step * i, ry + step * i
            corners = [(a, b), (a + s, b), (a + s, b + s), (a, b + s), (a, b)]
            for (p, q), (u, v) in zip(corners[:-1], corners[1:]):
                x0.append(p), y0.append(q), x1.append(u), y1.append(v)
        table = edge_linework(*(np.asarray(c) for c in (x0, y0, x1, y1)))
        bbox = (float(gx), float(gy), float(rx + side), float(gy + max(n, side)))
        return {"table": table, "bbox": bbox, "n": n, "gx": gx, "gy": gy, "sides": sides}

    def job(self, state, job_dir):
        import ray.data as rd

        from geo_polygonize_ray.config import PipelineConfig
        from geo_polygonize_ray.stages.stitch import polygonize_dataset_adaptive

        cfg = PipelineConfig(tile_size=self.tile, tile_buffer=2.0)
        ds = rd.from_arrow(state["table"])
        return polygonize_dataset_adaptive(ds, cfg, state["bbox"], spill_dir=job_dir)

    def check(self, state, out):
        n, sides = state["n"], state["sides"]
        if out is None or out.num_rows != n * n + len(sides):
            return False
        big = out["area"].to_numpy() > 1.5
        if not unit_cells_ok(out.filter(pa.array(~big)), n, state["gx"], state["gy"]):
            return False
        rings = out.filter(pa.array(big))
        got = sorted(
            (round(float(a), 9), int(h))
            for a, h in zip(rings["area"].to_numpy(), rings["n_holes"].to_numpy())
        )
        # ring i bounds the annulus s_i^2 - s_{i+1}^2 with one hole; the
        # innermost square has none
        want = sorted(
            (float(s * s - (sides[i + 1] ** 2 if i + 1 < len(sides) else 0)),
             1 if i + 1 < len(sides) else 0)
            for i, s in enumerate(sides)
        )
        return got == want


WORKLOADS = {w.name: w for w in (GridTiled(), SkewTiled(), ImageRoundtrip(), StitchAdaptive())}
