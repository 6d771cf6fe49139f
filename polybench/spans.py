"""Span recording for the traced benchmark run.

Wrappers are installed around the engine's public layer functions, in the
driver and (through Ray's ``worker_process_setup_hook``) in every Ray worker,
so the spans describe the real distributed run: task skew and idle time only
exist there.

Each process keeps its spans in memory.  A span is recorded only while the
driver has a traced job open: the job id sits in an 8-byte shared flag file
that every process maps read-only, so a traced run can alternate traced and
untraced jobs without restarting workers.  When a process's outermost span
closes (one Ray task's worth of work), its spans are appended as one JSON
line to ``spans-<pid>.jsonl`` in the span directory; the driver reads them
all after the measured loop.

The clock is ``time.monotonic_ns`` (CLOCK_MONOTONIC, shared by every process
on the host), so worker spans can be placed inside driver-side intervals.

Span record: ``[job, name, t0_ns, t1_ns, span_id, parent_id, attrs]`` with ids
unique within one process.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import sys
import threading
import time

SPAN_DIR_ENV = "POLYBENCH_SPAN_DIR"
FLAG_FILE = "job.flag"


class JobFlag:
    """Writer side of the shared job flag (driver only)."""

    def __init__(self, span_dir: str):
        self.path = os.path.join(span_dir, FLAG_FILE)
        with open(self.path, "wb") as f:
            f.write(bytes(8))
        self._f = open(self.path, "r+b")
        self._map = mmap.mmap(self._f.fileno(), 8)

    def set(self, job: int) -> None:
        self._map[:8] = int(job).to_bytes(8, "little")

    def close(self) -> None:
        self._map.close()
        self._f.close()


class Recorder:
    """Per-process span buffer."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self._flag = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._done: list[list] = []
        self._seq = 0

    def _job(self) -> int:
        if self._flag is None:
            with open(os.path.join(self.span_dir, FLAG_FILE), "rb") as f:
                self._flag = mmap.mmap(f.fileno(), 8, access=mmap.ACCESS_READ)
        return int.from_bytes(self._flag[:8], "little")

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> list | None:
        job = self._job()
        if not job:
            return None
        stack = self._stack()
        with self._lock:
            self._seq += 1
            sid = self._seq
        parent = stack[-1][4] if stack else 0
        span = [job, name, time.monotonic_ns(), 0, sid, parent, None]
        stack.append(span)
        return span

    def end(self, span: list, attrs: dict | None = None) -> None:
        span[3] = time.monotonic_ns()
        span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._done.append(span)
        if not stack:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            done, self._done = self._done, []
        if not done:
            return
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps({"pid": self.pid, "spans": done}) + "\n")


def read_spans(span_dir: str) -> list[tuple[int, list]]:
    """All recorded spans as (pid, span) pairs."""
    out = []
    for fn in sorted(os.listdir(span_dir)):
        if not (fn.startswith("spans-") and fn.endswith(".jsonl")):
            continue
        with open(os.path.join(span_dir, fn)) as f:
            for line in f:
                rec = json.loads(line)
                out.extend((rec["pid"], s) for s in rec["spans"])
    return out


# --- wrappers ---------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn, attrs=None):
    """Span around every call; ``attrs(args, kwargs, result)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        if span is None:
            return fn(*args, **kwargs)
        extra = None
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, out)
            return out
        finally:
            rec.end(span, extra)

    return wrapper


def _per_item(rec: Recorder, name: str, fn):
    """Generator wrapper: one span per yielded item, covering the consumer's
    work on that item (the time until the generator is resumed)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            span = rec.begin(name)
            try:
                yield item
            finally:
                if span is not None:
                    rec.end(span)

    return wrapper


def _assemble(rec: Recorder, fn):
    """``assemble_flat`` span that also counts polygons kept by the sliver
    filter and polygons owned by the tile.  When an owner rect is given the
    call asks for the unowned extras and strips them again, so the caller
    receives the same dict it would have received untraced."""

    @functools.wraps(fn)
    def wrapper(flat_x, flat_y, offsets, owner_rect=None, with_unowned=False):
        span = rec.begin("local.assemble")
        if span is None:
            return fn(flat_x, flat_y, offsets, owner_rect, with_unowned)
        extra = None
        try:
            ask = owner_rect is not None
            out = fn(flat_x, flat_y, offsets, owner_rect, ask or with_unowned)
            owned = len(out["area"])
            kept = owned + (len(out["unowned_cx"]) if ask else 0)
            if ask and not with_unowned:
                out = {
                    k: v
                    for k, v in out.items()
                    if k not in ("unowned_cx", "unowned_cy", "unowned_bbox", "owned_bbox")
                }
            extra = {"kept": kept, "owned": owned}
            return out
        finally:
            rec.end(span, extra)

    return wrapper


def _marker(rec: Recorder, name: str, fn):
    """Zero-length span at each call (driver-side round boundaries)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            if span is not None:
                span[2] = time.monotonic_ns()
                rec.end(span)

    return wrapper


def _rebind(func_module: str, name: str, wrapper, original) -> None:
    """Replace ``original`` by ``wrapper`` in its defining module and in every
    engine module that bound it with ``from ... import`` (names are looked up
    where they are used)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("geo_polygonize_ray"):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)
    if getattr(sys.modules[func_module], name) is not wrapper:
        raise RuntimeError(f"could not wrap {func_module}.{name}")


def _hot_attrs(args, kwargs, out):
    hot = out[0] if isinstance(out, tuple) else out
    return {"hot": len(hot), "leaves": int(sum(k * k for k in hot.values()))}


def install(rec: Recorder) -> None:
    """Wrap the engine's layer functions in this process (idempotent)."""
    import geo_polygonize_ray  # noqa: F401  (applies the engine's own shims first)
    import geo_polygonize_ray.pipelines.images as images
    import geo_polygonize_ray.pipelines.polygonize as polygonize
    import geo_polygonize_ray.raster.codec as codec
    import geo_polygonize_ray.raster.phash as phash
    import geo_polygonize_ray.raster.rasterize as rasterize
    import geo_polygonize_ray.raster.vectorize as vectorize
    import geo_polygonize_ray.stages.linework as linework
    import geo_polygonize_ray.stages.stitch as stitch
    import geo_polygonize_ray.stages.trace as trace
    from geo_polygonize_ray.local.graph import PlanarGraph
    from geo_polygonize_ray.local.noding import SnapNoder
    import geo_polygonize_ray.local.polygonize as local_poly

    if getattr(PlanarGraph, "_polybench_traced", False):
        return
    PlanarGraph._polybench_traced = True

    functions = [
        (linework, "explode_linework_to_segments", lambda f: _timed(
            rec, "linework.explode", f,
            lambda a, k, o: {"segments": o.num_rows})),
        (trace, "plane_tile_segment_groups", lambda f: _per_item(rec, "trace.cell", f)),
        (trace, "plane_tile_line_groups", lambda f: _per_item(rec, "trace.cell", f)),
        (local_poly, "assemble_flat", lambda f: _assemble(rec, f)),
        (polygonize, "compute_hot_tiles", lambda f: _timed(
            rec, "polygonize.prepass", f, _hot_attrs)),
        (stitch, "polygonize_dataset_adaptive", lambda f: _timed(rec, "stitch.adaptive", f)),
        (codec, "decode_image", lambda f: _timed(rec, "raster.decode", f)),
        (codec, "psnr", lambda f: _timed(rec, "raster.psnr", f)),
        (phash, "phash64", lambda f: _timed(rec, "raster.phash", f)),
        (vectorize, "rgb_to_labels", lambda f: _timed(rec, "raster.vectorize", f)),
        (vectorize, "labels_to_linework", lambda f: _timed(
            rec, "raster.vectorize", f, lambda a, k, o: {"segments": len(o[0])})),
        (rasterize, "rasterize_faces", lambda f: _timed(rec, "raster.rasterize", f)),
    ]
    for mod, name, make in functions:
        original = getattr(mod, name)
        _rebind(mod.__name__, name, make(original), original)

    methods = [
        (SnapNoder, "node", lambda f: _timed(
            rec, "local.node", f, lambda a, k, o: {"n_in": len(a[1]), "n_out": len(o[0])})),
        (PlanarGraph, "__init__", lambda f: _timed(rec, "local.graph", f)),
        (PlanarGraph, "sort_edges", lambda f: _timed(rec, "local.sort", f)),
        (PlanarGraph, "prune_dangles", lambda f: _timed(
            rec, "local.prune", f, lambda a, k, o: {"dangles": int(o)})),
        (PlanarGraph, "get_edge_rings", lambda f: _timed(
            rec, "local.rings", f, lambda a, k, o: {"rings": len(o[2]) - 1})),
        (trace.TilePolygonizer, "__call__", lambda f: _timed(rec, "trace.task", f)),
        (stitch.EscalatingTilePolygonizer, "__call__", lambda f: _timed(rec, "stitch.task", f)),
        (stitch.EscalatingTilePolygonizer, "__init__", lambda f: _marker(rec, "stitch.round", f)),
        (linework.SaltedTileAssigner, "__call__", lambda f: _timed(
            rec, "linework.assign", f, lambda a, k, o: {"rows": a[1].num_rows})),
        (linework.SaltedSegmentAssigner, "assign_and_clip", lambda f: _timed(
            rec, "linework.assign_clip", f,
            lambda a, k, o: {"copies": o.num_rows})),
        (images.ImageRoundtrip, "__call__", lambda f: _timed(rec, "images.task", f)),
    ]
    for cls, name, make in methods:
        setattr(cls, name, make(cls.__dict__[name]))


def install_from_env() -> None:
    """Ray ``worker_process_setup_hook``: install the wrappers in a worker."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        install(Recorder(span_dir))
