"""Per-layer metrics of the traced run.

Two sources, both per job:

* the spans recorded by ``spans.py`` in the driver and in every Ray worker
  (layer busy time, counts, per-cell times, stitch rounds);
* the Dataset's own stats tree for the job's output plan (operator rows,
  bytes and remote task seconds).  The tree is walked directly: the rendered
  ``Dataset.stats()`` string drops the sub-operator rows of a repeated
  exchange.

Every metric is computed per traced job; the reported value is the median
over the traced jobs of the run.  A layer the workload does not load reports
0 (the "no change" prediction for that workload).

Times in ``*_s`` metrics are summed over all processes, so they are busy
seconds of that layer in one job, not wall time, except ``stitch.round0_s``
and ``stitch.escalation_s`` (driver wall time of the escalation rounds).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric name -> (unit, better).  Order is the order of the output.
PER_LAYER = {
    "polygonize.prepass_s": ("s", "lower"),
    "polygonize.hot_tiles": ("count", "lower"),
    "polygonize.salt_leaves": ("count", "lower"),
    "polygonize.overhead_s": ("s", "lower"),
    "exchange.ops": ("count", "lower"),
    "exchange.task_s": ("s", "lower"),
    "exchange.rows": ("count", "lower"),
    "exchange.bytes": ("B", "lower"),
    "exchange.empty_blocks": ("count", "lower"),
    "linework.explode_s": ("s", "lower"),
    "linework.assign_clip_s": ("s", "lower"),
    "linework.segments": ("count", "lower"),
    "linework.copies": ("count", "lower"),
    "linework.copy_ratio": ("ratio", "lower"),
    "trace.tasks": ("count", "higher"),
    "trace.task_s_mean": ("s", "lower"),
    "trace.task_s_max": ("s", "lower"),
    "trace.task_skew": ("ratio", "lower"),
    "trace.idle_frac": ("ratio", "lower"),
    "trace.cells": ("count", "higher"),
    "trace.cell_s_p50": ("s", "lower"),
    "trace.cell_s_p99": ("s", "lower"),
    "trace.cell_s_max": ("s", "lower"),
    "local.node_s": ("s", "lower"),
    "local.graph_s": ("s", "lower"),
    "local.sort_s": ("s", "lower"),
    "local.prune_s": ("s", "lower"),
    "local.rings_s": ("s", "lower"),
    "local.assemble_s": ("s", "lower"),
    "local.segments_in": ("count", "lower"),
    "local.segments_noded": ("count", "lower"),
    "local.dangles": ("count", "lower"),
    "local.rings": ("count", "lower"),
    "local.polys_kept": ("count", "lower"),
    "local.polys_owned": ("count", "higher"),
    "local.own_ratio": ("ratio", "higher"),
    "stitch.rounds": ("count", "lower"),
    "stitch.escalated_tiles": ("count", "lower"),
    "stitch.rows_scanned": ("count", "lower"),
    "stitch.round0_s": ("s", "lower"),
    "stitch.escalation_s": ("s", "lower"),
    "stitch.spill_bytes": ("B", "lower"),
    "raster.decode_s": ("s", "lower"),
    "raster.phash_s": ("s", "lower"),
    "raster.vectorize_s": ("s", "lower"),
    "raster.rasterize_s": ("s", "lower"),
    "raster.psnr_s": ("s", "lower"),
    "raster.segments": ("count", "lower"),
    "images.read_task_s": ("s", "lower"),
    "images.task_skew": ("ratio", "lower"),
    "spans.overhead_frac": ("ratio", "lower"),
    "spans.coverage": ("ratio", "higher"),
}

# What each layer's metrics should move, written down before measuring:
# metric-name prefix -> (end-to-end metric, workloads where it should move,
# workloads where it should not move).  ``local.node_s`` moves only on the
# three tiled workloads; for noder changes image_roundtrip is the control.
PREDICTIONS = {
    "polygonize.": ("job_s_p50", "skew_tiled, grid_tiled", "image_roundtrip"),
    "exchange.": ("job_s_p50", "grid_tiled", "image_roundtrip"),
    "linework.": ("polys_per_s", "grid_tiled", "image_roundtrip"),
    "trace.": ("job_s_p50, job_s_tail", "skew_tiled, grid_tiled", "image_roundtrip"),
    "local.": ("polys_per_s", "all four", "image_roundtrip for noder changes"),
    "stitch.": ("job_s_p50", "stitch_adaptive", "grid_tiled, skew_tiled, image_roundtrip"),
    "raster.": ("polys_per_s", "image_roundtrip", "grid_tiled, skew_tiled, stitch_adaptive"),
    "images.": ("polys_per_s", "image_roundtrip", "grid_tiled, skew_tiled, stitch_adaptive"),
    "spans.": ("none (tracing cost and span coverage)", "all", "-"),
}

LOCAL_PHASES = ("node", "graph", "sort", "prune", "rings", "assemble")
RASTER_PHASES = ("decode", "phash", "vectorize", "rasterize", "psnr")
PHASE_SPANS = {f"local.{p}" for p in LOCAL_PHASES} | {f"raster.{p}" for p in RASTER_PHASES}
TASK_SPANS = ("trace.task", "stitch.task", "images.task")


# --- Dataset stats ------------------------------------------------------------


def _op_tasks(blocks) -> list[tuple[float, float, float]]:
    """(wall, start, end) per Ray task of one operator, from its blocks."""
    tasks: dict = {}
    for i, b in enumerate(blocks):
        ex = getattr(b, "exec_stats", None)
        if ex is None or ex.wall_time_s is None:
            continue
        key = ex.task_idx if getattr(ex, "task_idx", None) is not None else ("block", i)
        wall, start, end = tasks.get(key, (0.0, float("inf"), float("-inf")))
        tasks[key] = (
            max(wall, ex.wall_time_s),
            min(start, ex.start_time_s if ex.start_time_s is not None else start),
            max(end, ex.end_time_s if ex.end_time_s is not None else end),
        )
    return list(tasks.values())


def plan_summary(ds) -> dict:
    """Operator totals of one consumed Dataset's execution plan."""
    root = ds._plan.stats()
    seen: set[int] = set()
    todo = [root]
    remote_s = 0.0
    ex = {"ops": 0, "task_s": 0.0, "rows": 0, "bytes": 0, "empty_blocks": 0}
    ops: dict[str, list] = {}
    while todo:
        st = todo.pop()
        if id(st) in seen:
            continue
        seen.add(id(st))
        todo.extend(st.parents)
        items = list(st.metadata.items())
        op_s = 0.0
        for name, blocks in items:
            tasks = _op_tasks(blocks)
            op_s += sum(w for w, _, _ in tasks)
            if len(items) == 1:
                ops.setdefault(name, []).extend(tasks)
        remote_s += op_s
        if len(items) > 1:  # an all-to-all exchange with its sub-operators
            out_blocks = items[-1][1]
            ex["ops"] += 1
            ex["task_s"] += op_s
            ex["rows"] += sum(b.num_rows or 0 for b in out_blocks)
            ex["bytes"] += sum(b.size_bytes or 0 for b in out_blocks)
            ex["empty_blocks"] += sum(1 for b in out_blocks if not b.num_rows)
    return {"remote_s": remote_s, "exchange": ex, "ops": ops}


def _op(summary: dict, needle: str) -> list[tuple[float, float, float]]:
    return [t for name, tasks in summary["ops"].items() if needle in name for t in tasks]


# --- spans --------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))]


def job_metrics(spans: list[tuple[int, list]], job: dict, cpus: int) -> dict:
    """Per-layer metrics of one traced job.

    ``spans``: this job's (pid, span) pairs; ``job``: the driver's record of
    it (``wall_s``, ``plan`` from ``plan_summary``, ``spill_bytes``)."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    by_id = {}
    children: dict = defaultdict(list)
    for pid, s in spans:
        by_id[(pid, s[4])] = s
        children[(pid, s[5])].append(s)

    def dur(s):
        return (s[3] - s[2]) / 1e9

    def parent(pid, s):
        return by_id.get((pid, s[5]))

    def attr(s, key):
        return (s[6] or {}).get(key, 0)

    for pid, s in spans:
        name = s[1]
        own = dur(s) - sum(dur(c) for c in children[(pid, s[4])])
        if name.startswith(("local.", "raster.")):
            key = name + "_s"
            if key in m:
                m[key] += own
        if name == "local.node":
            m["local.segments_in"] += attr(s, "n_in")
            m["local.segments_noded"] += attr(s, "n_out")
        elif name == "local.prune":
            m["local.dangles"] += attr(s, "dangles")
        elif name == "local.rings":
            m["local.rings"] += attr(s, "rings")
        elif name == "local.assemble":
            m["local.polys_kept"] += attr(s, "kept")
            m["local.polys_owned"] += attr(s, "owned")
        elif name == "raster.vectorize":
            m["raster.segments"] += attr(s, "segments")
        elif name == "linework.explode":
            m["linework.explode_s"] += dur(s)
            m["linework.segments"] += attr(s, "segments")
        elif name == "linework.assign_clip":
            m["linework.assign_clip_s"] += dur(s)
            m["linework.copies"] += attr(s, "copies")
        elif name == "linework.assign":
            p = parent(pid, s)
            if p is None or p[1] != "linework.assign_clip":
                m["stitch.rows_scanned"] += attr(s, "rows")
        elif name == "polygonize.prepass":
            m["polygonize.prepass_s"] += dur(s)
            m["polygonize.hot_tiles"] += attr(s, "hot")
            m["polygonize.salt_leaves"] += attr(s, "leaves")

    if m["linework.segments"]:
        m["linework.copy_ratio"] = m["linework.copies"] / m["linework.segments"]
    if m["local.polys_kept"]:
        m["local.own_ratio"] = m["local.polys_owned"] / m["local.polys_kept"]

    # tracer cells: per (plane, tile) cell spans inside TilePolygonizer groups
    cell_s = [
        dur(s) for pid, s in spans
        if s[1] == "trace.cell" and (parent(pid, s) or [0, ""])[1] == "trace.task"
    ]
    m["trace.cells"] = len(cell_s)
    m["trace.cell_s_p50"] = _pct(cell_s, 0.50)
    m["trace.cell_s_p99"] = _pct(cell_s, 0.99)
    m["trace.cell_s_max"] = max(cell_s, default=0.0)

    # coverage: share of each task span covered by its phase spans
    def covered(pid, s):
        total = 0.0
        for c in children[(pid, s[4])]:
            total += dur(c) if c[1] in PHASE_SPANS else covered(pid, c)
        return total

    task_s = cov_s = 0.0
    for pid, s in spans:
        if s[1] in TASK_SPANS:
            task_s += dur(s)
            cov_s += covered(pid, s)
    m["spans.coverage"] = cov_s / task_s if task_s else 0.0

    # stitch rounds: driver-side markers split the adaptive call into rounds
    rounds = sorted(s[2] for _, s in spans if s[1] == "stitch.round")
    adaptive = [s for _, s in spans if s[1] == "stitch.adaptive"]
    if rounds and adaptive:
        start, end = adaptive[0][2], adaptive[0][3]
        m["stitch.rounds"] = len(rounds)
        first_end = rounds[1] if len(rounds) > 1 else end
        m["stitch.round0_s"] = (first_end - start) / 1e9
        m["stitch.escalation_s"] = (end - first_end) / 1e9
        m["stitch.escalated_tiles"] = sum(
            1 for pid, s in spans
            if s[1] == "trace.cell" and s[2] >= first_end
            and (parent(pid, s) or [0, ""])[1] == "stitch.task"
        )
        m["stitch.spill_bytes"] = job.get("spill_bytes", 0)

    plan = job["plan"]
    m["polygonize.overhead_s"] = job["wall_s"] - plan["remote_s"] / cpus
    for k, v in plan["exchange"].items():
        m[f"exchange.{k}"] = v
    tracer = _op(plan, "TilePolygonizer")
    if tracer:
        walls = [w for w, _, _ in tracer]
        mean = statistics.fmean(walls)
        m["trace.tasks"] = len(walls)
        m["trace.task_s_mean"] = mean
        m["trace.task_s_max"] = max(walls)
        m["trace.task_skew"] = max(walls) / mean if mean else 0.0
        stage = max(e for _, _, e in tracer) - min(s for _, s, _ in tracer)
        if stage > 0:
            m["trace.idle_frac"] = max(0.0, 1.0 - sum(walls) / (cpus * stage))
    reads = _op(plan, "ReadParquet")
    m["images.read_task_s"] = sum(w for w, _, _ in reads)
    image_tasks = [w for w, _, _ in _op(plan, "_image_roundtrip_batch")]
    if image_tasks and statistics.fmean(image_tasks):
        m["images.task_skew"] = max(image_tasks) / statistics.fmean(image_tasks)
    return m


def run_metrics(spans, jobs: dict, cpus: int, traced_s: list, untraced_s: list) -> dict:
    """Median over the traced jobs of each per-layer metric."""
    per_job: dict = defaultdict(list)
    for pid, s in spans:
        per_job[s[0]].append((pid, s))
    rows = [job_metrics(per_job.get(j, []), rec, cpus) for j, rec in jobs.items()]
    out = {k: statistics.median(r[k] for r in rows) if rows else 0.0 for k in PER_LAYER}
    if traced_s and untraced_s:
        out["spans.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out
