"""CLI entry point — the reference's examples/polygonize.rs as a Ray job.

    python -m geo_polygonize_ray.run --input in.geojson --output out.geojson [--node]
    python -m geo_polygonize_ray.run --input lines.parquet --output polys/ \\
        --tile-size 50 --buffer 5 [--adaptive] [--salt-threshold 1000]

GeoJSON in/out mirrors the reference CLI (clap args --input/--output/--node,
examples/polygonize.rs:11-25); Parquet linework in + partitioned Parquet out
is the cluster path (resumable via the checkpoint manifest).  On a real
cluster this module is the `ray job submit` payload; it owns the Ray session
it starts (guarded init, shutdown at exit) per the driver contract, and
leaves a session its caller started running.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="geo_polygonize_ray.run", description=__doc__)
    ap.add_argument("--input", required=True, help="GeoJSON file or linework parquet")
    ap.add_argument("--output", required=True, help="GeoJSON file or output directory")
    ap.add_argument("--node", action="store_true", help="node input (snap noding), like the reference --node")
    ap.add_argument("--snap-grid-size", type=float, default=1e-10)
    ap.add_argument("--tile-size", type=float, default=0.0, help="distributed tiling; 0 = untiled")
    ap.add_argument("--buffer", type=float, default=0.0)
    ap.add_argument(
        "--salt-threshold",
        type=int,
        default=None,
        help="skew-salting count threshold; default auto (4x mean tile count), 0 disables",
    )
    ap.add_argument("--adaptive", action="store_true", help="adaptive buffer escalation for unbounded polygons")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    import ray

    # a session the caller started is the caller's to shut down
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        return _run(args)
    finally:
        if owns_session:
            ray.shutdown()


def _run(args) -> int:
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from geo_polygonize_ray.config import PipelineConfig

    cfg = PipelineConfig(
        node_input=args.node,
        snap_grid_size=args.snap_grid_size,
        tile_size=args.tile_size,
        tile_buffer=args.buffer,
        salt_threshold=args.salt_threshold,
    )

    geojson_in = args.input.endswith((".geojson", ".json"))
    geojson_out = args.output.endswith((".geojson", ".json"))

    if geojson_in and geojson_out and not cfg.tiled():
        # the reference CLI path: single-process, GeoJSON -> GeoJSON
        from geo_polygonize_ray.sources.geojson import polygonize_geojson

        out = polygonize_geojson(args.input, node_input=args.node, snap_grid_size=args.snap_grid_size)
        with open(args.output, "w") as f:
            f.write(out)
        import json

        n = len(json.loads(out)["features"])
        print(f"wrote {n} polygons to {args.output}")
        return 0

    # distributed path
    import ray.data as rd

    if geojson_in:
        from geo_polygonize_ray.sources.geojson import read_geojson_dataset

        ds = read_geojson_dataset(args.input)
    else:
        ds = rd.read_parquet(args.input)

    if args.adaptive:
        from geo_polygonize_ray.stages.stitch import polygonize_dataset_adaptive

        out_ds = polygonize_dataset_adaptive(ds, cfg)
    else:
        from geo_polygonize_ray.pipelines.polygonize import polygonize_dataset

        out_ds = polygonize_dataset(ds, cfg)

    if geojson_out:
        from geo_polygonize_ray.sources.geojson import polygons_to_geojson
        from geo_polygonize_ray.stages.trace import table_to_polygons
        import pyarrow as pa

        tables = list(out_ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        polys = table_to_polygons(pa.concat_tables(tables)) if tables else []
        with open(args.output, "w") as f:
            f.write(polygons_to_geojson(polys))
        print(f"wrote {len(polys)} polygons to {args.output}")
    else:
        from geo_polygonize_ray.state import write_polygons_checkpointed

        res = write_polygons_checkpointed(out_ds, args.output)
        print(
            f"wrote {res['rows']} polygons to {args.output} "
            f"({len(res['written'])} partitions, {len(res['skipped'])} resumed)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
