"""geo_polygonize_ray — a Ray-Data-native polygonization + spatial-tiling engine.

A from-scratch reimplementation of the capabilities of
``graydonpleasants/geo-polygonize`` (JTS/GEOS Polygonizer: noded planar-graph
construction, angle-sorted half-edge ring tracing, dangle pruning,
hole-to-shell assignment) re-expressed as ``ray.data.Dataset`` pipelines of
``map_batches`` over zero-copy Arrow batches, plus the large-scale
training-data operators (dedup, similarity search, text analysis, multimodal
columns) such an engine needs at 100 TB scale.

Layout:
    geom/       vectorized numpy geometry kernels (reference src/utils/*)
    local/      per-partition planar-graph polygonizer (reference src/graph,
                src/noding, src/polygonizer.rs) — the per-cell reduce-task
                payload
    raster/     from-scratch image codecs, phash, raster<->vector conversion
    sources/    table readers/writers, fixture generators, GeoJSON I/O
    stages/     map_batches stage callables and exchange map/reduce functions
    functions/  the plain-task hash exchange, joins and groupbys on it,
                sketches, layouts
    pipelines/  end-to-end Dataset pipelines (flagship image pipeline,
                distributed tiled polygonize, text/dedup/ANN/relational)
    state/      per-partition checkpoint manifest + resume
"""

from geo_polygonize_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
