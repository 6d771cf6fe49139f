from geo_polygonize_ray.functions.agg import bucketed_groupby, hash_join
from geo_polygonize_ray.functions.sketch import approx_distinct

__all__ = ["bucketed_groupby", "hash_join", "approx_distinct"]
