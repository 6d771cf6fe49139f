from geo_polygonize_ray.local.polygonize import Polygon, polygonize_lines

__all__ = ["Polygon", "polygonize_lines"]
