"""GeoJSON conformance on the reference's six example inputs (FIXTURES.md
§3/§5), rebuilt here from their documented coordinates.  Feature counts
follow the committed-code semantics (zero-residual outlines dropped; see
FIXTURES.md §3 resolution).  Areas are derived independently of the
engine: closed forms for the squares and the bowtie, shoelace areas of the
input rings for the circles."""

import json
import math

import numpy as np
import pytest

from geo_polygonize_ray.sources.geojson import (
    polygonize_geojson,
    polygons_to_geojson,
    read_geojson_lines,
)


def square(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def circle(cx, cy, r, pts):
    """FIXTURES.md §3 parametrization: center + r (cos, sin)(i 2pi / (pts - 1)),
    with the last point set to the first so the ring closes exactly."""
    t = np.arange(pts) * 2 * math.pi / (pts - 1)
    ring = np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1).tolist()
    ring[-1] = ring[0]
    return ring


def feature_collection(lines) -> str:
    return json.dumps(
        {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": c},
                    "properties": {},
                }
                for c in lines
            ],
        }
    )


CURVED_OUTER = (50, 50, 50, 200)
CURVED_HOLES = [(30, 30, 10, 100), (70, 30, 10, 100), (50, 70, 15, 100), (50, 40, 5, 100)]
CIRCLES = [(30, 30, 30, 100), (60, 30, 30, 100), (45, 55, 30, 100)]

# name -> (input rings, node_input, expected feature count)
CASES = {
    "nested_holes": (
        [square(0, 0, 100, 100), square(20, 20, 80, 80), square(40, 40, 60, 60)], False, 3
    ),
    "touching_polys": ([square(0, 0, 50, 50), square(50, 0, 100, 50)], True, 2),
    "complex_bowtie": ([[[0, 0], [10, 10], [0, 10], [10, 0], [0, 0]]], True, 2),
    "grid_incomplete": (
        [square(0, 0, 10, 10), square(10, 0, 20, 10), square(20, 0, 30, 10), [[20, 10], [25, 15]]],
        True,
        3,
    ),
    "curved_holes": ([circle(*c) for c in [CURVED_OUTER] + CURVED_HOLES], True, 5),
    "overlapping_circles": ([circle(*c) for c in CIRCLES], True, 7),
}


def shoelace(ring):
    return 0.5 * math.fsum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring, ring[1:]))


def residual_area(feature: dict) -> float:
    rings = feature["geometry"]["coordinates"]
    return abs(shoelace(rings[0])) - sum(abs(shoelace(r)) for r in rings[1:])


def expected_areas(name: str) -> list[float] | None:
    """Face areas derived from the input, or None where only the per-circle
    sums below are derived (the three-circle Venn faces)."""
    if name == "curved_holes":
        holes = [abs(shoelace(circle(*c))) for c in CURVED_HOLES]
        return sorted([abs(shoelace(circle(*CURVED_OUTER))) - sum(holes), *holes])
    return {
        "nested_holes": [400.0, 3200.0, 6400.0],
        "touching_polys": [2500.0, 2500.0],
        "complex_bowtie": [25.0, 25.0],
        "grid_incomplete": [100.0, 100.0, 100.0],
    }.get(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_pair(name):
    lines, node_input, expect_n = CASES[name]
    out = json.loads(polygonize_geojson(feature_collection(lines), node_input=node_input))
    features = out["features"]
    assert len(features) == expect_n, name
    areas = sorted(residual_area(f) for f in features)
    want = expected_areas(name)
    if want is not None:
        assert np.allclose(areas, want, rtol=0, atol=1e-6), (name, areas, want)
    if name == "overlapping_circles":
        # the faces inside each circle (every shell vertex within its
        # radius) tile that circle's polygon: their areas sum to its
        # shoelace area
        for cx, cy, r, pts in CIRCLES:
            inside = [
                residual_area(f)
                for f in features
                if all(
                    math.hypot(x - cx, y - cy) <= r + 1e-9
                    for x, y in f["geometry"]["coordinates"][0]
                )
            ]
            assert len(inside) == 4
            assert math.isclose(sum(inside), abs(shoelace(circle(cx, cy, r, pts))), abs_tol=1e-6)


def test_reader_handles_all_geometry_kinds():
    doc = {
        "type": "GeometryCollection",
        "geometries": [
            {"type": "Point", "coordinates": [1, 2]},
            {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
            {"type": "MultiLineString", "coordinates": [[[0, 0], [2, 2]], [[3, 3], [4, 4]]]},
            {
                "type": "Polygon",
                "coordinates": [[[0, 0], [5, 0], [5, 5], [0, 5], [0, 0]], [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]],
            },
            {"type": "MultiPolygon", "coordinates": [[[[0, 0], [1, 0], [1, 1], [0, 0]]]]},
        ],
    }
    lines = read_geojson_lines(json.dumps(doc))
    # point dropped; 1 LS + 2 MLS + 2 polygon rings + 1 MP ring = 6
    assert len(lines) == 6


def test_writer_roundtrip():
    gj = polygonize_geojson(
        json.dumps(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]],
                },
                "properties": {"ignored": True},
            }
        )
    )
    doc = json.loads(gj)
    assert len(doc["features"]) == 1
    assert doc["features"][0]["properties"] is None
    lines2 = read_geojson_lines(gj)
    assert len(lines2) == 1
