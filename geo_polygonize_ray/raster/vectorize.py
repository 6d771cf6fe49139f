"""Raster -> vector linework (the target-only front-end the north-star adds
on top of the reference: "rasters vectorized to line-work, then polygonized
back", BASELINE.json).

A label raster (one label per flat-color region) is converted to the
boundary linework between differing labels (plus the image border), with
collinear runs merged into maximal segments.  The output linework is exactly
noded at integer pixel-grid coordinates, so the per-image polygonizer can run
with ``node_input=False`` — no snapping pass needed, which is what makes the
per-image flagship pipeline embarrassingly parallel.

Coordinate frame: pixel (col x, row y) occupies [x, x+1] x [y, y+1]; the
linework lives on the integer grid of pixel corners.
"""

from __future__ import annotations

import numpy as np


def rgb_to_labels(img: np.ndarray) -> np.ndarray:
    """(..., 3) uint8 -> (...) int32 label per unique color (packed RGB):
    one image (h, w, 3) or a stack (n, h, w, 3)."""
    img = np.asarray(img)
    labels = img[..., 0].astype(np.int32)
    for c in (1, 2):
        labels <<= 8
        labels |= img[..., c]
    return labels


def slab_stride(w: int) -> float:
    """x offset between consecutive images of a stack: a power of two
    (at least 2^13) strictly above ``w + 1``, so slabs never touch and
    ``i * stride`` stays exact in float64."""
    return float(1 << max(13, int(np.ceil(np.log2(w + 2.0)))))


def labels_to_linework(
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(h, w) or (n, h, w) labels -> noded boundary segments (x0, y0, x1, y1)
    float64; image ``i`` of a stack is offset by ``i * slab_stride(w)`` in
    x, so the images' linework never touches.

    A horizontal grid edge at row-boundary y between columns [x, x+1) is a
    boundary iff labels[y-1, x] != labels[y, x] (out-of-image counts as a
    distinct label).  Same for vertical.  Maximal collinear runs are merged,
    but runs are split at crossing boundary junctions to keep the linework
    exactly noded (a horizontal run is broken wherever a vertical boundary
    edge touches it, and vice versa).

    Order: image-major; within an image, horizontal segments in (y, x) order,
    then vertical segments in (x, y) order.  Downstream ring order, and so
    every float sum over the traced rings, depends on it.
    """
    labels = np.asarray(labels)
    stack = labels.reshape((-1,) + labels.shape[-2:])
    n, h, w = stack.shape

    # boundary masks on the (h+1) x w horizontal grid edges and h x (w+1) vertical
    hmask = np.ones((n, h + 1, w), dtype=bool)
    hmask[:, 1:h] = stack[:, 1:] != stack[:, :-1]
    vmask = np.ones((n, h, w + 1), dtype=bool)
    vmask[:, :, 1:w] = stack[:, :, 1:] != stack[:, :, :-1]

    # corner (x, y) touches the vertical edges vmask[y-1, x] and vmask[y, x],
    # and the horizontal edges hmask[y, x-1] and hmask[y, x]
    vtouch = np.zeros((n, h + 1, w + 1), dtype=bool)
    vtouch[:, :h] |= vmask
    vtouch[:, 1:] |= vmask
    htouch = np.zeros((n, h + 1, w + 1), dtype=bool)
    htouch[:, :, :w] |= hmask
    htouch[:, :, 1:] |= hmask

    # horizontal lines y along x, then vertical lines x along y
    hi, hy, hx0, hx1 = _segments(hmask, vtouch)
    vi, vx, vy0, vy1 = _segments(vmask.transpose(0, 2, 1), htouch.transpose(0, 2, 1))
    # image-major, horizontal before vertical within an image
    img = np.concatenate([hi, vi])
    order = np.argsort(img, kind="stable")
    off = img[order] * slab_stride(w)
    x0 = np.concatenate([hx0, vx])[order] + off
    y0 = np.concatenate([hy, vy0])[order]
    x1 = np.concatenate([hx1, vx])[order] + off
    y1 = np.concatenate([hy, vy1])[order]
    return x0, y0, x1, y1


def _segments(
    mask: np.ndarray, touch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of boundary unit edges along each grid line, split at
    corners with perpendicular incidence.

    mask: (n, lines, m), unit edge c of a line spans corners c and c + 1;
    touch: (n, lines, m + 1) perpendicular incidence at each corner.
    Returns (image, line, start, end) in (image, line, start) order, the
    image index as int64 and the grid coordinates as float64."""
    m = mask.shape[2]
    # edge c starts a segment unless edge c - 1 is a boundary edge too and
    # corner c has no perpendicular incidence; it ends one likewise at c + 1
    start = mask.copy()
    start[:, :, 1:] &= ~mask[:, :, :-1] | touch[:, :, 1:-1]
    end = mask.copy()
    end[:, :, :-1] &= ~mask[:, :, 1:] | touch[:, :, 1:-1]
    img, line, s = np.nonzero(start)
    e = np.flatnonzero(end) % m + 1
    f = np.float64
    return img, line.astype(f), s.astype(f), e.astype(f)
