"""Vector -> raster: fill polygons back into a label/color image.

Used by the flagship pipeline's verification stage: decode -> vectorize ->
polygonize -> rasterize must round-trip the image (PSNR >= threshold; exact
for lossless formats), the per-row invariant from BASELINE.json input_hint.

Fill rule: even-odd crossing parity at pixel centers (x+0.5, y+0.5) over
shell + holes — the same crossing test as the PIP kernel (K6), evaluated
vectorized over all pixels of the polygon's bbox.  Pixel centers never lie
on the integer-grid boundary linework, so every pixel belongs to exactly one
face and the reconstruction is exact for flat-color regions.
"""

from __future__ import annotations

import numpy as np

from geo_polygonize_ray.geom.kernels import points_in_ring, signed_area_many
from geo_polygonize_ray.local.polygonize import Polygon


def rasterize_polygons(
    polys: list[Polygon], source: np.ndarray
) -> np.ndarray:
    """Fill each polygon with the source color sampled at a pixel inside it.

    source: (h, w, 3) uint8 original (decoded) image; returns same shape.
    """
    h, w, _ = source.shape
    out = np.zeros_like(source)
    filled = np.zeros((h, w), dtype=bool)
    for poly in polys:
        mask = _poly_mask(poly, w, h)
        if not mask.any():
            continue
        ys, xs = np.nonzero(mask)
        color = source[ys[0], xs[0]]
        out[mask] = color
        filled |= mask
    # pixels not covered by any polygon (possible when dangles pruned away
    # isolated structure) keep the source value so lossless stays lossless
    if not filled.all():
        out[~filled] = source[~filled]
    return out


def rasterize_faces(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray, source: np.ndarray
) -> np.ndarray:
    """Reconstruct the image from traced edge rings via the FACE
    decomposition: a pixel belongs to the smallest-area CW ring containing
    its center (face outer rings are simple closed curves sharing edges but
    never crossing, so their interiors form a laminar family and
    smallest-container = the pixel's face).

    This is the exact reconstruction path: polygon *assembly* (hole
    assignment by centroid PIP, reference src/polygonizer.rs:199-249) can
    misassign holes of concave faces — a limitation inherited from the
    reference — so the round-trip invariant is checked against faces, which
    are unambiguous.
    """
    h, w, _ = source.shape
    areas = signed_area_many(flat_x, flat_y, offsets)
    cw = np.flatnonzero(areas < -1e-9)
    order = cw[np.argsort(-np.abs(areas[cw]), kind="stable")]  # big -> small
    owner = np.full((h, w), -1, dtype=np.int64)
    # raster-derived linework is axis-aligned on the integer grid (and
    # noding keeps it there), so each ring's interior comes from a
    # vectorized scanline parity fill — O(edges + pixels) instead of the
    # O(bbox * edges) per-ring PIP; pixel centers at +0.5 never touch the
    # integer linework, so the parity is identical to the crossing test
    axis_aligned = bool(
        np.all((flat_x == np.floor(flat_x)) & (flat_y == np.floor(flat_y)))
    )
    if axis_aligned and len(flat_x) > 1:
        # integer coordinates alone don't make the scanline fill valid: a
        # diagonal integer edge would be silently misfilled (only vertical
        # edges flip parity).  Check every WITHIN-ring edge is axis-aligned;
        # positions straddling two consecutive rings are not edges.
        dx = np.diff(flat_x)
        dy = np.diff(flat_y)
        valid = np.ones(len(dx), dtype=bool)
        seam = np.asarray(offsets[1:-1], dtype=np.int64) - 1
        valid[seam[(seam >= 0) & (seam < len(dx))]] = False
        axis_aligned = bool(np.all((dx[valid] == 0) | (dy[valid] == 0)))
    if axis_aligned:
        # _FILL_CHUNK rings per pass, one bit each: the highest set bit is
        # the last ring in big -> small order whose interior holds the pixel
        for lo in range(0, len(order), _FILL_CHUNK):
            rings = order[lo : lo + _FILL_CHUNK]
            bits = _scanline_bits(flat_x, flat_y, offsets, rings, w, h)
            hit = bits != 0
            owner[hit] = rings[np.frexp(bits[hit].astype(np.float64))[1] - 1]
    else:
        for r in order:
            s, e = offsets[r], offsets[r + 1]
            owner[_ring_mask(flat_x[s:e], flat_y[s:e], w, h)] = r
    # one source pixel per owner ring -> vectorized color gather
    flat_owner = owner.ravel()
    uniq, first_idx = np.unique(flat_owner, return_index=True)
    colors = source.reshape(-1, 3)[first_idx]
    out = colors[np.searchsorted(uniq, flat_owner)].reshape(h, w, 3)
    unowned = owner == -1  # pruned-dangle pixels keep their own source value
    if unowned.any():
        out[unowned] = source[unowned]
    return out


# rings per fill pass, one bit each: their sum stays an exact float64
# (bincount weights, frexp) and the pass holds a few (h, w) arrays
_FILL_CHUNK = 52


def _scanline_bits(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray, rings: np.ndarray, w: int, h: int
) -> np.ndarray:
    """(h, w) uint64 whose bit j is the even-odd interior of the
    axis-aligned integer ring ``rings[j]`` (at most 52 rings), via scanline
    parity: each VERTICAL edge at column x spanning rows [ylo, yhi) flips
    the parity of every pixel center right of it (c + 0.5 > x <=> c >= x).
    Bit-identical to the crossing-parity PIP for off-grid pixel centers."""
    offsets = np.asarray(offsets, dtype=np.int64)
    # every within-ring edge (i, i + 1), labelled with its ring's bit
    n_edges = np.maximum(offsets[rings + 1] - offsets[rings] - 1, 0)
    bit = np.repeat(np.arange(len(rings)), n_edges)
    first = np.cumsum(n_edges) - n_edges
    i = np.arange(int(n_edges.sum())) + np.repeat(offsets[rings] - first, n_edges)
    vx = flat_x[i] == flat_x[i + 1]
    i, bit = i[vx], bit[vx]
    x = flat_x[i].astype(np.int64)
    ylo = np.clip(np.minimum(flat_y[i], flat_y[i + 1]).astype(np.int64), 0, h)
    yhi = np.clip(np.maximum(flat_y[i], flat_y[i + 1]).astype(np.int64), 0, h)
    nrows = np.maximum(yhi - ylo, 0)
    keep = (nrows > 0) & (x < w)
    x, ylo, nrows, bit = x[keep], ylo[keep], nrows[keep], bit[keep]
    total = int(nrows.sum())
    rows = np.repeat(ylo, nrows) + (np.arange(total) - np.repeat(np.cumsum(nrows) - nrows, nrows))
    cols = np.clip(np.repeat(x, nrows), 0, w - 1)
    # a (pixel, ring) flip that occurs an even number of times cancels
    key, n = np.unique(((rows * w + cols) << 6) | np.repeat(bit, nrows), return_counts=True)
    key = key[(n & 1) == 1]
    flips = np.bincount(key >> 6, weights=np.ldexp(1.0, key & 63), minlength=h * w)
    return np.bitwise_xor.accumulate(flips.astype(np.uint64).reshape(h, w), axis=1)


def _ring_mask(rx: np.ndarray, ry: np.ndarray, w: int, h: int) -> np.ndarray:
    minx = max(int(np.floor(rx.min())), 0)
    maxx = min(int(np.ceil(rx.max())), w)
    miny = max(int(np.floor(ry.min())), 0)
    maxy = min(int(np.ceil(ry.max())), h)
    mask = np.zeros((h, w), dtype=bool)
    if minx >= maxx or miny >= maxy:
        return mask
    gx, gy = np.meshgrid(np.arange(minx, maxx) + 0.5, np.arange(miny, maxy) + 0.5)
    inside = points_in_ring(gx.ravel(), gy.ravel(), rx, ry)
    mask[miny:maxy, minx:maxx] = inside.reshape(maxy - miny, maxx - minx)
    return mask


def _poly_mask(poly: Polygon, w: int, h: int) -> np.ndarray:
    minx = max(int(np.floor(poly.shell_x.min())), 0)
    maxx = min(int(np.ceil(poly.shell_x.max())), w)
    miny = max(int(np.floor(poly.shell_y.min())), 0)
    maxy = min(int(np.ceil(poly.shell_y.max())), h)
    if minx >= maxx or miny >= maxy:
        return np.zeros((h, w), dtype=bool)
    gx, gy = np.meshgrid(
        np.arange(minx, maxx) + 0.5, np.arange(miny, maxy) + 0.5
    )
    px = gx.ravel()
    py = gy.ravel()
    inside = points_in_ring(px, py, poly.shell_x, poly.shell_y)
    for hx, hy in zip(poly.holes_x, poly.holes_y):
        inside ^= points_in_ring(px, py, hx, hy)
    mask = np.zeros((h, w), dtype=bool)
    mask[miny:maxy, minx:maxx] = inside.reshape(maxy - miny, maxx - minx)
    return mask
