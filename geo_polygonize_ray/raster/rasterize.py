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
from geo_polygonize_ray.raster.vectorize import slab_stride


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

    ``source`` is one (h, w, 3) image or an (n, h, w, 3) stack; the output
    has its shape.  For a stack the rings are slab rings, as traced from
    ``labels_to_linework`` of the stack: with ``stride = slab_stride(w)``,
    ring r belongs to image ``flat_x[offsets[r]] // stride`` and is offset
    by ``image * stride`` in x.

    This is the exact reconstruction path: polygon *assembly* (hole
    assignment by centroid PIP, reference src/polygonizer.rs:199-249) can
    misassign holes of concave faces — a limitation inherited from the
    reference — so the round-trip invariant is checked against faces, which
    are unambiguous.
    """
    source = np.asarray(source)
    stack = source.reshape((-1,) + source.shape[-3:])
    n, h, w, _ = stack.shape
    stride = slab_stride(w)
    offsets = np.asarray(offsets, dtype=np.int64)
    areas = signed_area_many(flat_x, flat_y, offsets)
    ring_img = np.clip(flat_x[offsets[:-1]] // stride, 0, n - 1).astype(np.int64)
    cw = np.flatnonzero(areas < -1e-9)
    # per image big -> small; lexsort is stable, so ring order breaks ties
    order = cw[np.lexsort((-np.abs(areas[cw]), ring_img[cw]))]
    img = ring_img[order]
    rank = np.arange(len(order)) - np.searchsorted(img, img)  # within its image
    owner = np.full((n, h * w), -1, dtype=np.int32)  # ring per pixel of each image
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
        seam = offsets[1:-1] - 1
        valid[seam[(seam >= 0) & (seam < len(dx))]] = False
        axis_aligned = bool(np.all((dx[valid] == 0) | (dy[valid] == 0)))
    if axis_aligned:
        # pass k fills the k-th _FILL_CHUNK rings of every image, one bit
        # each by rank: the highest set bit is the last ring in big -> small
        # order whose interior holds the pixel.  table[i, b + 1] is the ring
        # of bit b in image i; column 0 stands for "no bit set".
        for lo in range(0, int(rank.max(initial=-1)) + 1, _FILL_CHUNK):
            sel = (rank >= lo) & (rank < lo + _FILL_CHUNK)
            table = np.full((n, _FILL_CHUNK + 1), -1, dtype=np.int32)
            table[img[sel], rank[sel] - lo + 1] = order[sel]
            # frexp's exponent of the (exact) float64 of a pixel's bits is
            # its highest set bit + 1, and 0 when none is set
            top = np.frexp(_scanline_bits(
                flat_x, flat_y, offsets, order[sel], rank[sel] - lo, img[sel], stride, n, h, w
            ).astype(np.float64))[1].reshape(n, h * w)
            np.copyto(owner, np.take_along_axis(table, top, axis=1), where=top > 0)
    else:
        for r, i in zip(order, img):
            s, e = offsets[r], offsets[r + 1]
            owner[i][_ring_mask(flat_x[s:e] - i * stride, flat_y[s:e], w, h).ravel()] = r
    # every pixel takes the source color of its owner ring's first pixel;
    # pruned-dangle pixels (no owner) keep their own source value
    pixels = stack.reshape(-1, 3)
    owner = owner.ravel()
    owner += 1  # 0: no owner
    first = np.full(len(offsets), len(pixels) - 1, dtype=np.int32)
    np.minimum.at(first, owner, np.arange(len(pixels), dtype=np.int32))
    out = pixels[first][owner]
    unowned = owner == 0
    out[unowned] = pixels[unowned]
    return out.reshape(source.shape)


# rings per fill pass, one bit each: a pixel's bits stay an exact float64
# (its exponent is the highest bit) and the pass holds a few (n * h, w) arrays
_FILL_CHUNK = 52


def _scanline_bits(
    flat_x: np.ndarray, flat_y: np.ndarray, offsets: np.ndarray, rings: np.ndarray,
    bit: np.ndarray, img: np.ndarray, stride: float, n: int, h: int, w: int,
) -> np.ndarray:
    """(n * h, w) uint64 whose bit ``bit[j]`` in the rows of image
    ``img[j]`` is the even-odd interior of the axis-aligned integer ring
    ``rings[j]`` (x offset ``img[j] * stride``), via scanline parity: each
    VERTICAL edge at column x spanning rows [ylo, yhi) flips the parity of
    every pixel center right of it (c + 0.5 > x <=> c >= x).  Bit-identical
    to the crossing-parity PIP for off-grid pixel centers."""
    # every within-ring edge (i, i + 1), labelled with its ring's bit and image
    n_edges = np.maximum(offsets[rings + 1] - offsets[rings] - 1, 0)
    first = np.cumsum(n_edges) - n_edges
    i = np.arange(int(n_edges.sum())) + np.repeat(offsets[rings] - first, n_edges)
    vx = flat_x[i] == flat_x[i + 1]
    i, bit, img = i[vx], np.repeat(bit, n_edges)[vx], np.repeat(img, n_edges)[vx]
    x = (flat_x[i] - img * stride).astype(np.int64)
    ylo = np.clip(np.minimum(flat_y[i], flat_y[i + 1]).astype(np.int64), 0, h)
    yhi = np.clip(np.maximum(flat_y[i], flat_y[i + 1]).astype(np.int64), 0, h)
    nrows = np.maximum(yhi - ylo, 0)
    keep = (nrows > 0) & (x < w)
    x, ylo, nrows, bit, img = x[keep], ylo[keep], nrows[keep], bit[keep], img[keep]
    total = int(nrows.sum())
    rows = np.repeat(img * h + ylo, nrows) + (
        np.arange(total) - np.repeat(np.cumsum(nrows) - nrows, nrows)
    )
    cols = np.clip(np.repeat(x, nrows), 0, w - 1)
    # a (pixel, ring) flip that occurs an even number of times cancels;
    # the sorted survivors are OR-ed into their pixel's word
    key, cnt = np.unique(((rows * w + cols) << 6) | np.repeat(bit, nrows), return_counts=True)
    key = key[(cnt & 1) == 1]
    flips = np.zeros(n * h * w, dtype=np.uint64)
    if len(key):
        pix = key >> 6
        lead = np.flatnonzero(np.diff(pix, prepend=-1))
        vals = np.left_shift(np.uint64(1), (key & 63).astype(np.uint64))
        flips[pix[lead]] = np.bitwise_or.reduceat(vals, lead)
    flips = flips.reshape(n * h, w)
    return np.bitwise_xor.accumulate(flips, axis=1, out=flips)


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
