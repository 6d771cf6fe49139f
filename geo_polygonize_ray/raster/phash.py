"""Perceptual hash: 8x8-DCT pHash, from the public algorithm description
(Zauner 2010 / the classic pHash scheme), in pure numpy.

luma -> 32x32 area-mean resize -> 2D DCT-II -> top-left 8x8 block ->
bit i set iff coeff_i > median(coeffs excluding DC) -> 64-bit int
(stored as signed int64, two's complement, to fit Arrow int64).
"""

from __future__ import annotations

import numpy as np

_DCT_N = 32


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * k * np.pi / (2 * n))
    m[0, :] = np.sqrt(1.0 / n)
    return m


_DCT_M = _dct_matrix(_DCT_N)


def _resize_area(img: np.ndarray, n: int) -> np.ndarray:
    """Area-mean downsample of the last two axes to (n, n); nearest-neighbor
    fallback when the source dimensions don't divide evenly."""
    *lead, h, w = img.shape
    if h % n == 0 and w % n == 0:
        return img.reshape(*lead, n, h // n, n, w // n).mean(axis=(-3, -1))
    yi = (np.arange(n) * h // n).clip(0, h - 1)
    xi = (np.arange(n) * w // n).clip(0, w - 1)
    return img[..., yi[:, None], xi[None, :]].astype(np.float64)


def phash64(img: np.ndarray) -> int | np.ndarray:
    """(h, w, 3) uint8 -> signed 64-bit perceptual hash as an int, or an
    (n, h, w, 3) stack -> (n,) int64 hashes.

    Each image is resized and transformed on its own, by two 2-D products:
    a batched product (or one over a strided resize of the stack) rounds
    differently, and the median threshold would flip a near-tie bit, so an
    image would hash differently alone and inside a stack."""
    img = np.asarray(img)
    stack = img.reshape((-1,) + img.shape[-3:])
    luma = 0.299 * stack[..., 0] + 0.587 * stack[..., 1] + 0.114 * stack[..., 2]
    block = np.array(
        [(_DCT_M @ _resize_area(y, _DCT_N) @ _DCT_M.T)[:8, :8].ravel() for y in luma]
    ).reshape(len(stack), 64)
    med = np.median(block[:, 1:], axis=1)  # exclude DC term
    bits = (block > med[:, None]).astype(np.uint64) << np.arange(64, dtype=np.uint64)
    out = bits.sum(axis=1, dtype=np.uint64).view(np.int64)
    return int(out[0]) if img.ndim == 3 else out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between int64 hashes (vectorized popcount)."""
    x = np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)
    bits = np.unpackbits(x.view(np.uint64).view(np.uint8).reshape(-1, 8), axis=1)
    return bits.sum(axis=1).astype(np.int64)
