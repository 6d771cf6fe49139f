"""From-scratch image codecs (no PIL in this environment — SURVEY.md §7.0).

The driver's ``input_hint`` table carries opaque ``bytes`` with a ``fmt``
tag.  Formats implemented from public specs only:

* ``rgb8-raw``  — raw interleaved RGB8, h*w*3 bytes, row-major. Lossless.
* ``png``       — real PNG (RFC 2083): IHDR/IDAT/IEND chunks, 8-bit
                  truecolor, stdlib zlib.  Encoder emits filter 0; decoder
                  implements all five filter types.  Lossless.
* ``rgb8-q<b>`` — b-bit-per-channel quantized raw (b in 1..8), stored as one
                  byte per sample holding the b-bit code; decode expands via
                  round(code * 255 / (2^b - 1)).  Lossy: exercises the
                  PSNR >= 40 dB verification path (q6 -> ~47 dB worst case).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    """img: (h, w, 3) uint8."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if fmt == "rgb8-raw":
        return img.tobytes()
    if fmt == "png":
        return _encode_png(img)
    if fmt.startswith("rgb8-q"):
        b = int(fmt[6:])
        codes = img >> (8 - b)
        return codes.astype(np.uint8).tobytes()
    raise ValueError(f"unknown image format: {fmt}")


def decode_image(data: bytes, w: int, h: int, fmt: str) -> np.ndarray:
    """One blob -> (h, w, 3) uint8 (read-only for ``rgb8-raw`` and for PNGs
    whose scanlines are all unfiltered)."""
    if fmt == "rgb8-raw":
        return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    if fmt == "png":
        return _decode_png(data)
    if fmt.startswith("rgb8-q"):
        b = int(fmt[6:])
        codes = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
        lut = np.round(np.arange(2**b) * 255.0 / (2**b - 1)).astype(np.uint8)
        return lut[codes]
    raise ValueError(f"unknown image format: {fmt}")


def psnr(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Peak signal-to-noise ratio in dB of two uint8 (h, w, 3) images (a
    float), or of two (n, h, w, 3) stacks image by image (an (n,) array);
    999.0 where identical.  The squared error is summed exactly in
    integers: every partial sum of the float mean it replaces is an integer
    below 2^53, so the result is bit-identical to it.  Any other dtype is
    rejected rather than cast."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise TypeError(f"psnr takes uint8 images, got {a.dtype} and {b.dtype}")
    n = len(a) if a.ndim == 4 else 1
    d = (a.astype(np.int16) - b).reshape(n, int(np.prod(a.shape[-3:])))
    sse = np.einsum("ij,ij->i", d, d, dtype=np.int64)
    out = np.full(n, 999.0)
    hit = sse > 0
    out[hit] = 10.0 * np.log10(255.0**2 / (sse[hit] / d.shape[1]))
    return float(out[0]) if a.ndim == 3 else out


# ---------------------------------------------------------------------------
# PNG (public spec: RFC 2083 / W3C PNG)
# ---------------------------------------------------------------------------


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _encode_png(img: np.ndarray) -> bytes:
    h, w, _ = img.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, truecolor
    # filter byte 0 per scanline
    raw = np.empty((h, w * 3 + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = img.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _decode_png(data: bytes) -> np.ndarray:
    assert data[:8] == _PNG_SIG, "not a PNG"
    pos = 8
    idat = b""
    w = h = bit_depth = color_type = None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit_depth, color_type = struct.unpack(">IIBB", payload[:10])
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    assert bit_depth == 8 and color_type == 2, "decoder supports 8-bit truecolor only"
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, w * 3 + 1)
    if not raw[:, 0].any():  # every scanline unfiltered, as _encode_png writes
        return raw[:, 1:].reshape(h, w, 3)
    bpp = 3
    out = np.zeros((h, w * 3), dtype=np.uint8)
    for y in range(h):
        ftype = raw[y, 0]
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(w * 3, dtype=np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need sequential scan
            cur = np.zeros(w * 3, dtype=np.int32)
            for i in range(w * 3):
                left = cur[i - bpp] if i >= bpp else 0
                up = prev[i]
                ul = prev[i - bpp] if i >= bpp else 0
                if ftype == 1:
                    pred = left
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    p = left + up - ul
                    pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                    pred = left if (pa <= pb and pa <= pc) else (up if pb <= pc else ul)
                cur[i] = (line[i] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter {ftype}")
        out[y] = cur.astype(np.uint8)
    return out.reshape(h, w, 3)
