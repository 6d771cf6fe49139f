"""Robust orientation predicate (Shewchuk-filtered, exact fallback).

The reference uses the ``robust`` crate's adaptive ``orient2d``
(reference src/utils/mod.rs:2,66-70) for angular sorting and (via
``geo::line_intersection``) segment-intersection classification.  We need the
same *sign* guarantees: a naive float determinant mis-orders near-collinear
edges and changes ring traces.

Three vectorized tiers (public knowledge — Shewchuk 1997 "Adaptive Precision
Floating-Point Arithmetic"; Dekker 1971 splitting; Ogita/Rump/Oishi
error-free transformations):

  A. float determinant + error-bound filter over whole numpy arrays;
  B. for entries the filter can't certify: error-free transformations
     (two_diff / two_prod) — when every rounding error term is exactly zero
     the float determinant IS the exact value, so its sign (including 0) is
     certain.  This resolves the axis-aligned / integer-coordinate cases
     that dominate grid and pixel linework without any scalar work;
  C. the remainder falls back to exact integer arithmetic (floats are
     dyadic rationals; scale to a common power of two and evaluate in
     Python ints — much faster than Fraction, still exact).
"""

from __future__ import annotations

import math

import numpy as np

# Shewchuk's ccwerrboundA = (3 + 16*eps)*eps with eps = 2^-53 (half machine eps)
_EPS = np.finfo(np.float64).eps / 2.0  # 2^-53
CCW_ERRBOUND_A = (3.0 + 16.0 * _EPS) * _EPS

_SPLITTER = 134217729.0  # 2^27 + 1 (Dekker)


def _two_diff_err(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact rounding error of s = a - b (Shewchuk TWO-DIFF tail)."""
    bvirt = a - s
    avirt = s + bvirt
    bround = bvirt - b
    around = a - avirt
    return around + bround


def _two_prod_err(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact rounding error of p = a * b (Dekker TWO-PRODUCT tail)."""
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled_ints(vals: list[float]) -> list[int]:
    """Represent finite floats exactly as integers times a common 2^E."""
    ms: list[int] = []
    es: list[int] = []
    for v in vals:
        if v == 0.0:
            ms.append(0)
            es.append(0)
            continue
        m, e = math.frexp(v)  # v = m * 2^e with 0.5 <= |m| < 1
        ms.append(int(m * 9007199254740992.0))  # m * 2^53 is an integer
        es.append(e - 53)
    if not ms:
        return []
    E = min(es)
    return [m << (e - E) for m, e in zip(ms, es)]


def orient2d_exact(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Exact sign of det = (ax-cx)*(by-cy) - (ay-cy)*(bx-cx); -1/0/+1."""
    axs, ays, bxs, bys, cxs, cys = _scaled_ints([ax, ay, bx, by, cx, cy])
    det = (axs - cxs) * (bys - cys) - (ays - cys) * (bxs - cxs)
    return (det > 0) - (det < 0)


def orient2d_sign_arrays(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
) -> np.ndarray:
    """Vectorized certain sign of orient2d(a, b, c): +1 CCW, -1 CW, 0 collinear."""
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    shape = np.broadcast_shapes(ax.shape, ay.shape, bx.shape, by.shape, cx.shape, cy.shape)
    ax, ay, bx, by, cx, cy = (
        np.broadcast_to(v, shape) for v in (ax, ay, bx, by, cx, cy)
    )

    acx = ax - cx
    bcy = by - cy
    acy = ay - cy
    bcx = bx - cx
    detleft = acx * bcy
    detright = acy * bcx
    det = detleft - detright
    detsum = np.abs(detleft) + np.abs(detright)
    errbound = CCW_ERRBOUND_A * detsum

    sign = np.sign(det).astype(np.int8)
    uncertain = np.abs(det) <= errbound
    if not uncertain.any():
        return sign

    # --- tier B: error-free-transformation exactness certificate ---------
    u = np.nonzero(uncertain)
    e1 = _two_diff_err(ax[u], cx[u], acx[u])
    e2 = _two_diff_err(by[u], cy[u], bcy[u])
    e3 = _two_diff_err(ay[u], cy[u], acy[u])
    e4 = _two_diff_err(bx[u], cx[u], bcx[u])
    e5 = _two_prod_err(acx[u], bcy[u], detleft[u])
    e6 = _two_prod_err(acy[u], bcx[u], detright[u])
    e7 = _two_diff_err(detleft[u], detright[u], det[u])
    all_exact = (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0) & (e5 == 0) & (e6 == 0) & (e7 == 0)
    # where every step was exact, the float det is the true det: sign certain
    still = ~all_exact
    if still.any():
        # --- tier C: exact integer arithmetic on the leftovers -----------
        idx = tuple(c[still] for c in u)
        AX, AY = ax[idx], ay[idx]
        BX, BY = bx[idx], by[idx]
        CX, CY = cx[idx], cy[idx]
        exact_signs = np.empty(len(AX), dtype=np.int8)
        for i in range(len(AX)):
            exact_signs[i] = orient2d_exact(
                float(AX[i]), float(AY[i]), float(BX[i]), float(BY[i]), float(CX[i]), float(CY[i])
            )
        sign[idx] = exact_signs
    return sign
