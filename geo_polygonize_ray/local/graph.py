"""Per-partition noded planar graph as numpy Structure-of-Arrays.

From-scratch reimplementation of the reference's arena graph
(reference src/graph/planar_graph.rs:40-59): node coords are columnar
(nodes_x / nodes_y), adjacency is CSR, half-edges are parallel arrays.  This
object is *never* global in the Ray engine — one instance is built inside an
exchange reduce task / actor call from one spatial cell's segment batch
(SURVEY.md §1.3), which is exactly why segments are cell-partitioned.

Semantics replicated exactly:
  * bulk load with exact-coord dedup                 (planar_graph.rs:104-196)
    by hashing, not the reference's Z-order sort: node numbering is not
    observable (each node's list is sorted by angle, and a ring starts at
    its minimum half-edge id, fixed by segment order)
  * degenerate filter |dx|<1e-12 & |dy|<1e-12        (planar_graph.rs:211-213)
  * CCW angular sort with quadrant + robust orient2d + collinear
    nearest-first tie-break                          (utils/mod.rs:46-95)
  * iterative degree-1 dangle peel                   (planar_graph.rs:426-472)
  * next-CCW half-edge ring tracing                  (planar_graph.rs:475-561)
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from geo_polygonize_ray.geom.kernels import (
    pseudo_angle_within_quadrant,
    quadrant,
    z_order_index,
)
from geo_polygonize_ray.geom.robust import CCW_ERRBOUND_A, orient2d_exact


class PlanarGraph:
    """Noded planar graph over one partition's segments.

    Built from arrays ``x0, y0, x1, y1`` (one row per undirected segment).
    Directed edge ids: edge i has half-edges 2i (u->v) and 2i+1 (v->u), the
    same layout as the reference (planar_graph.rs:243-244); sym(e) = e ^ 1.
    ``sort_edges`` fills the adjacency that ``prune_dangles`` and
    ``get_edge_rings`` read, so it runs first.
    """

    def __init__(self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray):
        x0 = np.asarray(x0, dtype=np.float64)
        y0 = np.asarray(y0, dtype=np.float64)
        x1 = np.asarray(x1, dtype=np.float64)
        y1 = np.asarray(y1, dtype=np.float64)

        # degenerate filter (planar_graph.rs:211-213)
        keep = ~((np.abs(x0 - x1) < 1e-12) & (np.abs(y0 - y1) < 1e-12))
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
        m = len(x0)

        # --- node dedup: exact-coordinate hash -------------------------------
        # One node per distinct (x, y) pair, numbered in first-appearance
        # order.  pandas' float hash treats -0.0 and 0.0 as one key (both
        # compare equal), and the node keeps its first endpoint's bits.
        # Node numbering is not observable: each node's list is re-sorted
        # by angle, a ring starts at its minimum half-edge id (fixed by
        # segment order), and coordinates are read through the ids.
        pts = np.empty(2 * m, dtype=np.complex128)
        pts.real[:m], pts.real[m:] = x0, x1
        pts.imag[:m], pts.imag[m:] = y0, y1
        endpoint_node, nodes = pd.factorize(pts)
        self.nodes_x = np.ascontiguousarray(nodes.real)
        self.nodes_y = np.ascontiguousarray(nodes.imag)

        n = len(self.nodes_x)
        self.n_nodes = n
        self.n_edges = m
        self.edge_src = endpoint_node[:m]  # node id of each segment's start
        self.edge_dst = endpoint_node[m:]

        # half-edges: de 2i = src->dst, de 2i+1 = dst->src
        self.de_src = np.empty(2 * m, dtype=np.int64)
        self.de_dst = np.empty(2 * m, dtype=np.int64)
        self.de_src[0::2] = self.edge_src
        self.de_dst[0::2] = self.edge_dst
        self.de_src[1::2] = self.edge_dst
        self.de_dst[1::2] = self.edge_src
        self.de_marked = np.zeros(2 * m, dtype=bool)

        self.nodes_degree = np.bincount(self.de_src, minlength=n).astype(np.int64)
        self.nodes_marked = np.zeros(n, dtype=bool)

        # CSR adjacency: node v's outgoing half-edges are
        # adj[adj_offsets[v]:adj_offsets[v + 1]], filled by sort_edges
        self.adj_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.nodes_degree, out=self.adj_offsets[1:])
        self.adj = np.empty(0, dtype=np.int64)
        # (live half-edge ids, ring index of each), set by get_edge_rings
        self.live_rings: tuple[np.ndarray, np.ndarray] | None = None

    def _use_reference_numbering(self) -> None:
        """Renumber nodes in the reference's (z, x, y) endpoint order
        (planar_graph.rs:135-160; z is the Morton key of utils/mod.rs:11-15)
        and lay the adjacency out in half-edge insertion order per node.

        The generic angular sort needs it: two half-edges to the same
        destination (a duplicated segment of an un-noded soup) tie on every
        key, and their order is whatever the quicksort leaves, which depends
        on the whole key array and so on the node numbering."""
        nx, ny = self.nodes_x, self.nodes_y
        order = np.lexsort((ny, nx, z_order_index(nx, ny)))
        new_id = np.empty(self.n_nodes, dtype=np.int64)
        new_id[order] = np.arange(self.n_nodes)
        self.nodes_x, self.nodes_y = nx[order], ny[order]
        self.nodes_degree = self.nodes_degree[order]
        self.nodes_marked = self.nodes_marked[order]
        self.edge_src, self.edge_dst = new_id[self.edge_src], new_id[self.edge_dst]
        self.de_src, self.de_dst = new_id[self.de_src], new_id[self.de_dst]
        np.cumsum(self.nodes_degree, out=self.adj_offsets[1:])
        # matches the push order of planar_graph.rs:309-317
        self.adj = np.argsort(self.de_src, kind="stable")

    # ------------------------------------------------------------------
    def sort_edges(self) -> None:
        """CCW angular sort of each node's outgoing half-edges.

        compare_angular (utils/mod.rs:46-85): quadrant first, then robust
        orient2d, collinear ties by squared distance ascending.

        Axis-aligned graphs (every segment has dx == 0 or dy == 0, the
        noder's ``_find_splits_aa`` case) with at most one half-edge per
        (node, direction) need no comparison at all: the quadrants E, N, W,
        S are the CCW order, so each half-edge goes straight to its slot
        ``adj_offsets[src]`` + the number of its node's occupied quadrants
        below its own.  Every other graph takes the generic path: sort by
        (quadrant, float pseudo-angle, squared distance), then certify
        every adjacent pair with the orient2d error-bound filter; nodes
        with an uncertain or violated pair are re-sorted exactly in Python
        (rare: near-collinear float geometry).
        """
        if not self._sort_axis_aligned():
            self._use_reference_numbering()
            self._sort_generic()

    def _sort_axis_aligned(self) -> bool:
        """Slot placement of the axis-aligned case; False (nothing done)
        when some segment is not axis-aligned or some node has two
        half-edges in one direction (collinear overlaps of an un-noded
        soup)."""
        m = self.n_edges
        dx = self.nodes_x[self.edge_dst] - self.nodes_x[self.edge_src]
        dy = self.nodes_y[self.edge_dst] - self.nodes_y[self.edge_src]
        if np.all((dx == 0) | (dy == 0)):
            # quadrant of half-edge 2i; its twin 2i+1 points the other way
            q = (dy != 0).astype(np.int64) + 2 * ((dx < 0) | (dy < 0))
            key = np.empty(2 * m, dtype=np.int64)
            key[0::2] = q
            key[1::2] = q ^ 2
            key += 4 * self.de_src
            occ = np.bincount(key, minlength=4 * self.n_nodes)
            if occ.max(initial=0) <= 1:
                occ = occ.reshape(-1, 4)
                below = np.cumsum(occ, axis=1) - occ
                slot = self.adj_offsets[self.de_src] + below.ravel()[key]
                self.adj = np.empty(2 * m, dtype=np.int64)
                self.adj[slot] = np.arange(2 * m)
                return True
        return False

    def _sort_generic(self) -> None:
        """(quadrant, pseudo-angle) quicksort of the adjacency, certified
        pair by pair and repaired exactly where the float key may be wrong."""
        de = self.adj
        cx = self.nodes_x[self.de_src[de]]
        cy = self.nodes_y[self.de_src[de]]
        dx = self.nodes_x[self.de_dst[de]] - cx
        dy = self.nodes_y[self.de_dst[de]] - cy
        q = quadrant(dx, dy)
        pa = pseudo_angle_within_quadrant(dx, dy, q)
        d2 = dx * dx + dy * dy
        ang = 2.0 * q + pa  # pa in [0,1], stride 2 separates quadrants
        src = self.de_src[de]
        n_nodes = self.n_nodes
        if n_nodes < (1 << 39):
            # ONE quicksort of a packed uint64 (src | 24-bit quantized
            # angle) instead of a multi-key stable lexsort — this numpy's
            # stable sort is ~6x slower than quicksort.  Correctness does
            # not depend on the pre-sort: the certification pass below
            # checks EVERY adjacent pair with exact predicates and
            # re-sorts flagged nodes with the reference comparator, so
            # quantization misorders (near-equal angles) and unstable
            # ties are always repaired.  Exact full-key ties are two
            # half-edges to the same destination (a duplicated segment,
            # which the noder's dedup removes); they keep the quicksort's
            # order, which follows from the (z, x, y) node numbering.
            angq = np.minimum((ang * float(1 << 21)).astype(np.uint64), np.uint64((1 << 24) - 1))
            key = (src.astype(np.uint64) << np.uint64(24)) | angq
            order = np.argsort(key)
        else:
            order = np.lexsort((d2, ang, src))
        self.adj = de[order]

        # --- certification pass ---------------------------------------
        de = self.adj
        # adjacent pairs within each node's list
        pair_a = de[:-1]
        pair_b = de[1:]
        # mask out pairs crossing node boundaries
        same_node = self.de_src[pair_a] == self.de_src[pair_b]
        ia = np.flatnonzero(same_node)
        if len(ia):
            a, b = pair_a[ia], pair_b[ia]
            ccx = self.nodes_x[self.de_src[a]]
            ccy = self.nodes_y[self.de_src[a]]
            adx = self.nodes_x[self.de_dst[a]] - ccx
            ady = self.nodes_y[self.de_dst[a]] - ccy
            bdx = self.nodes_x[self.de_dst[b]] - ccx
            bdy = self.nodes_y[self.de_dst[b]] - ccy
            qa = quadrant(adx, ady)
            qb = quadrant(bdx, bdy)
            detl = adx * bdy
            detr = ady * bdx
            det = detl - detr
            err = CCW_ERRBOUND_A * (np.abs(detl) + np.abs(detr))
            # pair is certainly fine if quadrants strictly ascend, or same
            # quadrant and det certainly positive (a before b in CCW), or
            # exactly collinear-same-dir with distance tie handled by lexsort.
            ok = (qa < qb) | ((qa == qb) & (det > err))
            suspicious = ~ok
            if suspicious.any():
                bad_nodes = np.unique(self.de_src[a[suspicious]])
                self._exact_resort(bad_nodes)

    def _exact_resort(self, node_ids: np.ndarray) -> None:
        """Exact Python re-sort of the adjacency of the given nodes using the
        reference comparator verbatim (utils/mod.rs:46-85)."""
        import functools

        nx, ny = self.nodes_x, self.nodes_y
        de_dst = self.de_dst

        for node in node_ids:
            s, e = self.adj_offsets[node], self.adj_offsets[node + 1]
            lst = list(self.adj[s:e])
            cxx, cyy = float(nx[node]), float(ny[node])

            def cmp(a_idx: int, b_idx: int) -> int:
                tax, tay = float(nx[de_dst[a_idx]]), float(ny[de_dst[a_idx]])
                tbx, tby = float(nx[de_dst[b_idx]]), float(ny[de_dst[b_idx]])
                if tax == tbx and tay == tby:
                    return 0
                dxa, dya = tax - cxx, tay - cyy
                dxb, dyb = tbx - cxx, tby - cyy
                qa = 0 if (dxa > 0 and dya >= 0) else 1 if (dxa <= 0 and dya > 0) else 2 if (dxa < 0 and dya <= 0) else 3
                qb = 0 if (dxb > 0 and dyb >= 0) else 1 if (dxb <= 0 and dyb > 0) else 2 if (dxb < 0 and dyb <= 0) else 3
                if qa != qb:
                    return -1 if qa < qb else 1
                o = orient2d_exact(tax, tay, tbx, tby, cxx, cyy)
                if o > 0:
                    return -1
                if o < 0:
                    return 1
                da = dxa * dxa + dya * dya
                db = dxb * dxb + dyb * dyb
                return -1 if da < db else (1 if da > db else 0)

            lst.sort(key=functools.cmp_to_key(cmp))  # python sort is stable
            self.adj[s:e] = lst

    # ------------------------------------------------------------------
    def prune_dangles(self) -> int:
        """Iterative degree-1 peel (planar_graph.rs:426-472)."""
        degree = self.nodes_degree
        marked = self.nodes_marked
        de_marked = self.de_marked
        adj = self.adj
        offs = self.adj_offsets
        de_dst = self.de_dst

        removed = 0
        while True:
            frontier = np.flatnonzero((degree == 1) & ~marked)
            if not len(frontier):
                break
            marked[frontier] = True
            degree[frontier] = 0
            removed += len(frontier)
            # each frontier node's single unmarked outgoing half-edge:
            # gather its adjacency slice, keep alive entries (exactly one
            # each by the degree-1 invariant)
            lens = offs[frontier + 1] - offs[frontier]
            total = int(lens.sum())
            pos = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            cand = adj[np.repeat(offs[frontier], lens) + pos]
            edges = cand[~de_marked[cand]]
            de_marked[edges] = True
            de_marked[edges ^ 1] = True
            # two peeled chain-ends can meet at one neighbor in the same
            # round: subtract per-neighbor counts, floor at zero
            dec = np.bincount(de_dst[edges], minlength=len(degree))
            np.maximum(degree - dec, 0, out=degree)
        # a junction whose degree drops 2->0 within ONE round (two chains
        # meeting there) never passes through the scalar walk's
        # intermediate degree-1 state, so mark every fully-peeled node —
        # equivalent to the scalar peel's pruned set up to the one
        # unmarked survivor per component, which downstream cut-risk logic
        # treats conservatively (it is genuinely a dangle vertex)
        marked |= degree == 0
        return removed

    # ------------------------------------------------------------------
    def get_edge_rings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trace minimal rings via the next-CCW rule (planar_graph.rs:475-561).

        Returns Arrow-style flat layout: (flat_x, flat_y, offsets) where ring
        k's closed coordinates are flat[offsets[k]:offsets[k+1]].
        """
        n_de = 2 * self.n_edges
        NONE = np.int64(-1)
        next_ptr = np.full(n_de, NONE, dtype=np.int64)

        # circular "next unmarked" pointers per node over the sorted adjacency
        # (planar_graph.rs:485-502), fully vectorized: within each node's
        # unmarked sub-list, next_ptr[curr] = the following entry, wrapping.
        adj = self.adj
        kept = adj[~self.de_marked[adj]]
        if len(kept):
            srcs = self.de_src[kept]
            nxt = np.roll(kept, -1)
            boundaries = np.flatnonzero(srcs[1:] != srcs[:-1])
            group_last = np.concatenate([boundaries, [len(kept) - 1]])
            group_first = np.concatenate([[0], boundaries + 1])
            nxt[group_last] = kept[group_first]
            next_ptr[kept] = nxt

        de_marked = self.de_marked
        de_src = self.de_src
        de_dst = self.de_dst
        nx, ny = self.nodes_x, self.nodes_y

        # walk permutation: step(e) = next_ptr[sym(e)] (planar_graph.rs:525-526).
        # After complete dangle pruning every unmarked half-edge has a
        # successor and `step` is a bijection on the unmarked set (sym is an
        # involution pairing marked edges together; succ is cyclic per node),
        # so the ring set is EXACTLY the cycle decomposition of `step` and
        # no "invalid walk" can occur.  The reference emits rings in order of
        # their smallest half-edge id, each starting at that edge (its
        # leader); the trace below finds every edge's leader and its
        # rank (steps from the leader), then scatters the coordinates into place.
        live = np.flatnonzero(~de_marked)
        if len(live) == 0:
            self.live_rings = (live, live)
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                np.zeros(1, dtype=np.int64),
            )
        step_all = next_ptr[live ^ 1]
        if np.any(step_all == NONE):
            # incomplete pruning (API misuse): fall back to the scalar walk
            return self._get_edge_rings_scalar(next_ptr)

        # compact to local indices over the live set; live is ascending, so
        # the minimum local index of a cycle is its minimum edge id
        m = len(live)
        if m == n_de:
            nxt = step_all
        else:
            local = np.full(n_de, -1, dtype=np.int64)
            local[live] = np.arange(m)
            nxt = local[step_all]  # permutation over live edges
        lab, rank = _short_cycles(nxt)
        long_ = np.flatnonzero(lab < 0)
        if len(long_):
            lab[long_], rank[long_] = _long_cycles(nxt, long_)

        # ring k = the k-th leader in id order: src(leader), then dst of
        # each edge in walk order
        leader = lab == np.arange(m)
        ring_of = np.cumsum(leader)
        n_rings = int(ring_of[-1])
        ring = ring_of[lab] - 1
        self.live_rings = (live, ring)
        offsets = np.zeros(n_rings + 1, dtype=np.int64)
        np.cumsum(np.bincount(ring, minlength=n_rings) + 1, out=offsets[1:])
        all_nodes = np.empty(m + n_rings, dtype=np.int64)
        all_nodes[offsets[:-1]] = de_src[live[leader]]
        all_nodes[offsets[ring] + 1 + rank] = de_dst[live]
        return nx[all_nodes], ny[all_nodes], offsets

    def _get_edge_rings_scalar(self, next_ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference-literal scalar walk (planar_graph.rs:511-558), used when
        the graph was not fully pruned and dead-end walks must be discarded."""
        NONE = np.int64(-1)
        n_de = 2 * self.n_edges
        visited = np.zeros(n_de, dtype=bool)
        de_marked = self.de_marked
        de_src = self.de_src
        de_dst = self.de_dst
        nx, ny = self.nodes_x, self.nodes_y

        ring_node_lists: list[np.ndarray] = []
        ring_edges: list[int] = []
        for start in range(n_de):
            if visited[start] or de_marked[start]:
                continue
            ring_edges.clear()
            curr = start
            valid = True
            while True:
                visited[curr] = True
                ring_edges.append(curr)
                nxt = next_ptr[curr ^ 1]
                if nxt == NONE:
                    valid = False
                    break
                curr = int(nxt)
                if curr == start:
                    break
                if visited[curr]:
                    valid = False
                    break
            if valid and ring_edges:
                edges_arr = np.array(ring_edges, dtype=np.int64)
                nodes = np.empty(len(edges_arr) + 1, dtype=np.int64)
                nodes[0] = de_src[edges_arr[0]]
                nodes[1:] = de_dst[edges_arr]
                ring_node_lists.append(nodes)

        if not ring_node_lists:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                np.zeros(1, dtype=np.int64),
            )
        lengths = np.array([len(r) for r in ring_node_lists], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        all_nodes = np.concatenate(ring_node_lists)
        return nx[all_nodes], ny[all_nodes], offsets


# Rings of a noded cell are short: unit faces have 4 edges, and only the
# outer boundary of each component is long.
_WALK_STEPS = 6


def _short_cycles(nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leader (minimum element) and rank (steps from the leader) of every
    element of the permutation ``nxt`` whose cycle has at most
    ``_WALK_STEPS`` + 1 elements; elements of longer cycles get leader -1.

    Every element first takes the minimum over its next ``_WALK_STEPS``
    successors, which is its leader when its cycle fits in that window.
    Each cycle's minimum is its own window minimum, so only those
    candidates walk on to rank their cycle; a candidate back at itself
    within the window is a leader, and the rest lie on longer cycles."""
    m = len(nxt)
    idx = np.arange(m)
    low = np.minimum(idx, nxt)
    cur = nxt
    for _ in range(_WALK_STEPS - 1):
        cur = nxt[cur]
        np.minimum(low, cur, out=low)

    rank = np.zeros(m, dtype=np.int64)
    act = cur = np.flatnonzero(low == idx)
    leaders = []
    for k in range(1, _WALK_STEPS + 2):
        cur = nxt[cur]
        rank[cur] = k
        back = cur == act
        if back.any():
            leaders.append(act[back])
            act, cur = act[~back], cur[~back]
            if not len(act):
                break
    is_leader = np.zeros(m, dtype=bool)
    for ids in leaders:
        is_leader[ids] = True
        rank[ids] = 0
    return np.where(is_leader[low], low, -1), rank


def _long_cycles(nxt: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leader and rank (as ``_short_cycles``) for ``ids``, the ascending
    elements of whole cycles of ``nxt``, by pointer doubling over the
    compacted sub-permutation: O(n log L) for cycles of length L."""
    n = len(ids)
    local = np.empty(len(nxt), dtype=np.int64)
    local[ids] = np.arange(n)
    sub = local[nxt[ids]]

    # cycle leader = min element, by min-label doubling
    lab = np.arange(n)
    jump = sub.copy()
    steps = 1
    while steps < n:
        new_lab = np.minimum(lab, lab[jump])
        if np.array_equal(new_lab, lab):
            # labels are distinct, so "no change at window 2^k" forces
            # every cycle length <= 2^(k-1): a longer cycle has a position
            # whose doubled window first reaches the cycle minimum
            break
        lab = new_lab
        jump = jump[jump]
        steps <<= 1

    # steps to the leader by list ranking (the leader is the terminal);
    # rank = cycle length - steps, 0 at the leader
    idx = np.arange(n)
    ptr = np.where(lab == idx, idx, sub)
    dist = (ptr != idx).astype(np.int64)
    steps = 1
    while steps < n:
        dist += dist[ptr]
        ptr_new = ptr[ptr]
        if np.array_equal(ptr_new, ptr):
            break  # every pointer reached its terminal; dist is final
        ptr = ptr_new
        steps <<= 1
    size = np.bincount(lab, minlength=n)[lab]
    return ids[lab], (size - dist) % size
