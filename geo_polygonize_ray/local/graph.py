"""Per-partition noded planar graph as numpy Structure-of-Arrays.

From-scratch reimplementation of the reference's arena graph
(reference src/graph/planar_graph.rs:40-59): node coords are columnar
(nodes_x / nodes_y), adjacency is CSR, half-edges are parallel arrays.  This
object is *never* global in the Ray engine — one instance is built inside an
exchange reduce task / actor call from one spatial cell's segment batch
(SURVEY.md §1.3), which is exactly why segments are cell-partitioned.

Semantics replicated exactly:
  * bulk load with Z-order sort + exact-coord dedup  (planar_graph.rs:104-196)
  * degenerate filter |dx|<1e-12 & |dy|<1e-12        (planar_graph.rs:211-213)
  * CCW angular sort with quadrant + robust orient2d + collinear
    nearest-first tie-break                          (utils/mod.rs:46-95)
  * iterative degree-1 dangle peel                   (planar_graph.rs:426-472)
  * next-CCW half-edge ring tracing                  (planar_graph.rs:475-561)
"""

from __future__ import annotations

import numpy as np

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

        # --- node dedup: exact-bits identity, ids in Z-order rank ------------
        # The reference sorts endpoint entries by (z, x, y) and dedups on exact
        # coord equality (planar_graph.rs:135-160).  Its z-order key uses only
        # the LOW 32 bits of each sortable float (utils/mod.rs:29-31 masks),
        # so z does NOT determine (x, y); we sort by the exact same composite
        # key (z, x, y) to reproduce identical node id assignment.
        ex = np.concatenate([x0, x1])
        ey = np.concatenate([y0, y1])
        ez = z_order_index(ex, ey)
        # two-phase (z, x, y) sort: quicksort on z, then an exact (x, y)
        # refinement of equal-z runs only.  Ties across all three keys are
        # bit-identical coords (they dedup into one node below), so no
        # stability is needed and quicksort replaces this numpy's slow
        # stable sort.  Z collisions are rare for float soups; for
        # integer-grid coords (all-zero low mantissa bits -> equal z) the
        # refinement degenerates to the full lexsort, i.e. never worse.
        order = np.argsort(ez)
        ezs = ez[order]
        same = ezs[1:] == ezs[:-1]
        if same.any():
            in_run = np.concatenate([[False], same]) | np.concatenate([same, [False]])
            pos = np.flatnonzero(in_run)
            sub = order[pos]
            run_id = np.cumsum(np.concatenate([[True], ~same]))[pos]
            ro = np.lexsort((ey[sub], ex[sub], run_id))
            order[pos] = sub[ro]
        sx, sy = ex[order], ey[order]
        if m:
            new = np.empty(2 * m, dtype=bool)
            new[0] = True
            new[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
            self.nodes_x = sx[new]
            self.nodes_y = sy[new]
            # rank of each original endpoint among deduped nodes
            rank = np.cumsum(new) - 1
            endpoint_node = np.empty(2 * m, dtype=np.int64)
            endpoint_node[order] = rank
        else:
            self.nodes_x = sx
            self.nodes_y = sy
            endpoint_node = np.empty(0, dtype=np.int64)

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

        # CSR adjacency in half-edge insertion order (matches the push order
        # of planar_graph.rs:309-317: ties in the angular sort are resolved by
        # Rust's stable sort, so insertion order matters for exact parity).
        order_adj = np.argsort(self.de_src, kind="stable")
        self.adj = order_adj  # flat list of DirEdgeIds grouped by src
        self.adj_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(self.de_src, minlength=n))]
        ).astype(np.int64)
        self._sorted = False

    # ------------------------------------------------------------------
    def sort_edges(self) -> None:
        """CCW angular sort of each node's outgoing half-edges.

        compare_angular (utils/mod.rs:46-85): quadrant first, then robust
        orient2d, collinear ties by squared distance ascending.  Vectorized:
        sort by (quadrant, float pseudo-angle, squared distance) with a
        stable lexsort, then certify every adjacent pair with the orient2d
        error-bound filter; nodes with an uncertain or violated pair are
        re-sorted exactly in Python (rare: near-collinear float geometry).
        """
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
            # ties are always repaired; exact full-key ties would mean
            # two half-edges to the same destination coords, which the
            # noder's segment dedup makes impossible.
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
        self._sorted = True

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
        # no "invalid walk" can occur.  That makes the trace vectorizable:
        # cycle leaders via min-label pointer doubling, in-cycle ranks via
        # list ranking — O(n log n) numpy instead of a per-edge Python loop.
        live = np.flatnonzero(~de_marked)
        if len(live) == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                np.zeros(1, dtype=np.int64),
            )
        step_all = next_ptr[live ^ 1]
        if np.any(step_all == NONE):
            # incomplete pruning (API misuse): fall back to the scalar walk
            return self._get_edge_rings_scalar(next_ptr)

        # compact to local indices over the live set
        local = np.full(n_de, -1, dtype=np.int64)
        local[live] = np.arange(len(live))
        nxt = local[step_all]  # permutation over live edges

        # cycle leader = min ORIGINAL edge id in the cycle (reference emits
        # rings in order of their smallest unvisited half-edge id)
        lab = live.copy()
        jump = nxt.copy()
        m = len(live)
        steps = 1
        while steps < m:
            new_lab = np.minimum(lab, lab[jump])
            if np.array_equal(new_lab, lab):
                # convergence proof: labels are DISTINCT edge ids, so "no
                # change at window 2^k" forces every cycle length <= 2^(k-1)
                # (a longer cycle has a position whose doubled window first
                # reaches the cycle minimum).  Rings are short (~4-8 edges),
                # so this exits after ~3 rounds instead of log2(m).
                break
            lab = new_lab
            jump = jump[jump]
            steps <<= 1

        # rank within cycle from the leader via list ranking: break each
        # cycle just before its leader, then distance-to-terminal doubling
        leader_local = local[lab]  # local idx of each edge's cycle leader
        prev = np.empty(m, dtype=np.int64)
        prev[nxt] = np.arange(m)
        ptr = nxt.copy()
        ptr[prev[leader_local]] = prev[leader_local]  # terminal self-loop at cycle end
        dist = np.where(ptr == np.arange(m), 0, 1).astype(np.int64)
        steps = 1
        while steps < m:
            dist = dist + dist[ptr]
            ptr_new = ptr[ptr]
            if np.array_equal(ptr_new, ptr):
                break  # every pointer reached its terminal; dist is final
            ptr = ptr_new
            steps <<= 1
        # dist = #steps to cycle end; rank from leader = cycle_len - 1 - dist
        ring_sizes = np.bincount(leader_local, minlength=m)
        rank = ring_sizes[leader_local] - 1 - dist

        # order rings by leader edge id, edges by rank within ring — packed
        # into ONE uint64 (keys are unique: rank is unique within a ring),
        # so a single quicksort replaces the 2-pass stable lexsort
        if n_de < (1 << 32):
            order = np.argsort((lab.astype(np.uint64) << np.uint64(32)) | rank.astype(np.uint64))
        else:
            order = np.lexsort((rank, lab))
        ordered_edges = live[order]
        ordered_leaders = lab[order]
        starts_mask = np.concatenate([[True], ordered_leaders[1:] != ordered_leaders[:-1]])
        ring_starts = np.flatnonzero(starts_mask)
        sizes = np.diff(np.concatenate([ring_starts, [m]]))

        # coords: ring k = src(first edge) + dst(each edge in order)
        n_rings = len(ring_starts)
        total = m + n_rings
        offsets = np.concatenate([[0], np.cumsum(sizes + 1)]).astype(np.int64)
        all_nodes = np.empty(total, dtype=np.int64)
        all_nodes[offsets[:-1]] = de_src[ordered_edges[ring_starts]]
        pos = np.arange(m) + np.repeat(np.arange(1, n_rings + 1), sizes)
        all_nodes[pos] = de_dst[ordered_edges]
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
