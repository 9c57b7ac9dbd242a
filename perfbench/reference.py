"""Reference answers from scipy, computed on the benchmark's own edge arrays.

Nothing here imports the program: every check compares what the program
returned with what ``scipy.sparse.csgraph`` computes from the same
inputs.  Weights are distinct, so the minimum spanning forest is unique
and can be compared edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    dijkstra,
    minimum_spanning_tree,
)


def collapse(n: int, u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop self loops; keep the lightest of parallel edges; ``lo < hi``."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    keep = u != v
    lo, hi, w = np.minimum(u, v)[keep], np.maximum(u, v)[keep], w[keep]
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[first], hi[first], w[first]


def _matrix(n: int, lo, hi, w) -> csr_matrix:
    return coo_matrix((w, (lo, hi)), shape=(n, n)).tocsr()


def edge_key(u, v, w) -> np.ndarray:
    """Forest edges as rows ``(lo, hi, w)`` sorted by weight (unique)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rows = np.stack([np.minimum(u, v), np.maximum(u, v), w], axis=1)
    return rows[np.argsort(w, kind="stable")]


def canonical_labels(labels) -> np.ndarray:
    """Relabel a partition so each class is named by its least vertex."""
    _, inv = np.unique(np.asarray(labels), return_inverse=True)
    least = np.full(inv.max() + 1 if inv.size else 0, inv.size, dtype=np.int64)
    np.minimum.at(least, inv, np.arange(inv.size, dtype=np.int64))
    return least[inv]


@dataclass
class Reference:
    """scipy answers for one graph: forest, components and path maxima."""

    n: int
    forest: np.ndarray  # edge_key rows of the MSF
    comp: np.ndarray  # canonical component labels
    pred: np.ndarray  # forest parent (-1 at a component root)
    pweight: np.ndarray  # weight of the edge to the parent
    depth: np.ndarray

    @classmethod
    def build(cls, n: int, u, v, w) -> "Reference":
        lo, hi, w = collapse(n, u, v, w)
        tree = minimum_spanning_tree(_matrix(n, lo, hi, w)).tocoo()
        forest = edge_key(tree.row, tree.col, tree.data)
        _, labels = connected_components(_matrix(n, lo, hi, w), directed=False)
        comp = canonical_labels(labels)
        # One BFS over the forest plus a virtual root joined to every
        # component's least vertex gives parents and depths everywhere.
        roots = np.unique(comp)
        rows = np.concatenate([tree.row, np.full(roots.size, n)])
        cols = np.concatenate([tree.col, roots])
        vals = np.concatenate([tree.data, np.ones(roots.size)])
        sym = _matrix(n + 1, rows, cols, vals)
        sym = (sym + sym.T).tocsr()
        order, pred = breadth_first_order(sym, n, directed=False)
        depth = np.zeros(n + 1, dtype=np.int64)
        for x in order[1:].tolist():
            depth[x] = depth[pred[x]] + 1
        pred = pred[:n].astype(np.int64)
        pred[pred == n] = -1
        pweight = np.zeros(n, dtype=np.float64)
        has = pred >= 0
        pweight[has] = np.asarray(sym[np.flatnonzero(has), pred[has]]).ravel()
        return cls(n, forest, comp, pred, pweight, depth[:n])

    def connected(self, us, vs) -> np.ndarray:
        return self.comp[np.asarray(us)] == self.comp[np.asarray(vs)]

    def bottleneck(self, us, vs) -> np.ndarray:
        """Largest weight on the forest path; 0 for u == v, inf across trees."""
        a = np.array(us, dtype=np.int64)
        b = np.array(vs, dtype=np.int64)
        out = np.zeros(a.size, dtype=np.float64)
        apart = self.comp[a] != self.comp[b]
        live = ~apart & (a != b)
        while live.any():
            idx = np.flatnonzero(live)
            up_a = self.depth[a[idx]] >= self.depth[b[idx]]
            ia, ib = idx[up_a], idx[~up_a]
            out[ia] = np.maximum(out[ia], self.pweight[a[ia]])
            a[ia] = self.pred[a[ia]]
            out[ib] = np.maximum(out[ib], self.pweight[b[ib]])
            b[ib] = self.pred[b[ib]]
            live[idx] = a[idx] != b[idx]
        out[apart] = np.inf
        return out


def sssp(n: int, u, v, w, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` (inf where unreachable)."""
    lo, hi, w = collapse(n, u, v, w)
    return dijkstra(_matrix(n, lo, hi, w), directed=False, indices=source)


def same_forest(ref: Reference, fu, fv, fw) -> bool:
    """The program's forest is the unique MSF, edge for edge."""
    got = edge_key(fu, fv, fw)
    return got.shape == ref.forest.shape and bool(np.array_equal(got, ref.forest))


def same_partition(ref_comp: np.ndarray, labels) -> bool:
    labels = np.asarray(labels)
    return labels.shape == ref_comp.shape and bool(
        np.array_equal(canonical_labels(labels), ref_comp)
    )


def same_distances(ref_dist: np.ndarray, dist) -> bool:
    dist = np.asarray(dist, dtype=np.float64)
    return dist.shape == ref_dist.shape and bool(np.array_equal(dist, ref_dist))
