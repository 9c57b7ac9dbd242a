"""Seeded input graphs and the DIMACS writer, independent of the program.

The benchmark makes its inputs with its own generators, so a change to
``repro.graphs.generators`` cannot change what is measured.  Every graph
is a plain ``(n, u, v, w)`` tuple of NumPy arrays with distinct weights
(so the minimum spanning forest is unique); the same seed always gives
the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Input shapes (see README.md "Inputs").
ROAD_SIDE = 256  # 256 x 256 lattice: 65,536 vertices, ~118k edges
ROAD_DROP = 0.12  # share of lattice edges removed
ROAD_SHORTCUTS = 0.05  # share of vertices that gain one diagonal
RMAT_SCALE = 15  # 32,768 vertices
RMAT_EDGEFACTOR = 16  # 524,288 draws, ~441k distinct edges after collapse
GNM_N = 33_000
GNM_M = 100_000


@dataclass(frozen=True)
class EdgeArrays:
    """An undirected graph as parallel arrays; may hold parallel edges."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def m(self) -> int:
        return int(self.u.size)


def _distinct_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    """``m`` distinct integer-valued weights in ``[1, 4m]`` as float64."""
    return (rng.choice(4 * m, size=m, replace=False) + 1).astype(np.float64)


def road_graph(seed: int) -> EdgeArrays:
    """Low-degree, high-diameter lattice with dropped edges and shortcuts."""
    rng = np.random.default_rng([seed, 1])
    side = ROAD_SIDE
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    hu, hv = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    vu, vv = ids[:-1, :].ravel(), ids[1:, :].ravel()
    u = np.concatenate([hu, vu])
    v = np.concatenate([hv, vv])
    keep = rng.random(u.size) >= ROAD_DROP
    u, v = u[keep], v[keep]
    starts = rng.choice(ids[:-1, :-1].ravel(), size=int(ROAD_SHORTCUTS * side * side),
                        replace=False)
    u = np.concatenate([u, starts])
    v = np.concatenate([v, starts + side + 1])
    return EdgeArrays(side * side, u, v, _distinct_weights(rng, u.size))


def rmat_graph(seed: int) -> EdgeArrays:
    """Graph500-style RMAT draws (a=0.57, b=c=0.19), raw: self loops and
    parallel edges are left in for the parser to drop and collapse."""
    rng = np.random.default_rng([seed, 2])
    n = 1 << RMAT_SCALE
    draws = RMAT_EDGEFACTOR * n
    u = np.zeros(draws, dtype=np.int64)
    v = np.zeros(draws, dtype=np.int64)
    for level in range(RMAT_SCALE):
        u_bit = rng.random(draws) > 0.57 + 0.19
        v_bit = rng.random(draws) > np.where(u_bit, 0.19 / 0.24, 0.57 / 0.76)
        u |= u_bit.astype(np.int64) << level
        v |= v_bit.astype(np.int64) << level
    perm = rng.permutation(n)
    return EdgeArrays(n, perm[u], perm[v], _distinct_weights(rng, draws))


def gnm_graph(seed: int, n: int = GNM_N, m: int = GNM_M) -> EdgeArrays:
    """Uniform G(n, m) without self loops or parallel edges."""
    rng = np.random.default_rng([seed, 3])
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        ok = a != b
        lo, hi = np.minimum(a, b)[ok], np.maximum(a, b)[ok]
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    keys = rng.permutation(keys)[:m]
    return EdgeArrays(n, keys // n, keys % n, _distinct_weights(rng, m))


def write_gr(g: EdgeArrays, path) -> None:
    """Write DIMACS ``.gr`` with both arc directions."""
    tail = np.concatenate([g.u, g.v]) + 1
    head = np.concatenate([g.v, g.u]) + 1
    w = np.concatenate([g.w, g.w]).astype(np.int64)
    body = "\n".join(
        map("a {} {} {}".format, tail.tolist(), head.tolist(), w.tolist())
    )
    text = f"c benchmark input\np sp {g.n} {tail.size}\n{body}\n"
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def degree_argmax(g: EdgeArrays) -> int:
    """The SSSP source: highest-degree vertex, lowest id on ties."""
    deg = np.bincount(np.concatenate([g.u, g.v]), minlength=g.n)
    return int(np.argmax(deg))
