"""Sizing figures the benchmark's layer metrics do not give directly.

    python3 perfbench/figures.py [--seed 1]

Prints, as medians of three: a store-backed cold MSF load of the road
input; unsharded LLP-Boruvka against the sharded pipeline (4 shards,
serial executor) on the Graph500 input; and one edge insert on the
G(n, m) input with and without a store.  The other reference figures in
README.md come from ``steady.py --trace 1``.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import time

from common import workspace


def _median_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with workspace() as tmp:
        import inputs
        from repro.graphs.csr import CSRGraph
        from repro.graphs.edgelist import EdgeList
        from repro.mst.registry import get_algorithm
        from repro.service import MSTService
        from repro.shard import sharded_mst

        def csr(g):
            return CSRGraph.from_edgelist(EdgeList.from_arrays(g.n, g.u, g.v, g.w))

        road = csr(inputs.road_graph(args.seed))

        def cold_load():
            store = tmp / "store"
            MSTService(store, algorithm="llp-boruvka", mode="vectorized").load_graph(road)
            shutil.rmtree(store)

        print(f"road   store-backed cold MSF load  {_median_ms(cold_load):8.0f} ms")

        rmat = csr(inputs.rmat_graph(args.seed))
        solve = get_algorithm("llp-boruvka", mode="vectorized")
        print(f"rmat   llp-boruvka vectorized      {_median_ms(lambda: solve(rmat)):8.0f} ms")
        sharded = _median_ms(lambda: sharded_mst(
            rmat, n_shards=4, algorithm="llp-boruvka", mode="vectorized",
            executor="serial"))
        print(f"rmat   sharded x4 serial           {sharded:8.0f} ms")

        g = inputs.gnm_graph(args.seed)
        for label, store in (("without", None), ("with", tmp / "mstore")):
            svc = MSTService(store, algorithm="llp-boruvka", mode="vectorized")
            svc.load_graph(csr(g))
            svc.insert_edge(0, 1, float(8 * g.m + 1))  # builds the dynamic forest
            weights = iter(range(8 * g.m + 2, 8 * g.m + 10))
            ms = _median_ms(lambda: svc.insert_edge(2, 3, float(next(weights))))
            print(f"gnm    one insert {label:7s} a store  {ms:8.0f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
