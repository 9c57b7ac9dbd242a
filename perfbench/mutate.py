"""Workload ``mutate``: bursts of edge inserts and deletes on a stored service.

A closed loop issues bursts of B = 2 mutations (one insert and one
delete) against an ``MSTService`` with a store, then one read batch
that must observe the burst.  Deletes alternate between a forest edge
(replacement search) and a non-forest edge.  The time from the start of
a burst until its read batch has answered is ``latency_ms``, and the
mutations made visible per second of burst time are ``throughput_per_s``.
A design that defers the refresh to the read is thus charged the same as
one that refreshes eagerly.  After each burst the benchmark recomputes the
MSF with scipy from its own copy of the edge list and checks against it
the served forest, the read batch and the artifact the store holds under
the served artifact's fingerprint, so a mutation that was not persisted
fails.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

import inputs
import reference
from common import Context, Result, layer_medians, median, timed_setup
from repro.graphs.csr import CSRGraph
from repro.errors import ServiceError
from repro.graphs.edgelist import EdgeList
from repro.service import MSTService
from repro.service.artifacts import ArtifactStore

READ_BATCH = 64  # pairs per read batch, including the burst's endpoints


class EdgeCopy:
    """The benchmark's own edge list, mutated alongside the service."""

    def __init__(self, g: inputs.EdgeArrays) -> None:
        self.n = g.n
        self.u, self.v, self.w = g.u.copy(), g.v.copy(), g.w.copy()
        self.used = set(self.w.tolist())

    def insert(self, u: int, v: int, w: float) -> None:
        self.u = np.append(self.u, u)
        self.v = np.append(self.v, v)
        self.w = np.append(self.w, w)
        self.used.add(w)

    def delete(self, i: int) -> None:
        self.u, self.v, self.w = (np.delete(a, i) for a in (self.u, self.v, self.w))

    def reference(self) -> reference.Reference:
        return reference.Reference.build(self.n, self.u, self.v, self.w)


def _setup(ctx: Context, rep: int):
    g = inputs.gnm_graph(ctx.seed)
    G = CSRGraph.from_edgelist(EdgeList.from_arrays(g.n, g.u, g.v, g.w))
    store = ctx.tmp / f"mutate-store-{rep}"
    svc = MSTService(str(store), algorithm="llp-boruvka", mode="vectorized")
    svc.load_graph(G)
    # The dynamic forest is built on the first mutation: pay that here,
    # with an insert the benchmark's own edge copy also records.
    first = (0, 1, float(4 * g.m + 1))
    svc.insert_edge(*first)
    return g, first, svc, store


def _pick_delete(rng, edges: EdgeCopy, ref, forest_edge: bool) -> int:
    """Index into ``edges`` of a live edge in (or out of) the unique MSF.

    Weights are distinct, so an edge is a forest edge iff its weight is.
    """
    in_forest = np.isin(edges.w, ref.forest[:, 2])
    return int(rng.choice(np.flatnonzero(in_forest == forest_edge)))


def stored(store, artifact):
    """``artifact`` as the store holds it; None if it is not there."""
    st = ArtifactStore(store)
    try:
        return st.load(st.path_for(artifact.fingerprint),
                       expect_fingerprint=artifact.fingerprint)
    except ServiceError:  # missing, truncated or for another fingerprint
        return None


def run(ctx: Context) -> Result:
    res = Result()
    (g, first, svc, store), setup_s = timed_setup(lambda rep: _setup(ctx, rep))
    res.e2e("setup_s", setup_s, "s")
    edges = EdgeCopy(g)
    edges.insert(*first)
    ref = edges.reference()
    rng = np.random.default_rng([ctx.seed, 20])
    tracer = ctx.tracer
    times, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        for forest_delete in (True, False):  # one round: two bursts
            a, b = (int(x) for x in rng.choice(edges.n, size=2, replace=False))
            w = float(rng.integers(1, 8 * g.m))
            while w in edges.used:
                w = float(rng.integers(1, 8 * g.m))
            d = _pick_delete(rng, edges, ref, forest_delete)
            du, dv, dw = int(edges.u[d]), int(edges.v[d]), float(edges.w[d])
            qu = np.concatenate([[a, du], rng.integers(0, edges.n, READ_BATCH - 2)])
            qv = np.concatenate([[b, dv], rng.integers(0, edges.n, READ_BATCH - 2)])
            gc.collect()
            if tracer is not None:
                tracer.take()
            t0 = time.perf_counter()
            svc.insert_edge(a, b, w)
            svc.delete_edge(du, dv, dw)
            conn = svc.connected(qu, qv)
            neck = svc.bottleneck(qu, qv)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                traced.append(tracer.take())
            res.attempted += 1
            edges.insert(a, b, w)
            edges.delete(d)
            ref = edges.reference()
            art = svc.artifact
            disk = stored(store, art)
            ok = (
                reference.same_forest(ref, art.msf_u, art.msf_v, art.msf_w)
                and disk is not None
                and reference.same_forest(ref, disk.msf_u, disk.msf_v, disk.msf_w)
                and np.array_equal(np.asarray(conn), ref.connected(qu, qv))
                and np.array_equal(np.asarray(neck, dtype=np.float64),
                                   ref.bottleneck(qu, qv))
            )
            if ok:
                times.append(elapsed)
            else:
                res.failed += 1
    if times:
        res.e2e("latency_ms", median(times) * 1e3, "ms")
        res.e2e("throughput_per_s", 2 * len(times) / sum(times), "1/s")
    if tracer is not None:
        _report_layers(res, traced, store)
    return res


def _report_layers(res: Result, per_op, store) -> None:
    layer_medians(
        res, per_op,
        times={
            "graphs.index": "graphs.index_ms",
            "mst.dynamic": "mst.dynamic_ms",
            "mst.snapshot": "mst.snapshot_ms",
            "service.fingerprint": "service.fingerprint_ms",
            "service.persist": "service.persist_ms",
            "service.engine_build": "service.engine_build_ms",
        },
        counts=(),
    )
    res.layer("service.store_files", len(os.listdir(store)), "count")
