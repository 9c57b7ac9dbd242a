"""Workload ``serve-read``: a warm service answering a seeded read mix.

The MSF, SSSP and CC engines of one G(n, m) graph are each wrapped in an
``AsyncMSTService`` on one event loop.  An open loop sends reads at
:data:`RATE` per second, each timed from when it was due; a capacity
phase follows in which :data:`CLIENTS` closed-loop clients each keep one
read outstanding.  The open loop's median latency is ``latency_ms``, the
capacity phase's reads answered per second ``throughput_per_s``.
Nothing here parses, solves or mutates: set-up builds the artifacts into
a store and loads them warm.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import os
import time
from dataclasses import dataclass

import numpy as np

import inputs
import reference
from common import Context, Result, median, timed_setup
from repro.errors import ServiceError, ServiceOverloadError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.service import AsyncMSTService, MSTService
from repro.solve import ProblemService

KINDS = ("connected", "bottleneck", "component", "dist", "same")
# The MSF kinds keep the weights of the program's documented default
# scenario (docs/load.md; connected 35%, bottleneck 25%, component 20%).
# The 20% that scenario gives to MSF kinds not read here goes to SSSP and
# CC, 10% each: an assumption, since no traffic for them is documented.
MIX = (0.35, 0.25, 0.20, 0.10, 0.10)
UNARY = {"component", "dist"}
# Assumed, not taken from a trace: a fifth of the reads repeat one of 32
# hot reads.  The documented default (70% of pairs from a hot pool) would
# put the median read on an LRU hit, answered as it is sent, and latency_ms
# would then time the load generator rather than the coalescer and engines.
HOT_KEYS = 32  # distinct reads in the hot set
HOT_SHARE = 0.2  # share of reads drawn from the hot set
RATE = 500.0  # reads per second in the open loop: the documented default rate
WARM_S = 1.0  # open-loop warm-up, checked but not timed
OPEN_SHARE = 0.6  # of --seconds, at RATE
CAPACITY_SHARE = 0.35  # of --seconds, closed loop
CLIENTS = 64  # assumed; 64 outstanding reads as in the sizing figures
CAPACITY_POOL_RATE = 40_000  # closed-loop reads generated per second of the phase


def _services(store, source):
    return (
        MSTService(store, algorithm="llp-boruvka", mode="vectorized"),
        ProblemService(store, problem="sssp", mode="vectorized", source=source),
        ProblemService(store, problem="cc", mode="vectorized"),
    )


def _setup(ctx: Context, rep: int):
    g = inputs.gnm_graph(ctx.seed)
    G = CSRGraph.from_edgelist(EdgeList.from_arrays(g.n, g.u, g.v, g.w))
    source = inputs.degree_argmax(g)
    store = str(ctx.tmp / f"serve-store-{rep}")
    for svc in _services(store, source):  # cold: solve and persist
        svc.load_graph(G)
    warm = _services(store, source)  # warm: load from the store
    for svc in warm:
        svc.load_graph(G)
    return g, source, warm, store


@dataclass
class Reads:
    """A read stream as arrays: kind index, ``u``, and ``v`` (``-1`` if unary).

    Arrays rather than tuples keep the benchmark's own objects out of the
    garbage collector's way while the service is being timed.
    """

    kind: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return int(self.kind.size)

    def head(self, n: int) -> "Reads":
        return Reads(self.kind[:n], self.u[:n], self.v[:n])

    def args(self, i: int) -> tuple:
        v = int(self.v[i])
        return KINDS[self.kind[i]], int(self.u[i]), (None if v < 0 else v)


def make_reads(rng: np.random.Generator, n: int, count: int,
               hot: Reads | None = None) -> Reads:
    """``count`` reads; a :data:`HOT_SHARE` of them repeat reads of ``hot``."""
    kind = rng.choice(len(KINDS), size=count, p=MIX).astype(np.int8)
    u = rng.integers(0, n, size=count)
    v = rng.integers(0, n, size=count)
    v[np.isin(kind, [KINDS.index(k) for k in UNARY])] = -1
    if hot is not None:
        take = rng.random(count) < HOT_SHARE
        pick = rng.integers(0, len(hot), size=int(take.sum()))
        kind[take], u[take], v[take] = hot.kind[pick], hot.u[pick], hot.v[pick]
    return Reads(kind, u, v)


class Checker:
    """Expected answers from scipy for every read kind."""

    def __init__(self, g: inputs.EdgeArrays, source: int) -> None:
        self.ref = reference.Reference.build(g.n, g.u, g.v, g.w)
        self.dist = reference.sssp(g.n, g.u, g.v, g.w, source)

    def ok(self, reads: Reads, answers: np.ndarray) -> np.ndarray:
        """Per read: True when the answer (NaN if none) matches the reference."""
        good = np.zeros(len(reads), dtype=bool)
        comp = self.ref.comp
        for k, kind in enumerate(KINDS):
            idx = np.flatnonzero(reads.kind == k)
            a, b = reads.u[idx], reads.v[idx]
            if kind == "connected" or kind == "same":
                want = comp[a] == comp[b]
            elif kind == "bottleneck":
                want = self.ref.bottleneck(a, b)
            elif kind == "component":
                want = comp[a]
            else:  # dist
                want = self.dist[a]
            good[idx] = answers[idx] == np.asarray(want, dtype=np.float64)
        return good


class Outcomes:
    """Answer and completion time per read, filled in by future callbacks."""

    def __init__(self, n: int) -> None:
        self.answer = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.pending = 0
        self.idle = asyncio.Event()

    def track(self, i: int, future) -> None:
        if future.done():
            self.finish(i, future)
        else:
            self.pending += 1
            future.add_done_callback(functools.partial(self._callback, i))

    def finish(self, i: int, future) -> None:
        self.done[i] = time.perf_counter()
        if future.exception() is None:
            self.answer[i] = float(future.result())

    def _callback(self, i: int, future) -> None:
        self.finish(i, future)
        self.pending -= 1
        if not self.pending:
            self.idle.set()

    async def drained(self) -> None:
        if self.pending:
            await self.idle.wait()


async def open_loop(route: dict, reads: Reads, rate: float):
    """Send ``reads`` on a fixed schedule, never waiting for answers."""
    n = len(reads)
    due = np.empty(n)
    sent = np.empty(n)
    hit = np.zeros(n, dtype=bool)
    out = Outcomes(n)
    t0 = time.perf_counter()
    for i in range(n):
        due[i] = t0 + i / rate
        delay = due[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        kind, u, v = reads.args(i)
        sent[i] = time.perf_counter()
        try:
            future = route[kind].query_nowait(kind, u, v)
        except ServiceOverloadError:
            continue
        hit[i] = future.done()
        out.track(i, future)
    await out.drained()
    return out, due, sent, hit


async def closed_loop(route: dict, pool: Reads, clients: int, seconds: float):
    """``clients`` callers, each sending its next read when the last returns.

    Returns the outcomes, the number of reads taken from ``pool`` and the
    elapsed time; the phase also ends early if the pool runs out.
    """
    out = Outcomes(len(pool))
    taken = 0
    end = time.perf_counter() + seconds

    async def client() -> None:
        nonlocal taken
        while time.perf_counter() < end and taken < len(pool):
            i = taken
            taken += 1
            kind, u, v = pool.args(i)
            try:
                answer = await route[kind].query(kind, u, v)
            except ServiceError:
                continue
            out.answer[i] = float(answer)
            out.done[i] = time.perf_counter()

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    return out, taken, time.perf_counter() - t0


def _counters(services) -> np.ndarray:
    """Summed (cache hits, cache misses, rejected, batches) of the services."""
    return np.array([
        [s.metrics.cache_hits, s.metrics.cache_misses, s.metrics.rejected,
         s.metrics.queue_samples] for s in services
    ], dtype=np.float64).sum(axis=0)


async def _keep_awake(stop: asyncio.Event) -> None:
    """Yield to the loop until ``stop``: the loop never blocks in the poller.

    On a shared virtual machine an idle vCPU is descheduled by the host,
    and waking it costs milliseconds that vary with the host's load; a
    loop that always has a ready task keeps that wake-up latency out of
    the read timings.  The loop's one thread stays busy; the service's
    tasks still run between the yields, in arrival order.
    """
    while not stop.is_set():
        await asyncio.sleep(0)


async def _serve(ctx: Context, services, warm_reads, open_reads, pool):
    msf, sssp, cc = (AsyncMSTService(s) for s in services)
    route = {"connected": msf, "bottleneck": msf, "component": msf,
             "dist": sssp, "same": cc}
    stop = asyncio.Event()
    spinner = asyncio.create_task(_keep_awake(stop))
    async with msf, sssp, cc:
        warm = await open_loop(route, warm_reads, RATE)
        c0 = _counters(services)
        opened = await open_loop(route, open_reads, RATE)
        c1 = _counters(services)
        capacity = await closed_loop(route, pool, CLIENTS,
                                     CAPACITY_SHARE * ctx.seconds)
    stop.set()
    await spinner
    return warm, opened, capacity, (c0, c1)


def run(ctx: Context) -> Result:
    res = Result()
    (g, source, services, store), setup_s = timed_setup(lambda rep: _setup(ctx, rep))
    res.e2e("setup_s", setup_s, "s")
    check = Checker(g, source)
    rng = np.random.default_rng([ctx.seed, 10])
    hot = make_reads(rng, g.n, HOT_KEYS)
    warm_reads = make_reads(rng, g.n, int(RATE * WARM_S), hot)
    open_reads = make_reads(rng, g.n, int(RATE * OPEN_SHARE * ctx.seconds), hot)
    pool = make_reads(rng, g.n, int(CAPACITY_POOL_RATE * CAPACITY_SHARE * ctx.seconds),
                      hot)

    warm, opened, capacity, counters = asyncio.run(
        _serve(ctx, services, warm_reads, open_reads, pool))

    warm_ok = check.ok(warm_reads, warm[0].answer)
    out, due, sent, hit = opened
    open_ok = check.ok(open_reads, out.answer)
    cap, taken, cap_elapsed = capacity
    cap_ok = check.ok(pool.head(taken), cap.answer[:taken])
    res.attempted = len(warm_reads) + len(open_reads) + taken
    res.failed = int((~warm_ok).sum() + (~open_ok).sum() + (~cap_ok).sum())

    if open_ok.any():
        res.e2e("latency_ms", median((out.done - due)[open_ok]) * 1e3, "ms")
    if cap_ok.any():
        res.e2e("throughput_per_s", cap_ok.sum() / cap_elapsed, "1/s")

    if ctx.tracer is not None:
        _report_layers(res, ctx.tracer, open_reads, open_ok, due, sent, out.done, hit,
                       counters)
        res.layer("service.store_files", len(os.listdir(store)), "count")
    return res


def _report_layers(res, tracer, reads, ok, due, sent, done, hit, counters) -> None:
    c0, c1 = counters
    hits, misses, rejected, batches = c1 - c0
    res.layer("service.cache_hit_ratio", hits / max(hits + misses, 1), "ratio")
    res.layer("service.batch_size", (misses - rejected) / max(batches, 1), "count")
    # Mean engine time per batch, over the batches that ended in the open loop.
    first, last = due[0], np.nanmax(done)
    for name, kinds in (("service.engine_ms", ("connected", "bottleneck", "component")),
                        ("solve.engine_ms", ("dist", "same"))):
        spans = [s for k in kinds for end, s in tracer.batches[k] if first <= end <= last]
        if spans:
            res.layer(name, sum(spans) / len(spans) * 1e3, "ms")
    res.layer("loadgen.lag_ms", median((sent - due) * 1e3), "ms")
    # Queue wait: a queued read's latency minus the engine time of the
    # batch that answered it (the last batch of its kind to end before the
    # read completed).
    waits = []
    ends = {k: [e for e, _ in v] for k, v in tracer.batches.items()}
    for i in np.flatnonzero(ok & ~hit):
        kind = KINDS[reads.kind[i]]
        j = bisect.bisect_right(ends[kind], done[i]) - 1
        if j >= 0:
            waits.append(done[i] - due[i] - tracer.batches[kind][j][1])
    if waits:
        res.layer("service.queue_wait_ms", median(waits) * 1e3, "ms")
