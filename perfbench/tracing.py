"""Timing wrappers around the program's public entry points (traced run only).

``Tracer.install()`` swaps each entry point listed in :data:`LAYERS` for a
wrapper that records its *self* time: a wrapped call nested inside another
wrapped call is subtracted from the outer one, so a sharded solve's local
solves are not counted twice.  Nothing under ``src/`` changes; the
untimed run never imports this module.

Each entry is ``(module, attribute path, layer name, hook)``.  A function
is patched in the namespace it is looked up from at call time, which is
why some appear twice.  ``hook(tracer, args, result)`` records counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _solve_stats(tracer, args, result) -> None:
    stats = getattr(result, "stats", {}) or {}
    tracer.count("mst.levels", stats.get("levels", 0))
    tracer.count("mst.jump_rounds", stats.get("jump_rounds", 0))


def _candidates(tracer, args, result) -> None:
    tracer.count("shard.candidate_edges", len(args[1]))


def _sssp_rounds(tracer, args, result) -> None:
    if getattr(result, "problem", None) == "sssp":
        tracer.count("solve.sssp_rounds", result.stats.get("rounds", 0))


def _saved_bytes(tracer, args, result) -> None:
    tracer.count("service.artifact_bytes", os.path.getsize(result))
    tracer.count("service.artifacts_saved", 1)


# Layer name per solver returned by the registries (see _wrap_factory).
_PROBLEM_LAYERS = {"sssp": "solve.sssp", "cc": "solve.cc"}

LAYERS = [
    ("repro.graphs.io.dimacs", "read_dimacs", "graphs.parse", None),
    ("repro.graphs.tree_queries", "ForestPathMax.__init__", "graphs.index", None),
    ("repro.mst.dynamic", "DynamicMSF.insert_edge", "mst.dynamic", None),
    ("repro.mst.dynamic", "DynamicMSF.delete_edge", "mst.dynamic", None),
    ("repro.mst.dynamic", "DynamicMSF.find_edge", "mst.dynamic", None),
    ("repro.mst.dynamic", "DynamicMSF.snapshot", "mst.snapshot", None),
    ("repro.mst.dynamic", "DynamicMSF.forest_arrays", "mst.snapshot", None),
    ("repro.shard.coordinator", "boruvka_filter", "shard.filter", None),
    ("repro.shard.coordinator", "partition_edges", "shard.partition", None),
    ("repro.shard.coordinator", "solve_shard_local", "shard.local_solve", None),
    ("repro.shard.merge", "msf_of_edge_ids", "shard.merge", _candidates),
    ("repro.solve.service", "ProblemQueryEngine.execute", "solve.engine", None),
    ("repro.service.artifacts", "graph_fingerprint", "service.fingerprint", None),
    ("repro.service.core", "graph_fingerprint", "service.fingerprint", None),
    ("repro.solve.artifacts", "problem_fingerprint", "service.fingerprint", None),
    ("repro.service.artifacts", "ArtifactStore.save", "service.persist", _saved_bytes),
    ("repro.solve.artifacts", "ProblemArtifactStore.save", "service.persist",
     _saved_bytes),
    ("repro.service.engine", "QueryEngine.__init__", "service.engine_build", None),
    ("repro.service.engine", "QueryEngine.execute", "service.engine", None),
]

# Registry factories: the callable they return is the timed solve.
FACTORIES = [
    ("repro.mst.registry", "get_algorithm", lambda name: "mst.solve", _solve_stats),
    ("repro.solve.registry", "get_problem", _PROBLEM_LAYERS.get, _sssp_rounds),
    ("repro.solve.service", "get_problem", _PROBLEM_LAYERS.get, _sssp_rounds),
]


class Tracer:
    """Self-time and count accumulators, plus a log of engine batch calls."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (end time, seconds) of each engine batch, per query kind.
        self.batches: dict[str, list[tuple[float, float]]] = defaultdict(list)

    # ------------------------------------------------------------------
    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def take(self) -> tuple[dict, dict]:
        """Self seconds and counts since the last call, then reset both."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts

    def wrap(self, layer: str, fn, hook=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.seconds[layer] += elapsed - frame[0]
            if layer in ("service.engine", "solve.engine"):
                self.batches[args[1]].append((end, elapsed))
            if hook is not None:
                hook(self, args, result)
            return result

        return timed

    def _wrap_factory(self, factory, layer_of, hook):
        @functools.wraps(factory)
        def make(name, *args, **kwargs):
            solver = factory(name, *args, **kwargs)
            layer = layer_of(name)
            return solver if layer is None else self.wrap(layer, solver, hook)

        return make

    @staticmethod
    def _patch(module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        """Patch every entry point for the rest of the process."""
        for module, path, layer, hook in LAYERS:
            self._patch(module, path, lambda fn, l=layer, h=hook: self.wrap(l, fn, h))
        for module, path, layer_of, hook in FACTORIES:
            self._patch(
                module, path,
                lambda fn, lo=layer_of, h=hook: self._wrap_factory(fn, lo, h),
            )
