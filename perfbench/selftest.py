"""Self-test: plant wrong answers and show that every check catches them.

    python3 perfbench/selftest.py

Part 1 feeds each check the program's true answers on a small graph (they
must pass) and then the same answers with one planted error (it must be
caught): a forest edge swapped for a heavier edge, a perturbed distance,
a vertex moved to another component, and one wrong served answer per
read kind.  Part 2 runs each workload briefly with a fault planted in the
program's output, or with the store's saves skipped, and shows that the
run counts failed operations.
Exits 0 when every true answer passes and every planted error is caught.
"""

from __future__ import annotations

import dataclasses
import sys

from common import workspace


def _check_functions(tmp, report) -> None:
    import numpy as np

    import inputs
    import reference
    import serve_read
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList
    from repro.service import MSTService
    from repro.solve import ProblemService

    g = inputs.gnm_graph(7, n=2_000, m=5_000)
    G = CSRGraph.from_edgelist(EdgeList.from_arrays(g.n, g.u, g.v, g.w))
    source = inputs.degree_argmax(g)
    msf_svc = MSTService(None, algorithm="llp-boruvka", mode="vectorized")
    sssp_svc = ProblemService(None, problem="sssp", mode="vectorized", source=source)
    cc_svc = ProblemService(None, problem="cc", mode="vectorized")
    msf = msf_svc.load_graph(G)
    dist = np.array(sssp_svc.load_graph(G).arrays["dist"])
    labels = np.array(cc_svc.load_graph(G).arrays["labels"])
    check = serve_read.Checker(g, source)
    ref = check.ref

    fu, fv, fw = msf.msf_u.copy(), msf.msf_v.copy(), msf.msf_w.copy()
    report("true forest passes", reference.same_forest(ref, fu, fv, fw))
    heavier = np.flatnonzero(~np.isin(g.w, fw) & (g.w > fw[0]))[0]
    fu[0], fv[0], fw[0] = g.u[heavier], g.v[heavier], g.w[heavier]
    report("forest edge swapped for a heavier edge is caught",
           not reference.same_forest(ref, fu, fv, fw))

    report("true distances pass", reference.same_distances(check.dist, dist))
    i = np.flatnonzero(np.isfinite(dist) & (dist > 0))[0]
    dist[i] += 1.0
    report("perturbed distance is caught",
           not reference.same_distances(check.dist, dist))

    report("true components pass", reference.same_partition(ref.comp, labels))
    sizes = np.bincount(labels, minlength=g.n)
    x = np.flatnonzero(sizes[labels] > 1)[-1]
    labels[x] = labels[np.flatnonzero(labels != labels[x])[0]]
    report("vertex moved to another component is caught",
           not reference.same_partition(ref.comp, labels))

    reads = serve_read.make_reads(np.random.default_rng(1), g.n, 400)
    answers = np.empty(len(reads))
    for i in range(len(reads)):
        kind, u, v = reads.args(i)
        answers[i] = {
            "connected": lambda: msf_svc.connected(u, v),
            "bottleneck": lambda: msf_svc.bottleneck(u, v),
            "component": lambda: msf_svc.component_id(u),
            "dist": lambda: sssp_svc.dist(u),
            "same": lambda: cc_svc.same_component(u, v),
        }[kind]()
    report("true served answers pass", bool(check.ok(reads, answers).all()))
    for k, kind in enumerate(serve_read.KINDS):
        i = np.flatnonzero((reads.kind == k) & (reads.u != reads.v))[0]
        planted = answers.copy()
        planted[i] = 1.0 - planted[i] if kind in ("connected", "same") else planted[i] + 1
        ok = check.ok(reads, planted)
        report(f"wrong served {kind} answer is caught",
               not ok[i] and bool(np.delete(ok, i).all()))


def _workloads(tmp, report) -> None:
    import numpy as np

    import cold_build
    import mutate
    import serve_read
    from common import Context
    from repro.service import MSTService
    from repro.service.artifacts import ArtifactStore
    from repro.service.engine import QueryEngine
    from repro.solve.artifacts import ProblemArtifactStore

    def ctx(name, seconds):
        path = tmp / name
        path.mkdir()
        return Context(seed=3, seconds=seconds, tmp=path)

    build = cold_build.build

    def wrong_sssp(inp, store):
        g, (msf, sssp, cc) = build(inp, store)
        dist = np.array(sssp.arrays["dist"])
        dist[inp.source] += 1.0
        return g, (msf, dataclasses.replace(sssp, arrays={**sssp.arrays, "dist": dist}), cc)

    cold_build.build = wrong_sssp
    try:
        res = cold_build.run(ctx("cold", 0.01))
    finally:
        cold_build.build = build
    report("cold-build counts a wrong distance as failed",
           res.attempted == 2 and res.failed == 2 and "latency_ms" not in res.end_to_end)

    def skip_save(self, artifact):
        return self.path_for(artifact.fingerprint)

    for store_cls, what in ((ArtifactStore, "MSF"), (ProblemArtifactStore, "SSSP and CC")):
        save = store_cls.save
        store_cls.save = skip_save
        try:
            res = cold_build.run(ctx(f"cold-unsaved-{store_cls.__name__}", 0.01))
        finally:
            store_cls.save = save
        report(f"cold-build counts unpersisted {what} artifacts as failed",
               res.attempted == 2 and res.failed == 2)

    neck = QueryEngine.bottleneck_many
    QueryEngine.bottleneck_many = lambda self, us, vs: neck(self, us, vs) + 1.0
    try:
        res = serve_read.run(ctx("serve", 2.0))
    finally:
        QueryEngine.bottleneck_many = neck
    report("serve-read counts wrong bottleneck answers as failed",
           0 < res.failed < res.attempted)

    delete = MSTService.delete_edge
    MSTService.delete_edge = lambda self, u, v, w=None: None
    try:
        res = mutate.run(ctx("mutate", 0.01))
    finally:
        MSTService.delete_edge = delete
    report("mutate counts a lost delete as failed", res.failed >= 1)

    save = ArtifactStore.save
    ArtifactStore.save = skip_save
    try:
        res = mutate.run(ctx("mutate-unsaved", 0.01))
    finally:
        ArtifactStore.save = save
    report("mutate counts an unpersisted mutation as failed",
           res.attempted >= 1 and res.failed == res.attempted)


def main() -> int:
    missed = []

    def report(name: str, caught: bool) -> None:
        print(("ok     " if caught else "FAILED ") + name, flush=True)
        if not caught:
            missed.append(name)

    with workspace() as tmp:
        _check_functions(tmp, report)
        _workloads(tmp, report)
    print(f"{'all checks behave' if not missed else f'{len(missed)} check(s) misbehave'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
