"""Benchmark entry point: run one workload in this (fresh) process.

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``, 0 for a layer the workload never enters.  The traced run
also prints its end-to-end figures on the line before, for the tracing
overhead.  Stores, input files and the autotune path live in a
temporary directory under ``.perfbench_tmp/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import Context, manifest, peak_rss_mb, workspace

WORKLOADS = ("cold-build", "serve-read", "mutate")


def _metrics(table: dict, specs: list[dict]) -> dict:
    """The manifest's metrics, in order, from ``table`` (name -> (value, unit)).

    A metric the run did not measure reads 0.0: a layer the workload never
    enters, or an end-to-end metric when no operation passed its checks
    (the caller makes that run incorrect).
    """
    unknown = set(table) - {spec["name"] for spec in specs}
    if unknown:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for spec in specs:
        value, unit = table.get(spec["name"], (0.0, spec["unit"]))
        if unit != spec["unit"]:
            raise SystemExit(f"perfbench: {spec['name']} measured in {unit}, "
                             f"BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with workspace() as tmp:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        workload = __import__(args.workload.replace("-", "_"))
        ctx = Context(seed=args.seed, seconds=args.seconds, tmp=tmp, tracer=tracer)
        result = workload.run(ctx)
        result.e2e("peak_rss_mb", peak_rss_mb(), "MB")

    spec = manifest()
    end_to_end = _metrics(result.end_to_end, spec["end_to_end"])
    measured = all(m["name"] in result.end_to_end for m in spec["end_to_end"])
    if args.trace:
        print(json.dumps({"end_to_end": end_to_end}))
    metrics = _metrics(result.per_layer, spec["per_layer"]) if args.trace else end_to_end
    print(json.dumps({
        "correct": result.attempted > 0 and result.failed == 0 and measured,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
