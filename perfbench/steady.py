"""Steadiness command: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --workloads serve-read --runs 5 --trace 1

Each run is a fresh ``run.py`` process with its own seed (``seed0``,
``seed0 + 1``, ...), one at a time.  For every metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the relative spread ``(q3 - q1) / median``, next to the bound from
``BENCHMARK.json``; it also prints the share of failed operations and
the wall time per run, and exits 1 if any run was not correct.  With
``--trace 1`` it prints the per-layer metrics and the end-to-end figures
of the traced runs, whose medians against an untraced set give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    e2e = json.loads(lines[-2])["end_to_end"] if trace else last["metrics"]
    return last, e2e, wall


def spread_table(rows: list[dict], bounds: dict) -> list[str]:
    names = sorted({name for row in rows for name in row})
    out = [f"  {'metric':36s} {'unit':>6s} {'n':>3s} {'median':>12s} {'q1':>12s} "
           f"{'q3':>12s} {'spread':>7s} {'bound':>6s}"]
    for name in names:
        vals = [row[name]["value"] for row in rows if name in row]
        unit = next(row[name]["unit"] for row in rows if name in row)
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        out.append(f"  {name:36s} {unit:>6s} {len(vals):3d} {med:12.4f} {q1:12.4f} "
                   f"{q3:12.4f} {spread:7.3f} {'' if bound is None else bound:>6}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    incorrect = []
    for workload in args.workloads:
        results, e2e_rows, walls = [], [], []
        for i in range(args.runs):
            last, e2e, wall = run_once(workload, args.seed0 + i, args.seconds, args.trace)
            results.append(last)
            e2e_rows.append(e2e)
            walls.append(wall)
            if not last["correct"]:
                incorrect.append(f"{workload} seed={args.seed0 + i}")
            print(f"# {workload} seed={args.seed0 + i} wall={wall:.1f}s "
                  f"attempted={last['attempted']} failed={last['failed']} "
                  f"correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(e2e.items())),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: runs={args.runs} seconds={args.seconds} trace={args.trace} "
              f"failed share(s)={shares} wall median={statistics.median(walls):.1f}s "
              f"max={max(walls):.1f}s")
        if args.trace:
            print(" end-to-end (traced):")
            print("\n".join(spread_table(e2e_rows, bounds)))
            print(" per-layer:")
            print("\n".join(spread_table([r["metrics"] for r in results], {})))
        else:
            print("\n".join(spread_table(e2e_rows, bounds)))
        sys.stdout.flush()
    if incorrect:
        print("INCORRECT runs (a failed operation): " + ", ".join(incorrect))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
