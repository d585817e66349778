"""Steadiness check: repeat every workload and compare spreads with bounds.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 [--seconds N] [--seed 100]
        [--workload wire-576 ...]

Each round runs every workload once as a fresh ``run.py`` process, with
its own seed (``--seed`` plus the round number); odd rounds run the
workloads in reverse order, so drift of the host does not always land on
the same workload.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread -- the
interquartile distance as a share of the median -- and the metric's bound
from ``BENCHMARK.json``.  All values also go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}"
                           f"\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    shares = {w: [] for w in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else list(reversed(names))
        for w in order:
            res = one_run(w, args.seed + r, args.seconds)
            if not res["correct"]:
                print(f"{w} seed {args.seed + r}: outputs failed the checks")
                return 1
            shares[w].append(res["failed"] / res["attempted"])
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"round {r} {w}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds),
                flush=True)
    worst = 0.0
    print(f"\n{'workload':12s} {'metric':18s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'/bound':>7s}")
    for w in names:
        for m, bound in bounds.items():
            v = values[w][m]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            print(f"{w:12s} {m:18s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f} {spread / bound:7.2f}")
        print(f"{w:12s} failed share per run: {sorted(set(shares[w]))}")
    print(f"\nlargest spread/bound: {worst:.2f}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"seconds": args.seconds, "seed": args.seed, "values": values},
        indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
