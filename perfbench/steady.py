"""Steadiness check: run every workload in two sets of ten seeded runs and compare.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --overhead

Set 1 uses seeds 1-10 and set 2 seeds 101-110, so no two runs share a
seed.  Each run lasts run_seconds of BENCHMARK.json.  Runs go round-robin
over the workloads, so slow spells of the machine spread over all of them.
For every end-to-end metric the table gives each set's median and
quartiles, the spread (interquartile range over median) and the relative
difference of the two medians.  ``ok`` means both spreads and the
difference stay within the metric's bound in BENCHMARK.json.  The raw
figures go to perfbench/results/steady.json.

``--overhead`` runs each workload untraced and traced, three alternating
pairs with seed 1, and prints the median ratio of traced to untraced
ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # seeded runs per workload in each set


def bench(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def overhead(workloads: list[str], seconds: float, pairs: int = 3) -> None:
    """Median over alternating untraced/traced pairs of runs (seed 1)."""
    for w in workloads:
        ratios = []
        for _ in range(pairs):
            plain = bench(w, 1, seconds)["metrics"]["ops_per_s"]["value"]
            bench(w, 1, seconds, trace=1)
            with open(os.path.join(HERE, "results", f"trace-{w}-seed1.json")) as fh:
                ratios.append(json.load(fh)["traced_ops_per_s"] / plain)
        print(f"{w:16s} traced/untraced ops_per_s: median {statistics.median(ratios):.3f} "
              f"of {' '.join(f'{r:.3f}' for r in ratios)}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.overhead:
        overhead(workloads, seconds)
        return 0

    raw = {w: ([], []) for w in workloads}
    for k, first_seed in enumerate((1, 101)):
        for i in range(RUNS):
            for w in workloads:
                r = bench(w, first_seed + i, seconds)
                raw[w][k].append(r)
                print(f"set {k + 1} run {i + 1} {w}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()),
                      file=sys.stderr)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w") as fh:
        json.dump(raw, fh)

    all_ok = True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in raw[w] for r in runs}
        print(f"\n{w}: failed share {sorted(shares)}" + ("" if len(shares) == 1 else "  DIFFERS"))
        all_ok &= len(shares) == 1
        print(f"  {'metric':12s} {'bound':>5s}  " + "  ".join(
            f"{'set ' + str(k + 1) + ' median [q1, q3] spread':>40s}" for k in (0, 1))
            + "   diff  ok")
        for m in spec["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in runs]) for runs in raw[w]]
            diff = abs(sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            ok = diff <= m["bound"] and all(s["spread"] <= m["bound"] for s in sets)
            all_ok &= ok
            cells = "  ".join(
                f"{s['median']:10.4g} [{s['q1']:9.4g}, {s['q3']:9.4g}] {s['spread']:6.3f}" for s in sets)
            print(f"  {m['name']:12s} {m['bound']:5.2f}  {cells}  {diff:.3f}  {'yes' if ok else 'NO'}")
    print("\nall within bounds" if all_ok else "\nNOT all within bounds")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
