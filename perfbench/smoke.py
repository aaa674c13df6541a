"""Smoke test of the benchmark itself; takes about half a minute.

    python3 perfbench/smoke.py

For every workload it runs the quick mode (one small round) untraced and
traced, and checks that the answers are correct and every metric of
BENCHMARK.json is printed.  It then gives the checker one wrong expected
answer and checks that exactly that op is counted as failed, and finally
runs the benchmark in a directory that holds only BENCHMARK.json and
perfbench/, where it must fail without printing a result.  Exit code 0
when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(root: str, workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}:\n{proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        plain = result_of(bench(ROOT, w, "--quick", "--trace", "0"))
        traced = result_of(bench(ROOT, w, "--quick", "--trace", "1"))
        wrong = result_of(bench(ROOT, w, "--quick", "--trace", "0", "--inject-wrong"))
        for name, r, metrics in (("untraced", plain, spec["end_to_end"]),
                                 ("traced", traced, spec["per_layer"])):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} {name}: correct={r['correct']} failed={r['failed']}")
            if set(r["metrics"]) != {m["name"] for m in metrics}:
                problems.append(f"{w} {name}: metrics {sorted(r['metrics'])}")
        if any(v["value"] <= 0 for v in plain["metrics"].values()):
            problems.append(f"{w}: an end-to-end metric is not positive")
        if wrong["correct"] or wrong["failed"] != 1 or wrong["attempted"] != plain["attempted"]:
            problems.append(f"{w}: the wrong expected answer was not counted as one failed op")
        print(f"{w}: {plain['attempted']} ops checked; wrong answer caught: "
              f"{wrong['failed'] == 1 and not wrong['correct']}")

    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(bare, spec["workloads"][0]["name"])
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the sources the benchmark did not fail cleanly")
    print(f"without the sources: exit code {proc.returncode}, stdout {proc.stdout.strip()!r}")

    for p in problems:
        print(f"FAIL: {p}")
    print("smoke test passed" if not problems else "smoke test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
