"""Benchmark for wildbraid: seeded workloads, checked answers, JSON metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

The run repeats whole rounds until ``--seconds`` have passed (a round is
the seed's fixed op list).  Every round is a fresh single-threaded Python
process, so the package's module caches start empty each time.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics).  See perfbench/README.md.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 11  # set-ups measured per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run never lasts longer than this
CAL_EVERY_S = 0.01  # a calibration sample after an op once this much time has passed
CAL_REF_S = 1.0e-4  # the reference time of one calibration sample (see calibrate)


def _calibration_loop() -> int:
    """A fixed piece of pure-Python work of the kind the package does:
    small int tuples, dict and set traffic, integer arithmetic."""
    seen: dict[tuple, int] = {}
    for i in range(1, 300):
        key = (i % 7, i * 3 % 11, -i)
        seen[key] = seen.get(key, 0) + i * i % 13
    return len({k[:2] for k in seen}) + sum(seen.values())


def calibrate() -> float:
    """The machine's current pace: the fastest of three timed calibration loops.

    On a shared machine the pace changes by a factor of up to two in spells
    that last from seconds to minutes.  Each op's wall time is scaled by
    CAL_REF_S over the calibration time taken just before and after it, so
    the benchmark reports times at one fixed pace.  The program's own speed
    does not enter the calibration, so a change to the program moves the
    scaled times just as it moves wall times.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


class Tracer:
    """Spans (name, start, end, parent, op) and counters, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self, scales: dict) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans,
        scaled like the op (or the set-up, op None) that the span is in."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, op), cov in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + ((end - start) - cov) * scales[op]
        return out


class NoTracer:
    op = None

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, k=1):
        pass


def layer_metrics(tr: Tracer, scales: dict, names) -> dict[str, float]:
    """Per-layer metrics of one round: ``*_s`` self times, counts, one ratio."""
    times = tr.self_times(scales)
    counts = dict(tr.counts)
    decisions = counts.get("braid.decisions", 0)
    counts["braid.prefilter_share"] = counts.get("braid.prefiltered", 0) / decisions if decisions else 0.0
    return {
        name: times.get(name[:-2], 0.0) if name.endswith("_s") else counts.get(name, 0)
        for name in names
    }


# ---------------------------------------------------------------------------
# One round, in a fresh process
# ---------------------------------------------------------------------------


def child(cfg: dict) -> dict:
    """Plan, set up, run and check one round; return raw figures."""
    from workloads import WORKLOADS  # the benchmark's own modules

    wl = WORKLOADS[cfg["workload"]]
    plan = wl.plan(cfg["seed"], cfg["quick"])
    tr = Tracer() if cfg["trace"] else NoTracer()
    sys.path.insert(0, SRC)
    cal_before = calibrate()
    t0 = time.perf_counter()
    for name in wl.modules:
        importlib.import_module(name)
    pkg = sys.modules["wildbraid"]
    wb = types.SimpleNamespace(**{
        m: getattr(pkg, m) for m in ("cli", "fission", "rootsys", "linalg", "braid", "stokes")
        if hasattr(pkg, m)
    })
    ops = wl.setup(wb, plan, tr)
    setup_s = time.perf_counter() - t0
    cal = calibrate()
    scales = {None: 2 * CAL_REF_S / (cal_before + cal)}  # op index (None: set-up) -> scale
    setup_s *= scales[None]
    del plan  # so that ru_maxrss holds mainly what the program allocated
    origin = os.path.dirname(os.path.abspath(pkg.__file__))
    if origin != os.path.join(SRC, "wildbraid"):
        raise SystemExit(f"wildbraid was imported from {origin}, not from {SRC}")
    if cfg["setup_only"]:
        return {"setup_s": setup_s}
    if cfg["inject_wrong"]:
        wl.corrupt(ops[-1])
    op_s, failed, wrong, errors = [], 0, 0, []
    pending, cal_at = [], time.perf_counter()  # times of the ops since the last calibration
    for i, op in enumerate(ops):
        tr.op = i
        message = None
        start = time.perf_counter()
        try:
            out = tr.call("op", wl.run_traced, wb, op, tr) if cfg["trace"] else wl.run(wb, op)
        except Exception as exc:  # a failed op is counted, the round goes on
            message = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        pending.append(end - start)
        if message is None:
            try:
                message = wl.check(op, out)
            except Exception as exc:  # output the check cannot read is a wrong answer
                message = f"unreadable output: {type(exc).__name__}: {exc}"
            wrong += bool(message)
        if message:
            failed += 1
            errors.append(f"{op['label']}: {message}")
        if end - cal_at >= CAL_EVERY_S or i == len(ops) - 1:
            cal_next = calibrate()
            scale = 2 * CAL_REF_S / (cal + cal_next)
            scales.update((k, scale) for k in range(len(op_s), len(op_s) + len(pending)))
            op_s += [t * scale for t in pending]
            pending, cal, cal_at = [], cal_next, time.perf_counter()
    import resource

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:5],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if cfg["trace"]:
        result["layers"] = layer_metrics(tr, scales, cfg["per_layer"])
        result["spans"] = tr.spans
    return result


def run_child(cfg: dict, deadline: float) -> dict:
    import subprocess

    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--child", json.dumps(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"round process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# A run: rounds until --seconds, then the metrics
# ---------------------------------------------------------------------------


def tail_percentile(ops_per_round: int) -> int:
    """The highest whole percentile with at least ten of a round's ops beyond it
    (the median when a round has fewer than forty ops)."""
    if ops_per_round < 40:
        return 50
    return (100 * (ops_per_round - 10)) // ops_per_round


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-pct * len(sorted_values) // 100) - 1)
    return sorted_values[k]


def main(argv=None) -> int:
    import argparse
    import statistics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small round per workload")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="give the checker one wrong expected answer (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wildbraid", "__init__.py")):
        print(f"error: no wildbraid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import compileall

    # Byte-compile up front, so that no round's set-up pays for it.
    compileall.compile_dir(os.path.join(SRC, "wildbraid"), quiet=1)

    per_layer = [m["name"] for m in spec["per_layer"]]
    cfg = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "quick": args.quick,
           "setup_only": False, "inject_wrong": args.inject_wrong, "per_layer": per_layer}
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while not rounds or (not args.quick and time.monotonic() - start < args.seconds):
        rounds.append(run_child(cfg, deadline))

    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for e in rounds[0]["errors"]:
        print(f"failed op: {e}", file=sys.stderr)
    # Every round makes the same ops, so each op has one scaled time per
    # round; the run keeps each op's median over its rounds.
    op_s = sorted(statistics.median(times) for times in zip(*(r["op_s"] for r in rounds)))
    ops_per_s = (attempted - failed) / len(rounds) / sum(op_s)
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in rounds) for name in per_layer
        }
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "traced_ops_per_s": ops_per_s,
                "span_fields": ["name", "start", "end", "parent", "op"],
                "rounds": [{"layers": r["layers"], "spans": r["spans"]} for r in rounds],
            }, fh)
        print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        metric_specs = spec["per_layer"]
    else:
        setups = [r["setup_s"] for r in rounds]
        while not args.quick and len(setups) < SETUP_SAMPLES:
            setups.append(run_child(dict(cfg, setup_only=True), deadline)["setup_s"])
        pct = tail_percentile(len(rounds[0]["op_s"]))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_tail_ms": percentile(op_s, pct) * 1e3,
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        }
        print(f"{args.workload}: {len(rounds)} rounds, {attempted} ops, tail = p{pct}",
              file=sys.stderr)
        metric_specs = spec["end_to_end"]
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(json.loads(sys.argv[2]))))
    else:
        sys.exit(main())
