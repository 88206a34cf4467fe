"""Layered benchmark of hrd: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  A
run repeats whole passes over the workload's seeded operation list until
the timed passes add up to ``--seconds``, checking every answer after each
pass.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` untraced passes alternate with
passes in which the program's public functions are wrapped; the traced
passes give the per-layer metrics, per pass, and the two kinds together
give the tracing overhead printed above the JSON.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from spans import per_pass
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    by_op: dict[str, list[float]] = field(default_factory=dict)
    passes: int = 0
    failed: int = 0
    wrong: int = 0
    busy: float = 0.0


def run_pass(workload, ops, phase: Phase, reported: set[str]) -> None:
    """One timed pass over ``ops``, then the check of every answer."""
    workload.before_pass()
    results = []
    for op in ops:
        error = None
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        dt = perf_counter() - t0
        phase.latencies.append(dt)
        phase.by_op.setdefault(op.name, []).append(dt)
        phase.busy += dt
        results.append((result, error))
    for op, (result, error) in zip(ops, results):
        if error is not None:
            phase.failed += 1
            if op.name not in reported:
                reported.add(op.name)
                print(f"operation {op.name} raised:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        elif not op.check(result):
            phase.failed += 1
            phase.wrong += 1
            if op.name not in reported:
                reported.add(op.name)
                print(f"operation {op.name} returned a wrong answer", file=sys.stderr)
    phase.passes += 1


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, no hrd code: tells host drift apart from
    a change in the program."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - t0)
    return median(times) * 1000


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hrd" / "__init__.py").is_file():
        print(f"no hrd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, OUT / args.workload)

    if args.setup_only:  # one set-up sample, in a fresh process
        t0 = perf_counter()
        workload.setup()
        print(perf_counter() - t0)
        return 0

    ref_start = reference_loop_ms()
    setup = [workload.setup_sample()]
    workload.expect()
    ops = workload.ops()

    reported: set[str] = set()
    if args.trace:
        # untraced and traced passes alternate, so host drift falls on both
        plain, traced = Phase(), Phase()
        while plain.busy + traced.busy < args.seconds:
            run_pass(workload, ops, plain, reported)
            workload.trace(True)
            run_pass(workload, ops, traced, reported)
            workload.trace(False)
        phases = [plain, traced]
        metrics = per_pass(workload.traced_totals(), traced.passes)
        metrics.update(workload.extra_layer_metrics())
        units = {name: _layer_unit(name) for name in metrics}
        per_op_plain, per_op_traced = plain.busy / len(plain.latencies), traced.busy / len(traced.latencies)
        print(
            f"tracing overhead: {per_op_traced * 1000:.3f} ms/op traced vs {per_op_plain * 1000:.3f} ms/op "
            f"untraced ({(per_op_traced / per_op_plain - 1) * 100:+.1f}%), {traced.passes} traced passes"
        )
        trace_path = OUT / f"trace-{args.workload}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": workload.trace_records()}, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        # further set-up samples are spread over the run, between passes,
        # so that they meet the same host speed as the operations
        phase = Phase()
        wanted = workload.SETUP_SAMPLES
        while phase.busy < args.seconds:
            run_pass(workload, ops, phase, reported)
            if len(setup) < wanted and phase.busy >= len(setup) * args.seconds / wanted:
                setup.append(workload.setup_sample())
        while len(setup) < wanted:
            setup.append(workload.setup_sample())
        phases = [phase]
        lat = phase.latencies
        metrics = {
            "ops_per_s": len(lat) / phase.busy,
            "op_p50_ms": median(lat) * 1000,
            "op_p90_ms": quantiles(lat, n=10)[8] * 1000,
            "setup_s": median(setup),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        print("op medians ms: " + json.dumps({k: round(median(v) * 1000, 2) for k, v in phase.by_op.items()}))

    ref_end = reference_loop_ms()
    attempted = sum(len(p.latencies) for p in phases)
    print(
        f"workload={args.workload} seed={args.seed} passes={sum(p.passes for p in phases)} ops={attempted} "
        f"setup_samples_s={[round(s, 4) for s in setup]}"
    )
    print(f"reference loop: {ref_start:.2f} ms at start, {ref_end:.2f} ms at end")
    result = {
        "correct": not any(p.wrong for p in phases),
        "attempted": attempted,
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("counting.memo_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
