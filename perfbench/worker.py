"""One measured process: set up a workload, run whole rounds, check.

Usage (normally started by run.py, which holds the thread pools to 1):

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --rounds R | --setup-only)
        [--check] [--trace] [--spans FILE]

The process prints `READY` once nilcalc is imported and the first
round's inputs are built, measures the machine's speed (see
`machine_speed`), then runs rounds as a closed loop (one caller; each
operation starts when the previous one returns) until --seconds of
loop time scaled to REFERENCE_SPEED_S have passed and at least MIN_OPS
operations are done (or the workload's max_rounds are reached), or
until --rounds are done.
With --check every answer is then compared with the independent
computation.  The machine's speed is measured again after every
round.  One JSON line with the counts, the latency of every operation,
the speeds, a digest of the answers and the check outcome ends its
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 100  # so that at least ten operations lie beyond the p90
# machine_speed() at the speed all times are scaled to: the kernels'
# time in the fast phases of the 2-vCPU Xeon virtual machine the
# benchmark's bounds were set on
REFERENCE_SPEED_S = 0.65e-3
SPEED_REPS = 8


def import_nilcalc():
    sys.path.insert(0, str(SRC))
    import nilcalc
    import nilcalc.cli  # noqa: F401  (the certify workload drives it)
    if Path(nilcalc.__file__).resolve().parent != SRC / "nilcalc":
        raise SystemExit(f"nilcalc was imported from {nilcalc.__file__}, "
                         f"not from {SRC}")
    return nilcalc


def _python_kernel() -> None:
    acc, seen = Fraction(0), {}
    for i in range(1, 200):
        q = Fraction(i, i % 7 + 3)
        acc += q * q - Fraction(1, i)
        seen[str(i % 97)] = acc.numerator % 1000


_GRID = []


def _numpy_kernel() -> None:
    import numpy as np  # after READY, so never part of the set-up time
    if not _GRID:
        _GRID.append(np.linspace(0.0, 1.0, 40_000))
    grid = _GRID[0]
    float(np.exp(-grid * grid).sum() + np.log1p(grid).sum())


def machine_speed() -> list:
    """Seconds per calibration kernel at the machine's current speed:
    a pure-Python `Fraction` kernel and a numpy kernel (the two kinds of
    work nilcalc does), each the least of SPEED_REPS runs.  Neither
    kernel touches nilcalc, so a change to the program cannot move
    them."""
    out = []
    for kernel in (_python_kernel, _numpy_kernel):
        best = float("inf")
        for _ in range(SPEED_REPS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        out.append(best)
    return out


def geo(speed) -> float:
    """One machine_speed() measurement as the geometric mean of its
    kernel times, the number all wall times are scaled by."""
    return (speed[0] * speed[1]) ** 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    nilcalc = import_nilcalc()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(nilcalc)
    pending = workload.round()
    print("READY", flush=True)
    speed = [machine_speed()]
    if args.setup_only:
        print(json.dumps({"speed_s": speed}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    records, latencies = [], []
    loop_s, scaled_s, rounds, failed = 0.0, 0.0, 0, 0
    clock = time.perf_counter
    while True:
        ops = pending if pending is not None else workload.round()
        pending = None
        round_start = clock()
        for op in ops:
            start = clock()
            try:
                answer, op_failed = workload.execute(op)
            except Exception as exc:  # a traceback is a failed operation
                answer, op_failed = ("raised", type(exc).__name__), True
            latencies.append(clock() - start)
            records.append((op, answer, op_failed))
            failed += op_failed
        round_s = clock() - round_start
        speed.append(machine_speed())
        loop_s += round_s
        scaled_s += round_s * 2 * REFERENCE_SPEED_S / (
            geo(speed[-2]) + geo(speed[-1]))
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif (scaled_s >= args.seconds and len(records) >= MIN_OPS) \
                or rounds == workload.max_rounds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(0.0)
        if args.spans:
            tracer.write_spans(args.spans)

    problems = []
    digest = hashlib.sha256()
    for op, answer, op_failed in records:
        digest.update(repr((op.kind, answer, op_failed)).encode())
        if op_failed or not args.check:
            continue
        try:
            workload.check(op, answer)
        except Exception as exc:  # every checker failure is reported
            problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    result = {
        "rounds": rounds,
        "attempted": len(records),
        "failed": failed,
        "failed_kinds": sorted({op.kind for op, _, f in records if f}),
        "correct": not problems,
        "loop_s": loop_s,
        "latencies_s": latencies,
        "speed_s": speed,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
