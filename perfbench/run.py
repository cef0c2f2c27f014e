"""nilcalc benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {staircase,certify,oracle}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (or anywhere: paths are taken
from this file); nilcalc is imported from the checkout's `src/`.  Every
measured process is a fresh interpreter with numpy's thread pools held
to 1, running one workload as a closed loop of whole rounds.

--trace 0 prints the end-to-end metrics.  The run makes passes over
the same seeded rounds, each in a fresh process: the first runs for
S * FIRST_PASS_SHARE seconds of scaled loop time (see below; and at
least worker.MIN_OPS operations) and has every answer checked; the
others repeat exactly its rounds, must give the same answers, and go
on while another pass of the first one's length fits in S seconds of
loop time (MIN_PASSES to PASSES passes).  The speed of the machine
drifts by up to 2x over seconds to minutes for the same work, so every
wall time is scaled to worker.REFERENCE_SPEED_S by the machine speed
that worker.machine_speed() measures before and after the operation's
round, and
  * latency_p50_ms / latency_p90_ms are percentiles over operations of
    each operation's median scaled time across the passes,
  * ops_per_s is the number of operations in a pass over the sum of
    those median times,
  * peak_rss_mb is the median of the passes' ru_maxrss,
  * setup_s is the median, over the passes and SETUP_PROBES processes
    that only set up, of the scaled time from starting the interpreter
    to the first operation being ready (importing nilcalc, building
    inputs).

--trace 1 prints the per-layer metrics: the same rounds run untraced
(for S/3 seconds of scaled loop time) and then traced, in two fresh
processes that must give identical answers; trace.overhead_s is the
traced loop time minus the untraced, both scaled to the reference
speed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A copy of it with the raw
worker reports goes to perfbench/runs/, with the spans of a traced run
next to it.  A missing source tree or a crashed worker exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REFERENCE_SPEED_S, geo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
WORKLOADS = ("staircase", "certify", "oracle")
FIRST_PASS_SHARE = 1 / 6
PASSES = 12
MIN_PASSES = 3
SETUP_PROBES = 2
# a worker is killed after max(WORKER_TIMEOUT_S, 4 x the run's --seconds)
# when it runs for a time, or max(WORKER_TIMEOUT_S, 10 x the loop time of
# the pass it repeats), so that a much slower program is still measured
WORKER_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, *mode: str,
           timeout: float = WORKER_TIMEOUT_S):
    """Run one worker process; returns (setup seconds, its JSON report)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *mode]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        if code == -9:
            mode += (f"(killed after {timeout:.0f} s)",)
        raise BenchError(f"worker {' '.join(mode)} exited {code}")
    lines = rest.strip().splitlines()
    report = json.loads(lines[-1]) if lines else None
    return ready - started, report


def _same_answers(reports) -> bool:
    if len({r["digest"] for r in reports}) == 1:
        return True
    print("passes over the same rounds gave different answers",
          file=sys.stderr)
    return False


def scaled_latencies(report) -> list:
    """Each operation's wall time scaled to the reference speed, by the
    mean of the machine speeds measured before and after its round."""
    speed = [geo(s) for s in report["speed_s"]]
    per_round = len(report["latencies_s"]) // report["rounds"]
    return [t * 2 * REFERENCE_SPEED_S
            / (speed[i // per_round] + speed[i // per_round + 1])
            for i, t in enumerate(report["latencies_s"])]


def scaled_setup(setup_s: float, report) -> float:
    return setup_s * REFERENCE_SPEED_S / geo(report["speed_s"][0])


def end_to_end(args) -> dict:
    setups = [scaled_setup(*worker(args.workload, args.seed, "--setup-only"))
              for _ in range(SETUP_PROBES)]
    limit = max(WORKER_TIMEOUT_S, 4 * args.seconds)
    setup, first = worker(args.workload, args.seed, "--check", "--seconds",
                          str(args.seconds * FIRST_PASS_SHARE), timeout=limit)
    setups.append(scaled_setup(setup, first))
    passes = [first]
    while len(passes) < MIN_PASSES or (
            len(passes) < PASSES and first["loop_s"]
            + sum(p["loop_s"] for p in passes) <= args.seconds):
        setup, report = worker(
            args.workload, args.seed, "--rounds", str(first["rounds"]),
            timeout=max(WORKER_TIMEOUT_S, 10 * first["loop_s"]))
        setups.append(scaled_setup(setup, report))
        passes.append(report)
    typical = [statistics.median(times) for times in
               zip(*(scaled_latencies(p) for p in passes))]
    p90 = statistics.quantiles(typical, n=10)[8]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report = dict(first, correct=first["correct"] and _same_answers(passes),
                  operations=len(typical),
                  beyond_p90=sum(1 for v in typical if v > p90))
    return {"report": report, "passes": passes, "setups": setups,
            "values": values, "units": END_TO_END}


def per_layer(args, spans: Path) -> dict:
    from tracing import PER_LAYER
    _, plain = worker(args.workload, args.seed, "--check", "--seconds",
                      str(args.seconds / 3),
                      timeout=max(WORKER_TIMEOUT_S, 4 * args.seconds))
    _, traced = worker(args.workload, args.seed,
                       "--rounds", str(plain["rounds"]), "--trace",
                       "--spans", str(spans),
                       timeout=max(WORKER_TIMEOUT_S, 10 * plain["loop_s"]))
    values = dict(traced["layers"])
    values["trace.overhead_s"] = sum(scaled_latencies(traced)) \
        - sum(scaled_latencies(plain))
    for r in (plain, traced):
        del r["latencies_s"]
    report = dict(plain, correct=plain["correct"]
                  and _same_answers([plain, traced]))
    return {"report": report, "traced": traced, "values": values,
            "units": PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilcalc" / "__init__.py").is_file():
        print(f"error: no nilcalc source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = per_layer(args, stem.with_suffix(".spans.tsv")) if args.trace \
            else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run["report"]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": run["values"][name], "unit": unit}
                    for name, unit in run["units"].items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        dict(run, result=result), indent=1))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {report['attempted']}, failed {report['failed']} "
          f"{report['failed_kinds']}, correct {report['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
