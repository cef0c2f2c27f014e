"""Reference figures: the ROADMAP baseline rows, each in a fresh process.

    python3 perfbench/reference.py            # all rows, markdown table
    python3 perfbench/reference.py --row N    # one row, JSON

Wall time is one untraced call; the LP solve count of an exact row
comes from a second, traced call in another fresh process, so the
tracer's own cost never enters the wall time and no row sees another
row's cached LPs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS  # noqa: E402
from worker import import_nilcalc  # noqa: E402


def _rows(nilcalc):
    from fractions import Fraction as F
    ideals, oracle, toric = nilcalc.ideals, nilcalc.oracle, nilcalc.toric
    I3 = ideals.minimalize([(9, 0, 0), (0, 10, 0), (0, 0, 11), (2, 2, 2)])
    I2 = ideals.minimalize([(30, 0), (10, 4), (0, 31)])
    I4 = ideals.minimalize([(4, 0, 0, 0), (0, 5, 0, 0), (0, 0, 4, 0),
                            (0, 0, 0, 5), (1, 1, 1, 1)])
    J3 = ideals.minimalize([(9, 0, 0), (0, 10, 0), (0, 0, 11)])
    g3 = toric.pwl_min([((2, 0, 0), 0), ((0, 3, 0), 0), ((0, 0, 2), 0),
                        ((1, 1, 1), 0)])
    g2 = toric.pwl_min([((2, 0), 0), ((0, 3), 0), ((1, 1), 0)])
    A3, A2 = (F(3, 2),) * 3, (F(3, 2), F(3, 2))

    def orthant(g, A, m):
        cfg = oracle.OracleConfig(quadrature_points_per_axis=m)
        return lambda: oracle.orthant_exp_integral(g, A, cfg).verdict

    def count(ideal):
        return f"{len(ideal.generators)} generators"

    return [
        ("multiplier_ideal(x^9, y^10, z^11, x^2y^2z^2), c=2",
         lambda: count(ideals.multiplier_ideal(I3, 2))),
        ("same ideal, c=4", lambda: count(ideals.multiplier_ideal(I3, 4))),
        ("multiplier_ideal(x^30, x^10y^4, y^31), c=5",
         lambda: count(ideals.multiplier_ideal(I2, 5))),
        ("multiplier_ideal(x^4, y^5, z^4, w^5, xyzw), c=2",
         lambda: count(ideals.multiplier_ideal(I4, 2))),
        ("jumping_numbers(x^9, y^10, z^11), c_max=2",
         lambda: f"{len(ideals.jumping_numbers(J3, 2))} jumps"),
        ("orthant_exp_integral 3-d, 512 points per axis (default)",
         orthant(g3, A3, 512)),
        ("same, 128 points per axis", orthant(g3, A3, 128)),
        ("same, 64 points per axis", orthant(g3, A3, 64)),
        ("orthant_exp_integral 2-d, default", orthant(g2, A2, 512)),
    ]


def one_row(index: int, traced: bool) -> dict:
    nilcalc = import_nilcalc()
    label, call = _rows(nilcalc)[index]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    outcome = call()
    wall = time.perf_counter() - start
    out = {"row": label, "wall_s": wall, "outcome": outcome}
    if tracer is not None:
        tracer.uninstall()
        out["lp_solves"] = tracer.layer_metrics(0.0)["lp.maximize.calls"]
    return out


def _spawn(index: int, traced: bool) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, __file__, "--row", str(index)]
    if traced:
        cmd.append("--traced")
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--row", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.row is not None:
        print(json.dumps(one_row(args.row, args.traced)))
        return 0
    print("| workload | wall | LP solves | outcome |")
    print("|---|---|---|---|")
    for index in range(len(_rows(import_nilcalc()))):
        plain = _spawn(index, traced=False)
        lps = "—"
        if not plain["row"].startswith(("orthant", "same,")):
            lps = _spawn(index, traced=True)["lp_solves"]
        print(f"| `{plain['row']}` | {plain['wall_s']:.2f} s | {lps} | "
              f"{plain['outcome']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
