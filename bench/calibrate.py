"""Error tolerances of the workloads' accuracy gates.

Usage (from the repository root):

    python3 bench/calibrate.py --seeds 30 --point-ops 100

Runs each workload's operation with gates off on workload seeds
1000, 1001, ... (one operation per seed for a study, ``--point-ops``
per seed for the point workload), prints the largest (value, gradient)
error seen and the tolerance derived from it: ``MARGIN`` times that
maximum, rounded up to two significant digits.  The tolerances in
workloads.py were set this way; README.md records the run.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS, Runner  # noqa: E402

MARGIN = 3.0
FIRST_SEED = 1000


def round_up(x: float) -> float:
    """x rounded up to two significant digits."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 1)
    return float(f"{math.ceil(x / scale) * scale:.2g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30)
    parser.add_argument("--point-ops", type=int, default=100)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        wl = dataclasses.replace(WORKLOADS[name], tol_value=math.inf, tol_grad=math.inf)
        ops = args.point_ops if wl.kind == "point" else 1
        errors = []
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            runner = Runner(wl, seed)
            for i in range(ops):
                outcome = runner.run_op(i)
                if outcome.error is not None:
                    raise SystemExit(f"{name} seed {seed} op {i}: {outcome.error}")
                errors.append(outcome.errors)
        worst = [max(e[k] for e in errors) for k in (0, 1)]
        print(json.dumps({
            "workload": name, "seeds": args.seeds, "operations": len(errors),
            "max_value_error": worst[0], "max_grad_error": worst[1],
            "tol_value": round_up(MARGIN * worst[0]), "tol_grad": round_up(MARGIN * worst[1]),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
