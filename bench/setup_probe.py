"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py '<workload as JSON>' <seed>

Prints the seconds from the start of ``import mlpicard`` until the
workload's warm-up operation completes: package import, problem build,
quadrature rule and any lazy kernel build.  Interpreter start-up is not
counted.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(spec: str, seed: str) -> int:
    start = time.perf_counter()
    import mlpicard  # noqa: F401
    from workloads import Runner, Workload

    outcome = Runner(Workload(**json.loads(spec)), int(seed)).warm_up()
    seconds = time.perf_counter() - start
    if outcome.replications == 0:  # the operation raised; a gate failure still completes it
        print(outcome.error, file=sys.stderr)
        return 1
    print(json.dumps(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
