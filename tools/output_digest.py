"""One SHA-256 over the estimator's outputs, under the compiled kernel and under the numpy references.

Run from the repository root:

    PYTHONPATH=src python tools/output_digest.py

It prints ``kernel <sha256>`` and ``numpy <sha256>`` and exits 1 if they
differ (or if the kernel did not load, so there is nothing to compare).
For the second line it sets ``_bits._KERNEL = None``, which switches
every sampling and node-group call to the numpy references.  A change
that must keep every output bit-identical keeps both lines equal to
those of its parent commit; run a copy of this script there to compare.

The digest covers ``mlp_estimate`` components and counters at every
level with n, M, Q <= 3 plus one n = M = Q = 4 point, ``mc_l2_error``
at 1 and 2 threads and ``discrete_fk_residual`` at n = 1 and 2, for
sine d = 2, 3 and 8 and heat d = 3 and 10 (the residual check only up to
d = 3), at s = 0 and 0.4, so each problem runs on both sides of the
d <= 7 row sums of ``problems``.  The point estimates run at the default
fold cap and at a cap of 40 Gaussians, which splits the Q nodes into
groups of one and of several; together with M = 1 (one sample per
level) and the replication batches they run B = 1 and B > 1 lanes,
shared and per-lane times.  It also covers the public key API: the state words of
``state_for_key`` and the increments of ``sample_path`` for keys from
the empty one to five labels, at the int64 extremes and at two seeds,
and the point the CLI draws for ``--x random-in-box``.  It takes some
seconds.
"""

from __future__ import annotations

import hashlib
import sys
from unittest import mock

import numpy as np

from mlpicard import _bits, cli, mlp_core
from mlpicard.mlp_core import CostCounters, discrete_fk_residual, mc_l2_error, mlp_estimate
from mlpicard.problems import build_problem
from mlpicard.randomness import sample_path, state_for_key

PROBLEMS = (
    ("manufactured_sine", 2), ("manufactured_sine", 3), ("manufactured_sine", 8),
    ("heat_quadratic", 3), ("heat_quadratic", 10),
)
LEVELS = [(n, M, Q) for n in (1, 2, 3) for M in (1, 2, 3) for Q in (1, 2, 3)]
KEYS = ((), (0,), (-(2**63), 2**63 - 1), (3, -1, 0, 2**40, -5))


def _feed(digest, *values) -> None:
    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())


def _counts(counters: CostCounters) -> tuple:
    return counters.gaussians_drawn, counters.f_evals, counters.g_evals


def output_digest() -> str:
    digest = hashlib.sha256()
    for seed in (0, 2**64 - 1):
        for key in KEYS:
            for words in state_for_key(seed, key):
                digest.update(words.tobytes())
            _feed(digest, sample_path(seed, key, 3, 0.25, [0.5, 0.75, 1.5]))
    for name, dim in PROBLEMS:
        config = cli.ExperimentConfig(problem=name, dim=dim, x="random-in-box", seed=9)
        _feed(digest, cli._resolve_x(config, build_problem(name, dim=dim)))
    for name, dim in PROBLEMS:
        problem = build_problem(name, dim=dim)
        x = np.linspace(-0.3, 0.2, dim)
        for s in (0.0, 0.4):
            for cap in (mlp_core._FOLD_CAP, 40):
                with mock.patch.object(mlp_core, "_FOLD_CAP", cap):  # restored even if an estimate raises
                    for n, M, Q in LEVELS:
                        counters = CostCounters()
                        est = mlp_estimate(problem, n, M, Q, key=(n, -M), seed=11, s=s, x=x, counters=counters)
                        _feed(digest, est.components, _counts(counters))
            if dim == 2:
                counters = CostCounters()
                _feed(digest, mlp_estimate(problem, 4, 4, 4, seed=5, s=s, x=x, counters=counters).components)
                _feed(digest, _counts(counters))
            for n, M, Q in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 1)):
                for threads in (1, 2):
                    counters = CostCounters()
                    report = mc_l2_error(
                        problem, n, M, Q, s, x, 6, seed=3, key=(7,), threads=threads, counters=counters
                    )
                    _feed(digest, report.estimates, report.component_errors, report.component_ses, _counts(counters))
            if dim <= 3:
                for n, M, Q in ((1, 2, 3), (2, 3, 2), (2, 1, 3)):
                    residual = discrete_fk_residual(problem, n, M, Q, s, x, 8, seed=21, key=(1, 2))
                    _feed(digest, residual.residual, residual.radius)
    return digest.hexdigest()


def main() -> int:
    if _bits._KERNEL is None:
        print(f"no compiled kernel ({_bits._FALLBACK_REASON}); nothing to compare", file=sys.stderr)
        return 1
    kernel = output_digest()
    print(f"kernel {kernel}")
    _bits._KERNEL = None
    numpy = output_digest()
    print(f"numpy {numpy}")
    return 0 if kernel == numpy else 1


if __name__ == "__main__":
    sys.exit(main())
