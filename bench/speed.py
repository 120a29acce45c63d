"""Machine-speed probe, timed between the scenarios of a timed batch.

The benchmark runs on a share of a machine that other work also uses, and
the speed it gets drifts by 10-30% over tens of seconds: an identical batch
takes 2.9 s in one minute and 3.8 s in the next.  A median over one run
cannot remove a drift that lasts the whole run.  So a fixed piece of work,
the probe, runs before every scenario of a timed batch, and each batch's
time is scaled by ``REFERENCE_S`` / (the mean probe time of that batch):
the time the batch would have taken on a machine that runs the probe in
``REFERENCE_S``.  The probe is the benchmark's own code on fixed inputs, so
a change to vncat leaves it alone, and a change that makes vncat faster
makes the scaled times smaller exactly as it makes the raw ones.

The probe is singular values of a fixed complex 192 x 64 stack.  Timed
beside interpreted Python over dicts and small objects, numpy calls on 2x2
matrices and JSON round trips, on every workload, the SVD's time tracked
the batch times best: scaling by it took batch-to-batch variation from
7-14% down to 6.5-8%, where the other probes helped less or made it worse.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the machine the scaled times refer to, a 2-CPU
# x86-64 cloud VM with numpy 2.4 on scipy-openblas 0.3.31, one BLAS thread
REFERENCE_S = 0.015

REPEATS = 12

_rng = np.random.default_rng(20120901)
_STACK = _rng.standard_normal((192, 64)) + 1j * _rng.standard_normal((192, 64))


def probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        np.linalg.svd(_STACK, compute_uv=False)
    return time.perf_counter() - start
