"""A fixed reference loop that times the machine, not the program.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over seconds to minutes as neighbours load the host. The loop below
does a fixed amount of interpreter and numpy work that never touches
ccfund; its wall time, taken before every timed call and after the last,
tells how fast the machine ran at that moment. run.py divides every time it reports by the
loop's time and multiplies by ``REF_S``, so the figures read as wall time
on a machine where the loop takes ``REF_S`` seconds. A change to ccfund
cannot move the loop, so it moves the scaled figures as it moves wall
time.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal wall time of one reference loop; scaled times are relative to it.
REF_S = 0.1

_RNG = np.random.default_rng(0x5EED)
#: 4 MiB, larger than a core's share of cache, like the solvers' tables.
_TABLE = _RNG.random((1 << 15, 16))
_WEIGHTS = _RNG.random(16)
_SMALL = _RNG.random((100, 10))


def _interpreter_work(rounds: int) -> float:
    """Small objects, sorting and tiny numpy calls, as in the per-cell path."""
    acc = 0.0
    for r in range(rounds):
        row = {j: (j * 0.5 + r, j % 3) for j in range(24)}
        order = sorted(row, key=lambda j: row[j][0] * (1 + row[j][1]))
        acc += sum(row[j][0] for j in order[:8]) + len([j for j in order if j & 1])
        col = _SMALL[:, r % 10]
        acc += float(np.minimum(col, 0.5).sum()) + float(col.max())
    return acc


def _array_work(rounds: int) -> float:
    """Weighted row sums and masks over a table, as in the solvers.

    Elementwise, not a matrix product: BLAS may spread a product over both
    vCPUs, and then the loop would time the other vCPU as well.
    """
    acc = 0.0
    for _ in range(rounds):
        scores = (_TABLE * _WEIGHTS).sum(axis=1)
        keep = scores <= scores.mean()
        acc += float(_TABLE[keep].sum(axis=1).max())
    return acc


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference work."""
    start = time.perf_counter()
    _interpreter_work(2000)
    _array_work(10)
    return time.perf_counter() - start


def scales(loop_seconds: list[float]) -> list[float]:
    """Factors to reference speed for the spans between consecutive loops.

    The span between loops ``i`` and ``i + 1`` ran at the mean speed of the
    two, so its wall time times ``REF_S / mean(loop i, loop i + 1)`` is its
    time on a machine where the loop takes ``REF_S``.
    """
    return [2 * REF_S / (before + after) for before, after in zip(loop_seconds, loop_seconds[1:])]
