"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the work a process gets done per second drifts by up to
2x over seconds to minutes, and the drift moves every timing with it; the
process sees no steal time, so CPU time drifts the same way.  ``probe()``
times a fixed mix of the three kinds of work the program does: interpreter
loops, small dense matrix products, and the random gathers of a
permutation test.  The benchmark probes before and after each measured
call and reports the call's time rescaled to the speed at which the probe
takes ``REFERENCE_S`` seconds:

    scaled = wall * REFERENCE_S / mean(probe before, probe after)

The probe is benchmark code and does not change between commits, so a
program change moves the scaled time as it moves the wall time, while the
host's drift cancels out.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# The probe's time in the fast spells of the 2-vCPU machine the benchmark
# was written on.  Scaled times read as seconds at that speed.
REFERENCE_S = 0.075

_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) * 0.1


def _interpreter_work(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _matrix_work(n: int) -> float:
    x = _MATRIX
    for _ in range(n):
        x = np.tanh(_MATRIX @ x + 0.01)
    return float(x[0, 0])


def _gather_work(n: int) -> float:
    rng = np.random.default_rng(0)
    block = _MATRIX[:15, :15].copy()
    total = 0.0
    for _ in range(n):
        order = np.argsort(rng.random((1000, 15)), axis=1)
        picked = block[order[:, :, None], order[:, None, :]]
        total += float(np.einsum("ij,bij->", block, picked))
    return total


def _task() -> None:
    _interpreter_work(300_000)
    _matrix_work(1_000)
    _gather_work(12)


def probe(threads: int = 1) -> float:
    """Wall time of the fixed reference task, in seconds.

    With ``threads`` > 1 that many threads run the task at once, the way a
    workload's worker threads share the interpreter lock and the cores, and
    the time is divided by ``threads``: a single-thread probe sees only the
    core it runs on.
    """
    workers = [threading.Thread(target=_task) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    _task()
    for w in workers:
        w.join()
    return (time.perf_counter() - t0) / threads


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` rescaled to the reference speed, from the probes around it."""
    return wall * REFERENCE_S / ((before + after) / 2)
