"""A speed gauge for the host, timed between the program's calls.

The host the benchmark runs on is shared, and its speed changes by as
much as half within a minute: in one process, the same call took 0.9 s
in one minute and 1.35 s in the next, with CPU time up as much as wall
time.  No average over a run of a minute removes that.  So the worker
times, before the first call of a pass and after every call, a fixed
piece of exact arithmetic of the benchmark's own (``sample``), and
``run.py`` scales each call's time by how long the gauge took around
it (``adjust``):

    adjusted = measured * NOMINAL_S / (mean of the gauge before and after)

An adjusted time is the call's time on a host where the gauge takes
``NOMINAL_S`` per chunk of work.  The gauge is the same for every
version of the program: it uses only the standard library, it runs with
the garbage collector off, and the worker imports it before the program.

The gauge runs the way the workload's calls run.  ``check all`` runs
its checks on a pool of 4 threads, and on a host with 2 cores much of
its slowdown is threads waiting for the interpreter lock, which a gauge
on one thread does not see: over 40 ``check all`` calls in one process,
the log of the call's wall time correlated 0.31 with a one-thread gauge
and 0.80 with the same chunks timed on a pool of 4 threads.  So
``sample(threads)`` with threads > 1 times POOLED_CHUNKS chunks on a
pool of that many threads.
"""

from __future__ import annotations

import gc
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

# The gauge's time on the 2-core sandbox where the benchmark was
# written, in its fast spells.  It only sets the scale: adjusted times
# then read close to the seconds measured there in those spells.
NOMINAL_S = 0.005
CHUNKS = 7
POOLED_CHUNKS = 16


def _matrix(size: int, seed: int) -> list:
    """A fixed square matrix of small integers, a third of them 0."""
    x, rows = seed, []
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (x * 1103515245 + 12345) % 2**31
            row.append((x >> 16) % 7 - 3 if (x >> 8) % 3 else 0)
        rows.append(row)
    return rows


MATRIX = _matrix(12, 1)


def _chunk():
    """Gauss-Jordan elimination over Q of MATRIX: small Fractions in
    Python lists, the kind of work the program does most."""
    rows = [[Fraction(v) for v in r] for r in MATRIX]
    done = []
    for col in range(len(MATRIX)):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [v / piv[col] for v in piv]
        rows = [[a - r[col] * b for a, b in zip(r, piv)] for r in rows]
        done = [[a - r[col] * b for a, b in zip(r, piv)] for r in done]
        done.append(piv)
    return done


def sample(threads: int = 1) -> tuple:
    """(wall, cpu) seconds of the gauge per chunk, with the garbage
    collector off.  On one thread: the medians over CHUNKS timed runs of
    ``_chunk``.  On more: POOLED_CHUNKS runs on a pool of ``threads``
    threads, timed together and divided by POOLED_CHUNKS."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if threads > 1:
            cpu0, t0 = time.process_time(), time.perf_counter()
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in pool.map(lambda _: _chunk(), range(POOLED_CHUNKS)):
                    pass
            return ((time.perf_counter() - t0) / POOLED_CHUNKS,
                    (time.process_time() - cpu0) / POOLED_CHUNKS)
        walls, cpus = [], []
        for _ in range(CHUNKS):
            cpu0, t0 = time.process_time(), time.perf_counter()
            _chunk()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - cpu0)
        return statistics.median(walls), statistics.median(cpus)
    finally:
        if enabled:
            gc.enable()


def adjust(measured: float, before: float, after: float) -> float:
    """``measured`` scaled to a host where the gauge takes NOMINAL_S."""
    return measured * NOMINAL_S * 2 / (before + after)
