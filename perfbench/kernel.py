"""The reference kernel that defines the benchmark's time unit.

One call of :func:`reference_kernel` is one ``ref``. The benchmark times
the kernel between every two timed items and divides each item's seconds
by the mean of the kernel timings on either side of it, so a machine that
slows down or speeds up during a run moves the item and the unit
together. The kernel does what burnkit does most: small-int
arithmetic, single-bit updates of a ~100-bit mask, popcounts, dict reads
and writes with tuple keys, and small frozenset builds and lookups.

Never change this file's arithmetic or step count once it has landed:
every recorded ``ref`` figure depends on it. ``REF_CHECKSUM`` guards
against an accidental edit.
"""

from __future__ import annotations

import time

REF_STEPS = 420
REF_CHECKSUM = 7828
# Nominal seconds per ref, used only to state set-up time in seconds: about
# the kernel's median time on the machine where the benchmark was defined.
REF_SECONDS = 0.0004


def reference_kernel() -> int:
    """Run the fixed workload once and return its checksum."""
    x = 0x2545F491
    mask = 0
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        mask ^= 1 << (x % 97)
        acc += (mask & (mask >> 7)).bit_count()
        key = (x & 63, i & 7)
        table[key] = table.get(key, 0) + 1
        if x & 3 == 0:
            seen = frozenset((x & 31, (x >> 5) & 31, acc & 31))
            acc += len(seen) + ((x & 31) in seen)
    return acc + len(table)


def timed_kernel() -> float:
    """Seconds taken by one kernel call; raises if the kernel was edited."""
    t0 = time.perf_counter()
    checksum = reference_kernel()
    elapsed = time.perf_counter() - t0
    if checksum != REF_CHECKSUM:
        raise RuntimeError(f"reference kernel changed: checksum {checksum}")
    return elapsed
