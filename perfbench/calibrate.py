"""Host-speed calibration for the qmoney benchmark.

The shared host's CPUs run faster and slower by up to 40% over seconds
to minutes, by more than the benchmark's bounds (see README.md).  The
benchmark times a fixed kernel, which calls no qmoney code, next to
each chunk of timed work; the host's speed there is REFERENCE_KERNEL_S
over the kernel's time.  The bounded metrics are scaled to the speed at
which the kernel takes REFERENCE_KERNEL_S.

This module imports nothing but the standard library, so that a fresh
interpreter can time the kernel before it imports qmoney.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_KERNEL_S = 0.005


def _pairs(seed: int, n: int) -> tuple:
    rng = random.Random(seed)
    return tuple((complex(rng.random(), rng.random()), complex(rng.random(), rng.random()))
                 for _ in range(n))


_PAIRS = _pairs(20101010, 4096)


class _Record:
    __slots__ = ("value", "kind")

    def __init__(self, value, kind):
        self.value = value
        self.kind = kind


def kernel() -> int:
    """Fixed pure-Python work in the lab's two styles: complex products
    over a 4096-long tuple of pairs and tuple splicing, like qstate at
    n=4096, then short-lived seeded RNGs, small objects and dicts, like
    a harness trial."""
    pairs = _PAIRS
    amp = 1.0 + 0.0j
    for a, b in zip(pairs, _PAIRS):
        amp *= a[0].conjugate() * b[0] + a[1].conjugate() * b[1]
        amp /= abs(amp)
    for i in range(0, len(pairs), 256):
        pairs = pairs[:i] + ((pairs[i][1], pairs[i][0]),) + pairs[i + 1:]
    total = 0
    for s in range(75):
        rng = random.Random(s)
        records = {}
        for i in range(20):
            rec = _Record(rng.random(), rng.randrange(4))
            records[i] = rec
            total += rec.kind
    return total


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
