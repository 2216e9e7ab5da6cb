"""Fixed reference kernels that track how fast the machine runs right now.

Small shared machines change speed by a quarter or more over seconds to
minutes (other tenants, frequency changes), and that swamps any change in
the program.  The benchmark times a reference kernel before and after every
iteration and scales the iteration's wall times by the kernel's nominal
time over its measured time, so its wall metrics read as if the machine had
run at one fixed speed.  The kernels never call the program, so no change
to the program can move them.

Which slowdowns hit a workload depends on what it executes, so each
workload names the kernel that matches it: ``numeric`` (NumPy padding,
strided copies, small GEMMs and elementwise ops, plus some dict work) for
the fleet workloads, ``interpreter`` (tuples, f-strings, dicts, sets,
CRC32, sorting and a heap) for the event plane, which runs no NumPy.
"""

from __future__ import annotations

import heapq
import time
import zlib

import numpy as np

_RNG = np.random.default_rng(0)
_MAPS = _RNG.random((8, 16, 24, 16))
_WEIGHTS = _RNG.random((144, 16))


def _numeric() -> None:
    for _ in range(60):
        padded = np.pad(_MAPS, ((0, 0), (1, 1), (1, 1), (0, 0)))
        s = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded, (8, 16, 24, 3, 3, 16), (s[0], s[1], s[2], s[1], s[2], s[3])
        )
        cols = np.ascontiguousarray(windows.reshape(-1, 144))
        np.maximum(cols @ _WEIGHTS, 0.0)
        table = {}
        for i in range(300):
            table[i] = (i, str(i))


def _interpreter() -> None:
    for _ in range(4):
        items = [(i * 0.37 % 11.0, f"cam{i % 64:03d}/e0/{i}", i) for i in range(3000)]
        seen = set()
        table = {}
        for when, key, i in items:
            table[key] = (when, i, zlib.crc32(key.encode()))
            seen.add(key)
        items.sort(key=lambda item: (item[0], item[1]))
        heap: list = []
        for item in items[:1500]:
            heapq.heappush(heap, item)
        while heap:
            heapq.heappop(heap)


# kind -> (kernel, its wall seconds on an unloaded 2-core x86-64 box with
# Python 3.11, NumPy 2.4 and one BLAS thread).  The nominal time only sets
# the scale of the scaled metrics; comparisons between runs do not depend
# on it.
KERNELS = {"numeric": (_numeric, 0.065), "interpreter": (_interpreter, 0.020)}


def reference_seconds(kind: str) -> float:
    """Wall seconds the ``kind`` reference kernel takes now."""
    kernel, _ = KERNELS[kind]
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


def nominal_seconds(kind: str) -> float:
    """The ``kind`` kernel's wall seconds at the reference speed."""
    return KERNELS[kind][1]
