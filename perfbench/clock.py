"""Speed-normalised timing for a noisy shared machine.

The benchmark runs on machines whose effective CPU speed drifts by 10-35%
within seconds (co-tenants, frequency changes).  A fixed pure-Python loop
timed over 5 s windows ranged over +-15% within one minute, and the drift
is common-mode: a workload's raw throughput and the loop's speed move
together.  Timed work is therefore interleaved with short *calibration
slices* (a fixed interpreter-bound loop) and scaled by how fast the machine
ran the slices around it:

    normalised = raw * REFERENCE_SLICE_S / mean(slice before, slice after)

A normalised second is a second on a machine that runs the calibration
slice in ``REFERENCE_SLICE_S`` - a fixed constant of the benchmark, so the
unit is the same on every run and every commit.  Raw values are printed
next to the normalised ones in each run's summary line.
"""

from __future__ import annotations

import gc
import math
import time

#: Loop rounds of one calibration slice (about 3.8 ms on the reference core).
SLICE_ROUNDS = 48_000

#: The reference duration of one slice, in seconds: the unit of normalised
#: time.  Fixed once; changing it rescales every reported timing.
REFERENCE_SLICE_S = 0.0038

#: Work seconds between two calibration slices.
BLOCK_S = 0.1


def calibration_slice() -> float:
    """Run the fixed calibration loop once and return its wall time.

    The loop allocates no container objects and runs with the collector
    off, so the size of the heap the workload built cannot slow it.
    """
    table = [0] * 64
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(SLICE_ROUNDS):
            slot = i & 63
            table[slot] = table[slot] + (i * i) % 11
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(slices: list[float]) -> float:
    """Scale factor from raw to normalised time, given the slices around an interval."""
    return REFERENCE_SLICE_S * len(slices) / sum(slices)


class Meter:
    """Collects request latencies in blocks of :data:`BLOCK_S` work.

    Call :meth:`add` with every raw request latency; a calibration slice
    closes each block (call :meth:`flush` before a pause in the timed
    phase).  :meth:`normalised` scales every block by the slices on either
    side of it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.work_s = 0.0
        self._blocks: list[tuple[int, int]] = []  # (first latency, end) per block
        self._slices: list[float] = [calibration_slice()]  # block k lies between slices k and k+1
        self._block_s = 0.0

    def add(self, latency: float) -> None:
        self.raw.append(latency)
        self.work_s += latency
        self._block_s += latency
        if self._block_s >= BLOCK_S:
            self.flush()

    def flush(self) -> None:
        """Close the open block (if it holds work) with a slice."""
        first = self._blocks[-1][1] if self._blocks else 0
        if first < len(self.raw):
            self._blocks.append((first, len(self.raw)))
            self._slices.append(calibration_slice())
            self._block_s = 0.0

    def factors(self) -> list[float]:
        return [speed_factor(self._slices[k : k + 2]) for k in range(len(self._blocks))]

    def normalised(self) -> list[float]:
        self.flush()
        scaled = []
        for (first, end), factor in zip(self._blocks, self.factors()):
            scaled.extend(latency * factor for latency in self.raw[first:end])
        return scaled


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in ``(0, 1]``) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(share * len(ordered), 9))) - 1]
