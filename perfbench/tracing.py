"""Spans, counting proxies, calibration and summary statistics.

Spans are recorded by the benchmark around its own calls into permcrypt's
modules; the span name is ``<module>.<function>``, so the text before the
first dot names the layer.  Nothing here reaches inside the library.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()
# Raw spans kept for the trace file; aggregates cover every span.
_KEPT_SPANS = 5000


def no_span(name):
    """The untraced stand-in for Tracer.span."""
    return _NULL


class Tracer:
    """In-memory span recorder with per-name self-time aggregates.

    A span's self time is its duration minus the time its child spans
    cover.  Only the first few thousand raw spans are kept, so memory stays
    bounded however long the run.
    """

    def __init__(self):
        self.kept = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.round = 0
        self._stack = []
        self._next_id = 0

    def span(self, name):
        return _Span(self, name)

    def layer_self_ms(self, rounds: int) -> dict:
        """Mean self time per traced round, summed by layer."""
        out = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e6 / max(rounds, 1)
        return dict(sorted(out.items()))


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start", "child_ns")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1].id if tr._stack else None
        self.child_ns = 0
        tr._stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        duration = end - self.start
        tr.self_ns[self.name] += duration - self.child_ns
        tr.calls[self.name] += 1
        if tr._stack:
            tr._stack[-1].child_ns += duration
        if len(tr.kept) < _KEPT_SPANS:
            tr.kept.append((self.id, self.parent, tr.round, self.name, self.start, end))
        return False


class SeededRng(random.Random):
    """Deterministic entropy with the drawing interface permcrypt expects."""

    def next_index(self, bound: int) -> int:
        return self.randrange(bound)

    def next_bits(self, k: int) -> int:
        return self.getrandbits(k)

    def next_bytes(self, n: int) -> bytes:
        return self.randbytes(n)


class CountingRng:
    """Proxy around an rng argument that records every next_index bound.

    keygen, sign and new_operator draw only through next_index, so the
    recorded bounds tell resamples and rejections apart from outside.
    """

    def __init__(self, rng):
        self._rng = rng
        self.bounds = []

    def next_index(self, bound: int) -> int:
        self.bounds.append(bound)
        return self._rng.next_index(bound)

    def next_bits(self, k: int) -> int:
        return self._rng.next_bits(k)

    def next_bytes(self, n: int) -> bytes:
        return self._rng.next_bytes(n)


# The machine's speed drifts by tens of percent within a second, and the
# drift reaches CPU-time clocks too.  So a fixed pure-Python chunk is timed
# next to every step, on the same CPU, and the step's wall time is scaled by
# CALIBRATION_S over the chunk's time: it reads as wall time on a machine
# that runs one chunk in CALIBRATION_S.
CALIBRATION_S = 0.0025
_CAL_MODULUS = (1 << 199) + 235


def _calibration_chunk() -> int:
    x = 1
    low = []
    for i in range(4000):
        x = (x * 0x9E3779B97F4A7C15 + i) % _CAL_MODULUS
        low.append(x & 0xFF)
    return sum(low)


class Calibration:
    """Chunk timings (median of three each) taken between a run's steps."""

    def __init__(self):
        self.samples = []
        self._taken = float("-inf")

    def chunk_s(self, max_age: float = 0.2) -> float:
        """The latest chunk time, re-measured if older than max_age seconds."""
        if time.perf_counter() - self._taken > max_age:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                _calibration_chunk()
                times.append(time.perf_counter() - t0)
            self.samples.append(statistics.median(times))
            self._taken = time.perf_counter()
        return self.samples[-1]

    def scale(self) -> float:
        """Factor for a step about to start: CALIBRATION_S over a recent chunk time."""
        return CALIBRATION_S / self.chunk_s()


def p99(values) -> float:
    """99th percentile; with under 1000 samples fewer than ten lie beyond it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]
