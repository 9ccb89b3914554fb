"""Timing statistics and the in-memory span tracer.

Spans are recorded by the benchmark around its calls into foqc's public
functions; nothing inside foqc is instrumented.  A span's layer is the
part of its name before the first dot (`compiler.compile_with_stats`
belongs to `compiler`).
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# The host's speed probe.  Its work is fixed and imports nothing of foqc:
# Python object churn (dicts, lists and tuples, as the parser and compiler
# do) and one numpy gate update on a 2^17-amplitude state (as the dense
# simulator does on diff-verify's widest circuits).  PROBE_REF_S holds what
# each kind reads on the host the baseline was taken on (2 vCPUs of an
# Intel Xeon VM) at its faster speed.  A workload's probe is the sum of the
# kinds it does; a time measured when its probe reads p is reported as
# time * reference / p.
PROBE_ROUNDS = 3000
PROBE_QUBITS = 17
PROBE_REF_S = {"python": 0.0005, "numpy": 0.0018}
_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _python_work() -> int:
    table: dict[int, list[tuple[int, int]]] = {}
    for i in range(PROBE_ROUNDS):
        table.setdefault((i * 7919) % 61, []).append((i, i & 7))
    return sum(len(v) for v in sorted(table.values(), key=len))


def _numpy_work() -> np.ndarray:
    psi = np.zeros(1 << PROBE_QUBITS, dtype=complex)
    psi[0] = 1
    return np.einsum("ij,jb->ib", _HADAMARD, psi.reshape(2, -1)).reshape(-1)


_PROBE_WORK = {"python": _python_work, "numpy": _numpy_work}


def probe(kinds) -> dict[str, float]:
    """Seconds each of the `kinds` of probe work takes now: the fastest of three tries."""
    readings = {}
    for kind in kinds:
        work = _PROBE_WORK[kind]
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - start)
        readings[kind] = best
    return readings


def at_reference_speed(seconds: float, readings: list[dict[str, float]], kinds) -> float:
    """`seconds` at the reference speed, given the probe readings taken around it.

    The speed is read from the mean of `readings` over the probe `kinds`
    the workload does.
    """
    ref = sum(PROBE_REF_S[k] for k in kinds)
    now = sum(r[k] for r in readings for k in kinds) / len(readings)
    return seconds * ref / now


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_rung(count: int, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND) -> float:
    """The highest ladder percentile with at least `min_beyond` of `count` samples above it.

    Falls back to the lowest rung when `count` is too small for any.
    """
    for p in sorted(ladder, reverse=True):
        if count - math.ceil(p * count / 100) >= min_beyond:
            return p
    return min(ladder)


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(xs) / 100))
    return xs[rank - 1], len(xs) - rank


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: str | None
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans in memory; `spans` is written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self.request: str | None = None

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.request)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def to_json_obj(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return [
        s.duration_ns - _covered_ns(children.get(i, []), s.start_ns, s.end_ns)
        for i, s in enumerate(spans)
    ]


def layer_errors(spans: list[Span]) -> dict[str, int]:
    """Exceptions counted once, at the innermost span they escaped from."""
    raised_below = {s.parent for s in spans if s.error and s.parent is not None}
    counts: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s.error and i not in raised_below:
            counts[s.layer] = counts.get(s.layer, 0) + 1
    return counts
