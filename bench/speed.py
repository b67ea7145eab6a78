"""CPU-speed normalisation of wall times.

On shared virtual CPUs the speed drifts with the load of other tenants: on
a 2-vCPU VM, 10-second averages of a fixed pure-Python loop varied by about
+-25%, which no run length averages away.  So every process that does
timed work runs a ``SpeedProbe``: a timer signal interrupts the process
every ``INTERVAL_S`` to time a fixed calibration kernel on the CPU that
runs the work.  A timed interval is reported as its wall time minus the
time spent in the kernel, times the mean of ``REFERENCE_S`` over the
kernel's durations during the interval: seconds at the reference speed.  A change to
projconn moves the work and not the kernel, so it moves the reported time
in proportion.  The probe must run in the measured process itself: a
kernel timed in another process on the same CPU competes with the work for
that CPU and measures the competition.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.2
REFERENCE_S = 0.002  # the kernel's duration at the reference speed

_TOKENS = re.compile(r"\s*(?:(\d+(?:\.\d*)?)|([a-z]+)|(\S))")
_TEXT = "3.5 + exp(1.2*x)*sqrt(1 + y*y)/cosh(0.7*z) - sin(x*z)*log(2 + x*y)"
_ENV = {"x": 0.3, "y": -0.2, "z": 0.1}
_CUBE = np.linspace(0.5, 1.5, 64).reshape(4, 4, 4)
_einsum = np.einsum  # bound at import, so a traced numpy.einsum never sees the kernel


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def _parse(tokens, i=0):
    """sum := product (('+'|'-') product)*; product := atom (('*'|'/') atom)*"""
    def atom(i):
        num, name, sym = tokens[i]
        if num:
            return _Node("num", (float(num),)), i + 1
        if name and tokens[i + 1][2] == "(":
            arg, i = expr(i + 2)
            return _Node(name, (arg,)), i + 1
        if name:
            return _Node("var", (name,)), i + 1
        arg, i = expr(i + 1)
        return arg, i + 1

    def product(i):
        node, i = atom(i)
        while i < len(tokens) and tokens[i][2] in ("*", "/"):
            rhs, j = atom(i + 1)
            node, i = _Node(tokens[i][2], (node, rhs)), j
        return node, i

    def expr(i):
        node, i = product(i)
        while i < len(tokens) and tokens[i][2] in ("+", "-"):
            rhs, j = product(i + 1)
            node, i = _Node(tokens[i][2], (node, rhs)), j
        return node, i

    return expr(i)[0]


def _eval(node):
    op, args = node.op, node.args
    if op == "num":
        return args[0]
    if op == "var":
        return _ENV[args[0]]
    if len(args) == 1:
        return getattr(math, op)(_eval(args[0]))
    a, b = _eval(args[0]), _eval(args[1])
    return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b


def kernel() -> None:
    """Fixed work resembling projconn's: tokenising and parsing an
    expression into frozen dataclass nodes, evaluating the tree, and small
    einsum contractions.  (A plain arithmetic loop tracks projconn's speed
    changes about half as well.)"""
    for _ in range(25):
        tree = _parse(_TOKENS.findall(_TEXT))
        _eval(tree)
    for _ in range(40):
        _einsum("ijk,kjl->il", _CUBE, _CUBE)


class SpeedProbe:
    """Samples the kernel's duration on a timer while started.  Read the
    samples after ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.monotonic())

    def start(self) -> None:
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def report(self) -> None:
        """Stop, and write the samples to stderr as the last line (for a
        process whose stdout is its output)."""
        self.stop()
        sys.stderr.write(json.dumps([self.starts, self.ends]) + "\n")

    @classmethod
    def from_report(cls, line: str) -> "SpeedProbe":
        probe = cls()
        probe.starts, probe.ends = json.loads(line)
        return probe

    def busy(self, a: float, b: float) -> float:
        """Kernel time inside [a, b]."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        return sum(
            max(0.0, min(b, self.ends[i]) - max(a, self.starts[i])) for i in range(lo, hi)
        )

    def speed(self, a: float, b: float) -> float:
        """Mean speed relative to the reference over the samples inside
        [a, b], or over the two samples nearest to an interval that holds
        fewer."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        if hi - lo < 2:
            lo = max(0, bisect.bisect_left(self.starts, (a + b) / 2) - 1)
            hi = min(len(self.starts), lo + 2)
        return statistics.fmean(
            REFERENCE_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)
        )

    def normalised(self, a: float, b: float, margin: float = 0.0) -> float:
        """Seconds at the reference speed for the work done in [a, b], with
        the speed measured over [a - margin, b + margin]."""
        return ((b - a) - self.busy(a, b)) * self.speed(a - margin, b + margin)
