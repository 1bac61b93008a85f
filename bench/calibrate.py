"""Machine-speed calibration: a fixed reference kernel timed next to the steps.

The host this benchmark was tuned on gives each virtual CPU a shared
physical core. Its speed moves by up to 1.6x, in phases that last from
under a second to minutes, as other tenants load the core; process CPU time
moves with wall time, so it is no steadier. One 30 s run can sit in a slow
phase from end to end, and a plain median of wall times then differs by 20%
or more from a run in a fast phase.

So the benchmark times :func:`kernel`, a fixed forward and backward pass
on a small tape of its own that uses nothing from ``src/``, right before
every step and after every round. The mean kernel time of a round measures how
fast the core ran during that round. Every wall time of the round is then
rescaled to the speed at which one kernel call takes ``REF_MS``:

    scaled = wall * REF_MS / mean(kernel times of the round)

A change to the program moves the scaled times as it moves the wall times;
a change of machine speed moves the kernel too and cancels out. The kernel
must not use the detector's code, or a faster detector would also speed up
the yardstick.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Scaled milliseconds are those in which one kernel call takes REF_MS. On the
# machine of the README's figures the kernel's median time is about that, so
# scaled times read close to its wall times.
REF_MS = 2.5
CALLS_PER_SAMPLE = 1  # kernel calls before each step and after each round
SETUP_CALLS = 4  # kernel calls before and after each set-up
PASSES = 2  # times the kernel's forward runs through its layers


class _Node:
    """A tape node: an array, its parents and the closure of its VJP."""

    __slots__ = ("data", "grad", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.vjp = vjp


def _matmul(a, b):
    return _Node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _add_bias(a, b):
    return _Node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def _relu(a):
    mask = a.data > 0
    return _Node(a.data * mask, (a,), lambda g: (g * mask,))


def _mean(a):
    n = a.data.size
    return _Node(np.array(a.data.sum() / n), (a,), lambda g: (np.full_like(a.data, g / n),))


_rng = np.random.default_rng(7)
_LAYERS = [(_Node(_rng.standard_normal((64, 64)) * 0.1), _Node(np.zeros(64)))
           for _ in range(8)]
_INPUT = _rng.standard_normal((48, 64))


def kernel() -> int:
    """A small MLP's forward pass on a tape of Python nodes, then its backward.

    The mix of the step it stands for: small matrix products, elementwise
    ops, closures, a post-order walk and a dict of pending gradients.
    """
    h = _Node(_INPUT)
    for _ in range(PASSES):
        for w, b in _LAYERS:
            h = _relu(_add_bias(_matmul(h, w), b))
    loss = _mean(h)
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
        node.grad += g
        if node.vjp is not None:
            for p, gp in zip(node.parents, node.vjp(g)):
                grads[id(p)] = grads[id(p)] + gp if id(p) in grads else gp
    for w, b in _LAYERS:
        w.grad = b.grad = None
    return len(order)


def sample(calls: int) -> list[float]:
    """Wall times in seconds of ``calls`` kernel calls, one by one."""
    times = []
    for _ in range(calls):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def scale(kernel_times: list[float]) -> float:
    """The factor that turns wall time into scaled time, from kernel times."""
    return REF_MS * 1e-3 / statistics.fmean(kernel_times)


@dataclass
class Round:
    steps: list[float] = field(default_factory=list)  # wall seconds per step
    kernel: list[float] = field(default_factory=list)  # wall seconds per kernel call
    elapsed: float = 0.0  # wall seconds of the round, kernel calls left out

    def factor(self) -> float:
        return scale(self.kernel)


class Clock:
    """Step times and kernel samples of the timed phase, round by round."""

    def __init__(self):
        self.rounds: list[Round] = []

    def start_round(self) -> None:
        self.rounds.append(Round())

    def reference(self) -> None:
        """Sample the kernel; called right before each step."""
        self.rounds[-1].kernel += sample(CALLS_PER_SAMPLE)

    def add_step(self, seconds: float) -> None:
        self.rounds[-1].steps.append(seconds)

    def end_round(self, wall: float) -> None:
        """Close the round that took ``wall`` seconds, kernel calls included."""
        last = self.rounds[-1]
        last.elapsed = wall - sum(last.kernel)
        self.reference()

    @property
    def steps(self) -> int:
        return sum(len(r.steps) for r in self.rounds)

    def wall_steps(self) -> list[float]:
        return [t for r in self.rounds for t in r.steps]

    def scaled_steps(self) -> list[float]:
        return [t * r.factor() for r in self.rounds for t in r.steps]

    def scaled_elapsed(self) -> float:
        return sum(r.elapsed * r.factor() for r in self.rounds)

    def wall_elapsed(self) -> float:
        return sum(r.elapsed for r in self.rounds)
