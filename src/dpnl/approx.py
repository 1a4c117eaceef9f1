"""Anytime approximation with certified bounds.

Best-first exploration of the valuation tree keeps a frontier of unresolved
partial valuations together with their prior mass. Mass of a branch the
oracle accepts moves into the lower bound; rejected mass comes off the upper
bound; undecided valuations are expanded one variable at a time. At every
step the exact value lies in [low, up], and the reported point estimate is
the geometric mean sqrt(low * up).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Instance, QueryStats, Valuation, fresh_valuation
from .inference import SequentialOrder, VariableOrder, _checked_choice
from .oracle import Oracle


@dataclass(frozen=True)
class Bounds:
    """Certified probability interval with its geometric-mean estimate."""

    low: float
    up: float

    @property
    def estimate(self) -> float:
        product = self.low * self.up
        # guard: up can drift a few ulp below zero in exhausted zero-mass runs
        return math.sqrt(product) if product > 0.0 else 0.0

    @property
    def gap(self) -> float:
        return self.up - self.low


class StopPolicy:
    """Decides, at the top of each iteration, whether to stop exploring."""

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        raise NotImplementedError


class EpsMultiplicative(StopPolicy):
    """Stop once up <= low * (1+eps)^2; the estimate is then within a
    (1+eps) factor of the exact value."""

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.eps = eps

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return up <= low * (1.0 + self.eps) ** 2


class EpsAdditive(StopPolicy):
    """Stop once up - low <= eps; the estimate is then within eps of the
    exact value."""

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.eps = eps

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return up - low <= self.eps


class TimeBudget(StopPolicy):
    """Stop after a wall-clock budget (monotonic clock), in seconds."""

    def __init__(self, seconds: float):
        if seconds <= 0:
            raise ValueError("time budget must be > 0")
        self.seconds = seconds

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return elapsed >= self.seconds


class Exhaustive(StopPolicy):
    """Never stop early; run until the frontier empties (exact result)."""

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return False


class _StepLimit(StopPolicy):
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps = 0

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        stop = self.steps >= self.max_steps
        self.steps += 1
        return stop


def _lex_key(v: Valuation) -> tuple[int, ...]:
    # total order on valuations; unassigned sorts before value 0
    return tuple(-1 if c is None else c for c in v.cells)


class ExploreHeuristic:
    """Frontier discipline: which unresolved valuation to expand next."""

    def make_frontier(self) -> "_Frontier":
        raise NotImplementedError


class _Frontier:
    def push(self, v: Valuation, mass: float, log_mass: float) -> None:
        raise NotImplementedError

    def pop(self) -> tuple[Valuation, float, float]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def entries(self) -> Iterator[float]:
        """Masses currently queued (for conservation checks)."""
        raise NotImplementedError


class _MaxProbFrontier(_Frontier):
    # comparisons use log-mass so deep low-probability valuations cannot
    # underflow the ordering; ties break on lexicographic valuation order
    def __init__(self):
        self.heap: list[tuple[float, tuple[int, ...], float, Valuation]] = []

    def push(self, v, mass, log_mass):
        heapq.heappush(self.heap, (-log_mass, _lex_key(v), mass, v))

    def pop(self):
        neg_log, _, mass, v = heapq.heappop(self.heap)
        return v, mass, -neg_log

    def __len__(self):
        return len(self.heap)

    def entries(self):
        return (entry[2] for entry in self.heap)


class _FifoFrontier(_Frontier):
    def __init__(self):
        self.queue: deque[tuple[Valuation, float, float]] = deque()

    def push(self, v, mass, log_mass):
        self.queue.append((v, mass, log_mass))

    def pop(self):
        return self.queue.popleft()

    def __len__(self):
        return len(self.queue)

    def entries(self):
        return (entry[1] for entry in self.queue)


class _RandomFrontier(_Frontier):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.items: list[tuple[Valuation, float, float]] = []

    def push(self, v, mass, log_mass):
        self.items.append((v, mass, log_mass))

    def pop(self):
        i = self.rng.randrange(len(self.items))
        self.items[i], self.items[-1] = self.items[-1], self.items[i]
        return self.items.pop()

    def __len__(self):
        return len(self.items)

    def entries(self):
        return (entry[1] for entry in self.items)


class MaxProbability(ExploreHeuristic):
    """Expand the most probable frontier valuation first."""

    def make_frontier(self):
        return _MaxProbFrontier()


class Fifo(ExploreHeuristic):
    """Expand in insertion order (breadth-first)."""

    def make_frontier(self):
        return _FifoFrontier()


class RandomChoice(ExploreHeuristic):
    """Expand a uniformly random frontier valuation (seeded)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def make_frontier(self):
        return _RandomFrontier(self.seed)


@dataclass(frozen=True)
class TraceSnapshot:
    """State after one iteration: bounds plus the unresolved frontier mass."""

    iteration: int
    bounds: Bounds
    frontier_mass: float


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def approx_dpnl(
    inst: Instance,
    o: int,
    oracle: Oracle,
    stop: StopPolicy,
    heuristic: ExploreHeuristic,
    order: Optional[VariableOrder] = None,
    trace: Optional[list[TraceSnapshot]] = None,
) -> tuple[Bounds, QueryStats]:
    """Anytime bounded estimate of the probability that the output is ``o``.

    Runs the frontier loop until the stop policy fires (checked at the loop
    head only) or the frontier empties; the latter reproduces the exact
    value. When ``trace`` is a list, a snapshot is appended after every
    iteration, preceded by the initial (0, 1) state.
    """
    if order is None:
        order = SequentialOrder()
    stats = QueryStats()
    probs = [d.probs for d in inst.dists]
    low = 0.0
    up = 1.0
    frontier = heuristic.make_frontier()
    frontier.push(fresh_valuation(inst.m), 1.0, 0.0)
    start = time.perf_counter()
    iteration = 0
    if trace is not None:
        trace.append(TraceSnapshot(0, Bounds(low, up), 1.0))
    while len(frontier) > 0 and not stop.should_stop(low, up, time.perf_counter() - start):
        v, mass, log_mass = frontier.pop()
        stats.oracle_calls += 1
        answer = oracle(v, o).answer
        if answer == 1:
            stats.leaves_true += 1
            low += mass
        elif answer == 0:
            stats.leaves_false += 1
            up -= mass
        else:
            stats.branch_nodes += 1
            k = _checked_choice(order, v)
            row = probs[k]
            for y, p in enumerate(row):
                frontier.push(v.assign(k, y), mass * p, log_mass + _log(p))
        iteration += 1
        if trace is not None:
            trace.append(
                TraceSnapshot(
                    iteration,
                    Bounds(low, up),
                    math.fsum(frontier.entries()),
                )
            )
    stats.wall_time = time.perf_counter() - start
    return Bounds(low, up), stats


def bound_trace(
    inst: Instance,
    o: int,
    oracle: Oracle,
    heuristic: ExploreHeuristic,
    max_steps: int,
    order: Optional[VariableOrder] = None,
) -> list[TraceSnapshot]:
    """Per-iteration bound snapshots for at most ``max_steps`` iterations.

    The first snapshot is always the initial (0, 1) interval; the lower
    bounds are non-decreasing and the upper bounds non-increasing.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    snapshots: list[TraceSnapshot] = []
    approx_dpnl(inst, o, oracle, _StepLimit(max_steps), heuristic, order=order, trace=snapshots)
    return snapshots
