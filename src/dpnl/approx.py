"""Anytime approximation with certified bounds.

Best-first exploration of the valuation tree keeps a frontier of unresolved
partial valuations together with their prior mass, in one heap ordered by
the heuristic's rank of that mass. Mass of a branch the oracle accepts moves
into the lower bound; rejected mass comes off the upper bound; undecided
valuations are expanded one variable at a time. At every step the exact
value lies in [low, up], whatever the order, and the reported point
estimate is the geometric mean sqrt(low * up).

The frontier holds one entry per residual key of the oracle. A child whose
key is already queued is merged into that entry: the masses add up, and one
oracle call later settles or expands the sum. Equal keys mean the same free
variables and the same output on every completion (or no matching completion
at all), hence the same conditional value, so a merge changes neither bound's
soundness; it is component caching applied to a best-first frontier. Every
queued mass is rounded toward zero and every bound update outward, so the
bounds hold in floating point as well.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

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
        return math.sqrt(self.low * self.up)

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
        if not eps > 0:
            raise ValueError("eps must be > 0")
        self.eps = eps

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return up <= low * (1.0 + self.eps) ** 2


class EpsAdditive(StopPolicy):
    """Stop once up - low <= eps; the estimate is then within eps of the
    exact value."""

    def __init__(self, eps: float):
        if not eps > 0:
            raise ValueError("eps must be > 0")
        self.eps = eps

    def should_stop(self, low: float, up: float, elapsed: float) -> bool:
        return up - low <= self.eps


class TimeBudget(StopPolicy):
    """Stop after a wall-clock budget (monotonic clock), in seconds."""

    def __init__(self, seconds: float):
        if not seconds > 0:
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


class ExploreHeuristic:
    """Frontier discipline: which unresolved valuation to expand next.

    ``ranker()`` returns, once per query, a function from an entry's queued
    mass to its rank; the frontier expands the lowest rank first, ties in
    push order. The order only decides which mass settles first: the bounds
    hold under any order.
    """

    def ranker(self) -> Callable[[float], float]:
        raise NotImplementedError


def _down(x: float) -> float:
    """One step toward zero from a rounded-to-nearest product or sum of
    non-negative floats: at most the exact result, and zero stays zero."""
    return math.nextafter(x, 0.0)


class _Entry:
    """The queued mass of every pushed valuation with one residual key.

    ``v`` is the first of them, the one the oracle sees. ``mass`` is at
    most the exact sum of their masses. ``rank`` is its latest heap item's.
    """

    __slots__ = ("v", "key", "mass", "rank")

    def __init__(self, v: Valuation, key: Hashable, mass: float, rank: float):
        self.v = v
        self.key = key
        self.mass = mass
        self.rank = rank


class _Frontier:
    """Live entries, at most one per residual key, with their total mass,
    and one heap of (rank, push count, entry) items.

    A merge that changes an entry's rank pushes it again; the superseded
    item no longer matches the entry's rank and is dropped when it surfaces.
    """

    def __init__(self, rank: Callable[[float], float]):
        self.rank = rank
        self.live: dict[Hashable, _Entry] = {}
        self.mass = 0.0
        self.heap: list[tuple[float, int, _Entry]] = []
        self.pushes = itertools.count()

    def __len__(self) -> int:
        return len(self.live)

    def add(self, key: Hashable, v: Valuation, mass: float) -> bool:
        """Queue ``v``, or merge its mass into the live entry with the same
        key (sum rounded down, never below the entry's); returns whether it merged."""
        self.mass += mass
        entry = self.live.get(key)
        if entry is None:
            entry = self.live[key] = _Entry(v, key, mass, self.rank(mass))
            heapq.heappush(self.heap, (entry.rank, next(self.pushes), entry))
            return False
        merged = _down(entry.mass + mass)
        if merged > entry.mass:
            entry.mass = merged
            rank = self.rank(merged)
            if rank != entry.rank:
                entry.rank = rank
                heapq.heappush(self.heap, (rank, next(self.pushes), entry))
        return True

    def pop(self) -> _Entry:
        while True:
            rank, _, entry = heapq.heappop(self.heap)
            if rank == entry.rank:
                break
        del self.live[entry.key]
        entry.rank = None  # a leftover item with a repeated draw must not match
        # exactly 0.0 once nothing is queued, whatever the rounding
        self.mass = self.mass - entry.mass if self.live else 0.0
        return entry


class MaxProbability(ExploreHeuristic):
    """Expand the most probable frontier valuation first; a merge that
    raises an entry's mass moves it forward."""

    def ranker(self):
        return operator.neg


class Fifo(ExploreHeuristic):
    """Expand in insertion order (breadth-first); a merged entry keeps its
    place."""

    def ranker(self):
        return lambda mass: 0


class RandomChoice(ExploreHeuristic):
    """Expand in a random order fixed by the seed.

    Each entry draws a uniform rank when it is pushed, and draws again when
    a merge changes its mass; the lowest rank is expanded first. One seed
    gives one expansion order.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def ranker(self):
        draw = random.Random(self.seed).random
        return lambda mass: draw()


@dataclass(frozen=True)
class TraceSnapshot:
    """State after one iteration: bounds plus the unresolved frontier mass."""

    iteration: int
    bounds: Bounds
    frontier_mass: float


def _valuation_key(v: Valuation, o: int) -> Hashable:
    # the key of a keyless oracle: the valuations of one tree are distinct
    return v.cells


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
    value; the entry whose mass ``heuristic.ranker()`` ranks lowest goes
    first. A child whose residual key (``oracle.residual_key``, else its
    cells) equals that of a queued entry is merged into it: its mass is
    added to the entry's and no second valuation is queued, which counts as
    a cache hit. Equal keys mean equal conditional values, so one oracle
    call settles the merged mass: it all goes to ``low``, all comes off
    ``up``, or is split among the children of the entry's valuation. A
    child whose value the oracle's ``viable`` hook drops is never queued:
    its mass comes off ``up`` at once. Every queued mass is rounded toward
    zero and every bound update outward, so ``low <= exact <= up`` holds in
    floating point; ``up`` starts a few ulps above 1 when the rows' exact
    sums exceed 1. When ``trace`` is a list, a snapshot is appended after
    every iteration, preceded by the initial ``(0, up)`` state.
    """
    if order is None:
        order = SequentialOrder()
    residual_key = oracle.residual_key or _valuation_key
    stats = QueryStats()
    probs = inst.probs
    # a row's exact sum can miss 1 by a few ulps: up starts at or above their
    # product, the root's queued mass at or below the product of those under 1
    low = 0.0
    up = root_mass = 1.0
    for row in probs:
        excess = math.fsum((*row, -1.0))
        if excess > 0.0:
            up = math.nextafter(up * math.nextafter(math.fsum(row), math.inf), math.inf)
        elif excess < 0.0:
            root_mass = _down(root_mass * _down(math.fsum(row)))
    frontier = _Frontier(heuristic.ranker())
    root = fresh_valuation(inst.m)
    frontier.add(residual_key(root, o), root, root_mass)
    start = time.perf_counter()
    if trace is not None:
        trace.append(TraceSnapshot(0, Bounds(low, up), frontier.mass))
    while len(frontier) > 0 and not stop.should_stop(low, up, time.perf_counter() - start):
        entry = frontier.pop()
        v = entry.v
        stats.oracle_calls += 1
        answer = oracle(v, o).answer
        if answer is None:
            stats.branch_nodes += 1
            k = _checked_choice(order, v)
            row = probs[k]
            ys = oracle.branch_values(v, k, o, len(row))
            mass = entry.mass
            if len(ys) < len(row):
                # the dropped children settle as one false leaf, with no oracle call
                stats.pruned += len(row) - len(ys)
                dropped = _down(math.fsum((*row, *(-row[y] for y in ys))))
                up = min(up, math.nextafter(up - _down(mass * dropped), math.inf))
            for y in ys:
                child = v.assign(k, y)
                if frontier.add(residual_key(child, o), child, _down(mass * row[y])):
                    stats.cache_hits += 1
        elif answer == 1:
            stats.leaves_true += 1
            low = max(low, math.nextafter(low + entry.mass, -math.inf))
        else:
            stats.leaves_false += 1
            up = min(up, math.nextafter(up - entry.mass, math.inf))
        if trace is not None:
            trace.append(TraceSnapshot(stats.oracle_calls, Bounds(low, up), frontier.mass))
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

    The first snapshot is always ``approx_dpnl``'s initial ``(0, up)``; the
    lower bounds are non-decreasing and the upper bounds non-increasing.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    snapshots: list[TraceSnapshot] = []
    approx_dpnl(inst, o, oracle, _StepLimit(max_steps), heuristic, order=order, trace=snapshots)
    return snapshots
