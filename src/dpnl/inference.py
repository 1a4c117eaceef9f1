"""Exact output-probability computation by oracle-guided decomposition.

The search recursively conditions on one unassigned variable per node and
lets the oracle cut branches whose completions are all matches (contributes
probability 1) or all mismatches (contributes 0). With a valid oracle the
returned value is the conditional probability that the symbolic function
yields the queried output, given the event described by the starting
valuation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    Instance,
    InvalidInstanceError,
    QueryStats,
    SizeLimitError,
    Valuation,
    fresh_valuation,
)
from .oracle import Oracle, SymbolicFunction

BRUTEFORCE_TUPLE_LIMIT = 10**7


class VariableOrder:
    """Policy choosing which unassigned variable a node branches on."""

    def choose(self, v: Valuation) -> int:
        raise NotImplementedError


class SequentialOrder(VariableOrder):
    """First unassigned index of a fixed permutation (identity by default)."""

    def __init__(self, permutation: Optional[Sequence[int]] = None):
        self.permutation = tuple(permutation) if permutation is not None else None

    def choose(self, v: Valuation) -> int:
        cells = v.cells
        if self.permutation is None:
            for k, c in enumerate(cells):
                if c is None:
                    return k
        else:
            for k in self.permutation:
                if cells[k] is None:
                    return k
        raise InvalidInstanceError("no unassigned variable to choose")

    def __repr__(self) -> str:
        return "SequentialOrder(%r)" % (self.permutation,)


class CustomOrder(VariableOrder):
    """Adapter around a user callback from valuation to variable index."""

    def __init__(self, fn: Callable[[Valuation], int]):
        self.fn = fn

    def choose(self, v: Valuation) -> int:
        return self.fn(v)


def _checked_choice(order: VariableOrder, v: Valuation) -> int:
    k = order.choose(v)
    if v.cells[k] is not None:
        raise InvalidInstanceError("order chose assigned index %d" % k)
    return k


def dpnl(
    inst: Instance,
    o: int,
    oracle: Oracle,
    valuation: Optional[Valuation] = None,
    order: Optional[VariableOrder] = None,
) -> tuple[float, QueryStats]:
    """Probability that the output equals ``o``, conditioned on ``valuation``.

    Each node queries the oracle: a decided verdict contributes 1 or 0, an
    undecided one branches on an unassigned variable k and sums
    ``P(X_k = y) * subtree(y)`` over its domain in ascending value order.
    If the conditioning event has probability zero the conditional is
    mathematically undefined and the plain recursion value is returned as is.
    """
    if valuation is None:
        valuation = fresh_valuation(inst.m)
    if len(valuation) != inst.m:
        raise InvalidInstanceError(
            "valuation length %d for instance of order %d" % (len(valuation), inst.m)
        )
    if order is None:
        order = SequentialOrder()
    stats = QueryStats()
    probs = [d.probs for d in inst.dists]
    start = time.perf_counter()

    def rec(v: Valuation) -> float:
        stats.oracle_calls += 1
        answer = oracle(v, o).answer
        if answer == 1:
            stats.leaves_true += 1
            return 1.0
        if answer == 0:
            stats.leaves_false += 1
            return 0.0
        stats.branch_nodes += 1
        k = _checked_choice(order, v)
        acc = 0.0
        for y, p in enumerate(probs[k]):
            acc += p * rec(v.assign(k, y))
        return acc

    value = rec(valuation)
    stats.wall_time = time.perf_counter() - start
    return value, stats


def output_distribution(
    inst: Instance,
    oracle: Oracle,
    order: Optional[VariableOrder] = None,
) -> tuple[dict[int, float], QueryStats]:
    """Full output distribution: one query from the fresh valuation per output.

    Stats are aggregated across the queries.
    """
    total = QueryStats()
    dist: dict[int, float] = {}
    for o in range(inst.output_domain.size):
        value, stats = dpnl(inst, o, oracle, order=order)
        dist[o] = value
        total.merge(stats)
    return dist, total


def bruteforce_probability(inst: Instance, sfn: SymbolicFunction, o: int) -> float:
    """Definitional output probability: sum the product of per-variable
    probabilities over every argument tuple the function maps to ``o``.

    Full enumeration, no search, no oracle; serves as the independent
    reference for the recursive computation. Refuses instances with more
    than ``BRUTEFORCE_TUPLE_LIMIT`` tuples.
    """
    n_tuples = 1
    for dom in inst.domains:
        n_tuples *= dom.size
    if n_tuples > BRUTEFORCE_TUPLE_LIMIT:
        raise SizeLimitError("brute force refuses %d tuples" % n_tuples)
    probs = [d.probs for d in inst.dists]
    fn = sfn.fn
    total = 0.0
    for args in itertools.product(*(range(dom.size) for dom in inst.domains)):
        if fn(args) == o:
            w = 1.0
            for k, x in enumerate(args):
                w *= probs[k][x]
            total += w
    return total


@dataclass
class GradientResult:
    """Output probability plus its partials w.r.t. every table entry.

    ``partials[k][x]`` is the derivative of the output probability with
    respect to the probability of variable k taking value x, treating all
    table entries as free (unnormalized) coordinates. The probability is
    multilinear in them, so ``sum_x p_k(x) * partials[k][x]`` reconstructs
    the value for every k.
    """

    value: float
    partials: list[list[float]]

    def reconstruct(self, inst: Instance, k: int) -> float:
        row = inst.dists[k].probs
        return sum(p * g for p, g in zip(row, self.partials[k]))


def dpnl_gradient(
    inst: Instance,
    o: int,
    oracle: Oracle,
    valuation: Optional[Valuation] = None,
    order: Optional[VariableOrder] = None,
) -> tuple[GradientResult, QueryStats]:
    """Output probability and exact gradient in one traversal.

    Forward accumulation along the recursion: a branch on (k, y) contributes
    the path weight times the subtree value to ``partials[k][y]``. A branch
    cut by a positive verdict still depends on the unbranched variables'
    entries, because the subtree polynomial is the product of their table
    sums; those partials are completed at the leaf via prefix/suffix products
    of the sums. The value is computed with the identical operations and
    traversal as the plain query, so it matches bit for bit.
    """
    if valuation is None:
        valuation = fresh_valuation(inst.m)
    if len(valuation) != inst.m:
        raise InvalidInstanceError(
            "valuation length %d for instance of order %d" % (len(valuation), inst.m)
        )
    if order is None:
        order = SequentialOrder()
    stats = QueryStats()
    probs = [d.probs for d in inst.dists]
    masses = [sum(row) for row in probs]
    partials = [[0.0] * len(row) for row in probs]
    start = time.perf_counter()

    def rec(v: Valuation, weight: float) -> float:
        stats.oracle_calls += 1
        answer = oracle(v, o).answer
        if answer == 1:
            stats.leaves_true += 1
            free = v.free_indices()
            if free:
                # prefix[i] = prod of masses[free[:i]], suffix[i] = prod of masses[free[i:]]
                prefix = [1.0] * (len(free) + 1)
                for i, k in enumerate(free):
                    prefix[i + 1] = prefix[i] * masses[k]
                suffix = [1.0] * (len(free) + 1)
                for i in range(len(free) - 1, -1, -1):
                    suffix[i] = suffix[i + 1] * masses[free[i]]
                for i, k in enumerate(free):
                    coeff = weight * prefix[i] * suffix[i + 1]
                    row = partials[k]
                    for y in range(len(row)):
                        row[y] += coeff
            return 1.0
        if answer == 0:
            stats.leaves_false += 1
            return 0.0
        stats.branch_nodes += 1
        k = _checked_choice(order, v)
        row = probs[k]
        grad_row = partials[k]
        acc = 0.0
        for y, p in enumerate(row):
            child = rec(v.assign(k, y), weight * p)
            grad_row[y] += weight * child
            acc += p * child
        return acc

    value = rec(valuation, 1.0)
    stats.wall_time = time.perf_counter() - start
    return GradientResult(value, partials), stats


def finite_difference_partials(
    inst: Instance,
    sfn: SymbolicFunction,
    o: int,
    h: float = 1e-6,
) -> list[list[float]]:
    """Central-difference partials of the definitional output probability.

    Perturbs one table entry at a time by +/- h (without renormalizing) and
    evaluates the enumeration sum at both points. Independent of the
    recursive gradient, so it serves as its oracle in tests.
    """
    n_tuples = 1
    for dom in inst.domains:
        n_tuples *= dom.size
    if n_tuples > BRUTEFORCE_TUPLE_LIMIT:
        raise SizeLimitError("finite differences refuse %d tuples" % n_tuples)
    fn = sfn.fn
    preimage = [
        args
        for args in itertools.product(*(range(dom.size) for dom in inst.domains))
        if fn(args) == o
    ]
    rows = [list(d.probs) for d in inst.dists]

    def evaluate() -> float:
        total = 0.0
        for args in preimage:
            w = 1.0
            for k, x in enumerate(args):
                w *= rows[k][x]
            total += w
        return total

    out = []
    for k in range(inst.m):
        row_grad = []
        for x in range(inst.domains[k].size):
            saved = rows[k][x]
            rows[k][x] = saved + h
            plus = evaluate()
            rows[k][x] = saved - h
            minus = evaluate()
            rows[k][x] = saved
            row_grad.append((plus - minus) / (2.0 * h))
        out.append(row_grad)
    return out
