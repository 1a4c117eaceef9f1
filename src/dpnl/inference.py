"""Exact output-probability computation by oracle-guided decomposition.

The search conditions on one unassigned variable per node and lets the
oracle cut branches whose completions are all matches (contributes
probability 1) or all mismatches (contributes 0). It is a loop over an
explicit path of open branches, not a recursion, so the depth of a search is
bounded by memory rather than by Python's call stack. With a valid oracle the
returned value is the conditional probability that the symbolic function
yields the queried output, given the event described by the starting
valuation.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """First unassigned index of a fixed permutation of all the variables
    (identity by default)."""

    def __init__(self, permutation: Optional[Sequence[int]] = None):
        if permutation is not None:
            permutation = tuple(permutation)
            if sorted(permutation) != list(range(len(permutation))):
                raise InvalidInstanceError("order %r is not a permutation" % (permutation,))
        self.permutation = permutation

    def choose(self, v: Valuation) -> int:
        cells = v.cells
        permutation = self.permutation
        if permutation is None:
            permutation = range(len(cells))
        elif len(permutation) != len(cells):
            raise InvalidInstanceError(
                "order permutes %d of %d variables" % (len(permutation), len(cells))
            )
        for k in permutation:
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


def _as_index(x, what: str) -> int:
    """``x`` by ``operator.index``: a float or other non-integer raises
    ``InvalidInstanceError``."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidInstanceError("%s %r is not an int" % (what, x)) from None


def _checked_choice(order: VariableOrder, v: Valuation) -> int:
    k = _as_index(order.choose(v), "chosen index")
    if not 0 <= k < len(v.cells):
        raise InvalidInstanceError("order chose index %d outside 0..%d" % (k, len(v.cells) - 1))
    if v.cells[k] is not None:
        raise InvalidInstanceError("order chose assigned index %d" % k)
    return k


def _search(
    inst: Instance,
    o: int,
    oracle: Oracle,
    valuation: Optional[Valuation],
    order: Optional[VariableOrder],
    record: bool,
) -> tuple[float, QueryStats, list]:
    """The exact search behind ``dpnl`` and ``dpnl_gradient`` (see ``dpnl``).

    If the oracle has a ``residual_key``, a node whose key was seen before
    reuses that node's result with no oracle call and no branch. A branch
    builds children only for the values ``oracle.branch_values`` names; a
    dropped value has no matching completion, so it adds no term. With
    ``record`` set, every evaluated node is appended to the returned list in
    post-order as ``(value, k, below)``: for a branch on k, ``below`` pairs
    each visited value with its child's node index, in value order; for a
    leaf k is None and ``below`` holds the free indices of a true leaf,
    nothing for a false one. The root comes last. Without ``record``,
    nothing per node outlives its branch unless the oracle has a key.

    The search is a loop over a path of frames, one per open branch. A
    leaf's or a memo hit's ``(value, index)`` is handed up the path, adding
    into each frame in value order, until some frame has a child left; a
    frame whose children are done is finished like a leaf.
    """
    if valuation is None:
        valuation = fresh_valuation(inst.m)
    if len(valuation) != inst.m:
        raise InvalidInstanceError(
            "valuation length %d for instance of order %d" % (len(valuation), inst.m)
        )
    for k, c in enumerate(valuation.cells):
        if c is not None and not 0 <= _as_index(c, "valuation value") < len(inst.probs[k]):
            raise InvalidInstanceError("valuation value %r out of range for variable %d" % (c, k))
    if order is None:
        order = SequentialOrder()
    stats = QueryStats()
    probs = inst.probs
    residual_key = oracle.residual_key
    memo: dict = {}
    nodes: list = []
    start = time.perf_counter()

    # a finished node's (value, index of its record or -1), memoised on its key
    def finish(value: float, k: Optional[int], below, key) -> tuple[float, int]:
        if record:
            nodes.append((value, k, below))
            result = (value, len(nodes) - 1)
        else:
            result = (value, -1)
        if residual_key is not None:
            memo[key] = result
        return result

    # one frame per open branch: [v, key, k, row, values, value so far, child indices]
    path: list = []
    v = valuation
    key = None
    while True:
        result = None
        if residual_key is not None:
            key = residual_key(v, o)
            result = memo.get(key)
        if result is not None:
            stats.cache_hits += 1
        else:
            stats.oracle_calls += 1
            answer = oracle(v, o).answer
            if answer is None:
                stats.branch_nodes += 1
                k = _checked_choice(order, v)
                row = probs[k]
                ys = oracle.branch_values(v, k, o, len(row))
                stats.pruned += len(row) - len(ys)
                path.append([v, key, k, row, ys, 0.0, []])
                v = v.assign(k, ys[0])
                continue
            if answer == 1:
                stats.leaves_true += 1
                result = finish(1.0, None, v.free_indices() if record else (), key)
            else:
                stats.leaves_false += 1
                result = finish(0.0, None, (), key)
        # hand the result up until some frame has a child left
        while path:
            frame = path[-1]
            ys, below = frame[4], frame[6]
            j = len(below)
            frame[5] += frame[3][ys[j]] * result[0]
            below.append(result[1])
            if j + 1 < len(ys):
                v = frame[0].assign(frame[2], ys[j + 1])
                break
            path.pop()
            result = finish(frame[5], frame[2], tuple(zip(ys, below)) if record else (), frame[1])
        else:
            break
    value = result[0]
    stats.wall_time = time.perf_counter() - start
    return value, stats, nodes


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
    ``P(X_k = y) * subtree(y)`` in ascending value order, over its domain
    or over the values the oracle's ``viable`` hook names. Sub-problems
    with equal residual keys are solved once. If the conditioning event has
    probability zero the conditional is mathematically undefined and the
    plain search value is returned as is.
    """
    value, stats, _ = _search(inst, o, oracle, valuation, order, record=False)
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
    reference for the search. Refuses instances with more than
    ``BRUTEFORCE_TUPLE_LIMIT`` tuples.
    """
    return _mass(_preimage(inst, sfn, o), inst.probs)


def _preimage(inst: Instance, sfn: SymbolicFunction, o: int) -> Iterator[tuple[int, ...]]:
    """The tuples that ``sfn`` maps to ``o``, lazily; the size check runs at the call."""
    n_tuples = 1
    for row in inst.probs:
        n_tuples *= len(row)
    if n_tuples > BRUTEFORCE_TUPLE_LIMIT:
        raise SizeLimitError("brute force refuses %d tuples" % n_tuples)
    fn = sfn.fn
    tuples = itertools.product(*(range(len(row)) for row in inst.probs))
    return (args for args in tuples if fn(args) == o)


def _mass(preimage: Iterable[tuple[int, ...]], rows: Sequence[Sequence[float]]) -> float:
    """Sum over the tuples of their table entries' product, in variable order."""
    total = 0.0
    for args in preimage:
        w = 1.0
        for k, x in enumerate(args):
            w *= rows[k][x]
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
        return sum(p * g for p, g in zip(inst.probs[k], self.partials[k]))


def dpnl_gradient(
    inst: Instance,
    o: int,
    oracle: Oracle,
    valuation: Optional[Valuation] = None,
    order: Optional[VariableOrder] = None,
) -> tuple[GradientResult, QueryStats]:
    """Output probability and exact gradient: one search, one reverse pass.

    The search of ``dpnl`` records its DAG, so the value matches ``dpnl``
    bit for bit. The reverse (adjoint) pass visits the nodes in reverse
    post-order, parents before children: a node's adjoint is the derivative
    of the value with respect to its own value, and a branch on k gives
    ``partials[k][y]`` its adjoint times child y's value and passes its
    adjoint times ``P(X_k = y)`` down to that child; a value the oracle's
    ``viable`` hook dropped has value 0 and gets nothing. A true leaf still
    depends on its free variables' entries, because its polynomial is the
    product of their table sums; every row is normalised, so each free
    variable's entries get the leaf's adjoint.
    """
    value, stats, nodes = _search(inst, o, oracle, valuation, order, record=True)
    start = time.perf_counter()
    probs = inst.probs
    partials = [[0.0] * len(row) for row in probs]
    adjoint = [0.0] * len(nodes)
    adjoint[-1] = 1.0
    for index in range(len(nodes) - 1, -1, -1):
        weight = adjoint[index]
        _, k, below = nodes[index]
        if k is not None:
            row = probs[k]
            grad_row = partials[k]
            for y, child in below:
                grad_row[y] += weight * nodes[child][0]
                adjoint[child] += weight * row[y]
        else:
            for k in below:
                grad_row = partials[k]
                for y in range(len(grad_row)):
                    grad_row[y] += weight
    stats.wall_time += time.perf_counter() - start
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
    search's gradient, so it serves as its oracle in tests.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError("finite-difference step must be finite and > 0, got %r" % (h,))
    preimage = list(_preimage(inst, sfn, o))
    rows = [list(row) for row in inst.probs]
    out = []
    for row in rows:
        row_grad = []
        for x in range(len(row)):
            saved = row[x]
            row[x] = saved + h
            plus = _mass(preimage, rows)
            row[x] = saved - h
            minus = _mass(preimage, rows)
            row[x] = saved
            row_grad.append((plus - minus) / (2.0 * h))
        out.append(row_grad)
    return out
