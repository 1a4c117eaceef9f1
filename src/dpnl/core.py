"""Shared domain types: finite domains, valuations, verdicts, instances."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class InvalidInstanceError(ValueError):
    """Raised when a domain, probability row or instance is malformed."""


class SizeLimitError(RuntimeError):
    """Raised when an enumeration would exceed its configured guard."""


@dataclass(frozen=True)
class Domain:
    """Finite value domain; values are the indices ``0..size-1``."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInstanceError("domain size must be >= 1, got %r" % (self.size,))


class Valuation:
    """Partial assignment of ``m`` variables; ``None`` marks an unassigned cell.

    Valuations are immutable value types: assignment returns a fresh copy and
    equality/hashing are structural, so they can be used as dict keys.

    A valuation made by ``assign`` also links to its parent: ``base`` is the
    parent's ``cells`` tuple and ``changed`` the cell it set, so the two
    differ at most there. A valuation built from cells has ``base`` and
    ``changed`` None. The link is a hint for oracles that keep state between
    calls (see ``Oracle``); it is not part of equality or hashing.
    """

    __slots__ = ("cells", "base", "changed")

    def __init__(self, cells: Sequence[Optional[int]]):
        self.cells = tuple(cells)
        self.base: Optional[tuple] = None
        self.changed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, k: int) -> Optional[int]:
        return self.cells[k]

    def __iter__(self):
        return iter(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Valuation) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        body = ",".join("_" if c is None else str(c) for c in self.cells)
        return "Valuation[%s]" % body

    @property
    def is_total(self) -> bool:
        return None not in self.cells

    def assign(self, k: int, value: int) -> "Valuation":
        """Copy of this valuation with cell ``k`` set to ``value``."""
        cells = list(self.cells)
        cells[k] = value
        # built without __init__, whose Python frame would cost more than
        # the two link slots do
        child = object.__new__(Valuation)
        child.cells = tuple(cells)
        child.base = self.cells
        child.changed = k
        return child

    def free_indices(self) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c is None]


def fresh_valuation(m: int) -> Valuation:
    """All-unassigned valuation of length ``m``."""
    if m < 0:
        raise InvalidInstanceError("variable count must be >= 0, got %r" % (m,))
    return Valuation([None] * m)


def total_completions(v: Valuation, domains: Sequence[Domain]) -> Iterator[Valuation]:
    """Stream of all total valuations extending ``v``.

    Yields exactly ``prod(|domain_k|)`` over the free cells, the leftmost free
    cell varying fastest; a total valuation yields itself once. Lazy so that
    exhaustive checks need not materialize exponential sets.
    """
    if len(v) != len(domains):
        raise InvalidInstanceError(
            "valuation length %d does not match %d domains" % (len(v), len(domains))
        )
    # itertools.product varies its last axis fastest, so feed the cells
    # reversed, an assigned cell as a one-value axis, and un-reverse each
    # combination.
    axes = [
        range(dom.size) if c is None else (c,)
        for c, dom in zip(reversed(v.cells), reversed(domains))
    ]
    for combo in itertools.product(*axes):
        yield Valuation(combo[::-1])


def completion_count(v: Valuation, domains: Sequence[Domain]) -> int:
    n = 1
    for k in v.free_indices():
        n *= domains[k].size
    return n


class OracleVerdict:
    """Three-valued oracle answer: 1, 0 or ``None`` (undecided)."""

    __slots__ = ("answer",)

    def __init__(self, answer: Optional[int]):
        if answer not in (0, 1, None):
            raise ValueError("oracle answer must be 0, 1 or None, got %r" % (answer,))
        self.answer = answer

    def __repr__(self) -> str:
        name = {1: "true", 0: "false", None: "unknown"}[self.answer]
        return "OracleVerdict(%s)" % name


# Verdicts are shared singletons; oracles on hot paths return these instead
# of allocating.
VERDICT_TRUE = OracleVerdict(1)
VERDICT_FALSE = OracleVerdict(0)
VERDICT_UNKNOWN = OracleVerdict(None)


class Instance:
    """An inference problem: one probability row per variable plus the output
    domain. The symbolic function itself travels separately.

    Each row is checked (non-empty, finite, non-negative weights with a
    positive total) and normalised; ``probs[k][x]`` is P(X_k = x).
    """

    __slots__ = ("m", "probs", "output_domain")

    def __init__(self, rows: Sequence[Sequence[float]], output_domain: Domain):
        probs = []
        for k, row in enumerate(rows):
            ws = tuple(float(w) for w in row)
            if not ws:
                raise InvalidInstanceError("row %d needs at least one entry" % k)
            for w in ws:
                if w < 0.0 or not math.isfinite(w):
                    raise InvalidInstanceError("invalid probability weight %r in row %d" % (w, k))
            try:
                total = math.fsum(ws)
            except OverflowError:
                raise InvalidInstanceError("row %d's total mass overflows" % k) from None
            if total <= 0.0:
                raise InvalidInstanceError("row %d has zero total mass" % k)
            probs.append(tuple(w / total for w in ws))
        self.m = len(probs)
        self.probs = tuple(probs)
        self.output_domain = output_domain


@dataclass
class QueryStats:
    """Work counters for one query; wall time in seconds.

    ``cache_hits`` counts nodes answered from the residual-key memo, without
    an oracle call. ``pruned`` counts the values a branch dropped on the
    oracle's ``viable`` answer; their children are never built, so they are
    not leaves.
    """

    oracle_calls: int = 0
    branch_nodes: int = 0
    leaves_true: int = 0
    leaves_false: int = 0
    wall_time: float = 0.0
    cache_hits: int = 0
    pruned: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.oracle_calls += other.oracle_calls
        self.branch_nodes += other.branch_nodes
        self.cache_hits += other.cache_hits
        self.pruned += other.pruned
        self.leaves_true += other.leaves_true
        self.leaves_false += other.leaves_false
        self.wall_time += other.wall_time
