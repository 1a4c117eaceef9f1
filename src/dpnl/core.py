"""Shared domain types: finite domains, valuations, distributions, verdicts."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class InvalidInstanceError(ValueError):
    """Raised when a domain, distribution or instance is malformed."""


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
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Sequence[Optional[int]]):
        self.cells = tuple(cells)

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
        return Valuation(cells)

    def free_indices(self) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c is None]


def fresh_valuation(m: int) -> Valuation:
    """All-unassigned valuation of length ``m``."""
    if m < 1:
        raise InvalidInstanceError("variable count must be >= 1, got %r" % (m,))
    return Valuation([None] * m)


def is_subvaluation(v_sub: Valuation, v: Valuation) -> bool:
    """True iff ``v_sub`` agrees with ``v`` on every cell ``v`` assigns."""
    if len(v_sub) != len(v):
        raise InvalidInstanceError(
            "length mismatch: %d vs %d" % (len(v_sub), len(v))
        )
    for a, b in zip(v_sub.cells, v.cells):
        if b is not None and a != b:
            return False
    return True


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
    free = v.free_indices()
    # itertools.product varies its last axis fastest, so feed the free cells
    # reversed and un-reverse each combination.
    axes = [range(domains[k].size) for k in reversed(free)]
    base = list(v.cells)
    for combo in itertools.product(*axes):
        cells = base[:]
        for k, value in zip(free, reversed(combo)):
            cells[k] = value
        yield Valuation(cells)


def completion_count(v: Valuation, domains: Sequence[Domain]) -> int:
    n = 1
    for k in v.free_indices():
        n *= domains[k].size
    return n


class DiscreteDistribution:
    """Probability table over one variable's domain.

    Construction rejects negative entries and normalizes the weights.
    ``probs`` always sums to 1 within 1e-9.
    """

    __slots__ = ("probs",)

    def __init__(self, weights: Sequence[float]):
        ws = tuple(float(w) for w in weights)
        if not ws:
            raise InvalidInstanceError("distribution needs at least one entry")
        for w in ws:
            if w < 0.0 or not math.isfinite(w):
                raise InvalidInstanceError("invalid probability weight %r" % (w,))
        total = math.fsum(ws)
        if total <= 0.0:
            raise InvalidInstanceError("distribution has zero total mass")
        self.probs = tuple(w / total for w in ws)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, value: int) -> float:
        return self.probs[value]

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDistribution) and self.probs == other.probs

    def __hash__(self) -> int:
        return hash(self.probs)

    def __repr__(self) -> str:
        return "DiscreteDistribution(%s)" % (list(self.probs),)

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        return cls([1.0] * size)

    @classmethod
    def point_mass(cls, size: int, value: int) -> "DiscreteDistribution":
        ws = [0.0] * size
        ws[value] = 1.0
        return cls(ws)


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
    """An inference problem: per-variable domains and distributions plus the
    output domain. The symbolic function itself travels separately."""

    __slots__ = ("m", "domains", "dists", "output_domain")

    def __init__(
        self,
        domains: Sequence[Domain],
        dists: Sequence[DiscreteDistribution],
        output_domain: Domain,
    ):
        domains = tuple(domains)
        dists = tuple(dists)
        if len(domains) < 1:
            raise InvalidInstanceError("instance needs at least one variable")
        if len(dists) != len(domains):
            raise InvalidInstanceError(
                "%d domains but %d distributions" % (len(domains), len(dists))
            )
        for k, (dom, dist) in enumerate(zip(domains, dists)):
            if len(dist) != dom.size:
                raise InvalidInstanceError(
                    "distribution %d has %d entries for a domain of size %d"
                    % (k, len(dist), dom.size)
                )
        self.m = len(domains)
        self.domains = domains
        self.dists = dists
        self.output_domain = output_domain

    def prob(self, k: int, value: int) -> float:
        return self.dists[k].probs[value]


@dataclass
class QueryStats:
    """Work counters for one query; wall time in seconds.

    ``cache_hits`` counts nodes answered from the residual-key memo, without
    an oracle call.
    """

    oracle_calls: int = 0
    branch_nodes: int = 0
    leaves_true: int = 0
    leaves_false: int = 0
    wall_time: float = 0.0
    cache_hits: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.oracle_calls += other.oracle_calls
        self.branch_nodes += other.branch_nodes
        self.cache_hits += other.cache_hits
        self.leaves_true += other.leaves_true
        self.leaves_false += other.leaves_false
        self.wall_time += other.wall_time
