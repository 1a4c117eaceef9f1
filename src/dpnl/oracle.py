"""Oracle abstraction and generic constructions.

An oracle answers, for a partial valuation v and an output o: do all total
completions of v map to o (1), none of them (0), or is it undecided (None)?
A valid oracle answers 1/0 only when that is sound and must decide every
total valuation; a complete one answers None only when completions genuinely
mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .core import (
    Domain,
    InvalidInstanceError,
    OracleVerdict,
    SizeLimitError,
    Valuation,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
    completion_count,
    total_completions,
)

COMPLETION_GUARD = 10**6


class SymbolicFunction:
    """Total map from complete argument tuples to an output value."""

    __slots__ = ("domains", "output_domain", "fn", "name")

    def __init__(
        self,
        domains: Sequence[Domain],
        output_domain: Domain,
        fn: Callable[[tuple[int, ...]], int],
        name: str = "",
    ):
        self.domains = tuple(domains)
        self.output_domain = output_domain
        self.fn = fn
        self.name = name

    def __repr__(self) -> str:
        return "SymbolicFunction(%s/%d)" % (self.name or "fn", len(self.domains))


class Oracle:
    """Named callable (valuation, output) -> OracleVerdict.

    ``residual_key``, if given, maps (valuation, output) to a hashable key
    under which the exact search memoises sub-problems and the anytime loop
    (``approx_dpnl``) merges queued valuations into one entry. Equal keys
    must imply the same free variables and the same output on each of their
    completions, so the same conditional value and the same partials for
    any tables; valuations none of whose completions match may share a key
    whatever their free variables.

    ``viable``, if given, maps (valuation, k, output), for a free variable
    k, to the values of k whose child may still match, in ascending order,
    or to None for all of them. A value it leaves out must have no matching
    completion through it: a branch then builds no child for it (forward
    checking), which changes no value.
    """

    __slots__ = ("fn", "name", "residual_key", "viable")

    def __init__(
        self,
        fn: Callable[[Valuation, int], OracleVerdict],
        name: str = "",
        residual_key: Optional[Callable[[Valuation, int], Hashable]] = None,
        viable: Optional[Callable[[Valuation, int, int], Optional[Sequence[int]]]] = None,
    ):
        self.fn = fn
        self.name = name
        self.residual_key = residual_key
        self.viable = viable

    def __call__(self, v: Valuation, o: int) -> OracleVerdict:
        return self.fn(v, o)

    def branch_values(self, v: Valuation, k: int, o: int, size: int) -> Sequence[int]:
        """The values ``0..size-1`` of free variable k that a branch visits:
        all of them, unless ``viable`` names some. An empty, unsorted or
        out-of-range answer raises ``InvalidInstanceError``."""
        ys = None if self.viable is None else self.viable(v, k, o)
        if ys is None:
            return range(size)
        if not ys or ys[0] < 0 or ys[-1] >= size or any(a >= b for a, b in zip(ys, ys[1:])):
            raise InvalidInstanceError(
                "viable values %r of variable %d are not ascending in 0..%d" % (ys, k, size - 1)
            )
        return ys

    def __repr__(self) -> str:
        return "Oracle(%s)" % (self.name or "fn")


def naive_oracle(sfn: SymbolicFunction) -> Oracle:
    """Oracle that only decides total valuations.

    Partial valuations always come back undecided, so a search driven by this
    oracle degenerates to full enumeration. Valid for any symbolic function.
    """

    def query(v: Valuation, o: int) -> OracleVerdict:
        if None in v.cells:
            return VERDICT_UNKNOWN
        return VERDICT_TRUE if sfn.fn(v.cells) == o else VERDICT_FALSE

    return Oracle(query, name="naive(%s)" % sfn.name)


def exhaustive_oracle(sfn: SymbolicFunction) -> Oracle:
    """Complete oracle that tests every total completion of the valuation.

    Answers 1/0 when all completions agree/disagree with the output and
    undecided as soon as it has seen one of each. Refuses valuations with
    more than ``COMPLETION_GUARD`` completions.
    """
    domains = sfn.domains
    verdicts = {1: VERDICT_TRUE, 0: VERDICT_FALSE, None: VERDICT_UNKNOWN}

    def query(v: Valuation, o: int) -> OracleVerdict:
        if completion_count(v, domains) > COMPLETION_GUARD:
            raise SizeLimitError(
                "exhaustive oracle refuses %d completions" % completion_count(v, domains)
            )
        return verdicts[_truth(v, o, sfn)]

    return Oracle(query, name="exhaustive(%s)" % sfn.name)


def _truth(v: Valuation, o: int, sfn: SymbolicFunction) -> Optional[int]:
    """1 if every total completion of ``v`` maps to ``o``, 0 if none does,
    None as soon as one completion of each kind has been seen."""
    return _scan(v, o, sfn, {})[0]


def _scan(
    v: Valuation, o: int, sfn: SymbolicFunction, drops: dict[int, set[int]]
) -> tuple[Optional[int], Optional[Valuation]]:
    """One walk over the total completions of ``v``: the truth, as in
    ``_truth``, and the first completion mapping to ``o`` that gives some
    variable k a value in ``drops[k]``, None if there is none. Stops once
    both are known."""
    agree = disagree = False
    hit = None
    for w in total_completions(v, sfn.domains):
        if sfn.fn(w.cells) == o:
            agree = True
            if drops and hit is None and any(w.cells[k] in ys for k, ys in drops.items()):
                hit = w
        else:
            disagree = True
        if agree and disagree and (hit is not None or not drops):
            return None, hit
    return (None if agree and disagree else 0 if disagree else 1), hit


@dataclass
class CheckReport:
    """Outcome of a validity or completeness check.

    ``dropped`` counts the values that the oracle's ``viable`` answers left
    out and the validity check confirmed.
    """

    passed: bool
    checked: int
    counterexample: Optional[tuple[Valuation, int, Optional[int], str]] = None
    dropped: int = 0

    def __bool__(self) -> bool:
        return self.passed


def _random_valuation(rng: random.Random, domains: Sequence[Domain], p_unknown: float) -> Valuation:
    cells = []
    for dom in domains:
        if rng.random() < p_unknown:
            cells.append(None)
        else:
            cells.append(rng.randrange(dom.size))
    return Valuation(cells)


def _all_valuations(domains: Sequence[Domain]):
    axes = [[None, *range(dom.size)] for dom in domains]
    for cells in itertools.product(*axes):
        yield Valuation(cells)


def _probe(
    oracle: Oracle,
    sfn: SymbolicFunction,
    budget: int,
    seed: int,
    exhaustive: bool,
    p_unknown: float,
    verify: Callable[
        [Oracle, OracleVerdict, Valuation, int, SymbolicFunction], tuple[int, Optional[str]]
    ],
) -> CheckReport:
    """Query the oracle on each trial and stop at the first verdict that
    ``verify`` rejects. ``verify`` returns the number of values that the
    oracle's ``viable`` answers dropped and the problem, None if fine.

    Trials are ``budget`` random (valuation, output) pairs, each cell left
    unassigned with probability ``p_unknown``, or every pair with
    ``exhaustive=True``. Valuations with more completions than
    ``COMPLETION_GUARD`` are skipped in sampling mode and refused in
    exhaustive mode.
    """
    if not exhaustive and budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    outputs = range(sfn.output_domain.size)

    def trials():
        if exhaustive:
            for v in _all_valuations(sfn.domains):
                for o in outputs:
                    yield v, o
        else:
            for _ in range(budget):
                yield _random_valuation(rng, sfn.domains, p_unknown), rng.randrange(
                    sfn.output_domain.size
                )

    checked = dropped = 0
    for v, o in trials():
        if completion_count(v, sfn.domains) > COMPLETION_GUARD:
            if exhaustive:
                raise SizeLimitError("exhaustive check exceeds completion guard")
            continue
        verdict = oracle(v, o)
        checked += 1
        count, problem = verify(oracle, verdict, v, o, sfn)
        dropped += count
        if problem is not None:
            return CheckReport(False, checked, (v, o, verdict.answer, problem), dropped)
    return CheckReport(True, checked, None, dropped)


def _verify_valid(
    oracle: Oracle, verdict: OracleVerdict, v: Valuation, o: int, sfn: SymbolicFunction
) -> tuple[int, Optional[str]]:
    """Check a decided verdict, or any verdict on a total valuation,
    against the completions. With a ``viable`` hook, also check its answer
    for every free variable of ``v``: no matching completion may take a
    dropped value. A verdict of 0, checked first, means no completion
    matches. One walk over the completions serves both checks. Returns the
    number of dropped values and the problem, None if fine; a verdict
    problem comes first and counts no dropped value."""
    answer = verdict.answer
    drops: dict[int, set[int]] = {}
    invalid = None
    if oracle.viable is not None:
        for k in v.free_indices():
            size = sfn.domains[k].size
            try:
                kept = oracle.branch_values(v, k, o, size)
            except InvalidInstanceError as err:
                invalid = str(err)
                drops = {}
                break
            if len(kept) < size:
                drops[k] = set(range(size)).difference(kept)
    count = sum(len(ys) for ys in drops.values())
    if answer == 0:
        drops = {}
    decided = answer is not None or v.is_total
    if not decided and not drops:
        return count, invalid
    truth, hit = _scan(v, o, sfn, drops)
    if decided and answer != truth:
        return 0, "answered %r but the completions say %s" % (
            answer, "undecided" if truth is None else truth
        )
    if hit is None:
        return count, invalid
    k = next(k for k, ys in drops.items() if hit.cells[k] in ys)
    return count, "viable drops X%d = %d, but %r matches" % (k, hit.cells[k], hit)


def _verify_undecided(
    oracle: Oracle, verdict: OracleVerdict, v: Valuation, o: int, sfn: SymbolicFunction
) -> tuple[int, Optional[str]]:
    """Check that an undecided verdict has completions of both kinds; None if fine."""
    if verdict.answer is not None:
        return 0, None
    truth = _truth(v, o, sfn)
    if truth is None:
        return 0, None
    return 0, "undecided but all completions %s" % ("agree" if truth == 1 else "disagree")


def check_validity(
    oracle: Oracle,
    sfn: SymbolicFunction,
    budget: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
) -> CheckReport:
    """Probe an oracle for soundness violations.

    Samples ``budget`` random (valuation, output) pairs (or enumerates all of
    them with ``exhaustive=True``) and, for every decided answer, verifies the
    decision against every total completion. If the oracle has a ``viable``
    hook, each pair also checks its answer for every free variable: no
    matching completion may take a dropped value. Valuations with more
    completions than ``COMPLETION_GUARD`` are skipped in sampling mode and
    refused in exhaustive mode.
    """
    return _probe(oracle, sfn, budget, seed, exhaustive, 0.4, _verify_valid)


def check_completeness(
    oracle: Oracle,
    sfn: SymbolicFunction,
    budget: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
) -> CheckReport:
    """Probe an oracle for undecided answers it could have decided.

    For every undecided answer, verifies that the completions genuinely mix:
    at least one maps to the output and at least one maps elsewhere.
    """
    return _probe(oracle, sfn, budget, seed, exhaustive, 0.6, _verify_undecided)
