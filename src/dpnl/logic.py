"""Ground Horn probabilistic logic programs and the oracle derived from them.

A program is a set of ground, negation-free rules: deterministic ones always
hold, probabilistic ones are independently present with their annotated
probability. The query's success probability is the total probability of
rule subsets that entail it. Entailment is decided by forward chaining in
time linear in the program, which makes the derived oracle polynomial per
call while the query's explicit proof enumeration can blow up factorially
(see ``provenance_clause_count``).
"""

from __future__ import annotations

import math
import re
from itertools import compress, count, islice, repeat
from operator import is_, ne
from typing import Iterable, Optional, Sequence

from .core import (
    Domain,
    Instance,
    InvalidInstanceError,
    OracleVerdict,
    QueryStats,
    SizeLimitError,
    Valuation,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
)
from .inference import BRUTEFORCE_TUPLE_LIMIT, CustomOrder, VariableOrder, dpnl
from .oracle import Oracle, SymbolicFunction


class ProgramError(ValueError):
    """Program text rejected; carries the offending line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DegeneratePrefixError(ValueError):
    """Annotated-disjunction prefix already sums to 1 before a positive entry."""


class HornProgram:
    """Ground negation-free rules split into deterministic and probabilistic.

    Atoms are interned to dense integer ids at construction; rules keep their
    given order. ``m`` is the number of probabilistic rules, i.e. the number
    of binary random variables of the derived inference problem.
    """

    __slots__ = (
        "atom_names",
        "atom_ids",
        "det_rules",
        "prob_rules",
        "probs",
        "query",
        "_solver",
    )

    def __init__(
        self,
        deterministic: Iterable[tuple[str, Sequence[str]]],
        probabilistic: Iterable[tuple[float, str, Sequence[str]]],
        query: str,
    ):
        self.atom_names: list[str] = []
        self.atom_ids: dict[str, int] = {}
        self.det_rules: list[tuple[int, tuple[int, ...]]] = []
        self.prob_rules: list[tuple[int, tuple[int, ...]]] = []
        self.probs: list[float] = []
        for head, body in deterministic:
            self.det_rules.append(self._intern_rule(head, body))
        for p, head, body in probabilistic:
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise InvalidInstanceError("probability %r outside [0,1]" % (p,))
            self.prob_rules.append(self._intern_rule(head, body))
            self.probs.append(p)
        self.query = self._intern(query)
        self._solver = None

    def _intern(self, name: str) -> int:
        atom_id = self.atom_ids.get(name)
        if atom_id is None:
            atom_id = len(self.atom_names)
            self.atom_ids[name] = atom_id
            self.atom_names.append(name)
        return atom_id

    def _intern_rule(self, head: str, body: Sequence[str]) -> tuple[int, tuple[int, ...]]:
        head_id = self._intern(head)
        # duplicate body atoms would double-count in the propagation counters
        body_ids = tuple(dict.fromkeys(self._intern(b) for b in body))
        return head_id, body_ids

    @property
    def m(self) -> int:
        return len(self.prob_rules)

    @property
    def num_atoms(self) -> int:
        return len(self.atom_names)

    def solver(self) -> "_Solver":
        """The program's one propagation state, built on first use.

        It is mutable and shared by the program's oracle, variable order and
        ``SymbolicFunction``; see ``_Solver`` for what that allows.
        """
        if self._solver is None:
            self._solver = _Solver(self)
        return self._solver

    def __repr__(self) -> str:
        return "HornProgram(det=%d, prob=%d, atoms=%d)" % (
            len(self.det_rules),
            self.m,
            self.num_atoms,
        )


class _Solver:
    """Incremental counter-based forward chaining over one program's rules.

    Probabilistic rules come first in the rule arrays, so rule k < m is
    variable k; the deterministic ones follow. One state persists between
    calls:

    - the derived atoms;
    - for every rule, the number of its body atoms not yet derived, kept
      against the derived set whether or not the rule is enabled;
    - per-rule enabled flags (deterministic rules are always enabled);
    - a trail of derived atoms, cut into one level per enabled probabilistic
      rule. Atoms derived from the deterministic rules alone sit below the
      first level and are never undone.

    Each query commits its valuation first: the levels from the lowest one
    whose rule is no longer assigned 1 are undone (their atoms popped, each
    giving one missing count back to the rules that watch it), then every
    rule assigned 1 and not enabled gets a new level and is propagated, as a
    SAT solver undoes its trail on backtrack (Eén and Sörensson, SAT 2003).
    Propagation is the linear-time counter scheme of Dowling and Gallier
    (1984), with the trail as its queue; it never recurses. Committing the
    tuple committed last again does no work, as ``choose`` does after
    ``verdict``; an equal but distinct tuple costs a compare of the two in
    C; otherwise the cost is the work of the undone and the new levels.

    The oracle's answer (``verdict``) and the variable order (``choose``)
    are read from this state: the derived atoms and the missing counts.

    The program's landmarks are computed once, at construction: the
    probabilistic rules that every derivation of the query uses
    (``_landmarks``). A valuation only removes rules, so a landmark of the
    program is a landmark of every sub-program the search visits.
    ``_commit`` walks the changed cells anyway, and keeps two counts up to
    date there:

    - ``dead``, the number of landmark rules assigned 0, plus 1 when no rule
      set derives the query at all;
    - ``broken``, the number of rules of the current certificate (see
      ``verdict``) assigned 0, against per-rule ``in_certificate`` flags.

    The state is mutable and shared by everything built on one program: its
    oracle, its variable order and its ``SymbolicFunction``. Interleaved
    calls are safe, because each call commits its own valuation before it
    reads the state; concurrent calls from several threads are not.
    """

    def __init__(self, prog: HornProgram):
        rules = list(prog.prob_rules) + list(prog.det_rules)
        self.heads = [h for h, _ in rules]
        self.query = prog.query
        watchers: list[list[int]] = [[] for _ in range(prog.num_atoms)]
        for r, (_, body) in enumerate(rules):
            for a in body:
                watchers[a].append(r)
        self.watchers = watchers
        self.derived = bytearray(prog.num_atoms)
        self.missing = [len(b) for _, b in rules]
        self.enabled = bytearray(len(rules))
        self.trail: list[int] = []
        self.level_rules: list[int] = []  # probabilistic rule of each level
        self.level_starts: list[int] = []  # trail length when it was enabled
        self.level_of = [0] * prog.m  # level of each committed rule
        self.cells: tuple = (None,) * prog.m  # the committed valuation
        # see verdict
        self.certificate: Optional[list[int]] = None
        self.in_certificate = bytearray(prog.m)  # 1 for each certificate rule
        self.broken = 0  # certificate rules assigned 0
        landmarks = _landmarks(rules, prog.m, prog.query, watchers)
        self.landmark = bytearray(prog.m)  # 1 for each landmark rule
        for k, bit in enumerate(bin(landmarks or 0)[:1:-1]):
            if bit == "1":
                self.landmark[k] = 1
        self.dead = 1 if landmarks is None else 0
        self._enable(range(prog.m, len(rules)))

    def _enable(self, rules: Iterable[int]) -> None:
        """Enable the rules and propagate: each derived atom takes one
        missing count from every rule that watches it, and an enabled rule
        left with none derives its head. The trail is the queue."""
        trail = self.trail
        derived = self.derived
        missing = self.missing
        enabled = self.enabled
        heads = self.heads
        watchers = self.watchers
        i = len(trail)
        for r in rules:
            enabled[r] = 1
            if not missing[r]:
                h = heads[r]
                if not derived[h]:
                    derived[h] = 1
                    trail.append(h)
        for a in islice(trail, i, None):
            for r in watchers[a]:
                n = missing[r] - 1
                missing[r] = n
                if n == 0 and enabled[r]:
                    h = heads[r]
                    if not derived[h]:
                        derived[h] = 1
                        trail.append(h)

    def _undo(self, t: int) -> None:
        """Pop the trail back to length ``t``."""
        trail = self.trail
        derived = self.derived
        missing = self.missing
        watchers = self.watchers
        for a in trail[t:]:
            derived[a] = 0
            for r in watchers[a]:
                missing[r] += 1
        del trail[t:]

    def _commit(self, cells: tuple) -> None:
        """Bring the state to the rules assigned 1 in ``cells``."""
        prev = self.cells
        if cells is prev or cells == prev:
            return
        if len(cells) != len(prev):
            raise InvalidInstanceError(
                "valuation length %d does not match %d rules" % (len(cells), len(prev))
            )
        enabled = self.enabled
        landmark = self.landmark
        in_certificate = self.in_certificate
        level_rules = self.level_rules
        level_of = self.level_of
        new = []
        lowest = len(level_rules)
        for k in compress(count(), map(ne, cells, prev)):
            c = cells[k]
            p = prev[k]
            zeros = (c == 0) - (p == 0)
            if landmark[k]:
                self.dead += zeros
            if in_certificate[k]:
                self.broken += zeros
            if c == 1:
                new.append(k)
            elif enabled[k]:
                lowest = min(lowest, level_of[k])
        if lowest < len(level_rules):
            self._undo(self.level_starts[lowest])
            kept = []
            for k in level_rules[lowest:]:
                enabled[k] = 0
                if cells[k] == 1:
                    kept.append(k)
            del level_rules[lowest:]
            del self.level_starts[lowest:]
            new = kept + new
        for k in new:
            level_of[k] = len(level_rules)
            level_rules.append(k)
            self.level_starts.append(len(self.trail))
            self._enable((k,))
        self.cells = cells

    def committed_fixpoint(self, cells: Sequence) -> bytearray:
        """Derived atoms of the deterministic rules plus the probabilistic
        rules assigned 1. The array is the solver's live state: read it
        before the next call on this solver."""
        self._commit(tuple(cells))
        return self.derived

    def entails_committed(self, cells: Sequence) -> bool:
        return bool(self.committed_fixpoint(cells)[self.query])

    def verdict(self, cells: tuple) -> Optional[int]:
        """1 once the committed rules (assigned 1) derive the query, 0 once
        the optimistic ones (not assigned 0) cannot, None otherwise; both
        decisions are sound by monotonicity.

        The optimistic run enables the unassigned rules on top of the
        committed state, reads the query and undoes the trail. A run that
        derives the query leaves a certificate: the probabilistic rules not
        assigned 0 whose heads it derived. They include every rule that
        fired, so while none of them is assigned 0 the optimistic answer is
        yes without propagation. The run that builds the certificate flags
        its rules, in O(m) as building the list is; from then on ``_commit``
        counts the flagged rules assigned 0 (``broken``), and the test reads
        that count.

        Before the certificate and the optimistic run, the answer is 0 while
        ``dead`` is positive: a landmark rule assigned 0 leaves the
        optimistic rules without one that every derivation uses, so this
        answers 0 only where the optimistic run would, without running it.

        A call costs the change of the committed rules since the previous
        call, plus one optimistic run and its undo when no landmark decides
        and the certificate does not hold. The landmark and certificate
        tests each read a count that ``_commit`` keeps, in O(1). A total
        valuation needs no test of its own: once its committed rules do not
        derive the query, a certificate that held would have every rule
        assigned 1 and derive it, so the call reaches the optimistic run,
        which enables nothing and answers 0.

        On a chain ``a_{k+1} :- a_k, f_k`` every fact is a landmark, so no
        ``f_k = 0`` child runs the propagation, and the root call's
        certificate answers every ``f_k = 1`` child. What each call still
        costs in O(m), at C speed, is the compare of the valuation with the
        committed one in ``_commit`` and the engine's ``Valuation`` copies.
        """
        self._commit(cells)
        derived = self.derived
        query = self.query
        if derived[query]:
            return 1
        if self.dead:
            return 0
        if self.certificate is not None and not self.broken:
            return None
        t = len(self.trail)
        free = list(compress(count(), map(is_, cells, repeat(None))))
        self._enable(free)
        found = derived[query]
        if found:
            heads = self.heads
            cert = [r for r, c in enumerate(cells) if c != 0 and derived[heads[r]]]
            in_certificate = bytearray(len(cells))
            for r in cert:
                in_certificate[r] = 1
            self.certificate = cert
            self.in_certificate = in_certificate
            self.broken = 0
        self._undo(t)
        enabled = self.enabled
        for r in free:
            enabled[r] = 0
        return None if found else 0

    def choose(self, cells: tuple) -> int:
        """The order of ``applicable_rule_order``, read from the missing
        counts of the committed state: a body is derived when it misses
        nothing, and a consumer of an underived head h has every other body
        atom derived when it misses one (h itself; bodies hold no
        duplicates)."""
        self._commit(cells)
        derived = self.derived
        missing = self.missing
        heads = self.heads
        watchers = self.watchers
        live = None
        for r in compress(count(), map(is_, cells, repeat(None))):
            h = heads[r]
            if derived[h] or missing[r]:
                continue
            if h == self.query:
                return r
            for c in watchers[h]:
                if not derived[heads[c]]:
                    if missing[c] == 1:
                        return r
                    if live is None:
                        live = r
        if live is not None:
            return live
        if None not in cells:
            raise InvalidInstanceError("no unassigned variable to choose")
        return cells.index(None)


def _landmarks(
    rules: Sequence[tuple[int, tuple[int, ...]]],
    m: int,
    query: int,
    watchers: Sequence[Sequence[int]],
) -> Optional[int]:
    """The probabilistic rules (those below index ``m``) that every
    derivation of the query uses, as a bitset; None when no rule set derives
    the query.

    The greatest fixpoint of LM(a) = the intersection, over a's rules r, of
    LM(r) = {r if r < m} | the union of LM(b) over r's body, where an atom's
    set is unset ("every rule") until the atom is first derived: landmarks
    of an AND/OR graph (Hoffmann, Porteous and Sebastia, JAIR 2004; Keyder,
    Richter and Helmert, ECAI 2010). Sets are Python ints, one bit per
    probabilistic rule. A worklist starts from the bodiless rules; a rule is
    queued once its body is derived, and again whenever the set of one of
    its body atoms shrinks. Each set shrinks at most ``m`` times whatever
    the rule order, where a loop of passes until nothing changes needs one
    pass per link on a chain listed backwards: O(m^2) rule visits.
    """
    lm: list[Optional[int]] = [None] * len(watchers)
    missing = [len(b) for _, b in rules]
    work = [r for r, (_, body) in enumerate(rules) if not body]  # the queue
    queued = bytearray(len(rules))
    for r in work:
        queued[r] = 1
    for r in work:
        queued[r] = 0
        head, body = rules[r]
        s = 1 << r if r < m else 0
        for b in body:
            s |= lm[b]
        old = lm[head]
        if old is None:
            lm[head] = s
            for c in watchers[head]:
                missing[c] -= 1
                if not missing[c]:
                    queued[c] = 1
                    work.append(c)
        elif old & ~s:
            lm[head] = old & s
            for c in watchers[head]:
                if not missing[c] and not queued[c]:
                    queued[c] = 1
                    work.append(c)
    return lm[query]


def entails(rules: Iterable[tuple[object, Sequence[object]]], query: object) -> bool:
    """Ground Horn entailment by forward chaining to fixpoint.

    ``rules`` are (head, body) pairs over arbitrary hashable atoms; facts have
    empty bodies. True iff the query atom is derivable; an atom never
    mentioned is simply not derivable.
    """
    return HornProgram(rules, [], query).solver().entails_committed(())


def logic_oracle(prog: HornProgram) -> Oracle:
    """Valid and complete oracle for the program's query function: the
    solver's ``verdict`` for an output of 1, inverted for an output of 0."""
    solver = prog.solver()

    def query(v: Valuation, o: int) -> OracleVerdict:
        if o not in (0, 1):
            raise InvalidInstanceError("query output must be 0 or 1, got %r" % (o,))
        res = solver.verdict(v.cells)
        if res is None:
            return VERDICT_UNKNOWN
        return VERDICT_TRUE if res == o else VERDICT_FALSE

    return Oracle(query, name="horn")


def applicable_rule_order(prog: HornProgram) -> VariableOrder:
    """Branch on the first unassigned probabilistic rule, in index order, that
    would extend the committed derivation by one step.

    Against the fixpoint of the committed rules (assigned 1), a rule is
    applicable when its body is derived, its head is not, and either its head
    is the query or some consuming rule (one with that head in its body) has
    an underived head and every other body atom derived. On reachability
    programs these are the frontier edges: edges from reached nodes into
    unreached ones, and on a chain the next link. Failing that, the first
    rule that can still matter is taken (body derived, head underived, some
    consumer's head underived), then the first unassigned index. The tiers
    are read from the solver's counters (``_Solver.choose``).
    """
    solver = prog.solver()
    return CustomOrder(lambda v: solver.choose(v.cells))


def logic_instance(prog: HornProgram) -> tuple[Instance, SymbolicFunction, Oracle]:
    """Inference problem for the query: one binary variable per probabilistic
    rule (1 = present, with the annotated probability), output 1 = success."""
    solver = prog.solver()

    def fn(args: tuple[int, ...]) -> int:
        return 1 if solver.entails_committed(args) else 0

    sfn = SymbolicFunction([Domain(2)] * prog.m, Domain(2), fn, name="horn")
    inst = Instance([(1.0 - p, p) for p in prog.probs], Domain(2))
    return inst, sfn, logic_oracle(prog)


def success_probability(
    prog: HornProgram,
    order: Optional[VariableOrder] = None,
) -> tuple[float, QueryStats]:
    """Probability that the query succeeds, by oracle-guided search."""
    inst, _, oracle = logic_instance(prog)
    if order is None:
        order = applicable_rule_order(prog)
    return dpnl(inst, 1, oracle, order=order)


def success_probability_bruteforce(prog: HornProgram) -> float:
    """Definitional success probability: sum over all rule subsets that
    entail the query of the product of presence/absence probabilities.

    Independent of the oracle-guided search and of its solver. The 2^m
    subsets are taken in blocks of at most 2^16, with one numpy boolean
    array per atom holding, for each subset of the block, whether the atom
    is derived. Forward chaining runs on those arrays with a worklist, as
    ``_landmarks`` does: the bodiless rules are checked first, and any rule
    again only when the array of one of its body atoms grows, so a chain
    listed backwards takes one check per rule. A subset's weight multiplies
    its entries, in variable order, of the rows ``(1 - p, p)`` normalised as
    ``Instance`` normalises them. Programs beyond ``BRUTEFORCE_TUPLE_LIMIT``
    subsets (m <= 23) are refused before anything is allocated.
    """
    n_subsets = 2**prog.m
    if n_subsets > BRUTEFORCE_TUPLE_LIMIT:
        raise SizeLimitError("brute force refuses %d tuples" % n_subsets)
    import numpy as np

    rows = Instance([(1.0 - p, p) for p in prog.probs], Domain(2)).probs
    rules = prog.prob_rules + prog.det_rules
    watchers: list[list[int]] = [[] for _ in range(prog.num_atoms)]
    for r, (_, body) in enumerate(rules):
        for a in body:
            watchers[a].append(r)
    size = min(n_subsets, 1 << 16)
    everywhere = np.ones(size, dtype=bool)
    total = 0.0
    for start in range(0, n_subsets, size):
        subsets = np.arange(start, start + size)
        present = [(subsets >> k & 1).astype(bool) for k in range(prog.m)]
        derived = [np.zeros(size, dtype=bool) for _ in range(prog.num_atoms)]
        # the queue; a bodiless rule watches no atom, so it is never queued again
        work = [r for r, (_, body) in enumerate(rules) if not body]
        queued = bytearray(len(rules))
        for r in work:
            queued[r] = 0
            head, body = rules[r]
            fires = present[r] if r < prog.m else everywhere
            for b in body:
                fires = fires & derived[b]
            if np.any(fires > derived[head]):
                derived[head] |= fires
                for c in watchers[head]:
                    if not queued[c]:
                        queued[c] = 1
                        work.append(c)
        weights = np.ones(size)
        for k, (absent, there) in enumerate(rows):
            weights *= np.where(present[k], there, absent)
        total += float(weights[derived[prog.query]].sum())
    return total


# ---------------------------------------------------------------------------
# program text format

_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?")
_CONST_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*")
_QUERY_RE = re.compile(r"query\s*\((.*)\)")
# a comma with no ")" before the next "(": in a list of valid atoms, or of
# constant arguments, which nest no parentheses, exactly the depth-0 commas
_SEP = re.compile(r",(?![^(]*\))")


def _split_list(text: str) -> list[str]:
    """``_SEP.split(text)``. Text without parentheses is split at every
    comma by ``str.split``, in linear time: ``_SEP``'s lookahead scans to
    the next ``(`` or the end, quadratic on a long list."""
    if "(" in text or ")" in text:
        return _SEP.split(text)
    return text.split(",")


def _parse_atom(text: str, lineno: int) -> str:
    text = text.strip()
    match = _ATOM_RE.fullmatch(text)
    if not match:
        raise ProgramError("cannot parse atom %r" % text, lineno)
    name, args_text = match.groups()
    if name[0].isupper() or name[0] == "_":
        raise ProgramError(
            "ground programs only: %r looks like a variable" % name, lineno
        )
    if args_text is None:
        return name
    args = [a.strip() for a in _split_list(args_text)]
    if not all(args):
        raise ProgramError("empty argument in %r" % text, lineno)
    for a in args:
        if not _CONST_RE.fullmatch(a):
            raise ProgramError(
                "ground programs only: argument %r is not a constant" % a, lineno
            )
    return "%s(%s)" % (name, ",".join(args))


def parse_program(text: str) -> HornProgram:
    """Parse the line-oriented program format.

    Statements end with a period, one per line; ``%`` starts a comment.
    Facts are ``atom.``, rules ``head :- b1, ..., bn.``, probabilistic facts
    ``0.85 :: atom.`` and the single required query ``query(atom).``.
    Variables (uppercase-initial arguments) are rejected: inputs must be
    ground.
    """
    deterministic: list[tuple[str, list[str]]] = []
    probabilistic: list[tuple[float, str, list[str]]] = []
    query: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ProgramError("statement does not end with '.'", lineno)
        stmt = line[:-1].strip()
        if not stmt:
            raise ProgramError("empty statement", lineno)
        query_match = _QUERY_RE.fullmatch(stmt)
        if query_match:
            if query is not None:
                raise ProgramError("duplicate query", lineno)
            query = _parse_atom(query_match.group(1), lineno)
            continue
        if "::" in stmt:
            prob_text, _, rest = stmt.partition("::")
            try:
                prob = float(prob_text.strip())
            except ValueError:
                raise ProgramError("malformed probability %r" % prob_text.strip(), lineno) from None
            if not 0.0 <= prob <= 1.0:
                raise ProgramError("probability %r outside [0,1]" % prob, lineno)
            if ":-" in rest:
                raise ProgramError("probabilistic rules with bodies are not supported", lineno)
            probabilistic.append((prob, _parse_atom(rest, lineno), []))
            continue
        if ":-" in stmt:
            head_text, _, body_text = stmt.partition(":-")
            head = _parse_atom(head_text, lineno)
            body = [_parse_atom(b, lineno) for b in _split_list(body_text)]
            deterministic.append((head, body))
            continue
        deterministic.append((_parse_atom(stmt, lineno), []))
    if query is None:
        raise ProgramError("program declares no query")
    return HornProgram(deterministic, probabilistic, query)


# ---------------------------------------------------------------------------
# graph reachability demonstrator

def reachability_program(n: int, edge_probs: Sequence[Sequence[float]]) -> HornProgram:
    """Program asking whether node n is reachable from node 1.

    One probabilistic fact per directed edge between distinct nodes, read
    from the n x n table; self loops are omitted since they can never affect
    reachability, and the diagonal is ignored. Deterministic rules ground
    the transitive step for every generated edge.
    """
    if n < 2:
        raise InvalidInstanceError("need at least 2 nodes")
    if len(edge_probs) != n or any(len(row) != n for row in edge_probs):
        raise InvalidInstanceError("edge probability table must be %d x %d" % (n, n))

    def node(i: int) -> str:
        return "e%d" % (i + 1)

    deterministic: list[tuple[str, list[str]]] = [("reach(%s)" % node(0), [])]
    probabilistic: list[tuple[float, str, list[str]]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            edge = "edge(%s,%s)" % (node(i), node(j))
            probabilistic.append((float(edge_probs[i][j]), edge, []))
            deterministic.append(
                ("reach(%s)" % node(j), ["reach(%s)" % node(i), edge])
            )
    return HornProgram(deterministic, probabilistic, "reach(%s)" % node(n - 1))


def provenance_clause_count(n: int) -> int:
    """Number of proofs (loop-free paths) of reachability on the complete
    graph with n nodes: sum over i of C(n-2, i) * i! choices of intermediate
    nodes and their visit order. Grows factorially; exact big-int arithmetic.
    """
    if n < 2:
        raise InvalidInstanceError("need at least 2 nodes")
    return sum(math.comb(n - 2, i) * math.factorial(i) for i in range(n - 1))


# ---------------------------------------------------------------------------
# annotated disjunctions

def ad_transform(p: Sequence[float]) -> list[float]:
    """Switch probabilities for a categorical choice compiled to sequential
    independent facts: entry i is divided by the mass its prefix leaves over.

    Zero entries stay zero. Raises ``DegeneratePrefixError`` when a positive
    entry follows a prefix that already consumed all mass.
    """
    ps = [float(x) for x in p]
    if not all(x >= 0 for x in ps):
        raise InvalidInstanceError("negative or NaN category probability")
    if math.fsum(ps) > 1.0 + 1e-9:
        raise InvalidInstanceError("category probabilities sum beyond 1")
    out = []
    prefix = 0.0
    for pi in ps:
        if pi == 0.0:
            out.append(0.0)
        else:
            denom = 1.0 - prefix
            if denom <= 0.0:
                raise DegeneratePrefixError(
                    "prefix mass already 1 before positive entry %r" % pi
                )
            out.append(pi / denom)
        prefix += pi
    return out


def ad_recover(p_tilde: Sequence[float]) -> list[float]:
    """Inverse of ``ad_transform``: rebuild category probabilities from
    switch probabilities."""
    out = []
    prefix = 0.0
    for pt in p_tilde:
        pt = float(pt)
        if not -1e-9 <= pt <= 1.0 + 1e-9:
            raise InvalidInstanceError("switch probability %r outside [0,1]" % pt)
        pi = pt * (1.0 - prefix)
        out.append(pi)
        prefix += pi
    return out
