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
import time
from itertools import compress, count, islice, repeat
from operator import is_, ne
from typing import Iterable, Optional, Sequence

from .core import (
    Domain,
    Instance,
    InvalidInstanceError,
    OracleVerdict,
    QueryStats,
    Valuation,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
)
from .inference import CustomOrder, VariableOrder, bruteforce_probability, dpnl
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
    previous call's valuation again does no work beyond comparing the two
    valuations in C; otherwise the cost is the work of the undone and the
    new levels.

    The oracle's answer (``verdict``) and the variable order (``choose``)
    are read from this state: the derived atoms and the missing counts.

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
        if cells == prev:
            return
        if len(cells) != len(prev):
            raise InvalidInstanceError(
                "valuation length %d does not match %d rules" % (len(cells), len(prev))
            )
        enabled = self.enabled
        level_rules = self.level_rules
        level_of = self.level_of
        new = []
        lowest = len(level_rules)
        for k in compress(count(), map(ne, cells, prev)):
            if cells[k] == 1:
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
        yes without propagation.

        A call costs the change of the committed rules since the previous
        call, plus one optimistic run and its undo when those fail and the
        certificate does not hold. A chain ``a_{k+1} :- a_k, f_k`` of m facts
        is therefore still O(m^2) per search, with a small constant: the
        ``f_k = 0`` child at depth k enables the m - k - 1 unassigned facts.
        """
        self._commit(cells)
        derived = self.derived
        query = self.query
        if derived[query]:
            return 1
        if None not in cells:
            return 0
        cert = self.certificate
        if cert is not None and 0 not in map(cells.__getitem__, cert):
            return None
        t = len(self.trail)
        free = list(compress(count(), map(is_, cells, repeat(None))))
        self._enable(free)
        found = derived[query]
        if found:
            heads = self.heads
            self.certificate = [
                r for r, c in enumerate(cells) if c != 0 and derived[heads[r]]
            ]
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
    if prog.m == 0:
        raise InvalidInstanceError("program has no probabilistic rules")
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
    if prog.m == 0:
        start = time.perf_counter()
        value = 1.0 if prog.solver().entails_committed(()) else 0.0
        stats = QueryStats(wall_time=time.perf_counter() - start)
        return value, stats
    inst, _, oracle = logic_instance(prog)
    if order is None:
        order = applicable_rule_order(prog)
    return dpnl(inst, 1, oracle, order=order)


def success_probability_bruteforce(prog: HornProgram) -> float:
    """Definitional success probability: sum over all rule subsets that
    entail the query of the product of presence/absence probabilities.

    ``bruteforce_probability`` on the program's instance, independent of the
    oracle-guided search. It enumerates 2^m subsets and refuses programs
    beyond ``BRUTEFORCE_TUPLE_LIMIT`` tuples (m <= 23).
    """
    if prog.m == 0:
        return 1.0 if prog.solver().entails_committed(()) else 0.0
    inst, sfn, _ = logic_instance(prog)
    return bruteforce_probability(inst, sfn, 1)


# ---------------------------------------------------------------------------
# program text format

_ATOM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\((.*)\))?$")
_CONST_RE = re.compile(r"^[a-z0-9][A-Za-z0-9_]*$")


def _split_top_level(s: str, sep: str = ",") -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_atom(text: str, lineno: int) -> str:
    text = text.strip()
    match = _ATOM_RE.match(text)
    if not match:
        raise ProgramError("cannot parse atom %r" % text, lineno)
    name = match.group(1)
    if name[0].isupper() or name[0] == "_":
        raise ProgramError(
            "ground programs only: %r looks like a variable" % name, lineno
        )
    args_text = match.group(3)
    if args_text is None:
        return name
    args = [a.strip() for a in _split_top_level(args_text)]
    if any(not a for a in args):
        raise ProgramError("empty argument in %r" % text, lineno)
    for a in args:
        if not _CONST_RE.match(a):
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
        query_match = re.match(r"^query\s*\((.*)\)$", stmt)
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
            body = [_parse_atom(b, lineno) for b in _split_top_level(body_text)]
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
