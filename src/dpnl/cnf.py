"""CNF formulas, DIMACS parsing, conditioning and weighted model counting."""

from __future__ import annotations

import operator
import time
from typing import Iterable, Optional, Sequence

from .core import QueryStats, SizeLimitError

BRUTEFORCE_VAR_LIMIT = 24


class DimacsError(ValueError):
    """DIMACS parse failure; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _literal(lit) -> int:
    """``lit`` by ``operator.index``: a float or other non-integer raises
    ``ValueError`` instead of being truncated."""
    try:
        return operator.index(lit)
    except TypeError:
        raise ValueError("literal %r is not an int" % (lit,)) from None


class CnfFormula:
    """Clause set over binary variables.

    Literals use the DIMACS convention: ``+(v+1)`` for variable ``v`` positive,
    ``-(v+1)`` negated. At construction, repeated literals within a clause
    are dropped and so are tautological clauses (containing both X and
    not-X). Duplicate clauses are kept, and each counts in ``probdpll``'s pick.
    """

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        if num_vars < 0:
            raise ValueError("negative variable count")
        kept = []
        for clause in clauses:
            lits = []
            seen = set()
            tautological = False
            for lit in clause:
                lit = _literal(lit)
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError("literal %d out of range for %d variables" % (lit, num_vars))
                if -lit in seen:
                    tautological = True
                elif lit not in seen:
                    seen.add(lit)
                    lits.append(lit)
            if not tautological:
                kept.append(tuple(lits))
        self.num_vars = num_vars
        self.clauses = tuple(kept)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CnfFormula)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __repr__(self) -> str:
        return "CnfFormula(vars=%d, clauses=%d)" % (self.num_vars, len(self.clauses))


class WeightMap:
    """Per-variable probability of being true, indexed by 0-based variable."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        ps = tuple(float(p) for p in probs)
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise ValueError("weight %r outside [0,1]" % (p,))
        self.probs = ps

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, var: int) -> float:
        return self.probs[var]

    @classmethod
    def uniform(cls, num_vars: int) -> "WeightMap":
        return cls([0.5] * num_vars)


def parse_dimacs(text: str) -> tuple[CnfFormula, Optional[WeightMap]]:
    """Parse DIMACS CNF, optionally extended with ``w <var> <prob>`` lines.

    Clauses are 0-terminated literal lists and may span lines; ``c`` lines are
    comments. Weight lines use 1-based variables; with at least one weight
    line present, unweighted variables default to 0.5. Returns ``None`` for
    the weight map when the input has no weight lines.
    """
    num_vars = None
    declared_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    current_start = 0
    weights: dict[int, float] = {}
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if num_vars is not None:
                raise DimacsError(lineno, "duplicate problem header")
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(lineno, "malformed header %r" % line)
            try:
                num_vars = int(fields[2])
                declared_clauses = int(fields[3])
            except ValueError:
                raise DimacsError(lineno, "malformed header %r" % line) from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(lineno, "negative counts in header")
            continue
        if fields[0] == "w":
            _weight_line(lineno, line, num_vars, weights)
            continue
        try:
            tokens = [int(tok) for tok in fields]
        except ValueError:
            raise DimacsError(lineno, "non-integer token in clause line %r" % line) from None
        if num_vars is None:
            raise DimacsError(lineno, "clause before header")
        for tok in tokens:
            if tok == 0:
                clauses.append(current)
                current = []
            else:
                if abs(tok) > num_vars:
                    raise DimacsError(lineno, "literal %d out of range" % tok)
                if not current:
                    current_start = lineno
                current.append(tok)
    if num_vars is None:
        raise DimacsError(lineno or 1, "missing problem header")
    if current:
        raise DimacsError(current_start, "unterminated clause (missing 0)")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise DimacsError(
            lineno, "declared %d clauses, found %d" % (declared_clauses, len(clauses))
        )
    formula = CnfFormula(num_vars, clauses)
    if not weights:
        return formula, None
    probs = [weights.get(v, 0.5) for v in range(num_vars)]
    return formula, WeightMap(probs)


def parse_weights(text: str, num_vars: int) -> WeightMap:
    """Parse a weights file: ``w <var> <prob>`` lines and ``c`` comments,
    checked as in ``parse_dimacs``. Unweighted variables default to 0.5."""
    weights: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.split()[0] != "w":
            raise DimacsError(lineno, "expected a 'w <var> <prob>' line, got %r" % line)
        _weight_line(lineno, line, num_vars, weights)
    return WeightMap([weights.get(v, 0.5) for v in range(num_vars)])


def _weight_line(lineno: int, line: str, num_vars: Optional[int], weights: dict) -> None:
    # stores a "w <var> <prob>" line in weights under the 0-based variable
    fields = line.split()
    if len(fields) != 3:
        raise DimacsError(lineno, "malformed weight line %r" % line)
    if num_vars is None:
        raise DimacsError(lineno, "weight line before header")
    try:
        var = int(fields[1])
        prob = float(fields[2])
    except ValueError:
        raise DimacsError(lineno, "malformed weight line %r" % line) from None
    if not 1 <= var <= num_vars:
        raise DimacsError(lineno, "weight for variable %d out of range" % var)
    if not 0.0 <= prob <= 1.0:
        raise DimacsError(lineno, "weight %r outside [0,1]" % prob)
    weights[var - 1] = prob


def condition(g: CnfFormula, var: int, value: bool) -> CnfFormula:
    """The formula ``g`` with variable ``var`` (0-based) fixed to ``value``.

    Clauses satisfied by the assignment are removed and the falsified literal
    is eliminated from the rest; ``var`` occurs nowhere in the result.
    Untouched clause tuples are shared with the input.
    """
    if not 0 <= var < g.num_vars:
        raise ValueError("variable %d out of range" % var)
    lit_true = (var + 1) if value else -(var + 1)
    lit_false = -lit_true
    out = CnfFormula.__new__(CnfFormula)
    kept = []
    for clause in g.clauses:
        if lit_true in clause:
            continue
        if lit_false in clause:
            kept.append(tuple(l for l in clause if l != lit_false))
        else:
            kept.append(clause)
    out.num_vars = g.num_vars
    out.clauses = tuple(kept)
    return out


class _ClauseState:
    """The clauses of one ``probdpll`` call under the current assignment.

    Holds, built once: the variables of each clause; per variable, the
    clauses that hold it positive and those that hold it negated, as lists
    and as bitmasks, ``sat_by[1][X]`` for the clauses that X=1 satisfies
    and ``sat_by[0][X]`` for those that X=0 satisfies. Kept incrementally:
    per clause a satisfied flag and its count of literals not falsified
    (live); per unassigned variable its occurrences in unsatisfied clauses;
    and two bitmasks, ``unsat``, the unsatisfied clauses, and ``unit``,
    those of them with exactly one live literal. An assigned variable's
    count is 0 or less, so the pick never takes it.

    With these, a child X=v of a node with no empty clause is decided
    before anything is assigned: it has no clause left iff
    ``unsat & sat_by[v][X] == unsat``, and otherwise an empty clause iff
    ``unit & sat_by[1 - v][X]`` is not 0. Only the other children are
    assigned, so no assignment makes a clause empty.
    """

    __slots__ = ("clause_vars", "pos", "neg", "sat_by", "sat", "live", "occ", "unsat", "unit")

    def __init__(self, g: CnfFormula):
        n = g.num_vars
        self.clause_vars = [tuple(abs(lit) - 1 for lit in clause) for clause in g.clauses]
        self.pos: list[list[int]] = [[] for _ in range(n)]
        self.neg: list[list[int]] = [[] for _ in range(n)]
        self.occ = [0] * n
        for c, clause in enumerate(g.clauses):
            for lit in clause:
                var = abs(lit) - 1
                (self.pos if lit > 0 else self.neg)[var].append(c)
                self.occ[var] += 1
        self.sat_by = tuple(
            [sum(1 << c for c in cs) for cs in lists] for lists in (self.neg, self.pos)
        )
        self.sat = [False] * len(g.clauses)
        self.live = [len(clause) for clause in g.clauses]
        self.unsat = (1 << len(g.clauses)) - 1
        self.unit = sum(1 << c for c, k in enumerate(self.live) if k == 1)

    def pick(self) -> int:
        """The variable with the most occurrences in unsatisfied clauses,
        lowest index on ties."""
        return self.occ.index(max(self.occ))

    def assign(self, var: int, value: bool) -> tuple[list[int], int]:
        """Fix ``var`` to ``value``, which must leave no clause empty;
        returns what ``undo`` needs: the clauses it newly satisfied, as a
        list and as a mask."""
        sat, occ, live, clause_vars = self.sat, self.occ, self.live, self.clause_vars
        newly = []
        for c in (self.pos if value else self.neg)[var]:
            if not sat[c]:
                sat[c] = True
                newly.append(c)
                for u in clause_vars[c]:
                    occ[u] -= 1
        hit = self.unsat & self.sat_by[value][var]
        self.unsat ^= hit
        unit = self.unit & self.unsat
        for c in (self.neg if value else self.pos)[var]:
            live[c] -= 1
            if not sat[c]:
                occ[var] -= 1
                if live[c] == 1:
                    unit |= 1 << c
        self.unit = unit
        return newly, hit

    def undo(self, var: int, value: bool, record: tuple[list[int], int]) -> None:
        """Take back ``assign(var, value)``, which returned ``record``."""
        newly, hit = record
        sat, occ, live, clause_vars = self.sat, self.occ, self.live, self.clause_vars
        for c in (self.neg if value else self.pos)[var]:
            if not sat[c]:
                occ[var] += 1
            live[c] += 1
        # the unit clauses holding var's falsified literal are those the
        # assignment made unit: none was unit before, or it would be empty
        unit = self.unit
        unit ^= unit & self.sat_by[not value][var]
        for c in newly:
            sat[c] = False
            if live[c] == 1:
                unit |= 1 << c
            for u in clause_vars[c]:
                occ[u] += 1
        self.unsat |= hit
        self.unit = unit


def probdpll(
    g: CnfFormula,
    sigma: WeightMap,
    stats: Optional[QueryStats] = None,
) -> float:
    """Exact probabilistic weighted model count by DPLL-style splitting.

    Returns 1 with no unsatisfied clause, 0 on an empty clause, and
    otherwise splits on the variable X with the most occurrences in the
    unsatisfied clauses (the usual DPLL default; lowest index on ties):

        sigma(X) * count(g | X=1)  +  (1 - sigma(X)) * count(g | X=0)

    No unit propagation or pure-literal elimination: plain splitting is the
    reference behaviour that the tests pin down. One clause state serves
    the whole walk. A split decides each child, X=1 first, from the state's
    bitmasks before assigning anything, with the same two checks in the
    same order; only a child that splits again is assigned, and undone once
    its value is known, so no formula is copied or rescanned and a leaf
    costs two mask operations. The splits are walked on an explicit path of
    frames (variable, value of the X=1 child once known, clauses the
    assigned child satisfied), so a deep but easy formula needs no call
    stack. The splits, their order and the arithmetic are those of a
    recursion on ``condition``-ed copies of ``g``, and so are the counts
    added to ``stats``, with the elapsed time.
    """
    if len(sigma) < g.num_vars:
        raise ValueError("weight map covers %d of %d variables" % (len(sigma), g.num_vars))
    if stats is None:
        stats = QueryStats()
    start = time.perf_counter()
    state = _ClauseState(g)
    if not state.unsat:
        value, counts = 1.0, (1, 0, 1, 0)
    elif 0 in state.live:
        value, counts = 0.0, (1, 0, 0, 1)
    else:
        value, counts = _split(state, sigma.probs)
    stats.oracle_calls += counts[0]
    stats.branch_nodes += counts[1]
    stats.leaves_true += counts[2]
    stats.leaves_false += counts[3]
    stats.wall_time += time.perf_counter() - start
    return value


def _split(state: _ClauseState, probs: Sequence[float]) -> tuple[float, tuple[int, ...]]:
    # the value of a branch node at state's assignment, and the oracle
    # calls, branch nodes, true and false leaves of its subtree (itself
    # counted as one call)
    sat0, sat1 = state.sat_by
    pick, assign, undo = state.pick, state.assign, state.undo
    calls, branches, true_leaves, false_leaves = 1, 0, 0, 0
    path: list[tuple] = []
    while True:
        branches += 1
        var = pick()
        calls += 1
        unsat = state.unsat
        if unsat & sat1[var] == unsat:
            true_leaves += 1
            high = 1.0
        elif state.unit & sat0[var]:
            false_leaves += 1
            high = 0.0
        else:
            path.append((var, None, assign(var, True)))
            continue
        while True:
            # the X=1 child of var gave high; decide its X=0 child
            calls += 1
            unsat = state.unsat
            if unsat & sat0[var] == unsat:
                true_leaves += 1
                low = 1.0
            elif state.unit & sat1[var]:
                false_leaves += 1
                low = 0.0
            else:
                path.append((var, high, assign(var, False)))
                break
            p = probs[var]
            value = p * high + (1.0 - p) * low
            # hand the value up until some split still has its X=0 child
            while path:
                var, high, record = path.pop()
                if high is None:
                    undo(var, True, record)
                    high = value
                    break
                undo(var, False, record)
                p = probs[var]
                value = p * high + (1.0 - p) * value
            else:
                return value, (calls, branches, true_leaves, false_leaves)


def pwmc_bruteforce(g: CnfFormula, sigma: WeightMap) -> float:
    """Definitional weighted model count: sum of valuation weights over models.

    Enumerates all 2^n assignments (vectorized); refuses above
    ``BRUTEFORCE_VAR_LIMIT`` variables. Independent of the DPLL recursion, so
    it serves as its oracle in tests.
    """
    import numpy as np

    n = g.num_vars
    if n > BRUTEFORCE_VAR_LIMIT:
        raise SizeLimitError("brute force refuses %d > %d variables" % (n, BRUTEFORCE_VAR_LIMIT))
    if len(sigma) < n:
        raise ValueError("weight map covers %d of %d variables" % (len(sigma), n))
    count = 1 << n
    idx = np.arange(count, dtype=np.uint32)
    weights = np.ones(count, dtype=np.float64)
    for var in range(n):
        bit = (idx >> var) & 1
        p = sigma[var]
        weights *= np.where(bit == 1, p, 1.0 - p)
    satisfied = np.ones(count, dtype=bool)
    for clause in g.clauses:
        clause_sat = np.zeros(count, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            clause_sat |= (bit == 1) if lit > 0 else (bit == 0)
        satisfied &= clause_sat
    return float(weights[satisfied].sum())


def prob_of_dnf(
    dnf_clauses: Iterable[Sequence[int]],
    sigma: WeightMap,
    num_vars: Optional[int] = None,
) -> float:
    """Probability that a DNF over weighted variables is true.

    The DNF's negation is one CNF clause of negated literals per conjunctive
    clause (De Morgan); the result is 1 minus its weighted count.
    """
    dnf = [tuple(map(_literal, clause)) for clause in dnf_clauses]
    if num_vars is None:
        num_vars = max((abs(l) for clause in dnf for l in clause), default=0)
    negated = [[-l for l in clause] for clause in dnf]
    g = CnfFormula(num_vars, negated)
    return 1.0 - probdpll(g, sigma)
