"""Shared generators and naive reference implementations for the tests.

References here are deliberately independent of the library's algorithms:
plain enumeration, repeated-scan fixpoints and path listing, so each engine
is checked against a second route.
"""

import itertools
import random

from dpnl import (
    CnfFormula,
    Domain,
    HornProgram,
    Instance,
    SymbolicFunction,
    WeightMap,
    total_completions,
)


def random_table_instance(rng: random.Random, m_max=6, size_max=5, out_max=4):
    """Random lookup-table symbolic function with random distributions."""
    m = rng.randint(1, m_max)
    sizes = [rng.randint(1, size_max) for _ in range(m)]
    out_size = rng.randint(2, out_max)
    table = {
        args: rng.randrange(out_size)
        for args in itertools.product(*(range(s) for s in sizes))
    }
    domains = [Domain(s) for s in sizes]
    sfn = SymbolicFunction(domains, Domain(out_size), table.__getitem__, name="table")
    rows = [random_distribution(rng, s) for s in sizes]
    inst = Instance(rows, Domain(out_size))
    return inst, sfn


def table_residual_key(sfn: SymbolicFunction):
    """Residual key for any symbolic function: the free indices and the
    outputs of every completion, in enumeration order. Equal keys mean the
    same function of the same free variables, as ``Oracle`` requires."""

    def key(v, o):
        outputs = tuple(sfn.fn(w.cells) for w in total_completions(v, sfn.domains))
        return tuple(v.free_indices()), outputs

    return key


def random_distribution(rng: random.Random, size: int) -> list[float]:
    """Positive weights for one row; ``Instance`` normalises them."""
    return [rng.random() + 0.05 for _ in range(size)]


def random_digit_rows(rng: random.Random, n: int) -> list[list[float]]:
    rows = []
    for _ in range(2 * n):
        raw = [rng.random() + 0.05 for _ in range(10)]
        total = sum(raw)
        rows.append([p / total for p in raw])
    return rows


def random_cnf(rng: random.Random, max_vars=14, max_clauses=40):
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    sigma = WeightMap([rng.random() for _ in range(num_vars)])
    return CnfFormula(num_vars, clauses), sigma


def random_horn_program(rng: random.Random, m_max=8) -> HornProgram:
    num_atoms = rng.randint(2, 7)
    atoms = ["a%d" % i for i in range(num_atoms)]
    deterministic = []
    for _ in range(rng.randint(0, num_atoms)):
        head = rng.choice(atoms)
        body = rng.sample(atoms, rng.randint(0, min(2, num_atoms)))
        deterministic.append((head, body))
    probabilistic = []
    for _ in range(rng.randint(1, m_max)):
        head = rng.choice(atoms)
        body = rng.sample(atoms, rng.randint(0, min(2, num_atoms)))
        probabilistic.append((round(rng.uniform(0.05, 0.95), 3), head, body))
    return HornProgram(deterministic, probabilistic, rng.choice(atoms))


def naive_derived(rules) -> set:
    """Repeated full scans until nothing new derives; the textbook fixpoint."""
    derived = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in derived and all(b in derived for b in body):
                derived.add(head)
                changed = True
    return derived


def naive_entails(rules, query) -> bool:
    return query in naive_derived(rules)


def horn_rules(prog: HornProgram, mask) -> list:
    """(head, body) pairs over atom ids: deterministic plus selected rules."""
    rules = list(prog.det_rules)
    rules.extend(r for k, r in enumerate(prog.prob_rules) if mask[k])
    return rules


def count_simple_paths(n: int) -> int:
    """Loop-free directed paths from node 0 to node n-1 in the complete graph,
    by explicit enumeration of intermediate-node orderings."""
    nodes = list(range(1, n - 1))
    total = 0
    for r in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            for _ in itertools.permutations(subset):
                total += 1
    return total


def buzacott_reachability(n: int, edge_probs) -> float:
    """Probability that node n-1 is reachable from node 0 when each directed
    edge i -> j (i != j) is present on its own with probability
    ``edge_probs[i][j]``: the subset recursion after Buzacott (Networks
    1980), O(3^n n^2), sharing no code with the search or the Horn solver.

    R(S), for a node set S that holds the source, is the probability that
    every node of S is reachable from the source by edges inside S: 1 minus
    the sum, over the proper subsets T of S that hold the source, of R(T)
    times the probability of no edge from T into S - T. The reachable set
    is S with probability R(S) times that of no edge from S to the rest.
    """

    def no_edge(sources: int, targets: int) -> float:
        q = 1.0
        for i in range(n):
            if sources >> i & 1:
                for j in range(n):
                    if targets >> j & 1:
                        q *= 1.0 - edge_probs[i][j]
        return q

    full = (1 << n) - 1
    reach = {}
    total = 0.0
    for s in range(1, full + 1, 2):  # the odd masks hold the source
        r = 1.0
        t = (s - 1) & s
        while t:
            if t & 1:
                r -= reach[t] * no_edge(t, s & ~t)
            t = (t - 1) & s
        reach[s] = r
        if s >> (n - 1) & 1:
            total += r * no_edge(s, full & ~s)
    return total


def enumerate_distribution(inst: Instance, sfn: SymbolicFunction) -> dict[int, float]:
    """Definitional full output distribution by tuple enumeration."""
    out = {o: 0.0 for o in range(inst.output_domain.size)}
    for args in itertools.product(*(range(len(row)) for row in inst.probs)):
        w = 1.0
        for k, x in enumerate(args):
            w *= inst.probs[k][x]
        out[sfn.fn(args)] += w
    return out
