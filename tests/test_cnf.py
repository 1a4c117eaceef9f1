import collections
import math
import random

import pytest

from dpnl import (
    CnfFormula,
    DimacsError,
    QueryStats,
    SizeLimitError,
    WeightMap,
    condition,
    parse_dimacs,
    prob_of_dnf,
    probdpll,
    pwmc_bruteforce,
)
from dpnl.cnf import parse_weights
from conftest import random_cnf

# unsatisfiable five-clause formula over A=1, B=2, C=3
UNSAT = [[1, 2, -3], [1, 2, 3], [2, -1], [-2, 3], [-2, -3]]


def test_parse_basic():
    formula, weights = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert formula.num_vars == 2
    assert formula.clauses == ((1, -2),)
    assert weights is None


def test_parse_empty_formula():
    formula, _ = parse_dimacs("p cnf 1 0\n")
    assert formula.num_vars == 1
    assert formula.clauses == ()


def test_parse_weight_lines():
    formula, weights = parse_dimacs("p cnf 2 1\nw 1 0.6\n1 2 0\n")
    assert weights is not None
    assert weights[0] == 0.6
    assert weights[1] == 0.5  # unweighted default


def test_parse_multiline_clause_and_comments():
    formula, _ = parse_dimacs("c hello\np cnf 3 2\n1 2\n3 0\nc mid\n-1 0\n")
    assert formula.clauses == ((1, 2, 3), (-1,))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf x 1\n")
    assert err.value.line == 1
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 -3 0\n")
    assert err.value.line == 2
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert err.value.line == 2  # unterminated clause
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
    with pytest.raises(DimacsError):
        parse_dimacs("1 0\n")  # clause before header
    # lines are told apart by their first token, not their first character
    with pytest.raises(DimacsError) as err:
        parse_dimacs("pxyz cnf 2 1\n1 2 0\nweight 1 0.3\n")
    assert err.value.line == 1
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 2 0\nweight 1 0.3\n")
    assert err.value.line == 3
    with pytest.raises(DimacsError) as err:
        parse_weights("c weights\nwhat 1 0.25\n", 2)
    assert err.value.line == 2
    cases = (
        ("p cnf 1 0\np cnf 1 0\n", 2),  # duplicate header
        ("p cnf 1\n", 1),  # wrong field count
        ("p dnf 1 0\n", 1),  # not cnf
        ("p cnf -1 0\n", 1),  # negative variable count
        ("p cnf 1 -1\n", 1),  # negative clause count
        ("c no header\nc at all\n", 2),
        ("p cnf 1 0\nw 1\n", 2),  # two-field weight line
        ("w 1 0.5\np cnf 1 0\n", 1),  # weight before header
        ("p cnf 1 0\nw 1 heavy\n", 2),  # non-numeric weight
        ("p cnf 1 0\nw 0 0.5\n", 2),  # variable 0
        ("c\np cnf 1 0\nw 2 0.5\n", 3),  # past the header's count
    )
    for text, line in cases:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert err.value.line == line, text


def test_construction_cleans_clauses():
    g = CnfFormula(2, [[1, -1], [1, 1, 2]])
    # tautology dropped, duplicate literal deduplicated
    assert g.clauses == ((1, 2),)
    # duplicate clauses are both kept
    assert CnfFormula(2, [[1, 2], [1, 2]]).clauses == ((1, 2), (1, 2))
    assert () in CnfFormula(1, [[]]).clauses
    # a literal after the tautological pair is still range-checked
    for clause in ([1, -1, 99], [1, 2, 1, 99]):
        with pytest.raises(ValueError, match="99 out of range"):
            CnfFormula(2, [clause])
    # a non-integer literal is refused, not truncated
    with pytest.raises(ValueError, match="1.5 is not an int"):
        CnfFormula(2, [[1.5, -2.7]])
    with pytest.raises(ValueError, match="-2.7 is not an int"):
        prob_of_dnf([[1, -2.7]], WeightMap([0.5, 0.5]))


def test_condition_examples():
    g = CnfFormula(3, [[1, 2], [-1, 3]])
    assert condition(g, 0, True).clauses == ((3,),)
    g2 = CnfFormula(1, [[1]])
    assert () in condition(g2, 0, False).clauses
    g3 = CnfFormula(3, [[1, 2]])
    assert condition(g3, 2, True) == g3  # unused variable: no change


def test_condition_out_of_range():
    with pytest.raises(ValueError):
        condition(CnfFormula(2, [[1]]), 2, True)


def test_condition_idempotent_in_conditioned_variable():
    g = CnfFormula(2, [[1, 2], [-1, 2]])
    once = condition(g, 0, True)
    assert condition(once, 0, False) == once  # variable no longer occurs


def test_probdpll_unsat_is_exactly_zero():
    sigma = WeightMap([0.3, 0.6, 0.7])
    assert probdpll(CnfFormula(3, UNSAT), sigma) == 0.0


def test_probdpll_no_clauses_is_one():
    assert probdpll(CnfFormula(2, []), WeightMap([0.4, 0.4])) == 1.0


def test_probdpll_two_var_or():
    # brute enumeration over 4 valuations: 1 - 0.4*0.3
    g = CnfFormula(2, [[1, 2]])
    sigma = WeightMap([0.6, 0.7])
    assert abs(probdpll(g, sigma) - 0.88) <= 1e-12


def test_probdpll_matches_bruteforce_on_random_formulas():
    rng = random.Random(11)
    for _ in range(80):
        g, sigma = random_cnf(rng, max_vars=10, max_clauses=25)
        got = probdpll(g, sigma)
        assert 0.0 <= got <= 1.0
        assert abs(got - pwmc_bruteforce(g, sigma)) <= 1e-12


def test_branch_identity():
    # splitting on any occurring variable preserves the weighted count
    rng = random.Random(23)
    for _ in range(25):
        g, sigma = random_cnf(rng, max_vars=8, max_clauses=15)
        whole = pwmc_bruteforce(g, sigma)
        for var in sorted({abs(lit) - 1 for clause in g.clauses for lit in clause}):
            split = sigma[var] * pwmc_bruteforce(condition(g, var, True), sigma) + (
                1.0 - sigma[var]
            ) * pwmc_bruteforce(condition(g, var, False), sigma)
            assert abs(whole - split) <= 1e-12


def test_probdpll_stats():
    stats = QueryStats()
    probdpll(CnfFormula(2, [[1, 2]]), WeightMap([0.5, 0.5]), stats=stats)
    # X1=1 is a true leaf; X1=0 leaves (2), whose split gives one leaf of each kind
    assert (stats.oracle_calls, stats.branch_nodes) == (5, 2)
    assert (stats.leaves_true, stats.leaves_false) == (2, 1)


def _reference_probdpll(g, sigma, stats):
    """ProbDPLL as plain recursion on ``condition``-ed copies: split on the
    variable with the most occurrences, lowest index on ties, X=1 first."""
    stats.oracle_calls += 1
    if not g.clauses:
        stats.leaves_true += 1
        return 1.0
    if () in g.clauses:
        stats.leaves_false += 1
        return 0.0
    stats.branch_nodes += 1
    counts = collections.Counter(abs(lit) - 1 for clause in g.clauses for lit in clause)
    var = min(counts, key=lambda v: (-counts[v], v))
    high = _reference_probdpll(condition(g, var, True), sigma, stats)
    low = _reference_probdpll(condition(g, var, False), sigma, stats)
    p = sigma[var]
    return p * high + (1.0 - p) * low


def _split_counts(stats):
    return (stats.oracle_calls, stats.branch_nodes, stats.leaves_true, stats.leaves_false)


def test_probdpll_splits_as_the_reference():
    """Same value (==) and same counts as the recursion on formula copies,
    on random formulas with duplicate clauses, empty clauses and variables
    that occur in no clause, and on the edge cases below."""
    rng = random.Random(2001)
    cases = [
        (CnfFormula(0, []), WeightMap([])),
        (CnfFormula(0, [[]]), WeightMap([])),
        (CnfFormula(3, [[1, 2], [1, 2], [-3]]), WeightMap([0.3, 0.6, 0.2])),
        (CnfFormula(4, [[1, 2], [], [3]]), WeightMap([0.4, 0.5, 0.9, 0.1])),
        (CnfFormula(5, [[2, -4]]), WeightMap([0.7, 0.2, 0.5, 0.6, 0.8])),
    ]
    for _ in range(200):
        g, sigma = random_cnf(rng, max_vars=10, max_clauses=30)
        clauses = list(g.clauses)
        for _ in range(rng.choice((0, 0, 1, 3))):
            clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses or [()]))
        if rng.random() < 0.05:
            clauses.insert(rng.randrange(len(clauses) + 1), ())
        extra = rng.randint(0, 2)
        probs = list(sigma.probs) + [rng.random() for _ in range(extra)]
        cases.append((CnfFormula(g.num_vars + extra, clauses), WeightMap(probs)))
    for g, sigma in cases:
        got, want = QueryStats(), QueryStats()
        assert probdpll(g, sigma, stats=got) == _reference_probdpll(g, sigma, want)
        assert _split_counts(got) == _split_counts(want)


def test_probdpll_splits_as_the_reference_on_wider_masks():
    """The same on 40-300 clauses over 8-14 variables, so the clause masks
    span several int digits, with duplicate and empty clauses."""
    rng = random.Random(2002)
    for trial in range(24):
        num_vars = rng.randint(8, 14)
        clauses = []
        for _ in range(rng.randint(40, 300)):
            variables = rng.sample(range(1, num_vars + 1), rng.randint(3, 8))
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        for _ in range(rng.randint(1, 20)):
            clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses))
        if trial % 6 == 0:
            clauses.insert(rng.randrange(len(clauses) + 1), [])
        g = CnfFormula(num_vars, clauses)
        sigma = WeightMap([rng.random() for _ in range(num_vars)])
        got, want = QueryStats(), QueryStats()
        assert probdpll(g, sigma, stats=got) == _reference_probdpll(g, sigma, want)
        assert _split_counts(got) == _split_counts(want)


def test_probdpll_decides_leaves_before_assigning():
    """Children decided from the clause masks: X=1 a false leaf through a
    unit clause on -X, X=0 a true leaf, and a unit clause on X."""
    cases = [
        # X1=1 empties [-1]; X1=0 leaves [2] and [-2], whose split gives two false leaves
        (CnfFormula(2, [[-1], [1, 2], [1, -2]]), (5, 2, 0, 3)),
        # X1=1 leaves [2] and [-2]; X1=0 satisfies both clauses
        (CnfFormula(2, [[-1, 2], [-1, -2]]), (5, 2, 1, 2)),
        # X1=1 satisfies the clause, X1=0 empties it
        (CnfFormula(1, [[1]]), (3, 1, 1, 1)),
    ]
    sigma = WeightMap([0.3, 0.8])
    for g, counts in cases:
        got, want = QueryStats(), QueryStats()
        value = probdpll(g, sigma, stats=got)
        assert value == _reference_probdpll(g, sigma, want)
        assert abs(value - pwmc_bruteforce(g, sigma)) <= 1e-15
        assert _split_counts(got) == _split_counts(want) == counts


def test_bruteforce_guard():
    with pytest.raises(SizeLimitError):
        pwmc_bruteforce(CnfFormula(25, []), WeightMap([0.5] * 25))


def test_bad_sizes_and_weights_rejected():
    with pytest.raises(ValueError, match="negative variable count"):
        CnfFormula(-1, [])
    with pytest.raises(ValueError, match="outside"):
        WeightMap([1.5])
    g = CnfFormula(2, [[1, 2]])
    for count in (probdpll, pwmc_bruteforce):
        with pytest.raises(ValueError, match="covers 1 of 2 variables"):
            count(g, WeightMap([0.5]))


def test_bruteforce_tautology_single_var():
    assert abs(pwmc_bruteforce(CnfFormula(1, []), WeightMap([0.3])) - 1.0) <= 1e-12
    assert pwmc_bruteforce(CnfFormula(3, UNSAT), WeightMap([0.2, 0.5, 0.9])) == 0.0
    # no variables: one empty assignment, which satisfies no empty clause
    for g, want in ((CnfFormula(0, []), 1.0), (CnfFormula(0, [[]]), 0.0)):
        assert pwmc_bruteforce(g, WeightMap([])) == probdpll(g, WeightMap([])) == want


def test_prob_of_dnf():
    sigma = WeightMap([0.6, 0.7])
    assert abs(prob_of_dnf([[1, 2]], sigma) - 0.42) <= 1e-12  # product rule
    assert prob_of_dnf([], sigma, num_vars=2) == 0.0
    assert prob_of_dnf([[1], [-1]], sigma) == 1.0


def test_prob_of_dnf_matches_enumeration():
    rng = random.Random(9)
    for _ in range(20):
        num_vars = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            variables = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        sigma = WeightMap([rng.random() for _ in range(num_vars)])
        # enumerate all assignments, sum weights of those satisfying the DNF
        expected = 0.0
        for mask in range(1 << num_vars):
            bits = [(mask >> k) & 1 for k in range(num_vars)]
            w = 1.0
            for k in range(num_vars):
                w *= sigma[k] if bits[k] else 1.0 - sigma[k]
            if any(all(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in c) for c in clauses):
                expected += w
        assert abs(prob_of_dnf(clauses, sigma, num_vars=num_vars) - expected) <= 1e-12


def test_deep_formulas_need_no_call_stack():
    """1,500 unit clauses are 1,500 branch levels deep, past Python's default
    recursion limit, and so is the DNF of one 1,500-literal term."""
    m = 1500
    rng = random.Random(1500)
    sigma = WeightMap([rng.uniform(0.99, 0.999) for _ in range(m)])
    expected = math.prod(sigma.probs)
    stats = QueryStats()
    got = probdpll(CnfFormula(m, [[k + 1] for k in range(m)]), sigma, stats=stats)
    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)
    assert (stats.branch_nodes, stats.leaves_true, stats.leaves_false) == (m, 1, m)
    assert stats.oracle_calls == 2 * m + 1
    # the term's negation is one m-literal clause: each X=0 child is a true leaf
    stats = QueryStats()
    negated = probdpll(CnfFormula(m, [[-(k + 1) for k in range(m)]]), sigma, stats=stats)
    assert _split_counts(stats) == (2 * m + 1, m, m, 1)
    term = prob_of_dnf([list(range(1, m + 1))], sigma)
    assert term == 1.0 - negated
    assert math.isclose(term, expected, rel_tol=0.0, abs_tol=1e-12)
