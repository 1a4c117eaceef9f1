import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from dpnl import (
    DegeneratePrefixError,
    Exhaustive,
    Fifo,
    HornProgram,
    InvalidInstanceError,
    MaxProbability,
    ProgramError,
    SequentialOrder,
    Valuation,
    ad_recover,
    ad_transform,
    applicable_rule_order,
    approx_dpnl,
    check_completeness,
    check_validity,
    dpnl_gradient,
    entails,
    finite_difference_partials,
    fresh_valuation,
    logic_instance,
    logic_oracle,
    parse_program,
    provenance_clause_count,
    reachability_program,
    success_probability,
    success_probability_bruteforce,
)
from conftest import (
    count_simple_paths,
    horn_rules,
    naive_derived,
    naive_entails,
    random_horn_program,
)


def test_entails_examples():
    assert entails([("a", []), ("b", ["a"])], "b")
    assert not entails([("b", ["a"])], "b")
    assert not entails([("a", [])], "zzz")  # unknown atom: not derivable


def test_entails_chain_and_cycle():
    rules = [("a", []), ("b", ["a"]), ("c", ["b"]), ("b", ["c"])]
    assert entails(rules, "c")
    assert not entails([("a", ["b"]), ("b", ["a"])], "a")


def test_entails_agrees_with_naive_scan():
    rng = random.Random(15)
    for _ in range(60):
        prog = random_horn_program(rng, m_max=6)
        for _ in range(4):
            mask = [rng.randint(0, 1) for _ in range(prog.m)]
            rules = horn_rules(prog, mask)
            q = prog.query
            assert prog.solver().entails_committed(tuple(mask)) == naive_entails(rules, q)
            assert entails(rules, q) == naive_entails(rules, q)


def test_logic_oracle_extremes():
    rng = random.Random(16)
    for _ in range(20):
        prog = random_horn_program(rng, m_max=5)
        oracle = logic_oracle(prog)
        m = prog.m
        all_on = Valuation([1] * m)
        all_off = Valuation([0] * m)
        s_on = prog.solver().entails_committed((1,) * m)
        s_off = prog.solver().entails_committed((0,) * m)
        assert oracle(all_on, 1).answer == (1 if s_on else 0)
        assert oracle(all_off, 1).answer == (1 if s_off else 0)
        # inverted output
        assert oracle(all_on, 0).answer == (0 if s_on else 1)


def test_logic_oracle_direct_edge_is_proof():
    table = [[0.5] * 4 for _ in range(4)]
    prog = reachability_program(4, table)
    oracle = logic_oracle(prog)
    direct = None
    for k, (head, _) in enumerate(prog.prob_rules):
        if prog.atom_names[head] == "edge(e1,e4)":
            direct = k
    v = Valuation([1 if k == direct else None for k in range(prog.m)])
    assert oracle(v, 1).answer == 1  # the edge alone proves the query


def test_logic_oracle_monotone_in_committed_rules():
    rng = random.Random(17)
    for _ in range(20):
        prog = random_horn_program(rng, m_max=5)
        oracle = logic_oracle(prog)
        m = prog.m
        cells = [rng.choice([0, 1, None]) for _ in range(m)]
        v = Valuation(cells)
        if oracle(v, 1).answer != 1:
            continue
        for k in range(m):
            if cells[k] != 1:
                flipped = list(cells)
                flipped[k] = 1
                assert oracle(Valuation(flipped), 1).answer == 1


def test_logic_oracle_validity_and_completeness_sampled():
    rng = random.Random(18)
    for _ in range(15):
        prog = random_horn_program(rng, m_max=6)
        inst, sfn, oracle = logic_instance(prog)
        assert check_validity(oracle, sfn, exhaustive=True).passed
        assert check_completeness(oracle, sfn, exhaustive=True).passed


def test_success_probability_matches_enumeration():
    rng = random.Random(19)
    for _ in range(25):
        prog = random_horn_program(rng, m_max=6)
        value, stats = success_probability(prog)
        expected = success_probability_bruteforce(prog)
        assert abs(value - expected) <= 1e-10
        seq, _ = success_probability(prog, order=SequentialOrder())
        assert abs(seq - expected) <= 1e-10


def test_success_probability_brute_checks_problog_semantics():
    rng = random.Random(20)
    prog = random_horn_program(rng, m_max=5)
    # independent re-derivation of the subset semantics
    expected = 0.0
    for mask in itertools.product([0, 1], repeat=prog.m):
        w = 1.0
        for k, p in enumerate(prog.probs):
            w *= p if mask[k] else 1.0 - p
        if naive_entails(horn_rules(prog, mask), prog.query):
            expected += w
    assert abs(success_probability_bruteforce(prog) - expected) <= 1e-12


def test_deterministic_query_probability_one():
    prog = parse_program("a.\nb :- a.\nquery(b).\n")
    assert prog.m == 0
    value, _ = success_probability(prog)
    assert value == 1.0
    assert success_probability_bruteforce(prog) == 1.0


def test_reachability_two_nodes():
    prog = reachability_program(2, [[0.0, 0.5], [0.5, 0.0]])
    value, _ = success_probability(prog)
    assert abs(value - 0.5) <= 1e-12


def test_reachability_matches_enumeration_with_and_without_self_loops():
    table = [[0.5] * 3 for _ in range(3)]
    plain = reachability_program(3, table)
    assert plain.m == 6
    v1, _ = success_probability(plain)
    b1 = success_probability_bruteforce(plain)
    assert abs(v1 - b1) <= 1e-10


def test_reachability_validation():
    with pytest.raises(InvalidInstanceError):
        reachability_program(1, [[0.5]])
    with pytest.raises(InvalidInstanceError):
        reachability_program(3, [[0.5] * 2 for _ in range(3)])


def test_provenance_clause_count_small_values():
    assert provenance_clause_count(2) == 1
    assert provenance_clause_count(3) == 2
    assert provenance_clause_count(4) == 5
    assert provenance_clause_count(6) == 65  # 1 + 4 + 12 + 24 + 24


def test_provenance_clause_count_matches_path_enumeration():
    for n in range(2, 8):
        assert provenance_clause_count(n) == count_simple_paths(n)


def test_provenance_clause_count_big_integer():
    # factorial growth quickly exceeds 64-bit range; exact arithmetic required
    value = provenance_clause_count(25)
    assert value > 2**63
    assert value == sum(math.comb(23, i) * math.factorial(i) for i in range(24))


def test_applicable_rule_order_prefers_applicable():
    table = [[0.5] * 3 for _ in range(3)]
    prog = reachability_program(3, table)
    order = applicable_rule_order(prog)
    v = fresh_valuation(prog.m)
    k = order.choose(v)
    head, body = prog.prob_rules[k]
    derived = prog.solver().committed_fixpoint(v.cells)
    assert all(derived[a] for a in body)


def test_applicable_rule_order_picks_frontier_edges():
    n = 4
    prog = reachability_program(n, [[0.5] * n for _ in range(n)])
    order = applicable_rule_order(prog)
    oracle = logic_oracle(prog)
    solver = prog.solver()
    ends = []
    for head, _ in prog.prob_rules:
        name = prog.atom_names[head]  # edge(ei,ej)
        i, j = name[len("edge("):-1].split(",")
        ends.append((prog.atom_ids["reach(%s)" % i], prog.atom_ids["reach(%s)" % j]))

    first = order.choose(fresh_valuation(prog.m))
    assert prog.atom_names[prog.prob_rules[first][0]].startswith("edge(e1,")

    # every undecided node of the search branches on an edge from a reached
    # node into an unreached one
    stack = [fresh_valuation(prog.m)]
    visited = 0
    while stack:
        v = stack.pop()
        if oracle(v, 1).answer is not None:
            continue
        k = order.choose(v)
        derived = solver.committed_fixpoint(v.cells)
        src, dst = ends[k]
        assert derived[src] and not derived[dst], (v, prog.atom_names[prog.prob_rules[k][0]])
        stack.extend(v.assign(k, x) for x in (0, 1))
        visited += 1
    assert visited == 17


# ---------------------------------------------------------------------------
# incremental solver state

def _horn_programs(rng, count, m_max, nodes):
    """Random programs (cycles, probabilistic rules with bodies, shared
    heads), then reachability programs on each number of nodes."""
    progs = [random_horn_program(rng, m_max=m_max) for _ in range(count)]
    for n in nodes:
        table = [[round(rng.uniform(0.1, 0.9), 3) for _ in range(n)] for _ in range(n)]
        progs.append(reachability_program(n, table))
    return progs


def _documented_choice(prog, v, derived):
    """The first free index of the first non-empty tier in
    ``applicable_rule_order``'s docstring, against the derived atom set."""
    rules = prog.det_rules + prog.prob_rules

    def tier(k):
        head, body = prog.prob_rules[k]
        if head in derived or not all(a in derived for a in body):
            return 2
        if head == prog.query:
            return 0
        consumers = [b for h, b in rules if head in b and h not in derived]
        if any(all(a in derived or a == head for a in b) for b in consumers):
            return 0
        return 1 if consumers else 2

    return min(v.free_indices(), key=lambda k: (tier(k), k))


def test_solver_random_walk_matches_naive_fixpoint():
    """Interleaved queries on one solver state, along a walk that descends
    one cell at a time, backtracks to earlier prefixes, jumps to random
    valuations and sets certificate rules and committed rules to 0."""
    rng = random.Random(23)
    for prog in _horn_programs(random.Random(22), 30, 8, (3, 4)):
        m = prog.m
        solver = prog.solver()
        oracle = logic_oracle(prog)
        order = applicable_rule_order(prog)
        history = [fresh_valuation(m)]
        kinds = set()
        for step in range(240):
            v = history[-1]
            move = rng.random()
            free = v.free_indices()
            if move < 0.45 and free:
                kinds.add("assign")
                history.append(v.assign(rng.choice(free), rng.randint(0, 1)))
            elif move < 0.65 and len(history) > 1:
                kinds.add("backtrack")
                del history[rng.randrange(1, len(history)):]
            elif move < 0.8:
                kinds.add("jump")
                history = [Valuation([rng.choice([0, 1, None]) for _ in range(m)])]
            else:
                kinds.add("zero")
                targets = set(solver.certificate or ()) | {k for k, c in enumerate(v) if c == 1}
                if targets:
                    history.append(v.assign(rng.choice(sorted(targets)), 0))
            v = history[-1]
            committed = naive_derived(horn_rules(prog, [c == 1 for c in v]))
            optimistic = naive_derived(horn_rules(prog, [c != 0 for c in v]))
            expected = 1 if prog.query in committed else 0 if prog.query not in optimistic else None
            checks = [
                lambda: {a for a, d in enumerate(solver.committed_fixpoint(v.cells)) if d} == committed,
                lambda: solver.entails_committed(v.cells) == (prog.query in committed),
                lambda: oracle(v, 1).answer == expected,
                lambda: oracle(v, 0).answer == (None if expected is None else 1 - expected),
            ]
            if None in v.cells:
                checks.append(lambda: order.choose(v) == _documented_choice(prog, v, committed))
            rng.shuffle(checks)
            for check in checks:
                assert check(), (prog, step, v)
        assert kinds == {"assign", "backtrack", "jump", "zero"}
        with pytest.raises(InvalidInstanceError):
            oracle(Valuation([None] * (m + 1)), 1)


def test_approx_exhaustive_on_horn_programs_matches_bruteforce():
    """Best-first and breadth-first frontiers jump between distant
    valuations of the one solver state."""
    for prog in _horn_programs(random.Random(24), 40, 8, (3, 4)):
        inst, _, oracle = logic_instance(prog)
        expected = success_probability_bruteforce(prog)
        for heuristic in (MaxProbability(), Fifo()):
            for order in (None, applicable_rule_order(prog)):
                bounds, _ = approx_dpnl(inst, 1, oracle, Exhaustive(), heuristic, order=order)
                assert abs(bounds.low - expected) <= 1e-12
                assert abs(bounds.up - expected) <= 1e-12


def test_horn_gradient_matches_finite_differences():
    for prog in _horn_programs(random.Random(25), 30, 7, (3, 4)):
        inst, sfn, oracle = logic_instance(prog)
        grad, _ = dpnl_gradient(inst, 1, oracle, order=applicable_rule_order(prog))
        assert abs(grad.value - success_probability_bruteforce(prog)) <= 1e-12
        fd = finite_difference_partials(inst, sfn, 1)
        for row, fd_row in zip(grad.partials, fd):
            assert max(abs(a - b) for a, b in zip(row, fd_row)) <= 1e-6


def test_deep_chain_oracle_walk():
    """The search path of a 5,000-fact chain, walked without the engine:
    propagation must not recurse, and the certificate must not answer
    unknown where the answer is 0."""
    m = 5000
    det = [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(m)]
    prob = [(0.99, "f%d" % k, []) for k in range(m)]
    prog = HornProgram(det, prob, "a%d" % m)
    oracle = logic_oracle(prog)
    cells = [None] * m
    for k in range(m):
        cells[k] = 0
        assert oracle(Valuation(cells), 1).answer == 0, k
        cells[k] = 1
        assert oracle(Valuation(cells), 1).answer == (1 if k == m - 1 else None), k
    facts = [("f%d" % k, []) for k in range(m)]
    assert entails(det + facts, "a%d" % m)


def test_deep_chain_search_needs_no_call_stack():
    """A 1,500-fact chain is 1,500 branch levels deep, past Python's default
    recursion limit; the query succeeds iff every fact is present."""
    m = 1500
    rng = random.Random(1500)
    probs = [rng.uniform(0.99, 0.999) for _ in range(m)]
    det = [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(m)]
    prog = HornProgram(det, [(p, "f%d" % k, []) for k, p in enumerate(probs)], "a%d" % m)
    value, _ = success_probability(prog)
    assert math.isclose(value, math.prod(probs), rel_tol=1e-12, abs_tol=0.0)
    inst, _, oracle = logic_instance(prog)
    grad, _ = dpnl_gradient(inst, 1, oracle, order=applicable_rule_order(prog))
    for k in range(m):
        others = math.prod(probs[:k]) * math.prod(probs[k + 1:])
        assert math.isclose(grad.partials[k][1], others, rel_tol=1e-12, abs_tol=0.0), k
        assert grad.partials[k][0] == 0.0, k


# ---------------------------------------------------------------------------
# program text format

def test_parse_program_round_trip_semantics():
    text = """
% reachability fragment
reach(e1).
reach(e2) :- reach(e1), edge(e1,e2).
0.7 :: edge(e1,e2).
query(reach(e2)).
"""
    prog = parse_program(text)
    assert prog.m == 1
    value, _ = success_probability(prog)
    assert abs(value - 0.7) <= 1e-12


def test_parse_program_bare_atoms_and_comments():
    prog = parse_program("a.  % fact\n0.25 :: b.\nc :- a, b.\nquery(c).\n")
    value, _ = success_probability(prog)
    assert abs(value - 0.25) <= 1e-12


def test_parse_program_rejects_variables():
    with pytest.raises(ProgramError, match="ground"):
        parse_program("reach(X) :- edge(X).\nquery(a).\n")
    with pytest.raises(ProgramError, match="ground"):
        parse_program("p(a,B).\nquery(p(a,b)).\n")


def test_parse_program_error_line_numbers():
    with pytest.raises(ProgramError) as err:
        parse_program("a.\nb :- a\nquery(b).\n")
    assert err.value.line == 2
    with pytest.raises(ProgramError, match="probability"):
        parse_program("1.5 :: a.\nquery(a).\n")
    with pytest.raises(ProgramError, match="query"):
        parse_program("a.\n")
    with pytest.raises(ProgramError, match="duplicate"):
        parse_program("query(a).\nquery(b).\n")


# ---------------------------------------------------------------------------
# annotated disjunctions

def test_ad_transform_worked_example():
    got = ad_transform([0.2, 0.3, 0.5])
    assert abs(got[0] - 0.2) <= 1e-12
    assert abs(got[1] - 0.375) <= 1e-12
    assert abs(got[2] - 1.0) <= 1e-12
    back = ad_recover([0.2, 0.375, 1.0])
    assert max(abs(a - b) for a, b in zip(back, [0.2, 0.3, 0.5])) <= 1e-12


def test_ad_transform_edge_cases():
    assert ad_transform([1.0, 0.0, 0.0]) == [1.0, 0.0, 0.0]
    got = ad_transform([0.0, 0.4, 0.6])
    assert got[0] == 0.0
    assert abs(got[1] - 0.4) <= 1e-12
    assert abs(got[2] - 1.0) <= 1e-12
    assert ad_recover([1.0]) == [1.0]


def test_ad_transform_degenerate_prefix():
    # prefix consumes all mass, a later entry is still positive
    with pytest.raises(DegeneratePrefixError):
        ad_transform([0.5, 0.5, 1e-10])
    with pytest.raises(InvalidInstanceError):
        ad_transform([-0.1, 0.5])
    with pytest.raises(InvalidInstanceError):
        ad_transform([0.9, 0.3])  # over unit mass
    with pytest.raises(InvalidInstanceError):
        ad_transform([float("nan"), 0.5])


@given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8))
def test_ad_round_trip(weights):
    # entries bounded away from zero so no prefix consumes all mass early
    total = sum(weights)
    p = [w / total for w in weights]
    back = ad_recover(ad_transform(p))
    assert max(abs(a - b) for a, b in zip(p, back)) <= 1e-12
