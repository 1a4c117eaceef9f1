import itertools
import math
import random
import re
import time
import tracemalloc

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
    SizeLimitError,
    Valuation,
    ad_recover,
    ad_transform,
    applicable_rule_order,
    approx_dpnl,
    check_completeness,
    check_validity,
    dpnl,
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
from dpnl import logic as logic_mod
from conftest import (
    buzacott_reachability,
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
        with pytest.raises(InvalidInstanceError, match="must be 0 or 1"):
            oracle(all_on, 2)


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


def _has_cycle(prog: HornProgram) -> bool:
    """Whether some atom derives from itself through rule bodies."""
    edges = {}
    for head, body in prog.det_rules + prog.prob_rules:
        for b in body:
            edges.setdefault(b, set()).add(head)
    for start in edges:
        seen, stack = set(), [start]
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt == start:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def test_subset_recursion_matches_bruteforce():
    """The reachability reference against rule-subset enumeration, on
    complete graphs and seeded random tables up to 5 nodes."""
    rng = random.Random(80)
    for n in range(2, 6):
        tables = [[[0.5] * n for _ in range(n)]]
        tables += [[[rng.random() for _ in range(n)] for _ in range(n)] for _ in range(2)]
        for table in tables:
            expected = success_probability_bruteforce(reachability_program(n, table))
            assert abs(buzacott_reachability(n, table) - expected) <= 1e-12, (n, table)


def test_success_probability_matches_the_subset_recursion():
    """Reachability on complete graphs past brute force's reach, n=4..7 at
    edge probability 0.5 and seeded random tables at n=5 and 6, against
    the subset recursion."""
    tables = [[[0.5] * n for _ in range(n)] for n in range(4, 8)]
    rng = random.Random(1980)
    tables += [[[rng.random() for _ in range(n)] for _ in range(n)] for n in (5, 5, 6, 6)]
    for table in tables:
        n = len(table)
        value, _ = success_probability(reachability_program(n, table))
        assert abs(value - buzacott_reachability(n, table)) <= 1e-12, (n, table)


def test_success_probability_brute_checks_problog_semantics():
    rng = random.Random(20)
    cyclic = 0
    for _ in range(120):
        prog = random_horn_program(rng, m_max=8)
        cyclic += _has_cycle(prog)
        # independent re-derivation of the subset semantics
        expected = 0.0
        for mask in itertools.product([0, 1], repeat=prog.m):
            w = 1.0
            for k, p in enumerate(prog.probs):
                w *= p if mask[k] else 1.0 - p
            if naive_entails(horn_rules(prog, mask), prog.query):
                expected += w
        assert abs(success_probability_bruteforce(prog) - expected) <= 1e-12, prog
        # the reference runs without the search's solver
        assert prog._solver is None
    assert cyclic >= 30


def test_success_probability_brute_without_rules():
    prog = HornProgram([], [], "q")
    assert success_probability_bruteforce(prog) == 0.0
    assert prog._solver is None


def test_success_probability_brute_on_a_long_chain_listed_backwards():
    # the links come last to first, so each one is checked only once its
    # body atom is derived; a loop of passes over all rules needs one pass
    # per link
    n = 5000
    deterministic = [("a%d" % (k + 1), ["a%d" % k]) for k in range(n - 2, -1, -1)]
    prog = HornProgram(deterministic, [(0.25, "a0", [])], "a%d" % (n - 1))
    assert prog.num_atoms == n
    start = time.perf_counter()
    assert success_probability_bruteforce(prog) == 0.25
    assert time.perf_counter() - start < 1.0
    assert prog._solver is None


def test_success_probability_brute_refuses_before_allocating():
    prog = HornProgram([], [(0.5, "f%d" % k, []) for k in range(24)], "f0")
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            success_probability_bruteforce(prog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # one block of subsets would take 2^16 bytes per atom


@pytest.mark.parametrize("body, expected", [("a", 1.0), ("c", 0.0)])
def test_program_without_probabilistic_rules_is_a_zero_variable_query(body, expected):
    prog = parse_program("a.\nb :- %s.\nquery(b).\n" % body)
    inst, _, oracle = logic_instance(prog)
    assert (prog.m, inst.m) == (0, 0)
    value, stats = success_probability(prog)
    assert value == expected
    assert (stats.oracle_calls, stats.branch_nodes) == (1, 0)
    assert stats.leaves_true + stats.leaves_false == 1
    assert dpnl(inst, 1, oracle)[0] == expected
    grad, _ = dpnl_gradient(inst, 1, oracle)
    assert (grad.value, grad.partials) == (expected, [])
    bounds, _ = approx_dpnl(inst, 1, oracle, Exhaustive(), MaxProbability())
    # each bound update is rounded outward, so low may sit one ulp below 1
    assert bounds.low <= expected <= bounds.up
    assert expected - bounds.low <= 1e-15
    assert success_probability_bruteforce(prog) == expected


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
    with pytest.raises(InvalidInstanceError):
        provenance_clause_count(1)


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


def _landmark_set(prog):
    return {k for k, flag in enumerate(prog.solver().landmark) if flag}


def _removal_landmarks(prog):
    """The definition: a rule is a landmark when the program entails the
    query and the program without that rule does not."""
    def entailed(mask):
        return prog.query in naive_derived(horn_rules(prog, mask))

    if not entailed([1] * prog.m):
        return set()
    return {r for r in range(prog.m) if not entailed([k != r for k in range(prog.m)])}


def test_landmarks_match_removal_definition():
    found = 0
    for prog in _horn_programs(random.Random(26), 300, 8, (3, 4)):
        landmarks = _landmark_set(prog)
        assert landmarks == _removal_landmarks(prog), prog
        entailed = prog.query in naive_derived(horn_rules(prog, [1] * prog.m))
        assert prog.solver().dead == (0 if entailed else 1)
        value, _ = success_probability(prog)
        assert abs(value - success_probability_bruteforce(prog)) <= 1e-12
        found += len(landmarks)
    assert found >= 50


def _program(det, facts, query):
    return HornProgram(det, [(0.5, f, []) for f in facts], query)


def _chain(probs):
    """``a_{k+1} :- a_k, f_k`` for each fact ``f_k`` with its probability;
    the query ``a_m`` succeeds iff every fact is present."""
    m = len(probs)
    det = [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(m)]
    return HornProgram(det, [(p, "f%d" % k, []) for k, p in enumerate(probs)], "a%d" % m)


def test_landmarks_hand_built():
    chain = _program(
        [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(4)],
        ["f%d" % k for k in range(4)],
        "a4",
    )
    assert _landmark_set(chain) == {0, 1, 2, 3}
    # two paths from r1 to r4 share the edges into r1 and out of r4
    diamond = _program(
        [("r0", []), ("r1", ["r0", "e01"]), ("r2", ["r1", "e12"]), ("r3", ["r1", "e13"]),
         ("r4", ["r2", "e24"]), ("r4", ["r3", "e34"]), ("r5", ["r4", "e45"])],
        ["e01", "e12", "e13", "e24", "e34", "e45"],
        "r5",
    )
    assert _landmark_set(diamond) == {0, 5}
    # a is derived from p1 and p2 first, then from p1 alone through x and y;
    # b closes the cycle x -> y -> a -> b -> x, and the sets of a and of b
    # shrink after b is first set
    cycle = _program(
        [("a", ["p1", "p2"]), ("x", ["p1"]), ("y", ["x"]), ("a", ["y"]),
         ("b", ["a", "p3"]), ("x", ["b"])],
        ["p1", "p2", "p3"],
        "b",
    )
    assert _landmark_set(cycle) == {0, 2}
    for prog in (chain, diamond, cycle):
        assert _landmark_set(prog) == _removal_landmarks(prog)
        assert prog.solver().dead == 0
    dead = _program([("q", ["r"]), ("r", ["q", "f0"])], ["f0", "f1"], "q")
    assert _landmark_set(dead) == set()
    assert dead.solver().dead == 1
    value, stats = success_probability(dead)
    assert value == 0.0
    assert stats.oracle_calls == 1


@pytest.mark.parametrize("arrange", ["reversed", "shuffled"])
def test_landmark_pass_is_a_worklist(arrange):
    """A loop of passes until nothing changes needs one pass per link when
    the chain's rules are listed backwards, O(m^2) rule visits here."""
    m = 5000
    det = [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(m)]
    facts = ["f%d" % k for k in range(m)]
    if arrange == "reversed":
        det.reverse()
        facts.reverse()
    else:
        random.Random(5000).shuffle(det)
    prog = _program(det, facts, "a%d" % m)
    start = time.perf_counter()
    solver = prog.solver()
    elapsed = time.perf_counter() - start
    assert sum(solver.landmark) == m
    assert elapsed < 1.0, elapsed


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
    valuations, sets certificate rules and committed rules to 0 and steps
    landmark rules along 0 -> None -> 1, so the count of landmarks assigned
    0 both rises and falls. The counts of certificate rules assigned 0 and
    of free cells are checked against a recount at every step."""
    rng = random.Random(23)
    dead_moves = set()
    for prog in _horn_programs(random.Random(22), 30, 8, (3, 4)):
        m = prog.m
        solver = prog.solver()
        oracle = logic_oracle(prog)
        order = applicable_rule_order(prog)
        landmarks = _landmark_set(prog)
        underivable = prog.query not in naive_derived(horn_rules(prog, [1] * m))
        history = [fresh_valuation(m)]
        kinds = set()
        dead = solver.dead
        for step in range(240):
            v = history[-1]
            move = rng.random()
            free = v.free_indices()
            if move < 0.4 and free:
                kinds.add("assign")
                history.append(v.assign(rng.choice(free), rng.randint(0, 1)))
            elif move < 0.6 and len(history) > 1:
                kinds.add("backtrack")
                del history[rng.randrange(1, len(history)):]
            elif move < 0.72:
                kinds.add("jump")
                history = [Valuation([rng.choice([0, 1, None]) for _ in range(m)])]
            elif move < 0.86:
                kinds.add("zero")
                targets = set(solver.certificate or ()) | {k for k, c in enumerate(v) if c == 1}
                if targets:
                    history.append(v.assign(rng.choice(sorted(targets)), 0))
            else:
                kinds.add("landmark")  # one step along 0 -> None -> 1 -> 0
                if landmarks:
                    k = rng.choice(sorted(landmarks))
                    history.append(v.assign(k, {0: None, None: 1, 1: 0}[v[k]]))
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
            assert solver.dead == underivable + sum(v[k] == 0 for k in landmarks)
            assert solver.broken == sum(v[k] == 0 for k in solver.certificate or ())
            dead_moves.add((solver.dead > dead) - (solver.dead < dead))
            dead = solver.dead
        assert kinds == {"assign", "backtrack", "jump", "zero", "landmark"}
        with pytest.raises(InvalidInstanceError):
            oracle(Valuation([None] * (m + 1)), 1)
    assert dead_moves == {-1, 0, 1}


def test_one_cell_commit_matches_the_full_diff():
    """Two solvers of one program follow the same random history: one is
    given each valuation's parent link, the other only its cells, so it
    compares every cell. The history assigns any cell any value (1 -> 0,
    to None, or the value it has), backtracks, steps to a sibling of the
    last valuation and jumps to fresh ones, so a link's ``base`` is the
    committed tuple on some steps and not on others. The derived atoms,
    both counts and the verdict must agree at every step."""
    rng = random.Random(26)
    linked_steps = set()
    for prog in _horn_programs(random.Random(27), 30, 8, (3, 4)):
        m = prog.m
        linked = prog.solver()
        plain = logic_mod._Solver(prog)
        history = [fresh_valuation(m)]
        for step in range(200):
            v = history[-1]
            move = rng.random()
            if move < 0.6:
                k = rng.randrange(m)
                history.append(v.assign(k, rng.choice([0, 1, None, v[k]])))
            elif move < 0.75 and len(history) > 1:
                del history[rng.randrange(1, len(history)):]
            elif move < 0.9 and v.base is not None:
                history[-1] = history[-2].assign(v.changed, rng.choice([0, 1, None]))
            else:
                history = [Valuation([rng.choice([0, 1, None]) for _ in range(m)])]
            v = history[-1]
            linked_steps.add(v.base is linked.cells)
            got = linked.verdict(v.cells, v.base, v.changed)
            assert got == plain.verdict(v.cells), (prog, step, v)
            assert linked.derived == plain.derived, (prog, step, v)
            assert (linked.dead, linked.broken) == (plain.dead, plain.broken), (prog, step, v)
    assert linked_steps == {True, False}


def test_landmark_viable_hook_is_sound():
    """Under output 1 the Horn oracle's ``viable`` hook keeps only value 1
    of a landmark rule. Each child it drops must have no matching
    completion, on chains, where every fact is a landmark, on seeded
    graphs, some with landmark edges, and on random programs. A program
    drops values exactly when it has landmarks, and one without landmarks
    has no hook."""
    progs = [_chain([0.5] * m) for m in (1, 4, 6)]
    progs += [reachability_program(2, [[0.5] * 2] * 2)]
    progs += [_graph_program(random.Random(seed), 6, 12) for seed in range(3)]
    progs += _horn_programs(random.Random(28), 20, 6, (3,))
    with_landmarks = 0
    for prog in progs:
        _, sfn, oracle = logic_instance(prog)
        if prog.m <= 6:
            report = check_validity(oracle, sfn, exhaustive=True)
        else:
            report = check_validity(oracle, sfn, budget=500, seed=29)
        assert report.passed, (prog, report.counterexample)
        assert (report.dropped > 0) == bool(_landmark_set(prog)), prog
        with_landmarks += report.dropped > 0
        if _landmark_set(prog):
            assert oracle.viable(fresh_valuation(prog.m), 0, 0) is None
        else:
            assert oracle.viable is None
    assert with_landmarks >= 8


def test_pruned_values_keep_gradients_and_bounds():
    """A dropped value's partial is 0, as finite differences give it, and
    an exhaustive anytime run on a chain brackets the product of its
    facts."""
    for prog in (_chain([0.3, 0.6, 0.8, 0.55]), _graph_program(random.Random(0), 6, 12)):
        inst, sfn, oracle = logic_instance(prog)
        grad, stats = dpnl_gradient(inst, 1, oracle, order=applicable_rule_order(prog))
        assert stats.pruned > 0
        assert abs(grad.value - success_probability_bruteforce(prog)) <= 1e-12
        fd = finite_difference_partials(inst, sfn, 1)
        for k in _landmark_set(prog):
            assert grad.partials[k][0] == 0.0 and abs(fd[k][0]) <= 1e-9
        for row, fd_row in zip(grad.partials, fd):
            assert max(abs(a - b) for a, b in zip(row, fd_row)) <= 1e-6
    probs = [0.9, 0.75, 0.6, 0.95, 0.5, 0.85]
    inst, _, oracle = logic_instance(_chain(probs))
    for heuristic in (MaxProbability(), Fifo()):
        bounds, stats = approx_dpnl(inst, 1, oracle, Exhaustive(), heuristic)
        assert stats.pruned == len(probs)
        assert bounds.low <= math.prod(probs) <= bounds.up
        assert bounds.up - bounds.low <= 1e-12


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
    propagation must not recurse, and every fact is a landmark, so each
    ``f_k = 0`` child is answered 0 and never unknown. Each step sets
    ``f_k`` to 0 and then to 1 with ``assign``, so every call commits the
    one cell its valuation's parent link names."""
    m = 5000
    det = [("a0", [])] + [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]) for k in range(m)]
    prob = [(0.99, "f%d" % k, []) for k in range(m)]
    prog = HornProgram(det, prob, "a%d" % m)
    assert sum(prog.solver().landmark) == m
    oracle = logic_oracle(prog)
    v = fresh_valuation(m)
    for k in range(m):
        v = v.assign(k, 0)
        assert oracle(v, 1).answer == 0, k
        v = v.assign(k, 1)
        assert oracle(v, 1).answer == (1 if k == m - 1 else None), k
    facts = [("f%d" % k, []) for k in range(m)]
    assert entails(det + facts, "a%d" % m)


def _alternatives_chain(n):
    """``a_{k+1} :- a_k, f_k`` and ``a_{k+1} :- a_k, g_k`` for n links; rule
    2k is ``f_k`` and rule 2k + 1 is ``g_k``."""
    det = [("a0", [])]
    for k in range(n):
        det += [("a%d" % (k + 1), ["a%d" % k, "f%d" % k]), ("a%d" % (k + 1), ["a%d" % k, "g%d" % k])]
    return _program(det, [x % k for k in range(n) for x in ("f%d", "g%d")], "a%d" % n)


def test_deep_chain_with_alternatives_runs_the_optimistic_propagation():
    """Two facts per link, ``a_{k+1} :- a_k, f_k`` and ``a_{k+1} :- a_k,
    g_k``, leave no landmark, so only the optimistic run, 5,000 links deep
    and without recursion, decides the 0 below."""
    n = 5000
    prog = _alternatives_chain(n)
    assert _landmark_set(prog) == set()
    oracle = logic_oracle(prog)
    cells = [None] * (2 * n)
    assert oracle(Valuation(cells), 1).answer is None
    last = 2 * (n - 1)  # f of the last link, then its g
    cells[last] = 0
    assert oracle(Valuation(cells), 1).answer is None
    cells[last + 1] = 0
    assert oracle(Valuation(cells), 1).answer == 0
    cells[last + 1] = 1
    assert oracle(Valuation(cells), 1).answer is None
    cells[0::2] = [1] * n
    cells[last] = 0
    assert oracle(Valuation(cells), 1).answer == 1


def test_certificate_count_returns_to_zero_without_a_new_run():
    """Two facts per link leave no landmark, so the certificate decides.
    With ``g_j`` assigned 0, assigning ``f_j`` 0 breaks the certificate and
    the optimistic run answers 0, keeping it; putting ``f_j`` back to None
    must answer unknown from the count alone, with the same certificate."""
    n = 6
    prog = _alternatives_chain(n)
    assert _landmark_set(prog) == set()
    solver = prog.solver()

    def expected(cells):
        if prog.query in naive_derived(horn_rules(prog, [c == 1 for c in cells])):
            return 1
        return None if prog.query in naive_derived(horn_rules(prog, [c != 0 for c in cells])) else 0

    for j in range(n):
        f, g = 2 * j, 2 * j + 1
        cells = [None] * (2 * n)
        cells[0:f:2] = [1] * j  # the earlier links committed through their f
        cells[g] = 0
        assert solver.verdict(tuple(cells)) is None
        cert = solver.certificate
        assert f in cert and g not in cert
        cells[f] = 0
        assert solver.verdict(tuple(cells)) == expected(cells) == 0
        assert solver.broken == 1 and solver.certificate is cert
        cells[f] = None
        assert solver.verdict(tuple(cells)) is None
        assert solver.broken == 0 and solver.certificate is cert


def _graph_program(rng, nodes, edges):
    """A random path through every node, then other ordered pairs, as the
    graphs of the benchmark's horn-reach workload."""
    inner = list(range(1, nodes - 1))
    rng.shuffle(inner)
    path = [0] + inner + [nodes - 1]
    chosen = list(zip(path, path[1:]))
    others = [(a, b) for a in range(nodes) for b in range(nodes) if a != b and (a, b) not in chosen]
    chosen += rng.sample(others, edges - len(chosen))
    rng.shuffle(chosen)
    det = [("r0", [])] + [("r%d" % b, ["r%d" % a, "e%d%d" % (a, b)]) for a, b in chosen]
    prob = [(round(rng.uniform(0.2, 0.8), 4), "e%d%d" % (a, b), []) for a, b in chosen]
    return HornProgram(det, prob, "r%d" % (nodes - 1))


@pytest.mark.parametrize(
    "seed, counts",
    [(0, (14, 7, 3, 4, 1)), (1, (17, 8, 4, 5, 0)), (2, (38, 19, 10, 9, 1)),
     (3, (157, 78, 48, 31, 0)), (4, (79, 39, 19, 21, 0))],
)
def test_graph_search_counts_are_pinned(seed, counts):
    """Exact counts on seeded 6-node, 12-edge graphs: a change to what the
    oracle or the order costs must not move the search. Graphs 0 and 2 have
    a landmark edge, whose absent child the oracle's ``viable`` hook prunes
    where it would be a false leaf."""
    prog = _graph_program(random.Random(seed), 6, 12)
    value, stats = success_probability(prog)
    assert abs(value - success_probability_bruteforce(prog)) <= 1e-12
    got = (stats.oracle_calls, stats.branch_nodes, stats.leaves_true, stats.leaves_false,
           stats.pruned)
    assert got == counts
    assert stats.cache_hits == 0


def test_chain_search_counts_are_pinned():
    """A seeded 300-fact chain: one branch node per fact, whose ``f_k = 0``
    child the landmark ``viable`` hook prunes, and one true leaf at the end."""
    m = 300
    rng = random.Random(300)
    probs = [rng.uniform(0.99, 0.999) for _ in range(m)]
    prog = _chain(probs)
    value, stats = success_probability(prog)
    assert math.isclose(value, math.prod(probs), rel_tol=1e-12, abs_tol=0.0)
    assert stats.oracle_calls == m + 1
    assert stats.branch_nodes == m
    assert (stats.leaves_true, stats.leaves_false) == (1, 0)
    assert stats.pruned == m
    assert stats.cache_hits == 0


def test_deep_chain_search_needs_no_call_stack():
    """A 1,500-fact chain is 1,500 branch levels deep, past Python's default
    recursion limit; the query succeeds iff every fact is present."""
    m = 1500
    rng = random.Random(1500)
    probs = [rng.uniform(0.99, 0.999) for _ in range(m)]
    prog = _chain(probs)
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


@pytest.mark.parametrize(
    "statements, message",
    [
        ("a.\nb :- a", "line 2: statement does not end with '.'"),
        (".", "line 1: empty statement"),
        ("p(a,).", "line 1: empty argument in 'p(a,)'"),
        ("p().", "line 1: empty argument in 'p()'"),
        ("p(f(a,b)).", "line 1: ground programs only: argument 'f(a,b)' is not a constant"),
        ("p(a, g(b)).", "line 1: ground programs only: argument 'g(b)' is not a constant"),
        ("p(a b).", "line 1: ground programs only: argument 'a b' is not a constant"),
        ("_x.", "line 1: ground programs only: '_x' looks like a variable"),
        ("a :- .", "line 1: cannot parse atom ''"),
        ("p :- q(.", "line 1: cannot parse atom 'q('"),
        ("p :- f(g(a), b).", "line 1: ground programs only: argument 'g(a)' is not a constant"),
        ("0.5 :: a :- b.", "line 1: probabilistic rules with bodies are not supported"),
        ("x :: a.", "line 1: malformed probability 'x'"),
    ],
)
def test_parse_program_error_messages(statements, message):
    with pytest.raises(ProgramError) as err:
        parse_program(statements + "\nquery(a).\n")
    assert str(err.value) == message
    assert message.startswith("line %d: " % err.value.line)


@pytest.mark.parametrize(
    "text, atoms, det, prob",
    [
        ("edge( n1 , n2 ).\nquery(edge(n1,n2)).\n", ["edge(n1,n2)"], [(0, ())], []),
        (
            "a :- b ,c.\r\nb.\r\n0.5 :: c.\r\nquery(a).\r\n",
            ["a", "b", "c"],
            [(0, (1, 2)), (1, ())],
            [(2, ())],
        ),
        ("0.5 :: a.\nquery (a).\n", ["a"], [], [(0, ())]),
        ("a. % fact, with (parens)\nquery(a).\n", ["a"], [(0, ())], []),
    ],
    ids=["spaced-args", "crlf", "query-space", "comment"],
)
def test_parse_program_accepted_forms(text, atoms, det, prob):
    prog = parse_program(text)
    assert prog.atom_names == atoms
    assert (prog.det_rules, prog.prob_rules, prog.query) == (det, prob, 0)
    assert prog.probs == [0.5] * len(prob)


# the separator pattern the parser once split with: a comma with no ")"
# before the next "(", whose lookahead makes a long list quadratic
_SEP = re.compile(r",(?![^(]*\))")


@given(st.text(alphabet="ab ,()", max_size=30))
def test_split_list_matches_the_separator_pattern(text):
    assert logic_mod._split_list(text) == _SEP.split(text)


def test_split_list_matches_the_separator_pattern_on_valid_lists():
    """Rule bodies of bare atoms and atoms with arguments, spaced or not,
    and argument lists, as ``parse_program`` hands them over, up to a
    thousand items long."""
    rng = random.Random(31)

    def atom():
        name = rng.choice(["p", "reach", "e_1", "a%d" % rng.randrange(100)])
        if rng.random() < 0.5:
            return name
        args = ["c%d" % rng.randrange(50) for _ in range(rng.randint(1, 4))]
        return "%s(%s)" % (name, rng.choice([",", ", ", " , "]).join(args))

    corpus = []
    for size in [1, 2, 3, 5, 10, 100, 1000] * 10:
        sep = rng.choice([",", ", ", " ,"])
        corpus.append(" " + sep.join(atom() for _ in range(size)))
        corpus.append(sep.join("c%d" % rng.randrange(50) for _ in range(size)))
    corpus += [" reach(n3), edge(n3,n5)", " a0, f0", "n3,n5", "x, y, z(w)", "p(a,b),q"]
    for text in corpus:
        assert logic_mod._split_list(text) == _SEP.split(text), text


def test_split_pattern_needs_no_python_311_syntax():
    """Possessive quantifiers and atomic groups compile from Python 3.11
    on; the package supports 3.10."""
    assert re.search(r"[*+?}]\+|\(\?>", logic_mod._PIECE.pattern) is None


@pytest.mark.parametrize(
    "text",
    ["(" * 100000 + ",", ")" * 100000 + ",", "a(,b" * 25000, "," * 100000 + "(", "a," * 50000 + ")"],
    ids=["opens", "closes", "alternating", "commas-then-open", "bare-then-close"],
)
def test_split_list_is_linear_on_any_text(text):
    start = time.perf_counter()
    pieces = logic_mod._split_list(text)
    elapsed = time.perf_counter() - start
    assert ",".join(pieces) == text
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("shape", ["bare-body", "bare-body-then-paren", "arguments"])
def test_parse_program_long_comma_list_is_linear(shape):
    names = ["a%d" % i for i in range(20000)]
    if shape.startswith("bare-body"):
        if shape == "bare-body-then-paren":
            names.append("p(c)")
        text = "h :- %s.\n%s\nquery(h).\n" % (", ".join(names), "\n".join(n + "." for n in names))
        atom = "h"
    else:
        atom = "p(%s)" % ",".join(names)
        text = "%s.\nquery(%s).\n" % (atom, atom)
    start = time.perf_counter()
    prog = parse_program(text)
    elapsed = time.perf_counter() - start
    assert prog.atom_names[prog.query] == atom
    assert elapsed < 0.5, elapsed


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
    with pytest.raises(InvalidInstanceError):
        ad_recover([1.5])  # a switch probability above 1


@given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8))
def test_ad_round_trip(weights):
    # entries bounded away from zero so no prefix consumes all mass early
    total = sum(weights)
    p = [w / total for w in weights]
    back = ad_recover(ad_transform(p))
    assert max(abs(a - b) for a, b in zip(p, back)) <= 1e-12
