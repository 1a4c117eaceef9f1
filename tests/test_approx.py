import itertools
import math
import random
from fractions import Fraction

import pytest

from dpnl import (
    Bounds,
    Domain,
    EpsAdditive,
    EpsMultiplicative,
    Exhaustive,
    Fifo,
    Instance,
    MaxProbability,
    Oracle,
    RandomChoice,
    SumInstanceSpec,
    SymbolicFunction,
    TimeBudget,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
    approx_dpnl,
    bound_trace,
    build_sum_instance,
    dpnl,
    exhaustive_oracle,
    fresh_valuation,
    logic_instance,
    naive_oracle,
    parse_program,
    right_to_left_order,
    total_completions,
)
from dpnl import approx as approx_mod
from dpnl.approx import _Frontier, _StepLimit
from conftest import random_digit_rows, random_table_instance, table_residual_key

HEURISTICS = [MaxProbability(), Fifo(), RandomChoice(77)]


def sum_setup(rng, n=1):
    rows = random_digit_rows(rng, n)
    inst, sfn, oracle = build_sum_instance(SumInstanceSpec(n, rows))
    return inst, oracle, right_to_left_order(n)


def test_bounds_estimate():
    assert Bounds(0.0, 1.0).estimate == 0.0
    b = Bounds(0.04, 0.25)
    assert abs(b.estimate - 0.1) <= 1e-12
    assert b.low <= b.estimate <= b.up


def test_exhaustive_stop_reproduces_exact():
    rng = random.Random(2)
    inst, oracle, order = sum_setup(rng)
    for o in range(20):
        exact, _ = dpnl(inst, o, oracle, order=order)
        for heuristic in HEURISTICS:
            bounds, stats = approx_dpnl(inst, o, oracle, Exhaustive(), heuristic, order=order)
            assert abs(bounds.low - exact) <= 1e-10
            assert abs(bounds.up - exact) <= 1e-10
            assert abs(bounds.estimate - exact) <= 1e-10


def test_eps_multiplicative_guarantee():
    rng = random.Random(3)
    inst, oracle, order = sum_setup(rng)
    for o in range(20):
        exact, _ = dpnl(inst, o, oracle, order=order)
        bounds, _ = approx_dpnl(
            inst, o, oracle, EpsMultiplicative(0.1), MaxProbability(), order=order
        )
        r = bounds.estimate
        if exact == 0.0:
            assert r == 0.0
        else:
            assert exact / 1.1 - 1e-12 <= r <= exact * 1.1 + 1e-12


def test_eps_additive_guarantee():
    rng = random.Random(4)
    inst, oracle, order = sum_setup(rng)
    for o in range(20):
        exact, _ = dpnl(inst, o, oracle, order=order)
        bounds, _ = approx_dpnl(inst, o, oracle, EpsAdditive(0.05), Fifo(), order=order)
        assert abs(bounds.estimate - exact) <= 0.05 + 1e-12


def test_time_budget_sandwich():
    rng = random.Random(5)
    inst, oracle, order = sum_setup(rng, n=2)
    exact, _ = dpnl(inst, 63, oracle, order=order)
    bounds, stats = approx_dpnl(inst, 63, oracle, TimeBudget(0.02), MaxProbability(), order=order)
    assert bounds.low - 1e-12 <= exact <= bounds.up + 1e-12
    assert stats.wall_time < 0.02 + 0.05  # loop-head check plus slack


def exact_root_mass(inst):
    """The product of the rows' exact sums: the exact mass of all valuations."""
    mass = Fraction(1)
    for row in inst.probs:
        mass *= sum(Fraction(p) for p in row)
    return mass


def test_trace_first_snapshot_and_monotonicity():
    rng = random.Random(6)
    inst, oracle, order = sum_setup(rng)
    snaps = bound_trace(inst, 9, oracle, MaxProbability(), max_steps=10**6, order=order)
    # up starts at or above the root's exact mass, which exceeds 1 when a
    # normalised row's float entries sum above 1
    assert snaps[0].bounds.low == 0.0
    assert Fraction(snaps[0].bounds.up) >= exact_root_mass(inst)
    assert snaps[0].bounds.up - 1.0 < 1e-15
    assert snaps[0].iteration == 0
    for prev, cur in zip(snaps, snaps[1:]):
        assert cur.bounds.low >= prev.bounds.low - 1e-15
        assert cur.bounds.up <= prev.bounds.up + 1e-15
        assert -1e-12 <= cur.bounds.low <= cur.bounds.up + 1e-12


def test_trace_sandwich_and_conservation():
    rng = random.Random(7)
    inst, oracle, order = sum_setup(rng)
    for o in (0, 4, 9, 19):
        exact, _ = dpnl(inst, o, oracle, order=order)
        for heuristic in HEURISTICS:
            snaps = bound_trace(inst, o, oracle, heuristic, max_steps=10**6, order=order)
            for snap in snaps:
                assert snap.bounds.low - 1e-12 <= exact <= snap.bounds.up + 1e-12
                balance = snap.bounds.low + (1.0 - snap.bounds.up) + snap.frontier_mass
                assert abs(balance - 1.0) <= 1e-9
            # fully classified: all mass accounted for
            last = snaps[-1]
            assert last.frontier_mass == 0.0
            assert abs(last.bounds.low + (1.0 - last.bounds.up) - 1.0) <= 1e-9


def test_trace_max_steps_limits_iterations():
    rng = random.Random(8)
    inst, oracle, order = sum_setup(rng)
    snaps = bound_trace(inst, 9, oracle, Fifo(), max_steps=5, order=order)
    assert len(snaps) == 6  # initial snapshot plus five iterations
    assert snaps[-1].iteration == 5


def test_deterministic_given_seed():
    rng = random.Random(9)
    inst, oracle, order = sum_setup(rng)
    runs = []
    for _ in range(2):
        bounds, stats = approx_dpnl(
            inst, 9, oracle, EpsAdditive(0.02), RandomChoice(123), order=order
        )
        runs.append((bounds, stats.oracle_calls))
    assert runs[0] == runs[1]


def test_generic_instance_with_exhaustive_oracle():
    rng = random.Random(10)
    inst, sfn = random_table_instance(rng, m_max=4, size_max=4)
    oracle = exhaustive_oracle(sfn)
    for o in range(inst.output_domain.size):
        exact, _ = dpnl(inst, o, oracle)
        bounds, _ = approx_dpnl(inst, o, oracle, Exhaustive(), MaxProbability())
        assert abs(bounds.estimate - exact) <= 1e-10


def test_naive_oracle_approx_still_sound():
    rng = random.Random(11)
    inst, sfn = random_table_instance(rng, m_max=3, size_max=3)
    oracle = naive_oracle(sfn)
    o = 0
    exact, _ = dpnl(inst, o, oracle)
    bounds, _ = approx_dpnl(inst, o, oracle, EpsAdditive(0.1), Fifo())
    assert bounds.low - 1e-12 <= exact <= bounds.up + 1e-12


def test_stop_policy_validation():
    with pytest.raises(ValueError):
        EpsMultiplicative(0.0)
    with pytest.raises(ValueError):
        EpsAdditive(-0.1)
    with pytest.raises(ValueError):
        TimeBudget(0.0)
    for policy in (EpsMultiplicative, EpsAdditive, TimeBudget):
        with pytest.raises(ValueError):
            policy(float("nan"))
    with pytest.raises(ValueError):
        bound_trace(None, 0, None, Fifo(), max_steps=0)


def test_eps_delta_checker_on_guaranteed_runs():
    # the multiplicative stop guarantees relative error <= eps on every run,
    # so the empirical (eps, delta) estimate must report delta = 0
    rng = random.Random(12)
    eps = 0.1
    violations = 0
    runs = 0
    for trial in range(10):
        inst, oracle, order = sum_setup(rng)
        for o in (4, 9, 13):
            exact, _ = dpnl(inst, o, oracle, order=order)
            bounds, _ = approx_dpnl(
                inst, o, oracle, EpsMultiplicative(eps), RandomChoice(trial), order=order
            )
            runs += 1
            if exact > 0 and abs(bounds.estimate - exact) / exact > eps:
                violations += 1
    assert runs == 30
    assert violations / runs == 0.0


def keyed_and_keyless_cases():
    """(instance, keyed oracle, the same oracle without key, order, outputs)."""
    rng = random.Random(61)
    for _ in range(25):
        inst, sfn = random_table_instance(rng, m_max=5, size_max=4)
        for base in (naive_oracle(sfn), exhaustive_oracle(sfn)):
            keyed = Oracle(base.fn, residual_key=table_residual_key(sfn))
            yield inst, keyed, Oracle(base.fn), None, range(inst.output_domain.size)
    for n, outputs in ((1, range(20)), (2, (0, 9, 63, 100, 154, 199))):
        inst, oracle, order = sum_setup(rng, n)
        yield inst, oracle, Oracle(oracle.fn), order, outputs


def test_merging_equal_keys_keeps_values_and_saves_calls():
    merges = 0
    for inst, keyed, keyless, order, outputs in keyed_and_keyless_cases():
        for o in outputs:
            exact, _ = dpnl(inst, o, keyed, order=order)
            for heuristic in HEURISTICS:
                runs = []
                for oracle in (keyed, keyless):
                    bounds, stats = approx_dpnl(inst, o, oracle, Exhaustive(), heuristic, order=order)
                    assert abs(bounds.low - exact) <= 1e-10
                    assert abs(bounds.up - exact) <= 1e-10
                    runs.append(stats)
                    for stop in (EpsAdditive(0.05), EpsMultiplicative(0.1)):
                        bounds, _ = approx_dpnl(inst, o, oracle, stop, heuristic, order=order)
                        assert bounds.low - 1e-12 <= exact <= bounds.up + 1e-12
                keyed_stats, keyless_stats = runs
                assert keyed_stats.oracle_calls <= keyless_stats.oracle_calls
                # valuations of one tree never share cells
                assert keyless_stats.cache_hits == 0
                merges += keyed_stats.cache_hits
    assert merges > 0


def test_step_limit_counts_iterations_not_merges():
    rng = random.Random(62)
    inst, hooked, order = sum_setup(rng, n=2)
    # without the viable hook the first five steps queue children that merge;
    # with it those children are dropped before they are built
    oracle = Oracle(hooked.fn, residual_key=hooked.residual_key)
    for heuristic in HEURISTICS:
        snaps = bound_trace(inst, 63, oracle, heuristic, max_steps=5, order=order)
        assert [snap.iteration for snap in snaps] == list(range(6))
        trace = []
        _, stats = approx_dpnl(inst, 63, oracle, _StepLimit(5), heuristic, order=order, trace=trace)
        assert trace == snaps
        assert stats.oracle_calls == 5
        assert stats.cache_hits > 0
        _, hooked_stats = approx_dpnl(inst, 63, hooked, _StepLimit(5), heuristic, order=order)
        assert hooked_stats.pruned > 0


def drift_instance(rng, m):
    """Binary variables whose rows [p, 1 - p], 0.9 <= p < 1, sum to exactly
    1 in binary64 (1 - p is exact), so the Fraction sum over total valuations
    is the exact value of the float tables. Output 3 is never produced."""
    rows = []
    for _ in range(m):
        p = rng.uniform(0.9, 1.0)
        row = [p, 1.0 - p]
        rng.shuffle(row)
        rows.append(row)
    totals = list(itertools.product((0, 1), repeat=m))
    table = {args: rng.randrange(3) for args in totals}
    exact = [Fraction(0)] * 4
    for args in totals:
        weight = Fraction(1)
        for row, x in zip(rows, args):
            weight *= Fraction(row[x])
        exact[table[args]] += weight
    domains = [Domain(2)] * m
    sfn = SymbolicFunction(domains, Domain(4), table.__getitem__, name="drift")
    inst = Instance(rows, Domain(4))
    return inst, sfn, exact


def heavy_leaf_then_dust_instance():
    """X0 = 0 is a true leaf of mass 0.75. Past it, X1..X42 = 0 are false
    leaves, and with all of them 1 the oracle waits for the last variable,
    whose 1,000 values are true leaves of about 0.51 ulp of ``low`` each:
    adding them to ``low`` with round-to-nearest lifts it past the exact
    value, so only the outward rounding of ``low`` keeps it sound."""
    inst = Instance([[0.75, 0.25]] + [[0.5, 0.5]] * 42 + [[1.0] * 1000], Domain(2))

    def fn(v, o):
        cells = v.cells
        for k, c in enumerate(cells):
            if c is None:
                return VERDICT_UNKNOWN
            if c == 0 and k < 43:
                return VERDICT_TRUE if (k == 0) == (o == 1) else VERDICT_FALSE
        return VERDICT_TRUE if o == 1 else VERDICT_FALSE

    tail = Fraction(1)
    probs = inst.probs
    for row in probs[1:43]:
        tail *= Fraction(row[1])
    exact = Fraction(probs[0][0]) + Fraction(probs[0][1]) * tail * sum(
        Fraction(p) for p in probs[43]
    )
    return inst, Oracle(fn), exact


def test_bounds_certified_in_floating_point():
    # rounded mass products and running sums put uncorrected bounds a few
    # ulp on the wrong side of the exact value
    rng = random.Random(63)
    for m, count in ((8, 4), (3, 200)):
        for _ in range(count):
            inst, sfn, exact = drift_instance(rng, m)
            plain = naive_oracle(sfn)
            for oracle in (plain, Oracle(plain.fn, residual_key=table_residual_key(sfn))):
                for o in range(4):
                    for heuristic in HEURISTICS:
                        snaps = bound_trace(inst, o, oracle, heuristic, max_steps=10**6)
                        for snap in snaps:
                            assert Fraction(snap.bounds.low) <= exact[o] <= Fraction(snap.bounds.up)
                        assert snaps[-1].bounds.gap <= 1e-12
    inst, oracle, exact = heavy_leaf_then_dust_instance()
    for heuristic in (MaxProbability(), Fifo()):
        snaps = []
        approx_dpnl(inst, 1, oracle, Exhaustive(), heuristic, trace=snaps)
        for snap in snaps:
            assert Fraction(snap.bounds.low) <= exact <= Fraction(snap.bounds.up)
        assert snaps[-1].bounds.gap <= 1e-12


def test_bounds_hold_when_rows_miss_one():
    # the exact value is that of the float rows, whose sums can miss 1 by a
    # few ulps: ten 0.1s exceed 1 by 5.55e-17, three 1/3s fall short of it
    # by 5.55e-17, and the rows of this program exceed 1 by 8.33e-17 together
    def true_below_root(v, o):
        if v.cells[0] is None:
            return VERDICT_UNKNOWN
        return VERDICT_TRUE if o == 1 else VERDICT_FALSE

    program = parse_program("q.\n0.078 :: f0.\n0.073 :: f1.\n0.537 :: f2.\nquery(q).\n")
    inst, _, oracle = logic_instance(program)
    cases = [
        (Instance([[1.0] * 10], Domain(2)), Oracle(true_below_root)),
        (inst, oracle),
        (Instance([[1.0] * 3] * 12, Domain(2)), Oracle(lambda v, o: VERDICT_TRUE)),
        (Instance([[1.0] * 3] * 12, Domain(2)), Oracle(true_below_root)),
    ]
    for inst, oracle in cases:
        exact = exact_root_mass(inst)
        assert exact != 1
        for heuristic in HEURISTICS:
            snaps = []
            approx_dpnl(inst, 1, oracle, Exhaustive(), heuristic, trace=snaps)
            for snap in snaps:
                assert Fraction(snap.bounds.low) <= exact <= Fraction(snap.bounds.up)
            assert snaps[-1].bounds.gap <= 1e-12


def table_viable(sfn):
    """Viable hook of a table function: the values of k through which some
    completion still maps to the output, or None for all of them."""

    def viable(v, k, o):
        ys = tuple(
            y
            for y in range(sfn.domains[k].size)
            if any(sfn.fn(w.cells) == o for w in total_completions(v.assign(k, y), sfn.domains))
        )
        return ys if ys and len(ys) < sfn.domains[k].size else None

    return viable


def test_dropped_children_keep_bounds_certified():
    # a branch's dropped children leave up as one false leaf, rounded down,
    # with outward rounding, so the bounds still hold in exact arithmetic
    rng = random.Random(64)
    pruned = 0
    for _ in range(200):
        inst, sfn, exact = drift_instance(rng, 3)
        oracle = Oracle(naive_oracle(sfn).fn, viable=table_viable(sfn))
        for o in range(4):
            for heuristic in HEURISTICS:
                snaps = []
                _, stats = approx_dpnl(inst, o, oracle, Exhaustive(), heuristic, trace=snaps)
                pruned += stats.pruned
                for snap in snaps:
                    assert Fraction(snap.bounds.low) <= exact[o] <= Fraction(snap.bounds.up)
                assert snaps[-1].bounds.gap <= 1e-12
    assert pruned > 0


def merged(mass, add):
    """A merge's mass by the frontier's rule: the sum rounded toward zero,
    never below the entry's mass."""
    return max(mass, math.nextafter(mass + add, 0.0))


def test_max_probability_reprioritises_merged_entries():
    frontier = _Frontier(MaxProbability().ranker())
    v = fresh_valuation(2)
    for key, y, mass in (("a", 0, 0.3), ("b", 1, 0.2), ("c", 2, 0.25)):
        assert not frontier.add(key, v.assign(0, y), mass)
    assert frontier.add("b", v.assign(1, 0), 0.2)
    assert len(frontier) == 3
    popped = [frontier.pop() for _ in range(3)]
    assert [(e.key, e.v.cells, e.mass) for e in popped] == [
        ("b", (1, None), merged(0.2, 0.2)),
        ("a", (0, None), 0.3),
        ("c", (2, None), 0.25),
    ]
    assert Fraction(popped[0].mass) <= Fraction(0.2) + Fraction(0.2)
    # the superseded heap item of "b" is no live entry
    assert len(frontier) == 0
    assert frontier.mass == 0.0


def test_fifo_merged_entry_keeps_its_place():
    frontier = _Frontier(Fifo().ranker())
    v = fresh_valuation(2)
    for key, y, mass in (("a", 0, 0.1), ("b", 1, 0.2), ("c", 2, 0.3)):
        assert not frontier.add(key, v.assign(0, y), mass)
    assert frontier.add("c", v.assign(1, 0), 0.5)
    assert frontier.add("a", v.assign(1, 1), 0.25)
    popped = [frontier.pop() for _ in range(3)]
    assert [(e.key, e.v.cells, e.mass) for e in popped] == [
        ("a", (0, None), merged(0.1, 0.25)),
        ("b", (1, None), 0.2),
        ("c", (2, None), merged(0.3, 0.5)),
    ]
    assert Fraction(popped[0].mass) <= Fraction(0.1) + Fraction(0.25)
    assert Fraction(popped[2].mass) <= Fraction(0.3) + Fraction(0.5)
    assert len(frontier) == 0 and not frontier.heap


def test_random_choice_order_is_seeded_and_pops_each_entry_once():
    def pop_order(seed):
        frontier = _Frontier(RandomChoice(seed).ranker())
        v = fresh_valuation(2)
        for i in range(40):
            assert not frontier.add(i, v.assign(0, i % 10), 0.01 * (i + 1))
        # every merge changes the mass, so every one draws a new rank
        for i in range(0, 40, 3):
            assert frontier.add(i, v.assign(1, i % 10), 0.5)
            assert frontier.add(i, v.assign(1, i % 10), 0.25)
        assert len(frontier.heap) > len(frontier) == 40
        popped = []
        while len(frontier) > 0:
            popped.append(frontier.pop())
        assert frontier.mass == 0.0
        return [(e.key, e.mass) for e in popped]

    order = pop_order(5)
    assert order == pop_order(5)
    assert order != pop_order(6)
    assert sorted(key for key, _ in order) == list(range(40))
    for key, mass in order:
        first = 0.01 * (key + 1)
        if key % 3 == 0:
            assert mass == merged(merged(first, 0.5), 0.25)
            assert Fraction(mass) <= Fraction(first) + Fraction(0.5) + Fraction(0.25)
        else:
            assert mass == first


def test_max_probability_pops_zero_mass_last():
    frontier = _Frontier(MaxProbability().ranker())
    v = fresh_valuation(1)
    for key, mass in (("zero", 0.0), ("tiny", 5e-324), ("big", 0.5), ("small", 1e-300)):
        frontier.add(key, v.assign(0, len(frontier)), mass)
    # a merge of nothing leaves the zero-mass entry where it is
    assert frontier.add("zero", v, 0.0)
    assert [frontier.pop().key for _ in range(4)] == ["big", "small", "tiny", "zero"]


def test_merge_never_lowers_an_entry():
    # rounded toward zero, 0.5 + 1e-20 would fall below 0.5: the merge keeps
    # the entry's mass, rank and heap as they were
    frontier = _Frontier(MaxProbability().ranker())
    v = fresh_valuation(1)
    assert not frontier.add("a", v, 0.5)
    for mass in (1e-20, 0.0):
        assert frontier.add("a", v.assign(0, 0), mass)
        assert frontier.live["a"].mass == 0.5
        assert len(frontier.heap) == 1
    assert frontier.pop().mass == 0.5


def test_many_merges_stay_below_the_exact_sum():
    rng = random.Random(66)
    frontier = _Frontier(MaxProbability().ranker())
    v = fresh_valuation(1)
    masses = [rng.random() * 10.0 ** -rng.randrange(6) for _ in range(1000)]
    for mass in masses:
        frontier.add("k", v, mass)
    exact = sum(Fraction(m) for m in masses)
    stored = Fraction(frontier.live["k"].mass)
    assert stored <= exact
    assert exact - stored <= exact * Fraction(1, 10**12)


def test_deep_run_of_rounded_products_stays_certified(monkeypatch):
    # heavy_leaf_then_dust_instance with inexact rows: a true leaf of mass
    # 0.75, then a 42-deep chain of false leaves whose child masses are
    # rounded products, ending in 1,000 true leaves of dust
    rng = random.Random(67)
    rows = [[0.75, 0.25]] + [[p, 1.0 - p] for p in (rng.uniform(0.5, 0.95) for _ in range(42))]
    inst = Instance(rows + [[1.0] * 1000], Domain(2))
    _, oracle, _ = heavy_leaf_then_dust_instance()
    exact = Fraction(inst.probs[0][0]) + Fraction(inst.probs[0][1]) * math.prod(
        Fraction(row[1]) for row in inst.probs[1:43]
    ) * sum(Fraction(p) for p in inst.probs[43])
    down = approx_mod._down
    rounded = []
    monkeypatch.setattr(approx_mod, "_down", lambda x: rounded.append(x) or down(x))
    for heuristic in HEURISTICS:
        rounded.clear()
        snaps = []
        _, stats = approx_dpnl(inst, 1, oracle, Exhaustive(), heuristic, trace=snaps)
        # every child's mass is one rounded product; a keyless run never merges
        assert len(rounded) == 2 * 43 + 1000
        assert stats.branch_nodes == 44
        for snap in snaps:
            assert Fraction(snap.bounds.low) <= exact <= Fraction(snap.bounds.up)
        assert snaps[-1].bounds.gap <= 1e-12
