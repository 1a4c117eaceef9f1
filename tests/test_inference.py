import random

import pytest

from dpnl import (
    CustomOrder,
    Domain,
    Exhaustive,
    Instance,
    InvalidInstanceError,
    MaxProbability,
    Oracle,
    SequentialOrder,
    SizeLimitError,
    SumInstanceSpec,
    SymbolicFunction,
    VERDICT_UNKNOWN,
    Valuation,
    applicable_rule_order,
    approx_dpnl,
    bruteforce_probability,
    build_sum_instance,
    dpnl,
    dpnl_gradient,
    exhaustive_oracle,
    finite_difference_partials,
    fresh_valuation,
    logic_instance,
    naive_oracle,
    output_distribution,
    parse_program,
    right_to_left_order,
    sum_distribution_reference,
)
from conftest import random_digit_rows, random_table_instance, table_residual_key


@pytest.fixture
def uniform1():
    return build_sum_instance(SumInstanceSpec.uniform(1))


def test_dpnl_uniform_sum4(uniform1):
    inst, _, oracle = uniform1
    value, stats = dpnl(inst, 4, oracle, order=right_to_left_order(1))
    assert abs(value - 0.05) <= 1e-12  # 5 of 100 pairs
    assert stats.leaves_true + stats.leaves_false <= stats.oracle_calls


def test_dpnl_total_valuation_is_certain(uniform1):
    inst, _, oracle = uniform1
    value, _ = dpnl(inst, 8, oracle, valuation=Valuation([3, 5]))
    assert value == 1.0


def test_dpnl_conditional_on_partial(uniform1):
    inst, _, oracle = uniform1
    value, _ = dpnl(inst, 8, oracle, valuation=Valuation([3, None]))
    assert abs(value - inst.probs[1][5]) <= 1e-12


def test_start_valuation_outside_domain_rejected(uniform1):
    inst, _, oracle = uniform1
    # 3.0 is in range, but not an int: unchecked, it reaches the viable
    # hook, which answers (5.0,)
    for cells, o in (([10, None], 12), ([-1, None], 3), ([3.0, None], 8)):
        for engine in (dpnl, dpnl_gradient):
            with pytest.raises(InvalidInstanceError, match="valuation value"):
                engine(inst, o, oracle, valuation=Valuation(cells))


def test_output_distribution_uniform(uniform1):
    inst, _, oracle = uniform1
    dist, _ = output_distribution(inst, oracle, order=right_to_left_order(1))
    assert abs(dist[0] - 0.01) <= 1e-12
    assert abs(dist[9] - 0.10) <= 1e-12
    assert abs(dist[18] - 0.01) <= 1e-12
    assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_output_distribution_point_masses():
    rows = [[0.0] * 10 for _ in range(2)]
    rows[0][3] = 1.0
    rows[1][5] = 1.0
    inst, _, oracle = build_sum_instance(SumInstanceSpec(1, rows))
    dist, _ = output_distribution(inst, oracle)
    assert dist[8] == 1.0
    assert all(dist[o] == 0.0 for o in range(20) if o != 8)


def test_bruteforce_probability():
    rng = random.Random(0)
    inst, sfn = random_table_instance(rng, m_max=3, size_max=3)
    total = sum(bruteforce_probability(inst, sfn, o) for o in range(inst.output_domain.size))
    assert abs(total - 1.0) <= 1e-9
    # single identity variable: the probability is read off the table
    ident = SymbolicFunction([Domain(4)], Domain(4), lambda a: a[0])
    inst1 = Instance([[1, 2, 3, 4]], Domain(4))
    assert abs(bruteforce_probability(inst1, ident, 2) - 0.3) <= 1e-12
    # output outside the image: empty preimage
    assert bruteforce_probability(inst1, ident, 5) == 0.0


def test_bruteforce_guard():
    inst, _, _ = build_sum_instance(SumInstanceSpec.uniform(4))
    sfn = SymbolicFunction([Domain(10)] * 8, Domain(20000), lambda a: 0)
    with pytest.raises(SizeLimitError):
        bruteforce_probability(inst, sfn, 0)


def test_dpnl_matches_bruteforce_across_oracles_and_orders():
    rng = random.Random(42)
    for _ in range(40):
        inst, sfn = random_table_instance(rng, m_max=5, size_max=4)
        perm = list(range(inst.m))
        rng.shuffle(perm)
        orders = [SequentialOrder(), SequentialOrder(perm[::-1]), SequentialOrder(perm)]
        oracles = [naive_oracle(sfn), exhaustive_oracle(sfn)]
        for o in range(inst.output_domain.size):
            expected = bruteforce_probability(inst, sfn, o)
            values = []
            for oracle in oracles:
                for order in orders:
                    value, _ = dpnl(inst, o, oracle, order=order)
                    values.append(value)
            for value in values:
                assert abs(value - expected) <= 1e-10
            assert max(values) - min(values) <= 1e-12


def test_zero_probability_entry_keeps_value_and_tree():
    rng = random.Random(7)
    rows = random_digit_rows(rng, 1)
    rows[0][3] = 0.0
    rows[0] = [p / sum(rows[0]) for p in rows[0]]
    spec = SumInstanceSpec(1, rows)
    inst, sfn, oracle = build_sum_instance(spec)
    reference = sum_distribution_reference(spec)
    for o in (0, 7, 12):
        value, stats = dpnl(inst, o, oracle)
        grad, grad_stats = dpnl_gradient(inst, o, oracle)
        assert abs(value - reference[o]) <= 1e-12
        # zero-probability branches are walked too, so both engines visit
        # the same tree and compute the same value
        assert grad.value == value
        assert grad_stats.oracle_calls == stats.oracle_calls
        assert grad_stats.branch_nodes == stats.branch_nodes


def test_order_callback_returning_assigned_index_raises(uniform1):
    inst, _, oracle = uniform1
    bad = CustomOrder(lambda v: 0)
    with pytest.raises(InvalidInstanceError):
        dpnl(inst, 4, oracle, valuation=Valuation([3, None]), order=bad)
    # indices outside 0..m-1 are rejected by both engines, not read as
    # Python indices (-1) or left to raise IndexError (m), and so is a
    # float, which no tuple takes as an index
    for k, match in ((inst.m, "outside"), (-1, "outside"), (1.0, "not an int")):
        bad = CustomOrder(lambda v, k=k: k)
        with pytest.raises(InvalidInstanceError, match=match):
            dpnl(inst, 4, oracle, order=bad)
        with pytest.raises(InvalidInstanceError, match=match):
            approx_dpnl(inst, 4, oracle, Exhaustive(), MaxProbability(), order=bad)


def test_undecided_total_valuation_leaves_nothing_to_choose(uniform1):
    # an oracle must decide every total valuation; one that never decides
    # leaves the order a total valuation to branch on
    undecided = Oracle(lambda v, o: VERDICT_UNKNOWN)
    inst, _, _ = uniform1
    prog = parse_program("0.5 :: a.\n0.5 :: b.\nc :- a, b.\nquery(c).\n")
    horn_inst, _, _ = logic_instance(prog)
    cases = (
        (inst, SequentialOrder()),
        (inst, right_to_left_order(1)),
        (horn_inst, applicable_rule_order(prog)),
    )
    for case_inst, order in cases:
        with pytest.raises(InvalidInstanceError, match="no unassigned variable to choose"):
            dpnl(case_inst, 1, undecided, order=order)
        with pytest.raises(InvalidInstanceError, match="no unassigned variable to choose"):
            approx_dpnl(case_inst, 1, undecided, Exhaustive(), MaxProbability(), order=order)


def test_sequential_order_rejects_bad_permutations(uniform1):
    inst, _, oracle = uniform1
    # [0] is a permutation, but of one of the two variables; [0, 5] and
    # [1, 1] are none at all
    cases = (
        ([0], "permutes 1 of 2 variables"),
        ([0, 5], "not a permutation"),
        ([1, 1], "not a permutation"),
    )
    for permutation, match in cases:
        with pytest.raises(InvalidInstanceError, match=match):
            dpnl(inst, 3, oracle, order=SequentialOrder(permutation))
        with pytest.raises(InvalidInstanceError, match=match):
            order = SequentialOrder(permutation)
            approx_dpnl(inst, 3, oracle, Exhaustive(), MaxProbability(), order=order)
    order = SequentialOrder([1, 0])
    value, _ = dpnl(inst, 3, oracle, order=order)
    assert abs(value - 0.04) <= 1e-12
    bounds, _ = approx_dpnl(inst, 3, oracle, Exhaustive(), MaxProbability(), order=order)
    assert bounds.low <= 0.04 <= bounds.up and bounds.gap <= 1e-12


def test_exhaustive_prunes_at_least_as_well_as_naive():
    rng = random.Random(13)
    for _ in range(15):
        inst, sfn = random_table_instance(rng, m_max=4, size_max=4)
        o = rng.randrange(inst.output_domain.size)
        _, naive_stats = dpnl(inst, o, naive_oracle(sfn))
        _, exhaustive_stats = dpnl(inst, o, exhaustive_oracle(sfn))
        assert exhaustive_stats.branch_nodes <= naive_stats.branch_nodes


def test_gradient_forced_product():
    inst, _, oracle = build_sum_instance(SumInstanceSpec.uniform(1))
    grad, _ = dpnl_gradient(inst, 0, oracle, order=right_to_left_order(1))
    # P(sum = 0) = p1(0) * p2(0), so each partial is the other factor
    assert abs(grad.partials[0][0] - inst.probs[1][0]) <= 1e-12
    assert abs(grad.partials[1][0] - inst.probs[0][0]) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = random.Random(31)
    for _ in range(10):
        rows = random_digit_rows(rng, 1)
        inst, sfn, oracle = build_sum_instance(SumInstanceSpec(1, rows))
        o = rng.randrange(19)
        grad, _ = dpnl_gradient(inst, o, oracle, order=right_to_left_order(1))
        numeric = finite_difference_partials(inst, sfn, o)
        for row_a, row_n in zip(grad.partials, numeric):
            for a, n in zip(row_a, row_n):
                assert abs(a - n) / max(1.0, abs(a), abs(n)) <= 1e-6


def test_gradient_value_is_bitwise_identical_to_dpnl():
    rng = random.Random(17)
    rows = random_digit_rows(rng, 1)
    inst, _, oracle = build_sum_instance(SumInstanceSpec(1, rows))
    for o in range(0, 19, 3):
        value, _ = dpnl(inst, o, oracle, order=right_to_left_order(1))
        grad, _ = dpnl_gradient(inst, o, oracle, order=right_to_left_order(1))
        assert grad.value == value


def test_gradient_multilinear_reconstruction():
    rng = random.Random(19)
    for _ in range(8):
        inst, sfn = random_table_instance(rng, m_max=4, size_max=4)
        oracle = exhaustive_oracle(sfn)
        o = rng.randrange(inst.output_domain.size)
        grad, _ = dpnl_gradient(inst, o, oracle)
        for k in range(inst.m):
            assert abs(grad.reconstruct(inst, k) - grad.value) <= 1e-9


def test_gradient_point_mass_off_support_partials():
    rows = [[0.0] * 10 for _ in range(2)]
    rows[0][0] = 1.0
    rows[1][9] = 1.0
    inst, sfn, oracle = build_sum_instance(SumInstanceSpec(1, rows))
    grad, _ = dpnl_gradient(inst, 0, oracle)
    numeric = finite_difference_partials(inst, sfn, 0)
    for row_a, row_n in zip(grad.partials, numeric):
        for a, n in zip(row_a, row_n):
            assert abs(a - n) / max(1.0, abs(a), abs(n)) <= 1e-6
    # forcing the second digit to 0 would leave P(sum=0) = p1(0) = 1
    assert abs(grad.partials[1][0] - 1.0) <= 1e-12


def test_valuation_length_checked(uniform1):
    inst, _, oracle = uniform1
    with pytest.raises(InvalidInstanceError):
        dpnl(inst, 4, oracle, valuation=fresh_valuation(3))


def test_engines_call_oracle_fn_and_order_choose_once_per_count():
    # replacing the instance attributes oracle.fn and order.choose is seen by
    # every engine: one fn call per oracle call, one choice per branch node
    rows = random_digit_rows(random.Random(5), 1)
    inst, _, oracle = build_sum_instance(SumInstanceSpec(1, rows))
    calls = {"fn": 0, "choose": 0}
    fn = oracle.fn

    def counting_fn(v, o):
        calls["fn"] += 1
        return fn(v, o)

    oracle.fn = counting_fn
    runs = {
        "dpnl": lambda order: dpnl(inst, 7, oracle, order=order)[1],
        "dpnl_gradient": lambda order: dpnl_gradient(inst, 7, oracle, order=order)[1],
        "approx_dpnl": lambda order: approx_dpnl(
            inst, 7, oracle, Exhaustive(), MaxProbability(), order=order
        )[1],
    }
    for name, run in runs.items():
        order = right_to_left_order(1)
        choose = order.choose

        def counting_choose(v):
            calls["choose"] += 1
            return choose(v)

        order.choose = counting_choose
        calls.update(fn=0, choose=0)
        stats = run(order)
        assert stats.branch_nodes > 0, name
        assert calls == {"fn": stats.oracle_calls, "choose": stats.branch_nodes}, name


def test_residual_key_cache_matches_keyless_and_bruteforce():
    # the same oracle function with and without a residual key: equal values
    # and gradients, never more oracle calls, and some sub-problems reused
    rng = random.Random(43)
    hits = 0
    for _ in range(25):
        inst, sfn = random_table_instance(rng, m_max=5, size_max=4)
        perm = list(range(inst.m))
        rng.shuffle(perm)
        key = table_residual_key(sfn)
        for base in (naive_oracle(sfn), exhaustive_oracle(sfn)):
            keyed = Oracle(base.fn, residual_key=key)
            keyless = Oracle(base.fn)
            for order in (SequentialOrder(), SequentialOrder(perm)):
                for o in range(inst.output_domain.size):
                    expected = bruteforce_probability(inst, sfn, o)
                    value, stats = dpnl(inst, o, keyed, order=order)
                    plain, plain_stats = dpnl(inst, o, keyless, order=order)
                    assert abs(value - expected) <= 1e-10
                    assert abs(plain - expected) <= 1e-10
                    assert abs(value - plain) <= 1e-12
                    assert stats.oracle_calls <= plain_stats.oracle_calls
                    assert plain_stats.cache_hits == 0
                    hits += stats.cache_hits
                    grad, grad_stats = dpnl_gradient(inst, o, keyed, order=order)
                    assert grad.value == value
                    assert grad_stats.cache_hits == stats.cache_hits
                    for k in range(inst.m):
                        assert abs(grad.reconstruct(inst, k) - grad.value) <= 1e-9
                    numeric = finite_difference_partials(inst, sfn, o)
                    for row_a, row_n in zip(grad.partials, numeric):
                        for a, n in zip(row_a, row_n):
                            assert abs(a - n) / max(1.0, abs(a), abs(n)) <= 1e-6
    assert hits > 0


def test_bad_viable_answer_rejected(uniform1):
    inst, _, oracle = uniform1
    for bad in ((), (3, 1), (2, 2), (10,), (-1, 4)):
        broken = Oracle(oracle.fn, viable=lambda v, k, o, bad=bad: bad)
        runs = [
            lambda: dpnl(inst, 4, broken),
            lambda: dpnl_gradient(inst, 4, broken),
            lambda: approx_dpnl(inst, 4, broken, Exhaustive(), MaxProbability()),
        ]
        for run in runs:
            with pytest.raises(InvalidInstanceError):
                run()
