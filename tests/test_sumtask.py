import math
import random

import pytest

from dpnl import (
    EpsAdditive,
    Exhaustive,
    Fifo,
    InvalidInstanceError,
    MaxProbability,
    Oracle,
    RandomChoice,
    SequentialOrder,
    SumInstanceSpec,
    Valuation,
    addition,
    addition_oracle,
    approx_dpnl,
    build_sum_instance,
    check_completeness,
    check_validity,
    dpnl,
    dpnl_gradient,
    fresh_valuation,
    output_distribution,
    right_to_left_order,
    sum_distribution_reference,
    sum_function,
    sum_oracle,
    total_completions,
)
from conftest import enumerate_distribution, random_digit_rows


def test_addition_examples():
    assert addition([2, 8, 3, 5]) == 63  # 28 + 35
    assert addition([3, 5]) == 8
    assert addition([9, 9, 9, 9, 9, 9]) == 1998  # longest carry chain
    assert addition([0, 0]) == 0


def test_addition_validation():
    with pytest.raises(InvalidInstanceError):
        addition([1, 2, 3])  # odd length
    with pytest.raises(InvalidInstanceError):
        addition([10, 0])


def test_addition_oracle_unknown_then_false_then_true():
    # units column 8+5 matches the 3 of 63 with carry 1, tens still unknown
    assert addition_oracle(Valuation([None, 8, None, 5]), 63, 2).answer is None
    # units column 8+6 ends in 4, mismatch with 3: impossible whatever the tens
    assert addition_oracle(Valuation([None, 8, None, 6]), 63, 2).answer == 0
    assert addition_oracle(Valuation([3, 5]), 8, 1).answer == 1
    assert addition_oracle(Valuation([3, 5]), 9, 1).answer == 0


def test_addition_oracle_matches_exhaustive_completions():
    sfn = sum_function(2)
    for v, r in [
        (Valuation([None, 8, None, 5]), 63),
        (Valuation([None, 8, None, 6]), 63),
        (Valuation([2, 8, None, None]), 63),
    ]:
        answer = addition_oracle(v, r, 2).answer
        outcomes = {sfn.fn(w.cells) == r for w in total_completions(v, sfn.domains)}
        if answer == 1:
            assert outcomes == {True}
        elif answer == 0:
            assert outcomes == {False}


def test_addition_oracle_decides_past_unassigned_digits():
    # carry tracking continues right to left past unassigned digits
    assert addition_oracle(Valuation([3, None]), 2, 1).answer == 0  # 3 + b >= 3
    assert addition_oracle(Valuation([3, None]), 12, 1).answer is None  # b = 9
    # two digits sum to at most 198
    assert addition_oracle(fresh_valuation(4), 199, 2).answer == 0
    # 9x + yz >= 90 whatever the free digits
    assert addition_oracle(Valuation([9, None, None, None]), 63, 2).answer == 0


def test_addition_oracle_output_range():
    with pytest.raises(InvalidInstanceError):
        addition_oracle(fresh_valuation(2), 20, 1)


def test_right_to_left_order_permutation():
    assert right_to_left_order(2).permutation == (1, 3, 0, 2)  # 1-based (2, 4, 1, 3)
    assert right_to_left_order(1).permutation == (0, 1)
    with pytest.raises(InvalidInstanceError):
        right_to_left_order(0)


def test_addition_oracle_validity_sampled():
    for n in (1, 2):
        sfn = sum_function(n)
        _, _, oracle = build_sum_instance(SumInstanceSpec.uniform(n))
        report = check_validity(oracle, sfn, budget=4000, seed=n)
        assert report.passed, report.counterexample


def test_addition_oracle_complete():
    sfn1 = sum_function(1)
    _, _, oracle1 = build_sum_instance(SumInstanceSpec.uniform(1))
    report = check_completeness(oracle1, sfn1, exhaustive=True)
    assert report.passed, report.counterexample
    assert report.checked == 11 * 11 * 20

    sfn2 = sum_function(2)
    _, _, oracle2 = build_sum_instance(SumInstanceSpec.uniform(2))
    report2 = check_completeness(oracle2, sfn2, budget=3000, seed=2)
    assert report2.passed, report2.counterexample


def test_uniform_instances():
    inst, _, oracle = build_sum_instance(SumInstanceSpec.uniform(1))
    dist, _ = output_distribution(inst, oracle, order=right_to_left_order(1))
    assert abs(dist[9] - 0.10) <= 1e-12


def test_point_mass_instance():
    rows = [[0.0] * 10 for _ in range(4)]
    for row, digit in zip(rows, (1, 2, 3, 4)):
        row[digit] = 1.0
    inst, _, oracle = build_sum_instance(SumInstanceSpec(2, rows))
    value, _ = dpnl(inst, 46, oracle, order=right_to_left_order(2))  # 12 + 34
    assert value == 1.0


def test_reference_distribution_matches_search():
    rng = random.Random(21)
    for n in (1, 2):
        rows = random_digit_rows(rng, n)
        spec = SumInstanceSpec(n, rows)
        inst, _, oracle = build_sum_instance(spec)
        reference = sum_distribution_reference(spec)
        dist, _ = output_distribution(inst, oracle, order=right_to_left_order(n))
        for o in range(2 * 10**n):
            assert abs(dist[o] - reference[o]) <= 1e-10
        assert abs(sum(reference) - 1.0) <= 1e-9


def test_reference_distribution_sampled_outputs_n3():
    rng = random.Random(22)
    spec = SumInstanceSpec(3, random_digit_rows(rng, 3))
    inst, _, oracle = build_sum_instance(spec)
    reference = sum_distribution_reference(spec)
    order = right_to_left_order(3)
    for o in (0, 1, 999, 1000, 1500, 1998, 1999):
        value, _ = dpnl(inst, o, oracle, order=order)
        assert abs(value - reference[o]) <= 1e-10


def test_reference_matches_tuple_enumeration_on_unnormalised_rows():
    # the column recursion normalises each row by its fsum total, as the
    # instance does, and agrees with the definitional enumeration
    rng = random.Random(24)
    for n in (1, 2):
        for _ in range(3):
            rows = [[rng.uniform(0.0, 5.0) for _ in range(10)] for _ in range(2 * n)]
            spec = SumInstanceSpec(n, rows)
            inst, sfn, _ = build_sum_instance(spec)
            reference = sum_distribution_reference(spec)
            assert len(reference) == 2 * 10**n
            for o, p in enumerate_distribution(inst, sfn).items():
                assert abs(reference[o] - p) <= 1e-15, (n, o)


def test_reference_n4_sums_to_one():
    rng = random.Random(25)
    reference = sum_distribution_reference(SumInstanceSpec(4, random_digit_rows(rng, 4)))
    assert len(reference) == 2 * 10**4
    assert abs(math.fsum(reference) - 1.0) <= 1e-12
    assert reference[-1] == 0.0


def test_branch_nodes_stay_far_below_naive_enumeration():
    # one query per size: the digit-pair pruning keeps the tree around 10x
    # per digit position, nowhere near the 10^(2N) full enumeration
    for n, ceiling in ((1, 10**2), (2, 10**3), (3, 10**4), (4, 10**5)):
        inst, _, oracle = build_sum_instance(SumInstanceSpec.uniform(n))
        _, stats = dpnl(inst, 10**n - 1, oracle, order=right_to_left_order(n))
        assert stats.branch_nodes < ceiling
        assert stats.branch_nodes < 10 ** (2 * n) or n == 1


def test_spec_validation():
    with pytest.raises(InvalidInstanceError):
        SumInstanceSpec(0, [])
    with pytest.raises(InvalidInstanceError):
        SumInstanceSpec(1, [[0.1] * 10])  # one row missing
    with pytest.raises(InvalidInstanceError):
        SumInstanceSpec(1, [[0.5] * 9, [0.1] * 10])


def test_sum_residual_key_groups_equal_residuals():
    # every (valuation, output) pair at N=1: valuations sharing a key have
    # the same free digits and the same outcome on each completion, unless
    # no completion of any of them matches
    sfn = sum_function(1)
    _, _, oracle = build_sum_instance(SumInstanceSpec.uniform(1))
    cells = [None] + list(range(10))
    for r in range(20):
        groups = {}
        for a in cells:
            for b in cells:
                v = Valuation([a, b])
                matches = tuple(sfn.fn(w.cells) == r for w in total_completions(v, sfn.domains))
                residual = (tuple(v.free_indices()), matches) if any(matches) else "none"
                groups.setdefault(oracle.residual_key(v, r), set()).add(residual)
        assert all(len(residuals) == 1 for residuals in groups.values()), r


def test_keyed_search_under_any_order():
    # the residual key holds under every order, not only right to left
    rng = random.Random(23)
    for n in (1, 2):
        spec = SumInstanceSpec(n, random_digit_rows(rng, n))
        inst, _, oracle = build_sum_instance(spec)
        reference = sum_distribution_reference(spec)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        orders = [
            right_to_left_order(n),
            SequentialOrder(),
            SequentialOrder(range(2 * n - 1, -1, -1)),
            SequentialOrder(perm),
        ]
        for order in orders:
            for o in range(2 * 10**n):
                value, _ = dpnl(inst, o, oracle, order=order)
                assert abs(value - reference[o]) <= 1e-10, (order, o)
                grad, _ = dpnl_gradient(inst, o, oracle, order=order)
                assert grad.value == value
                for k in range(inst.m):
                    assert abs(grad.reconstruct(inst, k) - value) <= 1e-9, (order, o, k)


def test_keyed_search_counts_n8():
    # equal (position, carry, pending digits) states are solved once: the
    # search without the key does not finish this query
    inst, _, oracle = build_sum_instance(SumInstanceSpec.uniform(8))
    value, stats = dpnl(inst, 10**8 - 1, oracle, order=right_to_left_order(8))
    assert abs(value - 1e-8) <= 1e-12 * 1e-8
    assert stats.oracle_calls <= 200
    assert stats.cache_hits > 0


def hook_cases():
    """Seeded sum instances at n=2 and n=3 under the right-to-left, identity
    and a random order, with sampled labels, the sum oracle and the same
    oracle without its viable hook."""
    rng = random.Random(131)
    for n in (2, 3):
        rows = random_digit_rows(rng, n)
        spec = SumInstanceSpec(n, rows)
        inst, _, hooked = build_sum_instance(spec)
        plain = Oracle(hooked.fn, residual_key=hooked.residual_key)
        labels = [addition([rng.choices(range(10), row)[0] for row in rows]) for _ in range(3)]
        perm = list(range(2 * n))
        rng.shuffle(perm)
        reference = sum_distribution_reference(spec)
        for order in (right_to_left_order(n), SequentialOrder(), SequentialOrder(perm)):
            yield inst, hooked, plain, order, labels, reference


def test_viable_digits_rule():
    oracle = sum_oracle(2)
    # 2? + ?5 = 63: position 1 needs 8 (3 = 8 + 5 mod 10), carry 1 into position 0
    v = Valuation([2, None, None, 5])
    assert oracle.viable(v, 1, 63) == (8,)
    assert oracle.viable(v, 2, 63) is None  # not a digit of the first free position
    # ?8 + 35: 8 + 5 carries 1 into position 0, whose 6 needs 2 + 3 + 1
    assert oracle.viable(Valuation([None, 8, 3, 5]), 0, 63) == (2,)
    assert oracle.viable(Valuation([2, 8, None, 5]), 2, 63) == (3,)
    assert oracle.viable(Valuation([2, None, 3, None]), 1, 63) is None  # both free
    assert oracle.viable(Valuation([2, 7, None, 5]), 2, 63) is None  # units mismatch


def test_viable_hook_keeps_values_and_partials_bitwise():
    for inst, hooked, plain, order, labels, reference in hook_cases():
        for o in labels:
            value, stats = dpnl(inst, o, hooked, order=order)
            plain_value, plain_stats = dpnl(inst, o, plain, order=order)
            assert value == plain_value, (order, o)
            assert abs(value - reference[o]) <= 1e-10
            assert stats.oracle_calls + stats.cache_hits < plain_stats.oracle_calls + plain_stats.cache_hits
            assert stats.branch_nodes <= plain_stats.branch_nodes
            assert stats.pruned > 0 and plain_stats.pruned == 0
            grad, grad_stats = dpnl_gradient(inst, o, hooked, order=order)
            plain_grad, _ = dpnl_gradient(inst, o, plain, order=order)
            assert grad.value == value
            assert grad.partials == plain_grad.partials, (order, o)
            assert grad_stats.pruned == stats.pruned


def test_viable_hook_keeps_output_distribution_bitwise():
    inst, hooked, plain, order, _, _ = next(hook_cases())
    dist, stats = output_distribution(inst, hooked, order=order)
    plain_dist, plain_stats = output_distribution(inst, plain, order=order)
    assert dist == plain_dist
    assert stats.pruned > 0
    assert stats.oracle_calls + stats.cache_hits < plain_stats.oracle_calls + plain_stats.cache_hits


def test_viable_hook_keeps_anytime_bounds():
    for inst, hooked, _, order, labels, _ in hook_cases():
        for o in labels:
            exact, _ = dpnl(inst, o, hooked, order=order)
            for heuristic in (MaxProbability(), Fifo(), RandomChoice(77)):
                bounds, stats = approx_dpnl(inst, o, hooked, EpsAdditive(0.01), heuristic, order=order)
                assert bounds.low - 1e-12 <= exact <= bounds.up + 1e-12, (order, o, heuristic)
                assert stats.pruned > 0
                bounds, _ = approx_dpnl(inst, o, hooked, Exhaustive(), heuristic, order=order)
                assert abs(bounds.low - exact) <= 1e-10
                assert abs(bounds.up - exact) <= 1e-10
