import math

import pytest
from hypothesis import given, strategies as st

from dpnl import (
    Domain,
    Instance,
    InvalidInstanceError,
    OracleVerdict,
    QueryStats,
    Valuation,
    completion_count,
    fresh_valuation,
    is_subvaluation,
    total_completions,
)


def test_fresh_valuation():
    v = fresh_valuation(3)
    assert v.cells == (None, None, None)
    assert not v.is_total
    assert fresh_valuation(1).cells == (None,)


def test_fresh_valuation_rejects_zero():
    with pytest.raises(InvalidInstanceError):
        fresh_valuation(0)


def test_assign_is_copy_on_write():
    v = fresh_valuation(2)
    w = v.assign(0, 1).assign(1, 0)
    assert v.cells == (None, None)
    assert w.cells == (1, 0)
    assert w.is_total


def test_valuation_value_semantics():
    assert Valuation([1, None]) == Valuation((1, None))
    assert hash(Valuation([1, None])) == hash(Valuation((1, None)))
    assert Valuation([1, None]) != Valuation([1, 2])
    assert {Valuation([0, 1]): "x"}[Valuation([0, 1])] == "x"


def test_total_completions_one_free_cell():
    doms = [Domain(2), Domain(2)]
    got = {w.cells for w in total_completions(Valuation([None, 1]), doms)}
    assert got == {(0, 1), (1, 1)}


def test_total_completions_total_yields_itself():
    doms = [Domain(2), Domain(2)]
    got = list(total_completions(Valuation([0, 1]), doms))
    assert got == [Valuation([0, 1])]


def test_total_completions_count_and_membership():
    doms = [Domain(2), Domain(3)]
    v = fresh_valuation(2)
    completions = list(total_completions(v, doms))
    assert len(completions) == 6
    assert len(set(completions)) == 6
    assert completion_count(v, doms) == 6
    for w in completions:
        assert w.is_total
        assert is_subvaluation(w, v)
    # leftmost free cell varies fastest
    assert completions[0].cells == (0, 0)
    assert completions[1].cells == (1, 0)


def test_total_completions_length_mismatch():
    with pytest.raises(InvalidInstanceError):
        list(total_completions(fresh_valuation(2), [Domain(2)]))


def test_is_subvaluation_examples():
    assert is_subvaluation(Valuation([3, 5]), Valuation([3, None]))
    assert not is_subvaluation(Valuation([4, 5]), Valuation([3, None]))
    assert is_subvaluation(Valuation([7, None]), Valuation([None, None]))
    with pytest.raises(InvalidInstanceError):
        is_subvaluation(Valuation([1]), Valuation([1, 2]))


@given(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=6))
def test_is_subvaluation_reflexive(cells):
    v = Valuation(cells)
    assert is_subvaluation(v, v)


def test_distribution_normalizes_and_records_mass():
    row = Instance([[2.0, 6.0]], Domain(2)).probs[0]
    assert row == (0.25, 0.75)
    assert abs(math.fsum(row) - 1.0) <= 1e-9


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 1e-6))
def test_distribution_sums_to_one(weights):
    row = Instance([weights], Domain(2)).probs[0]
    assert abs(math.fsum(row) - 1.0) <= 1e-9
    assert all(p >= 0 for p in row)


def test_distribution_rejects_bad_input():
    for row in ([0.5, -0.1], [0.0, 0.0], [], [float("nan")]):
        with pytest.raises(InvalidInstanceError):
            Instance([row], Domain(2))


def test_domain_validation():
    with pytest.raises(InvalidInstanceError):
        Domain(0)


def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        Instance([], Domain(2))
    inst = Instance([[1.0, 3.0]], Domain(2))
    assert inst.m == 1
    assert inst.prob(0, 1) == 0.75


def test_verdict_answer_must_be_ternary():
    assert OracleVerdict(None).answer is None
    with pytest.raises(ValueError):
        OracleVerdict(2)


def test_query_stats_merge():
    a = QueryStats(oracle_calls=3, branch_nodes=1, leaves_true=1, leaves_false=1, wall_time=0.5)
    b = QueryStats(oracle_calls=2, branch_nodes=1, leaves_true=0, leaves_false=1, wall_time=0.25)
    b.cache_hits = 4
    a.merge(b)
    assert a.oracle_calls == 5
    assert a.cache_hits == 4
    assert a.leaves_true + a.leaves_false <= a.oracle_calls
    assert a.wall_time == 0.75
