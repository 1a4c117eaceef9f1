import random

import pytest

from dpnl import (
    Oracle,
    SizeLimitError,
    Valuation,
    VERDICT_TRUE,
    check_completeness,
    check_validity,
    exhaustive_oracle,
    fresh_valuation,
    naive_oracle,
    sum_function,
    sum_oracle,
    total_completions,
)
from conftest import random_table_instance


@pytest.fixture
def add1():
    return sum_function(1)


def test_naive_oracle_total_valuations(add1):
    oracle = naive_oracle(add1)
    assert oracle(Valuation([3, 5]), 8).answer == 1
    assert oracle(Valuation([3, 5]), 9).answer == 0
    assert oracle(Valuation([None, 5]), 8).answer is None


def test_exhaustive_oracle_decides_partial(add1):
    oracle = exhaustive_oracle(add1)
    # min completion sum is 9, so output 3 is impossible
    assert oracle(Valuation([9, None]), 3).answer == 0
    assert oracle(fresh_valuation(2), 0).answer is None


def test_exhaustive_oracle_all_agree(add1):
    # both digits forced: one completion, it matches
    assert exhaustive_oracle(add1)(Valuation([9, 9]), 18).answer == 1
    oracle = exhaustive_oracle(add1)
    # [9, None] with output 18 is undecided: (9,9) matches, (9,0) does not
    assert oracle(Valuation([9, None]), 18).answer is None


def test_oracles_agree_on_totals(add1):
    naive = naive_oracle(add1)
    exhaustive = exhaustive_oracle(add1)
    rng = random.Random(0)
    for _ in range(200):
        v = Valuation([rng.randrange(10), rng.randrange(10)])
        o = rng.randrange(20)
        assert naive(v, o).answer == exhaustive(v, o).answer


def test_exhaustive_verdicts_monotone():
    rng = random.Random(1)
    for _ in range(20):
        inst, sfn = random_table_instance(rng, m_max=4, size_max=3)
        oracle = exhaustive_oracle(sfn)
        v = Valuation(
            [None if rng.random() < 0.5 else rng.randrange(d.size) for d in sfn.domains]
        )
        o = rng.randrange(sfn.output_domain.size)
        answer = oracle(v, o).answer
        if answer is None:
            continue
        # decided verdicts persist on every refinement
        for w in total_completions(v, sfn.domains):
            assert oracle(w, o).answer == answer


def test_exhaustive_oracle_guard():
    # 10^8 completions exceed COMPLETION_GUARD, so none is enumerated
    oracle = exhaustive_oracle(sum_function(4))
    with pytest.raises(SizeLimitError):
        oracle(fresh_valuation(8), 4)


def test_check_validity_passes_for_generic_constructions(add1):
    assert check_validity(naive_oracle(add1), add1, budget=2000, seed=3).passed
    assert check_validity(exhaustive_oracle(add1), add1, budget=2000, seed=3).passed


def test_check_validity_exhaustive_mode(add1):
    report = check_validity(exhaustive_oracle(add1), add1, exhaustive=True)
    assert report.passed
    assert report.checked == 11 * 11 * 20  # every (valuation, output) pair


def test_check_validity_catches_broken_oracle(add1):
    broken = Oracle(lambda v, o: VERDICT_TRUE, name="broken")
    report = check_validity(broken, add1, budget=500, seed=0)
    assert not report.passed
    assert report.counterexample is not None


def test_check_completeness(add1):
    assert check_completeness(exhaustive_oracle(add1), add1, budget=1000, seed=4).passed
    report = check_completeness(naive_oracle(add1), add1, exhaustive=True)
    assert not report.passed
    v, o, answer, reason = report.counterexample
    assert answer is None
    # e.g. [9, None] with output 3: all completions disagree yet the oracle
    # cannot decide a partial valuation
    assert not v.is_total


def test_check_validity_budget_validation(add1):
    with pytest.raises(ValueError):
        check_validity(naive_oracle(add1), add1, budget=0)


def test_check_validity_catches_unsound_viable(add1):
    oracle = sum_oracle(1)
    # a hook that keeps only digit 0 drops digits some completion needs
    greedy = Oracle(oracle.fn, viable=lambda v, k, o: (0,))
    report = check_validity(greedy, add1, exhaustive=True)
    assert not report.passed
    v, o, _, reason = report.counterexample
    assert "viable drops" in reason
    assert any(
        add1.fn(w.cells) == o and w.cells[k] != 0
        for w in total_completions(v, add1.domains)
        for k in v.free_indices()
    )
    report = check_validity(Oracle(oracle.fn, viable=lambda v, k, o: ()), add1, budget=50)
    assert not report.passed
    assert "not ascending" in report.counterexample[3]
