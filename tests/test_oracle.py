import itertools
import random
from functools import lru_cache, partial

import pytest

from dpnl import (
    Exhaustive,
    InvalidInstanceError,
    MaxProbability,
    Oracle,
    SizeLimitError,
    SumInstanceSpec,
    SymbolicFunction,
    Valuation,
    VERDICT_TRUE,
    approx_dpnl,
    build_sum_instance,
    check_completeness,
    check_validity,
    dpnl,
    exhaustive_oracle,
    fresh_valuation,
    logic_instance,
    naive_oracle,
    sum_function,
    sum_oracle,
    total_completions,
)
from conftest import random_horn_program, random_table_instance


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
    # a valuation of the wrong length is refused, not truncated
    with pytest.raises(ValueError):
        exhaustive_oracle(sum_function(1))(Valuation([1]), 3)


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


@pytest.mark.parametrize(
    "answer",
    [lambda: {3}, lambda: (y for y in (3,)), lambda: (3.0,)],
    ids=["set", "generator", "float"],
)
def test_viable_answer_must_be_a_sequence_of_ints(answer, add1):
    # documented as InvalidInstanceError, like an empty or unsorted answer
    inst, _, oracle = build_sum_instance(SumInstanceSpec.uniform(1))
    bad = Oracle(oracle.fn, viable=lambda v, k, o: answer())
    with pytest.raises(InvalidInstanceError):
        dpnl(inst, 4, bad)
    with pytest.raises(InvalidInstanceError):
        approx_dpnl(inst, 4, bad, Exhaustive(), MaxProbability())
    report = check_validity(bad, add1, budget=50)
    assert not report.passed
    assert "not a sequence of ints" in report.counterexample[3]


def _check_cases():
    """The pinned checks by name, each a thunk that returns its report."""
    s1, s2 = sum_function(1), sum_function(2)
    greedy = Oracle(sum_oracle(1).fn, viable=lambda v, k, o: (0,))
    cases = {
        "sum1-validity": partial(check_validity, sum_oracle(1), s1, exhaustive=True),
        "sum2-validity": partial(check_validity, sum_oracle(2), s2, budget=2000, seed=404),
        "exhaustive2-validity": partial(
            check_validity, exhaustive_oracle(s2), s2, budget=500, seed=7
        ),
        "greedy-validity": partial(check_validity, greedy, s1, exhaustive=True),
        "true-validity": partial(
            check_validity, Oracle(lambda v, o: VERDICT_TRUE), s1, budget=500, seed=0
        ),
        "sum1-completeness": partial(check_completeness, sum_oracle(1), s1, exhaustive=True),
        "sum2-completeness": partial(check_completeness, sum_oracle(2), s2, budget=3000, seed=2),
        "naive1-completeness": partial(check_completeness, naive_oracle(s1), s1, exhaustive=True),
    }
    # the first three programs of c06's stream, their functions cached as there
    rng = random.Random(606)
    for i in range(3):
        _, sfn, oracle = logic_instance(random_horn_program(rng, m_max=8))
        cached = SymbolicFunction(sfn.domains, sfn.output_domain, lru_cache(maxsize=None)(sfn.fn))
        cases["horn%d-validity" % i] = partial(check_validity, oracle, cached, exhaustive=True)
        cases["horn%d-completeness" % i] = partial(
            check_completeness, oracle, cached, exhaustive=True
        )
    return cases


# (passed, checked, counterexample[:3] with the valuation's cells, dropped);
# dropped is pinned on passing reports only, since a failing one stops its
# count at the failure
PINNED_REPORTS = {
    "sum1-validity": (True, 2420, None, 3600),
    "sum2-validity": (True, 2000, None, 9189),
    "exhaustive2-validity": (True, 500, None, 0),
    "greedy-validity": (False, 2, ((None, None), 1, None), None),
    "true-validity": (False, 1, ((6, None), 16, 1), None),
    "sum1-completeness": (True, 2420, None, 0),
    "sum2-completeness": (True, 3000, None, 0),
    "naive1-completeness": (False, 20, ((None, None), 19, None), None),
    "horn0-validity": (True, 1458, None, 0),
    "horn0-completeness": (True, 1458, None, 0),
    "horn1-validity": (True, 54, None, 0),
    "horn1-completeness": (True, 54, None, 0),
    "horn2-validity": (True, 13122, None, 0),
    "horn2-completeness": (True, 13122, None, 0),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_check_reports_pinned(name):
    # a trial fails when some dropped value's child has a matching
    # completion, so the reports do not depend on how completions are walked
    passed, checked, counterexample, dropped = PINNED_REPORTS[name]
    report = _check_cases()[name]()
    assert (report.passed, report.checked) == (passed, checked)
    if counterexample is None:
        assert report.counterexample is None
        assert report.dropped == dropped
    else:
        v, o, answer = report.counterexample[:3]
        assert (v.cells, o, answer) == counterexample


def _reference_truth(sfn, v, o):
    kinds = {sfn.fn(w.cells) == o for w in total_completions(v, sfn.domains)}
    return None if len(kinds) == 2 else int(kinds.pop())


def test_exhaustive_oracle_matches_completion_truth(add1):
    rng = random.Random(17)
    functions = [add1] + [random_table_instance(rng, m_max=4, size_max=3)[1] for _ in range(10)]
    for sfn in functions:
        oracle = exhaustive_oracle(sfn)
        axes = [[None, *range(dom.size)] for dom in sfn.domains]
        for cells in itertools.product(*axes):
            v = Valuation(cells)
            for o in range(sfn.output_domain.size):
                assert oracle(v, o).answer == _reference_truth(sfn, v, o), (sfn, v, o)
