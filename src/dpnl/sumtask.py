"""Multi-digit addition task: symbolic function, hand-crafted oracle, builders.

Two N-digit numbers are encoded as 2N digit variables (most significant
first): positions 1..N form the first summand, N+1..2N the second. The
output is their sum, at most N+1 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Sequence

import numpy as np

from .core import (
    Domain,
    Instance,
    InvalidInstanceError,
    Valuation,
    OracleVerdict,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
)
from .inference import SequentialOrder, VariableOrder
from .oracle import Oracle, SymbolicFunction


def addition(digits: Sequence[int]) -> int:
    """Sum of the two numbers encoded by ``2N`` digits, by carry addition.

    Scans position pairs right to left, keeping the running carry; the result
    is returned as an integer in [0, 2*10^N - 2].
    """
    if len(digits) == 0 or len(digits) % 2 != 0:
        raise InvalidInstanceError("need a positive even digit count, got %d" % len(digits))
    n = len(digits) // 2
    for d in digits:
        if not 0 <= d <= 9:
            raise InvalidInstanceError("digit %r out of range" % (d,))
    carry = 0
    result = 0
    scale = 1
    for i in range(n - 1, -1, -1):
        d = carry + digits[i] + digits[n + i]
        result += (d % 10) * scale
        carry = d // 10
        scale *= 10
    return result + carry * scale


@lru_cache(maxsize=4096)
def _result_digits(r: int, n: int) -> tuple[int, ...]:
    # fixed-width base-10 representation, n+1 digits with leading zeros
    digits = [0] * (n + 1)
    for i in range(n, -1, -1):
        digits[i] = r % 10
        r //= 10
    return tuple(digits)


def _scan_assigned(cells: tuple, digits: tuple[int, ...], n: int) -> tuple[int, int]:
    """Plain carry addition right to left while both digits are assigned.

    Returns the first position with a free digit (-1 if none) and the carry
    into it, or carry -1 once a result digit mismatches.
    """
    carry = 0
    i = n - 1
    while i >= 0:
        a = cells[i]
        b = cells[n + i]
        if a is None or b is None:
            break
        d = carry + a + b
        if d % 10 != digits[i + 1]:
            return i, -1
        carry = d // 10
        i -= 1
    return i, carry


def addition_oracle(v: Valuation, r: int, n: int) -> OracleVerdict:
    """Valid and complete oracle for the digit-sum function, O(n) per call.

    Scans position pairs right to left, keeping the set of carries into the
    current position that some choice of the free digits so far can produce
    while matching every result digit so far: {0}, {1} or {0, 1}. A
    position's digit sum ranges over a contiguous interval (one value, a
    fixed digit plus 0..9, or 0..18), so each carry needs only the two
    candidate column totals ending in the result digit. The answer is 0 once
    no carry survives, or when the leading result digit is not a carry that
    can leave the last position. Otherwise a matching completion exists; if
    any digit is free, changing it changes the sum, so a mismatching
    completion exists too and the answer is undecided. Total valuations get
    1. Decides regardless of the variable order.
    """
    if not 0 <= r < 2 * 10**n:
        raise InvalidInstanceError("output %d out of range for %d digits" % (r, n))
    digits = _result_digits(r, n)
    cells = v.cells
    i, carry = _scan_assigned(cells, digits, n)
    if carry < 0:
        return VERDICT_FALSE
    if i < 0:
        return VERDICT_TRUE if carry == digits[0] else VERDICT_FALSE
    # some digit is free from here on: bit c of carries set iff carry c into
    # position i is reachable
    carries = 1 << carry
    while i >= 0:
        a = cells[i]
        b = cells[n + i]
        if a is None:
            lo, hi = (0, 18) if b is None else (b, b + 9)
        elif b is None:
            lo, hi = a, a + 9
        else:
            lo = hi = a + b
        # column total carry + sum must be want (carry out 0) or want + 10
        want = digits[i + 1]
        reached = 0
        if carries & 1:
            if lo <= want <= hi:
                reached = 1
            if lo <= want + 10 <= hi:
                reached |= 2
        if carries & 2:
            if lo <= want - 1 <= hi:
                reached |= 1
            if lo <= want + 9 <= hi:
                reached |= 2
        if not reached:
            return VERDICT_FALSE
        carries = reached
        i -= 1
    return VERDICT_UNKNOWN if carries >> digits[0] & 1 else VERDICT_FALSE


# residual keys of valuations with no matching completion and of total
# matching valuations
_KEY_FALSE = "false"
_KEY_TRUE = "true"


def _residual_key(v: Valuation, r: int, n: int) -> Hashable:
    """Residual key of the addition oracle, valid under any order.

    Every digit less significant than the first position i with a free
    digit, scanning from the units, is assigned. Whether a completion sums
    to ``r`` then depends only on the carry into position i and on
    positions 0..i of both summands, which the key holds (free digits as
    None).
    """
    digits = _result_digits(r, n)
    cells = v.cells
    i, carry = _scan_assigned(cells, digits, n)
    if carry < 0:
        return _KEY_FALSE
    if i < 0:
        return _KEY_TRUE if carry == digits[0] else _KEY_FALSE
    return (i, carry, cells[: i + 1], cells[n : n + i + 1])


def right_to_left_order(n: int) -> VariableOrder:
    """Fixed order pairing digit positions from least to most significant.

    The addition oracle is complete under any order; this one fixes the low
    positions first, whose result digits constrain the carries earliest, so
    mismatches are pruned near the root.
    """
    if n < 1:
        raise InvalidInstanceError("digit count must be >= 1")
    perm = []
    for i in range(n - 1, -1, -1):
        perm.append(i)
        perm.append(n + i)
    return SequentialOrder(perm)


@dataclass
class SumInstanceSpec:
    """Digit count per summand plus one probability row per digit position."""

    n: int
    dists: Sequence[Sequence[float]]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstanceError("digit count must be >= 1")
        rows = [tuple(float(p) for p in row) for row in self.dists]
        if len(rows) != 2 * self.n:
            raise InvalidInstanceError(
                "expected %d distribution rows, got %d" % (2 * self.n, len(rows))
            )
        for i, row in enumerate(rows):
            if len(row) != 10:
                raise InvalidInstanceError("row %d has %d entries, expected 10" % (i, len(row)))
        self.dists = rows

    @classmethod
    def uniform(cls, n: int) -> "SumInstanceSpec":
        return cls(n, [[0.1] * 10 for _ in range(2 * n)])


def sum_function(n: int) -> SymbolicFunction:
    digit = Domain(10)
    return SymbolicFunction(
        domains=[digit] * (2 * n),
        output_domain=Domain(2 * 10**n),
        fn=addition,
        name="sum%d" % n,
    )


def sum_oracle(n: int) -> Oracle:
    def query(v: Valuation, o: int) -> OracleVerdict:
        return addition_oracle(v, o, n)

    def key(v: Valuation, o: int) -> Hashable:
        return _residual_key(v, o, n)

    return Oracle(query, name="addition%d" % n, residual_key=key)


def build_sum_instance(spec: SumInstanceSpec) -> tuple[Instance, SymbolicFunction, Oracle]:
    """Wire the addition function, its oracle and the digit distributions."""
    sfn = sum_function(spec.n)
    return Instance(spec.dists, sfn.output_domain), sfn, sum_oracle(spec.n)


def sum_distribution_reference(spec: SumInstanceSpec) -> list[float]:
    """Exact output distribution by dynamic programming, no search involved.

    Builds each summand's value distribution digit by digit, then convolves
    the two; O(N * 10^N) work. Valid because the summands are independent
    products of independent digits, which makes this the test oracle for the
    recursive computation on sum instances. Each row is normalised by its
    ``math.fsum`` total, as ``Instance`` does.
    """
    n = spec.n

    def summand(rows: Sequence[Sequence[float]]) -> list[float]:
        values = [1.0]
        for row in rows:
            total = math.fsum(row)
            row = [p / total for p in row]
            nxt = [0.0] * (len(values) * 10)
            for value, pv in enumerate(values):
                if pv == 0.0:
                    continue
                base = value * 10
                for d, pd in enumerate(row):
                    nxt[base + d] = pv * pd
            values = nxt
        return values

    first = summand(spec.dists[:n])
    second = summand(spec.dists[n:])
    # summand values range over [0, 10^n - 1], so their sum never reaches
    # 2*10^n - 1; that last output keeps probability zero
    conv = np.convolve(np.asarray(first), np.asarray(second))
    return [float(p) for p in conv] + [0.0]


def parse_dist_rows(rows) -> list[list[float]]:
    """Raw distribution rows as floats, each summing to 1 within 1e-6.

    Row count and width are checked by ``SumInstanceSpec``, negative and
    non-finite entries by ``Instance``.
    """
    if not isinstance(rows, list):
        raise InvalidInstanceError("expected a list of rows, got %r" % (rows,))
    out = []
    for i, row in enumerate(rows):
        try:
            floats = [float(p) for p in row]
        except (TypeError, ValueError):
            raise InvalidInstanceError("row %d is not a list of numbers: %r" % (i, row)) from None
        total = sum(floats)
        if abs(total - 1.0) > 1e-6:
            raise InvalidInstanceError("row %d sums to %.9f, not 1" % (i, total))
        out.append(floats)
    return out
