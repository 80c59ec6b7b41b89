import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim.base import DomainError, ResourceLimitError
from divdim.primes import (
    DEFAULT_SIEVE_BUDGET,
    factorize,
    factorize_many,
    prime_power_base,
    sieve_primes,
    squarefree_part,
)


def trial_division_is_prime(n: int) -> bool:
    """Independent oracle: plain trial division."""
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_sieve_small_values():
    table = sieve_primes(10)
    assert table.primes == (2, 3, 5, 7)
    assert table.prime_count(10) == 4


def test_sieve_limit_one():
    table = sieve_primes(1)
    assert table.primes == ()
    assert table.prime_count(1) == 0


def test_sieve_hundred_against_oracle():
    table = sieve_primes(100)
    expected = tuple(x for x in range(101) if trial_division_is_prime(x))
    assert table.primes == expected
    assert table.prime_count(100) == 25
    assert table.nth_prime(25) == 97


def test_sieve_agrees_with_oracle_to_2000():
    table = sieve_primes(2000)
    for x in range(2001):
        assert table.is_prime(x) == trial_division_is_prime(x)


def test_pi_is_nondecreasing_and_inverts_nth_prime():
    table = sieve_primes(500)
    counts = [table.prime_count(x) for x in range(501)]
    assert counts == sorted(counts)
    for k in range(1, len(table.primes) + 1):
        assert table.prime_count(table.nth_prime(k)) == k


def test_primes_in_half_open_interval():
    table = sieve_primes(100)
    assert table.primes_in(7, 23) == (11, 13, 17, 19, 23)
    assert table.primes_in(23, 23) == ()
    assert table.primes_in(89.5, 97.5) == (97,)


def test_sieve_budget_guard():
    with pytest.raises(ResourceLimitError):
        sieve_primes(DEFAULT_SIEVE_BUDGET)


def test_queries_outside_limit_rejected():
    table = sieve_primes(50)
    with pytest.raises(DomainError):
        table.prime_count(51)
    with pytest.raises(DomainError):
        table.primes_in(0, 60)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    # primorial of the first eight primes
    assert factorize(9699690) == {p: 1 for p in (2, 3, 5, 7, 11, 13, 17, 19)}


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        squarefree_part(0)


def _columns(factorisations):
    # factorize's dicts, in dict order, as (value index, prime, exponent) columns
    rows = [(k, p, e) for k, f in enumerate(factorisations) for p, e in f.items()]
    return [list(col) for col in zip(*rows)] if rows else [[], [], []]


def _many(values):
    columns = factorize_many(values)
    assert [col.dtype for col in columns] == [np.int64] * 3
    return [col.tolist() for col in columns]


def test_factorize_many_matches_factorize_on_a_range():
    values = range(1, 20_001)
    assert _many(values) == _columns(map(factorize, values))


@given(st.lists(st.integers(min_value=1, max_value=10**10), max_size=60))
@settings(max_examples=50, deadline=None)
def test_factorize_many_matches_factorize(values):
    assert _many(values) == _columns(map(factorize, values))


def test_factorize_many_edge_cases():
    assert _many([]) == [[], [], []]
    assert _many([1, 1]) == [[], [], []]
    # a prime square, a prime above every trial divisor, a uint64 input
    assert _many(np.array([49, 999_983, 2**20], dtype=np.uint64)) == [
        [0, 1, 2], [7, 999_983, 2], [2, 1, 20]
    ]
    with pytest.raises(DomainError):
        factorize_many([3, 0])


def test_squarefree_part_examples():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 6
    assert squarefree_part(720) == 30


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_factorization_reconstructs_argument(a):
    prod = 1
    for p, e in factorize(a).items():
        assert trial_division_is_prime(p)
        prod *= p**e
    assert prod == a


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_squarefree_part_properties(a):
    s = squarefree_part(a)
    assert a % s == 0
    assert all(e == 1 for e in factorize(s).values())
    assert squarefree_part(s) == s


def test_prime_power_base():
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(29) == (29, 1)
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None
