"""Prime sieving, factorisation, and squarefree parts."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .base import DomainError, ResourceLimitError

# A sieve bigger than this raises instead of thrashing memory.
DEFAULT_SIEVE_BUDGET = 200_000_000


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` with O(1) membership and fast counting."""

    limit: int
    primes: tuple[int, ...]
    flags: bytes = field(repr=False)

    def is_prime(self, x: int) -> bool:
        if x < 0 or x > self.limit:
            raise DomainError(f"{x} outside table limit {self.limit}")
        return bool(self.flags[x])

    def prime_count(self, x: float) -> int:
        """pi(x), the number of primes <= x, for x <= limit."""
        if x > self.limit:
            raise DomainError(f"{x} outside table limit {self.limit}")
        if x < 2:
            return 0
        return bisect_right(self.primes, x)

    def nth_prime(self, k: int) -> int:
        """The k-th prime, 1-based, so nth_prime(1) == 2."""
        if k < 1 or k > len(self.primes):
            raise DomainError(f"p_{k} not tabulated (limit {self.limit})")
        return self.primes[k - 1]

    def primes_in(self, lo: float, hi: float) -> tuple[int, ...]:
        """Primes p with lo < p <= hi (half-open interval (lo, hi])."""
        if hi > self.limit:
            raise DomainError(f"{hi} outside table limit {self.limit}")
        left = bisect_right(self.primes, lo)
        right = bisect_right(self.primes, hi)
        return self.primes[left:right]


def sieve_primes(limit: int) -> PrimeTable:
    """Plain Eratosthenes bitset up to ``limit``."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit + 1 > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds memory budget {DEFAULT_SIEVE_BUDGET}"
        )
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    primes = tuple(itertools.compress(range(limit + 1), flags))
    return PrimeTable(limit=limit, primes=primes, flags=bytes(flags))


def factorize(a: int) -> dict[int, int]:
    """Prime factorisation of a >= 1 as {prime: multiplicity}; 1 -> {}."""
    if a < 1:
        raise DomainError("factorize requires a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while a % p == 0:
            out[p] = out.get(p, 0) + 1
            a //= p
    f = 5
    while f * f <= a:
        for p in (f, f + 2):
            while a % p == 0:
                out[p] = out.get(p, 0) + 1
                a //= p
        f += 6
    if a > 1:
        out[a] = out.get(a, 0) + 1
    return out


def factorize_many(values):
    """The factorisations of ``values`` as columns, trial-dividing them at once.

    ``values`` are positive, below 2^63, and their square roots within
    the sieve budget.  Returns three int64 arrays (value index, prime,
    exponent), one entry per prime factor: prime^exponent exactly
    divides values[index].  Entries are sorted by value index and each
    value's primes ascend, as ``factorize`` gives them; 1 has no
    entries.  Each prime up to the square root of the largest value is
    tested against every value; what is left of a value once its small
    primes are divided out is 1 or a prime larger than all of them.
    """
    import numpy as np

    rest = np.array(values, dtype=np.int64)
    if (rest < 1).any():
        raise DomainError("factorize requires a positive integer")
    small = sieve_primes(max(math.isqrt(int(rest.max(initial=1))), 1)).primes
    hits = [np.flatnonzero(rest % p == 0) for p in small]
    index = np.concatenate([np.zeros(0, dtype=np.int64), *hits])
    primes = np.repeat(np.array(small, dtype=np.int64), list(map(len, hits)))
    exps = np.ones(len(index), dtype=np.int64)
    quotient = rest[index] // primes
    live = np.flatnonzero(quotient % primes == 0)
    while len(live):
        quotient[live] //= primes[live]
        exps[live] += 1
        live = live[quotient[live] % primes[live] == 0]
    np.floor_divide.at(rest, index, primes**exps)  # a value's index may repeat
    big = np.flatnonzero(rest > 1)
    # the small primes come in ascending order and the large one after them,
    # so a stable sort by index keeps each value's primes ascending
    index = np.concatenate([index, big])
    primes = np.concatenate([primes, rest[big]])
    exps = np.concatenate([exps, np.ones(len(big), dtype=np.int64)])
    order = np.argsort(index, kind="stable")
    return index[order], primes[order], exps[order]


def squarefree_part(a: int) -> int:
    """Product of the distinct prime divisors of a; 1 -> 1."""
    out = 1
    for p in factorize(a):
        out *= p
    return out


def prime_power_base(a: int) -> tuple[int, int] | None:
    """(p, e) when a == p**e for a single prime p, otherwise None."""
    if a < 2:
        return None
    fac = factorize(a)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e
