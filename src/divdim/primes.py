"""Prime sieving, factorisation, and squarefree parts."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

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
    primes = tuple(i for i in range(2, limit + 1) if flags[i])
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


def factorize_many(values) -> Iterator[dict[int, int]]:
    """``factorize(v)`` for each of ``values`` in turn, trial-dividing them at once.

    ``values`` are positive, below 2^63, and their square roots within
    the sieve budget.  Each prime p up to the square root of the largest
    value divides out of every value it divides, in ascending order;
    what is left above 1 is a prime larger than all of them.  So each
    dict is the factorisation with its primes ascending, as
    ``factorize`` gives it.  The dicts are made one at a time, as they
    are asked for.
    """
    import numpy as np

    rest = np.array(values, dtype=np.int64)
    if (rest < 1).any():
        raise DomainError("factorize requires a positive integer")
    found = []  # (value index, prime, exponent) columns, primes ascending
    for p in sieve_primes(max(math.isqrt(int(rest.max(initial=1))), 1)).primes:
        hit = np.flatnonzero(rest % p == 0)
        exps = np.zeros(len(hit), dtype=np.int64)
        live = np.arange(len(hit))
        while len(live):
            rest[hit[live]] //= p
            exps[live] += 1
            live = live[rest[hit[live]] % p == 0]
        found.append((hit, np.full(len(hit), p), exps))
    big = np.flatnonzero(rest > 1)
    found.append((big, rest[big], np.ones(len(big), dtype=np.int64)))
    index, primes, exps = map(np.concatenate, zip(*found))
    order = np.argsort(index, kind="stable")  # keeps each value's primes ascending
    pairs = zip(primes[order].tolist(), exps[order].tolist())
    for count in np.bincount(index, minlength=len(rest)).tolist():
        yield dict(islice(pairs, count))


def squarefree_part(a: int) -> int:
    """Product of the distinct prime divisors of a; 1 -> 1."""
    out = 1
    for p in factorize(a):
        out *= p
    return out


def is_prime(a: int) -> bool:
    """Trial-division primality; meant for small moduli and field orders."""
    if a < 2:
        return False
    if a < 4:
        return True
    if a % 2 == 0:
        return False
    for f in range(3, math.isqrt(a) + 1, 2):
        if a % f == 0:
            return False
    return True


def prime_power_base(a: int) -> tuple[int, int] | None:
    """(p, e) when a == p**e for a single prime p, otherwise None."""
    if a < 2:
        return None
    fac = factorize(a)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e
