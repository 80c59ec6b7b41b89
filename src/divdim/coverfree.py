"""r-cover-free set families: finite fields, the polynomial-graph
construction, brute-force verification, and numeric bound evaluation.

A family is r-cover-free when no member is contained in the union of r
other members.  Graphs of degree-at-most-h polynomials over GF(q) give
such families for r = (q-1)//h, since two distinct low-degree
polynomials agree in at most h points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .base import DomainError, O1_DROPPED_NOTE, ResourceLimitError, Verdict
from .primes import prime_power_base
from .rng import SplitMix64, check_seed

FIELD_SIZE_GUARD = 1 << 16
EXHAUSTIVE_CHECK_GUARD = 10**9
EFF_FAMILY_GUARD = 1_000_000


def _digits(value: int, base: int, count: int) -> list[int]:
    """The ``count`` lowest base-``base`` digits of value, least significant first."""
    out = []
    for _ in range(count):
        value, digit = divmod(value, base)
        out.append(digit)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """GF(p**k) with elements encoded as integers 0..q-1.

    The encoding is fixed: ``_digits(a, p, k)`` lists the coefficients
    of element a's polynomial, so families built on top of a field are
    byte-reproducible.  The modulus is the first monic irreducible of
    degree k in that same enumeration order (unused when k == 1).
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    def _undigits(self, digits) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    @cached_property
    def _tables(self) -> tuple | None:
        if self.q > 128:
            return None
        add = [[self._add(a, b) for b in range(self.q)] for a in range(self.q)]
        mul = [[self._mul(a, b) for b in range(self.q)] for a in range(self.q)]
        return add, mul

    def _add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.k), _digits(b, self.p, self.k)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = _digits(a, self.p, self.k), _digits(b, self.p, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus, highest degree first
        for deg in range(len(prod) - 1, self.k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(self.k):
                    prod[deg - self.k + i] = (
                        prod[deg - self.k + i] - c * self.modulus[i]
                    ) % self.p
        return self._undigits(prod[: self.k])

    def add(self, a: int, b: int) -> int:
        t = self._tables
        return t[0][a][b] if t else self._add(a, b)

    def mul(self, a: int, b: int) -> int:
        t = self._tables
        return t[1][a][b] if t else self._mul(a, b)

    def eval_poly(self, coeffs, x: int) -> int:
        out = 0
        for c in reversed(coeffs):
            out = self.add(self.mul(out, x), c)
        return out


def _poly_divides(divisor: list[int], poly: list[int], p: int) -> bool:
    """Whether the monic ``divisor`` divides ``poly`` over GF(p)."""
    rem = list(poly)
    dd = len(divisor) - 1
    for deg in range(len(rem) - 1, dd - 1, -1):
        c = rem[deg]
        if c:
            for i in range(dd + 1):
                rem[deg - dd + i] = (rem[deg - dd + i] - c * divisor[i]) % p
    return not any(rem)


def _is_irreducible(poly: list[int], p: int) -> bool:
    k = len(poly) - 1
    for deg in range(1, k // 2 + 1):
        for code in range(p**deg):
            if _poly_divides(_digits(code, p, deg) + [1], poly, p):
                return False
    return True


def build_field(p: int, k: int) -> FieldSpec:
    """GF(p**k) for prime p and 1 <= k <= 4, with p**k <= 2**16."""
    if prime_power_base(p) != (p, 1):
        raise DomainError(f"{p} is not prime")
    if not 1 <= k <= 4:
        raise DomainError("extension degree must be between 1 and 4")
    if p**k > FIELD_SIZE_GUARD:
        raise DomainError(f"field order {p**k} exceeds guard {FIELD_SIZE_GUARD}")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p**k):
        poly = _digits(code, p, k) + [1]
        if _is_irreducible(poly, p):
            return FieldSpec(p, k, tuple(poly))
    raise DomainError(f"no irreducible polynomial found for GF({p}^{k})")  # unreachable


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of {0, .., ground_size-1}, in construction order."""

    ground_size: int
    sets: tuple[frozenset[int], ...]
    r: int | None = None

    def __post_init__(self):
        if len(set(self.sets)) != len(self.sets):
            raise DomainError("family members must be distinct")
        for s in self.sets:
            for e in s:
                if not 0 <= e < self.ground_size:
                    raise DomainError(f"element {e} outside ground of size {self.ground_size}")

    def __len__(self) -> int:
        return len(self.sets)

    def masks(self) -> list[int]:
        return [sum(1 << e for e in s) for s in self.sets]

    def to_json_dict(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "r": self.r,
            "sets": [sorted(s) for s in self.sets],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SetFamily":
        """The family a JSON object records; DomainError if it records none."""
        try:
            ground_size, r = data["ground_size"], data.get("r")
            sets = tuple(frozenset(s) for s in data["sets"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise DomainError(f"malformed family: {exc!r}") from exc
        numbers = [ground_size, *(e for s in sets for e in s), *([] if r is None else [r])]
        if any(type(v) is not int for v in numbers):
            raise DomainError("malformed family: a recorded number is not an integer")
        return cls(ground_size, sets, r)


def eff_family(field: FieldSpec, h: int, count: int | None = None) -> SetFamily:
    """Graphs of all polynomials of degree <= h over the field.

    The ground is GF(q)^2 encoded as q*x + y.  Every set has size q,
    distinct sets meet in at most h points, and the family is
    (q-1)//h-cover-free.  ``count`` materialises only the first members
    in coefficient order (the rest of the q**(h+1) family is implied).
    """
    q = field.q
    if not 1 <= h <= q - 1:
        raise DomainError(f"degree bound h={h} must satisfy 1 <= h <= q-1")
    total = q ** (h + 1)
    if count is None:
        count = total
    if not 1 <= count <= total:
        raise DomainError(f"count must be between 1 and {total}")
    if count > EFF_FAMILY_GUARD:
        raise ResourceLimitError(f"{count} sets exceeds guard {EFF_FAMILY_GUARD}")
    sets = []
    for code in range(count):
        coeffs = _digits(code, q, h + 1)
        sets.append(frozenset(q * x + field.eval_poly(coeffs, x) for x in range(q)))
    return SetFamily(ground_size=q * q, sets=tuple(sets), r=(q - 1) // h)


def verify_cover_free(
    family: SetFamily,
    r: int,
    *,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int = 0,
) -> Verdict:
    """Check that no member is contained in the union of r others.

    Exhaustive mode iterates every member against every r-subset of the
    others (early exit on a hit) and is guarded by the total check count.
    Sampled mode draws random (member, r-subset) pairs and its verdict is
    labelled as sampled; it is never substituted silently.
    """
    if r < 1:
        raise DomainError("r must be positive")
    # exhaustive mode draws nothing, but refuses an out-of-range seed all the same
    check_seed(seed)
    masks = family.masks()
    m = len(masks)
    if mode == "exhaustive":
        if m > r:
            checks = m * math.comb(m - 1, r)
            if checks > EXHAUSTIVE_CHECK_GUARD:
                raise ResourceLimitError(
                    f"{checks} containment checks exceed guard {EXHAUSTIVE_CHECK_GUARD}; "
                    f"sample them with divdim coverfree verify --family FILE --r {r} --sampled N"
                )
        for i, target in enumerate(masks):
            others = [j for j in range(m) if j != i]
            for combo in itertools.combinations(others, r):
                union = 0
                for j in combo:
                    union |= masks[j]
                if target & ~union == 0:
                    return Verdict(False, (i, combo), note="exhaustive")
        return Verdict(True, note="exhaustive")
    if mode == "sampled":
        if not samples or samples < 1:
            raise DomainError("sampled mode needs a positive sample count")
        if m <= r:
            return Verdict(
                True, note=f"sampled; family of {m} members is vacuously {r}-cover-free"
            )
        draw = SplitMix64(seed).draws_below(m).__next__
        for _ in range(samples):
            i = draw()
            chosen: list[int] = []
            union = 0
            while len(chosen) < r:
                j = draw()
                if j != i and j not in chosen:
                    chosen.append(j)
                    union |= masks[j]
            if masks[i] & ~union == 0:
                return Verdict(False, (i, tuple(chosen)), note="sampled")
        return Verdict(True, note=f"sampled: no counterexample found in {samples} samples")
    raise DomainError(f"unknown mode {mode!r}")


def _coverable(target: int, pool: list[int], picks: int) -> bool:
    """Whether target is contained in a union of at most ``picks`` pool masks."""
    if target == 0:
        return True
    if picks == 0:
        return False
    useful = sorted(
        (m for m in pool if m & target), key=lambda m: -(m & target).bit_count()
    )
    if not useful:
        return False
    if sum((m & target).bit_count() for m in useful[:picks]) < target.bit_count():
        return False
    for idx, m in enumerate(useful):
        if _coverable(target & ~m, useful[idx + 1 :], picks - 1):
            return True
    return False


def max_cover_free_bruteforce(n: int, r: int) -> tuple[int, SetFamily]:
    """Exact f_r(n) with a maximum witness family, for n <= 5.

    Any family with at most r members is vacuously r-cover-free, so the
    answer is the larger of r (capped at 2**n) and the best family in
    which no member is covered by r or fewer of the others.
    """
    if n < 1:
        raise DomainError("ground size must be positive")
    if n > 5:
        raise ResourceLimitError(f"exhaustive search guard is n <= 5, got {n}")
    if r < 1:
        raise DomainError("r must be positive")
    candidates = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    canonical = {(1 << k) - 1 for k in range(n + 1)}
    best: list[int] = []

    def compatible(mask: int, family: list[int]) -> bool:
        if _coverable(mask, family, r):
            return False
        for t in family:
            rest = [x for x in family if x != t]
            if _coverable(t & ~mask, rest, r - 1):
                return False
        return True

    def search(start: int, family: list[int]) -> None:
        nonlocal best
        if len(family) > len(best):
            best = list(family)
        if len(family) + (len(candidates) - start) <= len(best):
            return
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            if not family and mask not in canonical:
                continue
            if compatible(mask, family):
                family.append(mask)
                search(idx + 1, family)
                family.pop()

    search(0, [])
    vacuous = min(1 << n, r)
    if vacuous > len(best):
        witness_masks = candidates[:vacuous]
    else:
        witness_masks = best
    sets = tuple(
        frozenset(e for e in range(n) if m >> e & 1) for m in witness_masks
    )
    return len(witness_masks), SetFamily(ground_size=n, sets=sets, r=r)


def greatest_prime_power(x: float) -> int:
    """Largest prime power <= x; scans downward testing p**e form."""
    top = math.floor(x)
    for v in range(top, 1, -1):
        if prime_power_base(v) is not None:
            return v
    raise DomainError(f"no prime power at or below {x}")


@dataclass(frozen=True)
class CoverBounds:
    """Numeric evaluations of the family-size bounds.

    ``fixed_r_*`` is the regime where r is constant; ``sqrt_*`` is the
    r = eps*sqrt(n) regime with its polynomial exponents; ``uniform_*``
    are the binomial bounds for k-uniform families.  Asymptotic values
    are labelled and infinities are flagged rather than raised.
    """

    n: int
    r: float | None = None
    eps: float | None = None
    k: int | None = None
    fixed_r_lower: float | None = None
    fixed_r_upper: float | None = None
    sqrt_lower_exponent: float | None = None
    sqrt_upper_exponent: int | None = None
    sqrt_lower: float | None = None
    sqrt_upper: float | None = None
    uniform_lower: float | None = None
    uniform_upper: float | None = None
    overflowed: tuple[str, ...] = ()
    note: str = O1_DROPPED_NOTE


def _safe_exp(value: float) -> tuple[float, bool]:
    try:
        out = math.exp(value)
    except OverflowError:
        return math.inf, True
    return out, out == math.inf


def eval_cover_bounds(
    n: int, r: int | None = None, eps: float | None = None, k: int | None = None
) -> CoverBounds:
    """Evaluate the displayed bounds on maximum cover-free family size."""
    if n < 1:
        raise DomainError("n must be positive")
    if (r is None) == (eps is None):
        raise DomainError("give exactly one of r and eps")
    overflowed = []
    fields: dict = {"n": n, "k": k}
    if r is not None:
        if r < 1:
            raise DomainError("r must be positive")
        fields["r"] = float(r)
        lower, over = _safe_exp(n * math.log1p(1 / (4 * r * r)))
        if over:
            overflowed.append("fixed_r_lower")
        upper, over = _safe_exp(n / r)
        if over:
            overflowed.append("fixed_r_upper")
        fields["fixed_r_lower"] = lower
        fields["fixed_r_upper"] = upper
        if k is not None:
            if not 1 <= k <= n:
                raise DomainError("k must be between 1 and n")
            t = -(-k // r)  # ceil(k / r)
            fields["uniform_lower"] = math.comb(n, t) / math.comb(k, t) ** 2
            fields["uniform_upper"] = math.comb(n, t) / math.comb(k - 1, t - 1)
    else:
        if eps <= 0:
            raise DomainError("eps must be positive")
        fields["eps"] = eps
        fields["r"] = eps * math.sqrt(n)
        lo_exp = (math.floor(1 / eps) + 1) / 2
        hi_exp = math.ceil(2 / eps**2)
        fields["sqrt_lower_exponent"] = lo_exp
        fields["sqrt_upper_exponent"] = hi_exp
        lower, over = _safe_exp(lo_exp * math.log(n))
        if over:
            overflowed.append("sqrt_lower")
        upper, over = _safe_exp(hi_exp * math.log(n))
        if over:
            overflowed.append("sqrt_upper")
        fields["sqrt_lower"] = lower
        fields["sqrt_upper"] = upper
    fields["overflowed"] = tuple(overflowed)
    return CoverBounds(**fields)
