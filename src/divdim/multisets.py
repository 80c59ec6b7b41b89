"""Multisets over a finite ground set, downset families, and suitable permutations.

A family of permutations is "suitable" for a set family when, for every
member A and every ground element x outside A, some permutation places
all of A at or below x.  The minimum size of such a family equals the
dimension of the corresponding downset of multisets, which is what makes
these objects realiser seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .base import DomainError, PreconditionError, ResourceLimitError, Verdict
from .posets import FinitePoset, LinearExtension, Realiser
from .posets import _bits_of, _coversets, _greedy_clique
from .rng import SplitMix64, check_seed, child_seed

MIN_SUITABLE_GUARD = 8
# largest multiplicity of an element in a random_downset maximum
DOWNSET_MAX_MULTIPLICITY = 2


@dataclass(frozen=True)
class Multiset:
    """Multiset over an ordered ground, stored as a multiplicity vector."""

    ground: tuple
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.ground) != len(self.counts):
            raise DomainError("counts must align with the ground")
        if any(c < 0 or not isinstance(c, int) for c in self.counts):
            raise DomainError("multiplicities must be nonnegative integers")

    @cached_property
    def _pos(self) -> dict:
        return {x: i for i, x in enumerate(self.ground)}

    def nu(self, x) -> int:
        return self.counts[self._pos[x]]

    def support(self) -> frozenset:
        return frozenset(x for x, c in zip(self.ground, self.counts) if c > 0)

    def support_multiset(self) -> "Multiset":
        return Multiset(self.ground, tuple(1 if c else 0 for c in self.counts))

    def le(self, other: "Multiset") -> bool:
        if self.ground != other.ground:
            raise DomainError("multisets over different grounds")
        return all(a <= b for a, b in zip(self.counts, other.counts))

    def decrements(self) -> Iterable["Multiset"]:
        """All multisets obtained by removing one unit of multiplicity."""
        for i, c in enumerate(self.counts):
            if c > 0:
                yield Multiset(
                    self.ground,
                    self.counts[:i] + (c - 1,) + self.counts[i + 1 :],
                )

    def restrict(self, block: tuple) -> "Multiset":
        return Multiset(block, tuple(self.counts[self._pos[x]] for x in block))

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}:{c}" for x, c in zip(self.ground, self.counts) if c)
        return "Multiset{" + inner + "}"


@dataclass(frozen=True)
class DownsetFamily:
    """Finite family of multisets closed under removing multiplicity."""

    ground: tuple
    members: tuple[Multiset, ...]

    @classmethod
    def build(
        cls, ground: Sequence, members: Iterable[Multiset], *, close: bool = False
    ) -> "DownsetFamily":
        ground = tuple(ground)
        pool = set()
        for m in members:
            if m.ground != ground:
                raise DomainError("member over a different ground")
            pool.add(m)
        if close:
            frontier = list(pool)
            while frontier:
                m = frontier.pop()
                for dec in m.decrements():
                    if dec not in pool:
                        pool.add(dec)
                        frontier.append(dec)
        else:
            for m in pool:
                for dec in m.decrements():
                    if dec not in pool:
                        raise DomainError(
                            f"family is not down-closed: {dec!r} missing below {m!r}"
                        )
        ordered = tuple(sorted(pool, key=lambda m: m.counts))
        return cls(ground, ordered)

    def __len__(self) -> int:
        return len(self.members)

    def support_sets(self) -> tuple[frozenset, ...]:
        seen = []
        out = []
        for m in self.members:
            s = m.support()
            if s not in seen:
                seen.append(s)
                out.append(s)
        return tuple(out)

    def poset(self) -> FinitePoset:
        return FinitePoset.from_predicate(self.members, lambda a, b: a.le(b))

    def restrict(self, block: Sequence) -> "DownsetFamily":
        block = tuple(block)
        blockset = set(block)
        members = tuple(
            m.restrict(block) for m in self.members if m.support() <= blockset
        )
        return DownsetFamily.build(block, members)


@dataclass(frozen=True)
class Permutation:
    """Bijection from the ground onto ranks 0..|ground|-1 (greater = later)."""

    ground: tuple
    order: tuple

    def __post_init__(self):
        if set(self.order) != set(self.ground) or len(self.order) != len(self.ground):
            raise DomainError("order must be a permutation of the ground")

    @cached_property
    def rank_map(self) -> dict:
        return {x: i for i, x in enumerate(self.order)}


@dataclass(frozen=True)
class SuitableSet:
    """Permutations with the covering property for a target set family."""

    perms: tuple[Permutation, ...]
    target: tuple[frozenset, ...]


def _normalize_family(family, ground=None) -> tuple[tuple[frozenset, ...], tuple]:
    if isinstance(family, DownsetFamily):
        return family.support_sets(), family.ground
    if ground is None:
        raise DomainError("an explicit ground is required for a plain set family")
    ground = tuple(ground)
    gset = set(ground)
    sets = []
    for a in family:
        s = frozenset(a)
        if not s <= gset:
            raise DomainError(f"family member {set(a)} leaves the ground")
        if s not in sets:
            sets.append(s)
    return tuple(sets), ground


def support_family(family: DownsetFamily) -> DownsetFamily:
    """Deduplicated supports of the members, as a (set-valued) downset."""
    members = {m.support_multiset() for m in family.members}
    return DownsetFamily.build(family.ground, tuple(members))


def verify_suitable(perms: Sequence[Permutation], family, ground=None) -> Verdict:
    """Check the covering property; false verdicts carry the pair (A, x).

    Members equal to the whole ground are vacuously covered (there is no
    x to check), and the empty member is covered by any permutation.
    """
    sets, ground = _normalize_family(family, ground)
    for perm in perms:
        if perm.ground != ground:
            raise DomainError("permutation over a different ground")
    ranks = [p.rank_map for p in perms]
    for a in sets:
        for x in ground:
            if x in a:
                continue
            covered = any(
                all(r[y] <= r[x] for y in a) for r in ranks
            )
            if not covered:
                return Verdict(False, (set(a), x))
    return Verdict(True)


def _exclusion_clique(bits: list[int], coversets: dict[int, int]) -> int:
    """Constraints pairwise covered by no common mask; a cover lower bound."""
    exclusive = {
        b: {c for c in bits if c != b and coversets[b] & coversets[c] == 0}
        for b in bits
    }
    return _greedy_clique(bits, exclusive, 20)


def _undominated(rows: list[int]) -> list[int]:
    """Rows kept in order, dropping each row inside or equal to an earlier kept row."""
    kept: list[int] = []
    for m in rows:
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def _set_cover_exact(masks: list[int], universe: int) -> list[int]:
    """Minimum subcollection of masks covering universe; each bit must lie in some mask.

    Classic reductions keep this exact but small: dominated constraints
    are dropped (anything covering a harder constraint covers them too),
    dominated masks are dropped before branching, and a pairwise-exclusion
    clique certifies greedy answers without branching in most cases.
    """
    bits = _bits_of(universe)
    # coversets: for each constraint, the set of masks covering it, as a
    # bitmask over mask indices
    coversets = _coversets(masks, universe)
    # column reduction: drop b when some other constraint is covered only
    # by masks that cover b too
    kept_bits: list[int] = []
    for b in bits:
        dominated = False
        for other in bits:
            if other == b:
                continue
            cb, co = coversets[b], coversets[other]
            if co & ~cb == 0 and (cb != co or other < b):
                dominated = True  # `other` is at least as hard to cover
                break
        if not dominated:
            kept_bits.append(b)
    need = sum(1 << b for b in kept_bits)
    # row reduction on the surviving constraints
    reduced: dict[int, int] = {}
    for i, mk in enumerate(masks):
        reduced.setdefault(mk & need, i)
    rows = sorted(reduced, key=lambda m: -m.bit_count())
    # a dominated row has fewer bits than an earlier row holding it, so the
    # first row of largest gain is never dominated: greedy may skip the pass
    uncovered, greedy = need, []
    while uncovered:
        bestmask = max(rows, key=lambda m: (m & uncovered).bit_count())
        greedy.append(bestmask)
        uncovered &= ~bestmask
    lower = _exclusion_clique(kept_bits, coversets)
    best = list(greedy)
    if lower < len(best):
        kept_rows = _undominated(rows)
        covering = {b: [m for m in kept_rows if m >> b & 1] for b in kept_bits}
        max_gain = max(m.bit_count() for m in kept_rows)

        def recurse(uncovered: int, chosen: list[int]) -> None:
            nonlocal best
            if not uncovered:
                if len(chosen) < len(best):
                    best = list(chosen)
                return
            bound = len(chosen) + -(-uncovered.bit_count() // max_gain)
            if bound >= len(best):
                return
            pick = min(
                _bits_of(uncovered), key=lambda b: len(covering[b])
            )
            options = sorted(
                covering[pick], key=lambda m: -(m & uncovered).bit_count()
            )
            for m in options:
                chosen.append(m)
                recurse(uncovered & ~m, chosen)
                chosen.pop()

        recurse(need, [])
    return [reduced[m & need] for m in best]


def _coverage(
    constraints: list[tuple[frozenset, object]], active: tuple
) -> dict[int, tuple[int, ...]]:
    """Each distinct coverage mask, mapped to the first order giving it.

    An order of the active indices covers constraint bit i, (A, x), when x
    comes after all of A.  Orders are visited depth first over prefixes,
    in ascending index order, so they come out in the order
    ``itertools.permutations(range(k))`` lists them.  Placing e after the
    elements of ``placed`` covers ``gain[placed][e]``: the bits of (A, e)
    over the members A inside ``placed``; so each order's mask is the OR
    of its k gains, and orders sharing a prefix share that work.
    """
    k = len(active)
    pos = {x: i for i, x in enumerate(active)}
    rows: dict[int, list[int]] = {}
    for bit, (a, x) in enumerate(constraints):
        inside = sum(1 << pos[y] for y in a)
        rows.setdefault(inside, [0] * k)[pos[x]] |= 1 << bit
    gain = []
    for placed in range(1 << k):
        out = [0] * k
        for inside, row in rows.items():
            if inside & placed == inside:
                out = [g | r for g, r in zip(out, row)]
        gain.append(out)

    coverage: dict[int, tuple[int, ...]] = {}
    done = (1 << k) - 1
    stack = [(0, 0, ())]
    while stack:
        placed, mask, order = stack.pop()
        if placed == done:
            coverage.setdefault(mask, order)
            continue
        row = gain[placed]
        for e in range(k - 1, -1, -1):  # pushed high to low, popped low to high
            if not placed >> e & 1:
                stack.append((placed | 1 << e, mask | row[e], order + (e,)))
    return coverage


def min_suitable(family, ground=None) -> tuple[int, SuitableSet]:
    """Exact minimum suitable set for a family of subsets of the ground.

    Conventions: the empty family, and families whose constraints are all
    vacuous, need one permutation.  Ground elements that appear in no
    member are placed on top of every returned permutation; this does not
    change the minimum.
    """
    sets, ground = _normalize_family(family, ground)
    if len(ground) > MIN_SUITABLE_GUARD:
        raise ResourceLimitError(
            f"ground has {len(ground)} elements, exhaustive guard is {MIN_SUITABLE_GUARD}"
        )
    used = set().union(*sets) if sets else set()
    active = tuple(x for x in ground if x in used)
    inactive = tuple(x for x in ground if x not in used)
    constraints = []
    for a in sets:
        if not a:
            continue
        for x in active:
            if x not in a:
                constraints.append((a, x))
    if not constraints:
        # inactive elements still go on top so dropped (A, x) pairs with
        # inactive x stay covered
        perm = Permutation(ground, active + inactive)
        return 1, SuitableSet((perm,), sets)

    coverage = _coverage(constraints, active)
    masks = list(coverage)
    chosen = _set_cover_exact(masks, (1 << len(constraints)) - 1)

    perms = []
    for i in chosen:
        order = coverage[masks[i]]
        full = tuple(active[e] for e in order) + inactive
        perms.append(Permutation(ground, full))
    return len(perms), SuitableSet(tuple(perms), sets)


def colex_extension(perm: Permutation, family: DownsetFamily) -> LinearExtension:
    """Colexicographic order on the family with respect to the permutation.

    Members are compared at the permutation-greatest element where their
    multiplicities differ; smaller multiplicity there means earlier.  The
    result extends containment.
    """
    if perm.ground != family.ground:
        raise DomainError("permutation over a different ground than the family")
    significance = tuple(reversed(perm.order))

    def key(m: Multiset):
        return tuple(m.nu(x) for x in significance)

    return LinearExtension(tuple(sorted(family.members, key=key)))


def suitable_to_realiser(suitable, family: DownsetFamily) -> Realiser:
    """Colex extensions of the family, one per suitable permutation."""
    perms = suitable.perms if isinstance(suitable, SuitableSet) else tuple(suitable)
    verdict = verify_suitable(perms, support_family(family))
    if not verdict:
        raise PreconditionError(
            f"permutations are not suitable for the supports; uncovered {verdict.witness}"
        )
    return Realiser(tuple(colex_extension(p, family) for p in perms))


@dataclass(frozen=True)
class Decomposition:
    factors: tuple[DownsetFamily, ...]
    mapping: dict


def decompose(family: DownsetFamily, blocks: Sequence[Sequence]) -> Decomposition:
    """Split the family along a partition of the ground.

    Returns the restriction families and the member-to-components map; the
    map is a poset embedding of the family into the product of the factors.
    """
    canon = []
    seen: set = set()
    for block in blocks:
        bset = set(block)
        if bset & seen:
            raise DomainError("blocks overlap")
        seen |= bset
        canon.append(tuple(x for x in family.ground if x in bset))
    if seen != set(family.ground):
        raise DomainError("blocks do not cover the ground")
    factors = tuple(family.restrict(b) for b in canon)
    mapping = {
        m: tuple(m.restrict(b) for b in canon) for m in family.members
    }
    return Decomposition(factors, mapping)


def random_downset(
    ground: Sequence,
    seed: int,
    *,
    max_members: int = 25,
) -> DownsetFamily:
    """Seed-deterministic random downset: sampled maxima, closed downward.

    Redraws (with derived child seeds) until the closure fits in
    ``max_members``, so the result is always oracle-sized.
    """
    check_seed(seed)
    ground = tuple(ground)
    for attempt in range(64):
        rng = SplitMix64(child_seed(seed, attempt))
        count = 1 + rng.randbelow(3)  # at most three maxima
        maxima = []
        for _ in range(count):
            counts = tuple(
                rng.randbelow(DOWNSET_MAX_MULTIPLICITY + 1) for _ in ground
            )
            maxima.append(Multiset(ground, counts))
        family = DownsetFamily.build(ground, maxima, close=True)
        if len(family) <= max_members:
            return family
    raise ResourceLimitError(
        f"could not sample a downset with at most {max_members} members"
    )
