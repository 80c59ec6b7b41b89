"""Finite posets, linear extensions, realisers, and an exact dimension search.

The dimension search is the ground-truth oracle for everything else in
the package, so it favours being exactly right over being clever: it is
an iterative-deepening backtracking search over which linear extension
reverses each incomparable pair, with incremental transitive closure
for pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .base import DomainError, ResourceLimitError, Verdict

Element = Hashable

DEFAULT_EXACT_GUARD = 25
PRODUCT_SIZE_GUARD = 20_000
# one string of '0'/'1' per bit t of a byte, indexed by the byte's value
_DIGITS = [bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8)]


def _bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _coversets(masks: Sequence[int], universe: int) -> dict[int, int]:
    """For each bit of ``universe``, ascending, the masks that hold it.

    Each value is a bitmask over mask indices.  One transpose instead of
    one big-int OR per (mask, bit): the masks are packed byte by byte, each
    byte column is a strided slice of the packing, and each bit of that
    column becomes a string of '0'/'1' read by int().
    """
    width = (universe.bit_length() + 7) // 8
    packed = bytearray()
    for mk in reversed(masks):  # mask 0 last, so it lands on bit 0
        packed += (mk & universe).to_bytes(width, "little")
    return {
        b: int(packed[b >> 3 :: width].translate(_DIGITS[b & 7]) or b"0", 2)
        for b in _bits_of(universe)
    }


def _greedy_clique(vertices: Iterable, adjacent, starts: int) -> int:
    """Largest greedy clique from the ``starts`` highest-degree vertices.

    ``adjacent[v]`` is v's set of neighbours.  Each step adds the candidate
    adjacent to most others, so the size is a lower bound on the clique number.
    """
    best = 0
    for start in sorted(vertices, key=lambda v: -len(adjacent[v]))[:starts]:
        size = 1
        cand = set(adjacent[start])
        while cand:
            nxt = max(cand, key=lambda v: len(adjacent[v] & cand))
            size += 1
            cand &= adjacent[nxt]
        best = max(best, size)
    return best


class FinitePoset:
    """Explicit finite poset over distinct hashable elements.

    The relation is stored as one successor bitmask per element.  The
    constructor closes it reflexively and transitively; inputs whose
    closure would break antisymmetry are rejected.
    """

    __slots__ = ("elements", "_index", "_up", "_down")

    def __init__(self, elements: Iterable[Element], pairs: Iterable[tuple] = ()):
        elems, index = self._indexed(elements)
        rows = [1 << i for i in range(len(elems))]
        for a, b in pairs:
            if a not in index or b not in index:
                raise DomainError(f"relation mentions unknown element in ({a!r}, {b!r})")
            rows[index[a]] |= 1 << index[b]
        for k in range(len(rows)):  # transitive closure, one pivot at a time
            bit = 1 << k
            row = rows[k]
            for i in range(len(rows)):
                if rows[i] & bit:
                    rows[i] |= row
        self._finish(elems, index, rows)

    @staticmethod
    def _indexed(elements) -> tuple[tuple, dict]:
        elems = tuple(elements)
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise DomainError("poset elements must be distinct")
        return elems, index

    def _finish(self, elems, index, rows):
        down = list(_coversets(rows, (1 << len(elems)) - 1).values())
        for i, (row, col) in enumerate(zip(rows, down)):
            cycle = row & col & ~(1 << i)
            if cycle:
                j = (cycle & -cycle).bit_length() - 1
                raise DomainError(
                    f"antisymmetry violated between {elems[i]!r} and {elems[j]!r}"
                )
        self.elements = elems
        self._index = index
        self._up = tuple(rows)
        self._down = tuple(down)

    @classmethod
    def from_predicate(
        cls,
        elements: Iterable[Element],
        leq: Callable[[Element, Element], bool],
    ) -> "FinitePoset":
        """Build from a comparison predicate.

        ``leq`` must be reflexive and transitive, as divisibility,
        containment and product orders are: no closure pass is run, so
        use ``FinitePoset(elements, pairs)`` for a relation that needs
        closing.  Antisymmetry is always checked.
        """
        self = cls.__new__(cls)
        elems, index = cls._indexed(elements)
        rows = []
        for i, a in enumerate(elems):
            m = 1 << i
            for j, b in enumerate(elems):
                if i != j and leq(a, b):
                    m |= 1 << j
            rows.append(m)
        self._finish(elems, index, rows)
        return self

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self._index

    def index(self, e: Element) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise DomainError(f"{e!r} is not an element of this poset") from None

    def leq(self, a: Element, b: Element) -> bool:
        return bool(self._up[self.index(a)] >> self.index(b) & 1)


@dataclass(frozen=True)
class LinearExtension:
    """Total order over a poset's elements, listed least to greatest."""

    order: tuple


@dataclass(frozen=True)
class Realiser:
    extensions: tuple[LinearExtension, ...]

    def __post_init__(self):
        if not self.extensions:
            raise DomainError("a realiser must contain at least one extension")


@dataclass(frozen=True)
class DimensionResult:
    dimension: int | None
    realiser: Realiser | None
    exceeded: bool
    max_d: int


def _as_order(ext) -> tuple:
    if isinstance(ext, LinearExtension):
        return ext.order
    return tuple(ext)


def is_realiser(poset: FinitePoset, extensions: Sequence) -> Verdict:
    """Check that the extensions realise the poset.

    False verdicts carry either ("not-an-extension", index, (a, b)) when
    some member fails to extend the order, or ("uncovered", (a, b)) when
    a pair with a not >= b is placed a-after-b in every member.
    """
    orders = [_as_order(ext) for ext in extensions]
    if not orders:
        raise DomainError("a realiser needs at least one extension")
    ground = set(poset.elements)
    positions = []
    for order in orders:
        if len(order) != len(ground) or set(order) != ground:
            raise DomainError("extension does not range over the poset's elements")
        positions.append({e: i for i, e in enumerate(order)})
    n = len(poset)
    up = poset._up
    for li, pos in enumerate(positions):
        for i in range(n):
            m = up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if pos[poset.elements[i]] > pos[poset.elements[j]]:
                    return Verdict(
                        False,
                        ("not-an-extension", li, (poset.elements[i], poset.elements[j])),
                    )
    for i in range(n):
        for j in range(n):
            if i == j or up[j] >> i & 1:
                continue
            a, b = poset.elements[i], poset.elements[j]
            if not any(pos[a] < pos[b] for pos in positions):
                return Verdict(False, ("uncovered", (a, b)))
    return Verdict(True)


def verify_embedding(p: FinitePoset, q: FinitePoset, mapping: Mapping) -> Verdict:
    """Check phi(a) <=_Q phi(b) iff a <=_P b for every ordered pair.

    False verdicts carry (a, b, "order-lost") when a <= b is not
    preserved, or (a, b, "order-created") when an incomparability is
    collapsed.
    """
    phi = dict(mapping)
    for e in p.elements:
        if e not in phi:
            raise DomainError(f"map is not total: {e!r} has no image")
        if phi[e] not in q:
            raise DomainError(f"image {phi[e]!r} of {e!r} is not in the target poset")
    for a in p.elements:
        for b in p.elements:
            fwd = p.leq(a, b)
            img = q.leq(phi[a], phi[b])
            if fwd and not img:
                return Verdict(False, (a, b, "order-lost"))
            if img and not fwd:
                return Verdict(False, (a, b, "order-created"))
    return Verdict(True)


def product_order(posets: Sequence[FinitePoset]) -> FinitePoset:
    """Coordinatewise order on the cartesian product of the ground sets."""
    if not posets:
        raise DomainError("product of zero posets is not supported")
    total = 1
    for p in posets:
        total *= len(p)
    if total > PRODUCT_SIZE_GUARD:
        raise ResourceLimitError(
            f"product has {total} elements, guard is {PRODUCT_SIZE_GUARD}"
        )
    elements = list(itertools.product(*(p.elements for p in posets)))

    def leq(a, b):
        return all(p.leq(x, y) for p, x, y in zip(posets, a, b))

    return FinitePoset.from_predicate(elements, leq)


def poset_from_edges(text: str) -> FinitePoset:
    """Parse one "a < b" pair per line into a poset over string labels."""
    return FinitePoset(*parse_edges(text))


def parse_edges(text: str) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """The labels, in order of first use, and the pairs of "a < b" lines."""
    pairs = []
    seen: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("<")
        if len(parts) != 2:
            raise DomainError(f"line {lineno}: expected 'a < b', got {raw!r}")
        a, b = parts[0].strip(), parts[1].strip()
        if not a or not b:
            raise DomainError(f"line {lineno}: empty element name")
        seen.setdefault(a)
        seen.setdefault(b)
        pairs.append((a, b))
    if not seen:
        raise DomainError("no edges found")
    return tuple(seen), pairs


def _topological_order(up: Sequence[int], down: Sequence[int]) -> list[int]:
    # sorting by |down-set| linearises any partial order: v < w forces
    # down(v) to be a proper subset of down(w)
    return sorted(range(len(up)), key=lambda v: bin(down[v]).count("1"))


def _maximal_pairs(up: Sequence[int], pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # (a, b) is implied by (a2, b2) when a <= a2 and b2 <= b: any extension
    # placing a2 before b2 places a before b too
    keep = []
    for a, b in pairs:
        implied = False
        for a2, b2 in pairs:
            if (a2, b2) != (a, b) and up[a] >> a2 & 1 and up[b2] >> b & 1:
                implied = True
                break
        if not implied:
            keep.append((a, b))
    return keep


def _conflict_clique(up: Sequence[int], pairs: list[tuple[int, int]]) -> int:
    """Greedy clique of pairwise-conflicting pairs; a valid lower bound.

    Two pairs conflict when no single extension can realise both: forcing
    a<b and c<d closes a cycle exactly when b <= c and d <= a already hold.
    """
    adj = [set() for _ in pairs]
    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if up[b] >> c & 1 and up[d] >> a & 1:
                adj[i].add(j)
                adj[j].add(i)
    return _greedy_clique(range(len(pairs)), adj, 30)


class _RealiserSearch:
    """Backtracking assignment of incomparable pairs to d extensions."""

    def __init__(self, up: Sequence[int], down: Sequence[int], pairs, d: int):
        self.d = d
        self.ups = [list(up) for _ in range(d)]
        self.downs = [list(down) for _ in range(d)]
        self.pending = set(pairs)
        self.edited = [0] * d

    def _add_edge(self, e: int, a: int, b: int, trail: list) -> bool:
        up, down = self.ups[e], self.downs[e]
        if up[b] >> a & 1:
            return False
        if up[a] >> b & 1:
            return True
        preds, succs = down[a], up[b]
        m = preds
        while m:
            x = (m & -m).bit_length() - 1
            m &= m - 1
            if up[x] | succs != up[x]:
                trail.append((e, True, x, up[x]))
                self.edited[e] += 1
                up[x] |= succs
        m = succs
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if down[y] | preds != down[y]:
                trail.append((e, False, y, down[y]))
                self.edited[e] += 1
                down[y] |= preds
        return True

    def _undo(self, trail: list, mark: int) -> None:
        while len(trail) > mark:
            e, is_up, idx, old = trail.pop()
            (self.ups[e] if is_up else self.downs[e])[idx] = old
            self.edited[e] -= 1

    def _propagate(self, trail: list, removed: list) -> bool:
        changed = True
        while changed:
            changed = False
            for pair in list(self.pending):
                a, b = pair
                witnessed = False
                options = []
                for e in range(self.d):
                    if self.ups[e][a] >> b & 1:
                        witnessed = True
                        break
                    if not self.ups[e][b] >> a & 1:
                        options.append(e)
                if witnessed:
                    self.pending.discard(pair)
                    removed.append(pair)
                    changed = True
                elif not options:
                    return False
                elif len(options) == 1:
                    if not self._add_edge(options[0], a, b, trail):
                        return False
                    self.pending.discard(pair)
                    removed.append(pair)
                    changed = True
        return True

    def solve(self) -> bool:
        trail: list = []
        removed: list = []
        if self._propagate(trail, removed):
            if not self.pending:
                return True
            best_pair = None
            best_opts: list[int] = []
            for pair in self.pending:
                a, b = pair
                opts = [e for e in range(self.d) if not self.ups[e][b] >> a & 1]
                if best_pair is None or len(opts) < len(best_opts):
                    best_pair, best_opts = pair, opts
                    if len(opts) <= 2:
                        break
            a, b = best_pair
            self.pending.discard(best_pair)
            seen_untouched = False
            for e in best_opts:
                if self.edited[e] == 0:
                    if seen_untouched:
                        continue
                    seen_untouched = True
                mark = len(trail)
                if self._add_edge(e, a, b, trail) and self.solve():
                    return True
                self._undo(trail, mark)
            self.pending.add(best_pair)
        self._undo(trail, 0)
        for pair in removed:
            self.pending.add(pair)
        return False


def exact_dimension(
    poset: FinitePoset,
    max_d: int | None = None,
    *,
    max_size: int = DEFAULT_EXACT_GUARD,
) -> DimensionResult:
    """Smallest d such that a d-element realiser exists, with a witness.

    Convention: the empty poset, singletons, and chains have dimension 1.
    Raises ResourceLimitError above ``max_size`` elements; returns an
    ``exceeded`` result instead of an answer when max_d is too small.
    """
    n = len(poset)
    if n > max_size:
        raise ResourceLimitError(
            f"poset has {n} elements, exact search guard is {max_size}"
        )
    if max_d is None:
        max_d = max(1, n)
    if max_d < 1:
        raise DomainError("max_d must be at least 1")
    up, down = poset._up, poset._down
    incomparable = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and not up[i] >> j & 1 and not up[j] >> i & 1
    ]
    if not incomparable:
        order = _topological_order(up, down)
        ext = LinearExtension(tuple(poset.elements[i] for i in order))
        return DimensionResult(1, Realiser((ext,)), False, max_d)
    pairs = _maximal_pairs(up, incomparable)
    start = max(2, _conflict_clique(up, pairs))
    for d in range(start, max_d + 1):
        search = _RealiserSearch(up, down, pairs, d)
        if search.solve():
            extensions = []
            for e in range(d):
                order = _topological_order(search.ups[e], search.downs[e])
                extensions.append(
                    LinearExtension(tuple(poset.elements[i] for i in order))
                )
            return DimensionResult(d, Realiser(tuple(extensions)), False, max_d)
    return DimensionResult(None, None, True, max_d)
