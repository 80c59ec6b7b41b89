"""Divisibility posets and constructions on their prime intervals.

The two constructions here are the realiser seeds for prime intervals
(a, b]: seeded draws of permutation rows with the deterministic check
that they are suitable (``pipeline.random_suitable_interval`` retries
the draw until one passes), and embeddings of the squarefree part into
a cover-free family, verified as poset embeddings.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

from .base import DomainError, PreconditionError, Verdict
from .coverfree import SetFamily, greatest_prime_power
from .posets import DEFAULT_EXACT_GUARD, FinitePoset, _coversets
from .primes import PrimeTable
from .rng import MASK64, SplitMix64, child_seed

# draws per suitable set; pipeline.random_suitable_interval reads it per call
RETRY_BUDGET = 8
# Below this many draw outputs or (row, node) pairs, plain Python finishes
# sooner than importing numpy (about 0.1 s) would, so small certificates
# are built without numpy.
NUMPY_MIN_WORK = 1 << 16
# (row, node) pairs per batch and (node, prime) cells per prefilter chunk of
# the numpy suitability check; a chunk's survivors are filtered together
SUITABILITY_BLOCK = 1 << 20
# nodes per chunk of the suitability prefilter, which sorts nodes by count
_CHUNK_NODES = 256


@dataclass(frozen=True)
class DivPosetSpec:
    """Divisibility order on {m <= n : all prime factors of m in X}.

    X is either an explicit prime set or an interval (a, b] resolved
    against a prime table.  ``squarefree_only`` restricts to squarefree m.
    """

    n: int
    prime_set: tuple[int, ...] | None = None
    interval: tuple[float, float] | None = None
    squarefree_only: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be positive")
        if (self.prime_set is None) == (self.interval is None):
            raise DomainError("give exactly one of prime_set and interval")
        if self.interval is not None:
            a, b = self.interval
            if not 1 <= a < b:
                raise DomainError("interval must satisfy 1 <= a < b")

    def resolve(self, table: PrimeTable) -> tuple[int, ...]:
        if self.interval is not None:
            a, b = self.interval
            return table.primes_in(a, b)
        for p in self.prime_set:
            if not table.is_prime(p):
                raise DomainError(f"{p} is not prime")
        return tuple(sorted(set(self.prime_set)))


def _walk(primes: Sequence[int], n: int, squarefree: bool):
    """The recursion of ``smooth_nodes``: ``walk(start, value, indices)``
    yields the node (value, indices), then its extensions by the primes
    from index ``start`` on, depth first."""
    last = len(primes) - 1

    def rec(start: int, value: int, indices: tuple[int, ...]):
        yield value, indices
        for i in range(start, len(primes)):
            v = value * primes[i]
            if v > n:
                break
            ind = indices + (i,)
            while v <= n:
                if i == last or v * primes[i + 1] > n:
                    yield v, ind
                else:
                    yield from rec(i + 1, v, ind)
                if squarefree:
                    break
                v *= primes[i]
                ind += (i,)

    return rec


def smooth_nodes(
    primes: Sequence[int], n: int, squarefree: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(m, prime indices) for each m <= n whose prime factors all lie in ``primes``.

    Depth first: m, then each m * primes[i]**k for ascending i past m's
    largest index while the product stays <= n (k = 1 alone when
    ``squarefree``).  The indices ascend and repeat for prime powers.
    ``primes`` must be ascending: the first prime that takes a product
    past n ends the scan, so each step yields a node or stops.  A node
    that no larger prime extends, such as each prime of a zone above
    sqrt(n), is a leaf and is yielded inline rather than by a recursive
    generator of its own.
    """
    return _walk(primes, n, squarefree)(0, 1, ())


def smooth_preorder(primes: Sequence[int], n: int, squarefree: bool) -> Iterator[int]:
    """The m of ``smooth_nodes``, in its order."""
    return (m for m, _ in smooth_nodes(primes, n, squarefree))


def smooth_numbers(primes: Sequence[int], n: int, *, squarefree: bool = False) -> list[int]:
    """Ascending m <= n whose prime factors all lie in ``primes`` (1 included)."""
    return sorted(smooth_preorder(sorted(primes), n, squarefree))


def build_div_poset(spec: DivPosetSpec, table: PrimeTable) -> FinitePoset:
    """Materialise the divisibility poset described by ``spec``."""
    primes = spec.resolve(table)
    elems = smooth_numbers(primes, spec.n, squarefree=spec.squarefree_only)
    if len(elems) > DEFAULT_EXACT_GUARD:
        warnings.warn(
            f"poset has {len(elems)} elements, above the exact-dimension guard "
            f"({DEFAULT_EXACT_GUARD}); fine for verification-only use",
            stacklevel=2,
        )
    return FinitePoset.from_predicate(elems, lambda a, b: b % a == 0)


def squarefree_support_sets(primes: Sequence[int], n: int) -> list[frozenset]:
    """Supports of the squarefree m <= n with all factors in ``primes``, by m."""
    primes = sorted(primes)
    return [
        frozenset(primes[i] for i in indices)
        for _, indices in sorted(smooth_nodes(primes, n, True))
    ]


def _rank_arrays(rank_rows: Sequence[Sequence[int]], length: int):
    """Validated (rows, length) rank array and its row-wise inverse."""
    import numpy as np

    if len(rank_rows) == 0:
        raise DomainError("at least one permutation is required")
    try:
        ranks = np.asarray(rank_rows)
    except ValueError:
        raise DomainError("rank row is not a permutation") from None
    if (
        ranks.ndim != 2
        or ranks.shape[1] != length
        or (ranks.size and ranks.dtype.kind not in "iu")
    ):
        raise DomainError("rank row is not a permutation")
    ranks = ranks.astype(np.int64, copy=False)
    if ranks.size and not 0 <= ranks.min() <= ranks.max() < length:
        raise DomainError("rank row is not a permutation")
    at_rank = np.full_like(ranks, -1)
    at_rank[np.arange(len(ranks))[:, None], ranks] = np.arange(length)
    # a repeated rank leaves some other rank unfilled
    if (at_rank < 0).any():
        raise DomainError("rank row is not a permutation")
    return ranks, at_rank


def _rank_lists(rank_rows: Sequence[Sequence[int]], length: int) -> list[Sequence[int]]:
    """Rank rows as validated sequences of ints; rows of exact ints are kept as given."""
    if len(rank_rows) == 0:
        raise DomainError("at least one permutation is required")
    positions = list(range(length))
    rows = []
    for row in rank_rows:
        if set(map(type, row)) - {int}:
            # operator.index takes numpy ints, and bools, which numpy's path rejects
            if bool in map(type, row):
                raise DomainError("rank row is not a permutation")
            try:
                row = list(map(operator.index, row))
            except TypeError:
                raise DomainError("rank row is not a permutation") from None
        if sorted(row) != positions:
            raise DomainError("rank row is not a permutation")
        rows.append(row)
    return rows


def _suitability_python(
    nodes: list[tuple[int, tuple[int, ...]]], primes: Sequence[int], rows: list[Sequence[int]]
) -> Verdict:
    """The candidate filter of ``_first_uncovered``, one node at a time."""
    positions = list(range(len(primes)))
    at_rank = [_inverse(row, positions) for row in rows]
    columns = list(zip(*rows))  # columns[i][r]: rank of primes[i] in row r
    for value, indices in nodes:
        tops = columns[indices[0]]
        for i in indices[1:]:
            tops = tuple(map(max, tops, columns[i]))
        lowest = min(tops)
        cand = at_rank[tops.index(lowest)][:lowest]
        for row, top in zip(rows, tops):
            if not cand:
                break
            cand = [p for p in cand if row[p] < top]
        missing = [p for p in cand if p not in indices]
        if missing:
            return Verdict(False, (value, primes[min(missing)]))
    return Verdict(True)


def _row_masks(flags):
    """Each column's set flags among the first 64 rows, as one uint64 per column."""
    import numpy as np

    out = np.zeros((flags.shape[1], 8), dtype=np.uint8)
    packed = np.packbits(flags[:64], axis=0, bitorder="little")
    out[:, : len(packed)] = packed.T
    return out.view("<u8")[:, 0]


def _chunks(sorted_count):
    """(first, last) of each chunk of nodes, sorted by candidate count, that has candidates.

    A chunk holds at most _CHUNK_NODES nodes and SUITABILITY_BLOCK cells
    (its nodes times its largest count), or a single node.
    """
    import numpy as np

    first = int(np.searchsorted(sorted_count, 1))
    while first < len(sorted_count):
        widths = sorted_count[first : first + _CHUNK_NODES]
        cells = np.arange(1, len(widths) + 1) * widths
        last = first + max(1, int(np.searchsorted(cells, SUITABILITY_BLOCK, side="right")))
        yield first, last
        first = last


def _first_uncovered(ranks, at_rank, tops, indices) -> tuple[int, int] | None:
    """(node, prime index) of the first uncovered pair among a batch of nodes.

    ``tops[r, k]`` is node k's top rank in row r and ``indices[k]`` its
    prime indices; a shallower node is padded with its own first index,
    which changes neither its top nor its primes.  A prime outside the
    node is uncovered when it ranks below the top in every row, so its
    candidates are the ranks below the node's lowest top: a slice of that
    row's inverse permutation.

    A prime below node k's top in every row is below half the ranks in
    each row where the top is at or below half.  ``low[p]`` holds the rows,
    among the first 64, where p ranks below half, and ``need[k]`` those
    where k's top is at or below half; a candidate p of k passes this
    prefilter only if ``need[k] & ~low[p]`` is 0.  Each chunk of
    ``_chunks`` is one dense AND over the first ranks of its nodes' best
    rows, and its survivors (about 2**-20 of the candidates for 40 random
    rows) are filtered row by row.  A node's candidates all lie in its
    chunk, so once node k fails, later chunks keep only the nodes below k.
    The witness is the first failing node, then its lowest uncovered
    prime index.
    """
    import numpy as np

    half = ranks.shape[1] // 2
    low = _row_masks(ranks[:64] < half)
    need = _row_masks(tops[:64] <= half)
    best = tops.argmin(axis=0)
    count = tops.min(axis=0)
    order = np.argsort(count, kind="stable")
    sorted_count = count[order]
    lacks = np.invert(low[at_rank[:, : sorted_count[-1]]])
    found = None
    for first, last in _chunks(sorted_count):
        chunk = order[first:last]
        if found is not None:
            chunk = chunk[chunk < found[0]]
        width = sorted_count[last - 1]
        passed = (lacks[best[chunk], :width] & need[chunk, None]) == 0
        # past a node's own count sit its top prime, which passes, and primes above it
        passed &= np.arange(width) < count[chunk, None]
        hit = np.flatnonzero(passed.any(axis=1))
        if not hit.size:
            continue
        node, passed = chunk[hit], passed[hit]
        node, cand = np.repeat(node, passed.sum(axis=1)), at_rank[best[node], :width][passed]
        for r in range(len(ranks)):
            keep = np.flatnonzero(ranks[r][cand] < tops[r][node])
            node, cand = node[keep], cand[keep]
            if not node.size:
                break
        # a prime of the node itself may sit below its top in every row
        outside = (indices[node] != cand[:, None]).all(axis=1)
        node, cand = node[outside], cand[outside]
        if node.size:
            k = node.min()
            found = int(k), int(cand[node == k].min())
    return found


def check_interval_suitability(
    n: int, primes: Sequence[int], rank_rows: Sequence[Sequence[int]]
) -> Verdict:
    """Deterministic check of the interval covering property.

    Enumerates the squarefree m <= n over ``primes`` depth first (never
    scanning [n]); for each m and each non-dividing prime p, some row
    must rank every prime factor of m at or below p.  The witness on
    failure is the first uncovered (m, p): the first m in that order, and
    its lowest-indexed uncovered p.  ``primes`` must be strictly
    ascending, as ``smooth_nodes`` needs.

    The numpy path checks the one-prime nodes, the primes up to n, in
    batches straight from the rank matrix: node i's tops are column i.
    Only the multi-prime nodes are walked; they descend from each
    primes[i] with primes[i] * primes[i + 1] <= n.  The walk order is the
    lexicographic order of the index tuples, so a one-prime failure at i
    comes first unless a multi-prime node whose first index is below i
    fails too.  Each candidate (m, p) passes a one-word bitmask prefilter
    over the first 64 rows before the exact row filter (see
    ``_first_uncovered``).  Memory is O(rows * len(primes)) for the rows and
    their inverse, O(multi-prime nodes) for their list, plus per batch of
    nodes one mask word per prime and node, a rows x (largest candidate
    count) mask table, and one prefilter chunk of ``_chunks`` with its
    survivors.
    """
    if not all(map(operator.lt, primes, primes[1:])):
        raise DomainError("primes must be strictly ascending")
    singles = bisect.bisect_right(primes, n)
    walk = _walk(primes, n, True)
    multi = []
    for i in range(singles - 1):
        if primes[i] * primes[i + 1] > n:
            break
        multi.extend(itertools.islice(walk(i + 1, primes[i], (i,)), 1, None))
    # the cut counts every node, m = 1 included
    if len(rank_rows) * (1 + singles + len(multi)) < NUMPY_MIN_WORK:
        nodes = list(smooth_nodes(primes, n, True))[1:]  # m = 1: every prime covers it
        return _suitability_python(nodes, primes, _rank_lists(rank_rows, len(primes)))
    import numpy as np

    ranks, at_rank = _rank_arrays(rank_rows, len(primes))
    batch_size = max(1, SUITABILITY_BLOCK // len(ranks))
    first, witness = singles, None
    for start in range(0, singles, batch_size):
        stop = min(start + batch_size, singles)
        indices = np.arange(start, stop)[:, None]
        found = _first_uncovered(ranks, at_rank, ranks[:, start:stop], indices)
        if found is not None:
            k, i = found
            first, witness = start + k, (primes[start + k], primes[i])
            break
    nodes = [node for node in multi if node[1][0] < first]
    for start in range(0, len(nodes), batch_size):
        batch = nodes[start : start + batch_size]
        depth = max(len(ind) for _, ind in batch)
        indices = np.array(
            [ind + ind[:1] * (depth - len(ind)) for _, ind in batch], dtype=np.int64
        )
        tops = ranks[:, indices].max(axis=2)
        found = _first_uncovered(ranks, at_rank, tops, indices)
        if found is not None:
            k, i = found
            return Verdict(False, (batch[k][0], primes[i]))
    return Verdict(True) if witness is None else Verdict(False, witness)


def _inverse(order: list[int], positions: list[int]) -> list[int]:
    """Ranks of a shuffled order, sharing the int objects of ``positions``.

    Only the Python suitability check uses it, to list each row's primes
    by rank; the draw yields ranks directly.
    """
    ranks = [0] * len(order)
    for position, idx in zip(positions, order):
        ranks[idx] = position
    return ranks


def draw_interval_perms(
    primes: Sequence[int], seed: int, retry_index: int, count: int
) -> list[list[int]]:
    """Re-derivable draw of ``count`` uniform rank rows for one retry.

    Row j holds the ranks of the Fisher-Yates shuffle of range(len(primes))
    that consumes the stream's outputs j*(L-1) .. (j+1)*(L-1)-1, as
    ``SplitMix64.shuffle`` would.  The shuffle's swaps (i, j_i) for
    i = L-1 .. 1, applied to range(L) in reverse order (i = 1 .. L-1),
    give its inverse, so the ranks are drawn directly.  Every value is
    one of the int objects of a single range(L) list, shared by all rows;
    step i writes that list's own i.
    Each row reads its own L-1 outputs: a numpy block
    (``SplitMix64.next_block``) when the draw has NUMPY_MIN_WORK outputs or
    more, ``SplitMix64.next_words`` below that.  randbelow(b) keeps every
    output below accept_limit(b) > 2**64 - L for b <= L, so a row whose
    largest output is at most 2**64 - L takes each output modulo its bound;
    any other row (about L/2**64 per output) is drawn again from its start,
    one ``randbelow`` per swap.
    """
    length = len(primes)
    positions = list(range(length))
    bounds = range(length, 1, -1)
    rng = SplitMix64(child_seed(seed, retry_index))
    on_numpy = count * len(bounds) >= NUMPY_MIN_WORK
    if on_numpy:
        import numpy as np

        moduli = np.arange(length, 1, -1, dtype=np.uint64)
    rows = []
    for _ in range(count):
        state = rng.state
        if on_numpy:
            words = rng.next_block(len(bounds))
            swaps, largest = (words % moduli).tolist(), int(words.max(initial=0))
        else:
            words = rng.next_words(len(bounds))
            swaps, largest = list(map(operator.mod, words, bounds)), max(words, default=0)
        if largest > MASK64 + 1 - length:
            rng.state = state
            swaps = [rng.randbelow(bound) for bound in bounds]
        ranks = positions[:]
        # before step i, ranks[i] is still i: swap by two assignments
        for i, j in zip(itertools.islice(positions, 1, None), reversed(swaps)):
            ranks[i] = ranks[j]
            ranks[j] = i
        rows.append(ranks)
    return rows


def suitable_size_cap(n: int, a: float) -> int:
    """ceil(2 (log n)^2 / log a), the guaranteed size bound."""
    return math.ceil(2 * math.log(n) ** 2 / math.log(a))


def suitable_draw_size(n: int, a: float, length: int, attempt: int) -> int:
    """Rows drawn at one attempt for ``length`` primes in (a, b].

    The size is ceil(log(nL) log n / log a) for L = ``length``, which
    never exceeds the cap of ceil(2 (log n)^2 / log a) since L <= n.
    From half the budget on it is doubled (then clamped back to the cap).
    A single prime needs only the one trivial permutation.
    """
    cap = suitable_size_cap(n, a)
    if length == 1:
        d0 = 1
    else:
        d0 = min(math.ceil(math.log(n * length) * math.log(n) / math.log(a)), cap)
    return d0 if attempt < RETRY_BUDGET // 2 else min(2 * d0, cap)


@dataclass(frozen=True)
class CoverFreeEmbedding:
    """Injection of interval primes into a cover-free family: prime i to member i.

    Extends to squarefree products by unions; under the recorded
    hypotheses that map embeds the squarefree divisibility poset of the
    interval into subsets of the family's ground.
    """

    n: int
    a: float
    b: float
    r: int
    family: SetFamily
    primes: tuple[int, ...]


def _log_at_least(base: float, exponent: int, n: int) -> bool:
    """exponent * log(base) >= log(n), exactly when base is integral."""
    if float(base).is_integer():
        return int(base) ** exponent >= n
    return exponent * math.log(base) >= math.log(n)


def coverfree_embedding(
    n: int,
    a: float,
    b: float,
    family: SetFamily,
    r: int,
    table: PrimeTable,
) -> tuple[CoverFreeEmbedding, Verdict]:
    """Map the i-th prime of (a, b] to the i-th family member.

    Requires a < b, |family| >= pi(b) - pi(a) and r log a >= log n; the
    caller is responsible for the family being r-cover-free (as the
    polynomial construction guarantees).  The verdict, always computed
    over every squarefree element, is that of the two-sided embedding
    check, witness included: the first element a by value for which
    "a divides b" and "image(a) <= image(b)" differ for some b, then the
    least such b.  Images are unions of members, so a | b gives
    image(a) <= image(b), and only "order-created" can occur.  If a fails
    against b, so does a prime of a that does not divide b, and it is no
    larger than a; so the check takes one prime p at a time and looks
    for the elements whose image holds p's member but that p does not
    divide.  The largest zone any buildable n gives (293 primes, 43,090
    elements at n = 10^7) takes about 0.3 s.
    """
    if not a < b:
        raise DomainError("need a < b")
    primes = table.primes_in(a, b)
    if len(family) < len(primes):
        raise PreconditionError(
            f"family has {len(family)} members but the interval holds "
            f"{len(primes)} primes"
        )
    if not _log_at_least(a, r, n):
        raise PreconditionError(
            f"r log a >= log n fails: r={r}, a={a}, n={n}"
        )
    embedding = CoverFreeEmbedding(
        n=n,
        a=a,
        b=b,
        r=r,
        family=family,
        primes=primes,
    )
    nodes = sorted(smooth_nodes(primes, n, True))
    members = family.masks()
    source, image = [], []
    for _, indices in nodes:
        source.append(sum(1 << i for i in indices))
        union = 0
        for i in indices:
            union |= members[i]
        image.append(union)
    everyone = (1 << len(nodes)) - 1
    divisible = _coversets(source, functools.reduce(operator.or_, source, 0))
    holding = _coversets(image, functools.reduce(operator.or_, image, 0))
    for i in range(bisect.bisect_right(primes, n)):  # the primes that are elements
        rows, mask = everyone, members[i]
        while mask:
            low = mask & -mask
            rows &= holding[low.bit_length() - 1]
            mask ^= low
        created = rows & ~divisible[i]
        if created:
            k = (created & -created).bit_length() - 1
            return embedding, Verdict(False, (primes[i], nodes[k][0], "order-created"))
    return embedding, Verdict(True)


@dataclass(frozen=True)
class BoostParams:
    """Concrete parameters for covering one doubling interval of primes.

    Feasibility is decided by the two numeric hypotheses alone, checked
    with exact integer arithmetic (sieve counts and integer powers); the
    asymptotic bound on k is evaluated and reported but does not veto a
    numerically sound parameter set.
    """

    n: int
    eps: float
    k: int
    d: int
    q: int
    h: int
    a: int
    b: int
    r: int
    capacity: int
    primes_needed: int | None
    capacity_ok: bool
    coverage_ok: bool
    k_bound: float
    k_within_bound: bool
    feasible: bool
    notes: tuple[str, ...]


def boost_params(n: int, eps: float, k: int, table: PrimeTable) -> BoostParams:
    """Evaluate the cover-free parameters for the k-th doubling interval."""
    if n < 16:
        raise DomainError("n must be at least 16")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if k < 1:
        raise DomainError("k must be at least 1")
    ln = math.log(n)
    lln = math.log(ln)
    d = int((2 + eps) * ln / lln)
    q = greatest_prime_power((1 + eps) * d)
    h = 2**k
    a = d ** (2 ** (k - 1))
    b = d ** (2**k)
    r = (q - 1) // h
    capacity = q ** (h + 1)
    notes = []
    if b > table.limit:
        primes_needed = None
        capacity_ok = False
        notes.append(
            f"pi({b}) not tabulated (table limit {table.limit}); "
            "capacity hypothesis unverifiable, reported infeasible"
        )
    else:
        primes_needed = table.prime_count(b) - table.prime_count(a)
        capacity_ok = capacity >= primes_needed
        if not capacity_ok:
            notes.append(f"capacity {capacity} < primes needed {primes_needed}")
    coverage_ok = r >= 1 and _log_at_least(a, r, n)
    if not coverage_ok:
        notes.append(f"coverage fails: floor((q-1)/h)={r}, a={a}, n={n}")
    k_bound = math.log(eps * ln / (2 * math.log(d)))
    k_within_bound = k <= k_bound
    if not k_within_bound:
        notes.append(
            f"k={k} exceeds the guaranteed regime bound log(eps log n / 2 log d)"
            f"={k_bound:.4f}; numeric checks decide feasibility"
        )
    return BoostParams(
        n=n,
        eps=eps,
        k=k,
        d=d,
        q=q,
        h=h,
        a=a,
        b=b,
        r=r,
        capacity=capacity,
        primes_needed=primes_needed,
        capacity_ok=capacity_ok,
        coverage_ok=coverage_ok,
        k_bound=k_bound,
        k_within_bound=k_within_bound,
        feasible=capacity_ok and coverage_ok,
        notes=tuple(notes),
    )
