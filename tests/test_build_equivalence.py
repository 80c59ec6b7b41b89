"""The certificate build's array-backed checks against their oracles.

The interval suitability check, the block draw of rank rows and the
per-prime embedding check must give the same verdicts and witnesses as
the straightforward implementations: the per-row suffix-bitset
suitability check kept below, the scalar ``SplitMix64.shuffle`` draw,
and ``verify_embedding`` over ``FinitePoset``s or its two-sided mask
form ``zone_reference._first_containment_mismatch``.  The block streams
``next_block``, ``draws_below`` and ``next_words`` must equal the scalar
draws.
"""

import functools
import itertools
import math
import operator
import random
import signal
import time

import pytest

import divdim.divposets as divposets
from divdim.base import DomainError, Verdict
from divdim.coverfree import SetFamily, build_field, eff_family
from divdim.divposets import (
    check_interval_suitability,
    coverfree_embedding,
    draw_interval_perms,
    smooth_numbers,
)
from divdim.pipeline import (
    ChainZoneCert,
    _build_coverfree_zone,
    _coverfree_zone,
    _zone_verdict,
    plan,
    random_suitable_interval,
)
from divdim.posets import FinitePoset, verify_embedding
from divdim.primes import sieve_primes
from divdim.rng import LANES, MASK64, SplitMix64, accept_limit, child_seed
from zone_reference import _first_containment_mismatch
from zone_reference import smooth_nodes as reference_smooth_nodes

TABLE = sieve_primes(10**4)


# --- oracles -------------------------------------------------------------------


def bitset_interval_suitability(n, primes, rank_rows) -> Verdict:
    """Suitability with L+1 suffix bitmasks per row: O(rows * L^2) bits.

    For each squarefree m in depth-first order, the primes ranked at or
    above m's top in some row are covered; the first m with an uncovered
    prime outside it fails, witnessed by its lowest-indexed such prime.
    """
    length = len(primes)
    if not rank_rows:
        raise DomainError("at least one permutation is required")
    all_mask = (1 << length) - 1
    suffixes = []
    for ranks in rank_rows:
        if sorted(ranks) != list(range(length)):
            raise DomainError("rank row is not a permutation")
        at_rank = [0] * length
        for idx, rk in enumerate(ranks):
            at_rank[rk] = idx
        suf = [0] * (length + 1)
        for t in range(length - 1, -1, -1):
            suf[t] = suf[t + 1] | 1 << at_rank[t]
        suffixes.append(suf)

    def visit(start, value, mask, tops):
        covered = 0
        for suf, t in zip(suffixes, tops):
            covered |= suf[t]
            if covered == all_mask:
                break
        missing = all_mask & ~(covered | mask)
        if missing:
            idx = (missing & -missing).bit_length() - 1
            return Verdict(False, (value, primes[idx]))
        for i in range(start, length):
            v = value * primes[i]
            if v > n:
                break
            child = [max(t, ranks[i]) for t, ranks in zip(tops, rank_rows)]
            bad = visit(i + 1, v, mask | 1 << i, child)
            if bad is not None:
                return bad
        return None

    bad = visit(0, 1, 0, [0] * len(rank_rows))
    return bad if bad is not None else Verdict(True)


def scalar_draw(length, seed, retry_index, count):
    """Rank rows from one SplitMix64 stream, one ``shuffle`` per row."""
    rng = SplitMix64(child_seed(seed, retry_index))
    rows = []
    for _ in range(count):
        order = list(range(length))
        rng.shuffle(order)
        ranks = [0] * length
        for position, idx in enumerate(order):
            ranks[idx] = position
        rows.append(ranks)
    return rows


def poset_embedding_verdict(n, primes, family) -> Verdict:
    """Two-sided embedding check of the squarefree order over ``primes``
    into containment of family unions, through two FinitePosets."""
    masks = {}
    for m in smooth_numbers(primes, n, squarefree=True):
        masks[m] = sum(1 << i for i, p in enumerate(primes) if m % p == 0)
    source = FinitePoset.from_predicate(
        sorted(masks), lambda x, y: masks[x] & ~masks[y] == 0
    )
    phi = {}
    for value, mask in masks.items():
        image = frozenset()
        for i in range(len(primes)):
            if mask >> i & 1:
                image |= family.sets[i]
        phi[value] = image
    targets = sorted(set(phi.values()), key=sorted)
    target = FinitePoset.from_predicate(targets, lambda x, y: x <= y)
    return verify_embedding(source, target, phi)


def assert_same(new: Verdict, old: Verdict):
    assert (new.ok, new.witness) == (old.ok, old.witness)


def draw_size(n, a, length):
    return math.ceil(math.log(n * length) * math.log(n) / math.log(a))


@pytest.fixture(params=["python", "numpy"])
def path(request, monkeypatch):
    """Run the draw and the suitability check on one of their two paths."""
    limit = 1 if request.param == "numpy" else 1 << 62
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", limit)
    return request.param


# --- suitability ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_suitability_matches_oracle_above_sqrt(seed, path):
    # like (391.7, 10^5]: every qualifying m is 1 or a single prime
    n = 4000
    a = n**0.5
    primes = TABLE.primes_in(a, n)
    rows = draw_interval_perms(primes, seed, 0, draw_size(n, a, len(primes)))
    for size in (len(rows), 16, 12, 8):
        assert_same(
            check_interval_suitability(n, primes, rows[:size]),
            bitset_interval_suitability(n, primes, rows[:size]),
        )


@pytest.mark.parametrize("seed", range(50))
def test_suitability_matches_oracle_with_products(seed, path):
    # like (5, 50]: composite squarefree m up to three primes deep
    n = (200, 1000, 2500)[seed % 3]
    primes = TABLE.primes_in(5, 50)
    rows = draw_interval_perms(primes, seed, 0, draw_size(n, 5, len(primes)))
    for size in (len(rows), 16, 12, 8, 3, 1):
        assert_same(
            check_interval_suitability(n, primes, rows[:size]),
            bitset_interval_suitability(n, primes, rows[:size]),
        )


def test_suitability_planted_failures_fail_alike(path):
    n = 4000
    primes = TABLE.primes_in(n**0.5, n)
    s = random_suitable_interval(n, n**0.5, n, 5, TABLE)
    rows = [list(row) for row in s.ranks]
    assert check_interval_suitability(n, primes, rows)
    for size in (8, 12, 16):
        new = check_interval_suitability(n, primes, rows[:size])
        assert not new
        assert_same(new, bitset_interval_suitability(n, primes, rows[:size]))


def test_suitability_matches_oracle_at_1e5_truncated(path):
    table = sieve_primes(10**5)
    n, a = 10**5, 391.72003526196266
    primes = table.primes_in(a, n)
    rows = draw_interval_perms(primes, 11, 0, 8)
    new = check_interval_suitability(n, primes, rows)
    assert not new
    assert_same(new, bitset_interval_suitability(n, primes, rows))


@pytest.fixture(scope="module")
def coverfree_zones_1e5():
    table = sieve_primes(10**5)
    zones = [z for z in plan(10**5, 0.5, table).zones if z.kind == "cover-free"]
    assert len(zones) == 2
    return [_build_coverfree_zone(10**5, z, table) for z in zones]


def test_suitability_matches_oracle_on_coverfree_orderings(coverfree_zones_1e5, path):
    n = 10**5
    for zone in coverfree_zones_1e5:
        rows = zone.tau_rank_rows()
        verdicts = []
        for size in (len(rows), 64, 16, 12, 8, 2):
            new = check_interval_suitability(n, zone.primes, rows[:size])
            assert_same(new, bitset_interval_suitability(n, zone.primes, rows[:size]))
            verdicts.append(new.ok)
        assert verdicts[0] and not all(verdicts)
        shuffled = rows[:]
        random.Random(len(rows)).shuffle(shuffled)
        for size in (40, 20):
            assert_same(
                check_interval_suitability(n, zone.primes, shuffled[:size]),
                bitset_interval_suitability(n, zone.primes, shuffled[:size]),
            )


@pytest.mark.parametrize("n", [*range(1, 41), 60, 1000, 2000, 10**4, 10**5])
def test_chain_zone_rows_pass_the_walk_that_zone_verdict_skips(n, path):
    # _zone_verdict passes a chain zone unwalked: the row of a prime's
    # column ranks it above every other column, so every (node, prime)
    # pair is covered, whatever order the primes are recorded in
    table = sieve_primes(max(n, 2))
    (zp,) = [z for z in plan(n, 0.5, table).zones if z.kind == "chains"]
    recorded = [zp.primes, zp.primes[::-1]]
    if len(zp.primes) > 1:
        recorded += [zp.primes[:i] + zp.primes[i + 1 :] for i in range(len(zp.primes))]
    for primes in recorded:
        zone = ChainZoneCert(zp.lo, zp.hi, primes)
        assert _zone_verdict(n, zone)
        # the rows re-indexed by ascending prime, as _zone_verdict would
        order = sorted(range(len(primes)), key=primes.__getitem__)
        rows = [[row[i] for i in order] for row in zone.rows()]
        ascending = sorted(primes)
        new = check_interval_suitability(n, ascending, rows)
        assert new
        assert_same(new, bitset_interval_suitability(n, ascending, rows))


def test_suitability_block_boundaries(monkeypatch):
    # tiny blocks split the nodes and the candidates many times over
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1)
    primes = TABLE.primes_in(5, 50)
    rows = draw_interval_perms(primes, 3, 0, 6)
    expected = bitset_interval_suitability(2500, primes, rows)
    for block in (1, 7, 64):
        monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
        assert_same(check_interval_suitability(2500, primes, rows), expected)


def test_suitability_block_boundaries_split_chunks(monkeypatch):
    # one batch of 303 one-prime nodes, cut into chunks by cells and by nodes
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1)
    n = 2000
    primes = TABLE.primes_in(n**0.5, n)
    rows = draw_interval_perms(primes, 4, 0, 3)
    expected = bitset_interval_suitability(n, primes, rows)
    chunks = []

    def spy(sorted_count):
        for first, last in real(sorted_count):
            chunks.append((last - first, (last - first) * int(sorted_count[last - 1])))
            yield first, last

    real = divposets._chunks
    monkeypatch.setattr(divposets, "_chunks", spy)
    for block in (1 << 20, 1 << 12, 1000):
        monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
        chunks.clear()
        assert_same(check_interval_suitability(n, primes, rows), expected)
        assert len(chunks) > 1
        assert all(k <= 256 and (cells <= block or k == 1) for k, cells in chunks)
    assert max(k for k, _ in chunks) > 1


def identity_rows_with_one_separator(length, p, count):
    """``count`` rank rows in which only the last puts index p above p + 1.

    Row 0 ranks by index and row 1 reverses it, but both keep p below
    p + 1, so the two separate every other ordered pair; the middle rows
    repeat row 0.  The last row is row 0 with p and p + 2 swapped: p goes
    above p + 1, whose lowest rank, and so its candidates, stay in an
    earlier row.
    """
    up = list(range(length))
    down = [length - 1 - i for i in range(length)]
    down[p], down[p + 1] = down[p + 1], down[p]
    last = up[:]
    last[p], last[p + 2] = last[p + 2], last[p]
    return [up, down] + [up] * (count - 3) + [last]


@pytest.mark.parametrize("pair", ["low", "high"])
def test_suitability_reads_rows_past_the_mask_words(pair, path):
    # 70 rows: the prefilter's masks see rows 0-63, only row 69 separates one pair
    n = 4000
    primes = TABLE.primes_in(n**0.5, n)
    p = 3 if pair == "low" else len(primes) - 3
    rows = identity_rows_with_one_separator(len(primes), p, 70)
    assert check_interval_suitability(n, primes, rows)
    assert bitset_interval_suitability(n, primes, rows)
    new = check_interval_suitability(n, primes, rows[:69])
    assert_same(new, bitset_interval_suitability(n, primes, rows[:69]))
    assert new.witness == (primes[p + 1], primes[p])


def plant_below(rows, top, low):
    """Swap ranks so that index ``low`` ranks below index ``top`` in every row."""
    for row in rows:
        if row[low] > row[top]:
            row[low], row[top] = row[top], row[low]


@pytest.mark.parametrize("block", [1 << 20, 1 << 14])
def test_suitability_witness_is_first_in_walk_order(block, path, monkeypatch):
    # the first failing node in walk order has the largest count, so it is
    # in the last chunk; a later node with count 1 fails in the first chunk
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
    n = 4000
    primes = TABLE.primes_in(n**0.5, n)
    length = len(primes)
    rows = [list(r) for r in random_suitable_interval(n, n**0.5, n, 7, TABLE).ranks]
    early, late = 0, length - 10
    for r, row in enumerate(rows):
        # lift the early node to distinct high ranks, lowest in row 0
        target = row.index(length - 1 - (len(rows) - 1 - r))
        row[early], row[target] = row[target], row[early]
    plant_below(rows, early, 5)
    row = rows[5]
    for idx, rank in ((late, 1), (late + 1, 0)):
        other = row.index(rank)
        row[idx], row[other] = row[other], row[idx]
    plant_below(rows, late, late + 1)
    tops = [[row[early] for row in rows], [row[late] for row in rows]]
    assert min(tops[0]) > length // 2 and min(tops[1]) == 1
    assert tops[0].index(min(tops[0])) != tops[1].index(1)
    new = check_interval_suitability(n, primes, rows)
    assert_same(new, bitset_interval_suitability(n, primes, rows))
    assert new.witness[0] == primes[early]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("block", [1 << 11, 1 << 13])
def test_suitability_first_failure_across_survivor_blocks(count, block, monkeypatch):
    # few rows leave many prefilter survivors, filtered in several blocks
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1)
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
    n = 4000
    primes = TABLE.primes_in(n**0.5, n)
    for seed in range(3):
        rows = draw_interval_perms(primes, seed, 0, count)
        new = check_interval_suitability(n, primes, rows)
        assert not new
        assert_same(new, bitset_interval_suitability(n, primes, rows))


def test_suitability_failing_zone_stops_at_its_witness(monkeypatch):
    # 4 drawn rows fail on the n = 2*10^5 top zone at its first prime; the
    # numpy check stops there instead of filtering every zone prime's
    # candidates, and the Python path gives the same witness
    import numpy  # noqa: F401  (its import is not part of the timing)

    n = 2 * 10**5
    table = sieve_primes(n)
    primes = [z for z in plan(n, 0.5, table).zones if z.kind == "random-suitable"][-1].primes
    assert len(primes) == 17885
    rows = draw_interval_perms(primes, 7, 0, 4)
    start = time.perf_counter()
    verdict = check_interval_suitability(n, primes, rows)
    elapsed = time.perf_counter() - start
    assert (verdict.ok, verdict.witness) == (False, (541, 613))
    assert elapsed < 0.5
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1 << 62)
    assert_same(check_interval_suitability(n, primes, rows), verdict)


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2])
def test_suitability_tiny_intervals(length, count, path):
    primes = (7, 11, 13)[:length]
    perms = [list(p) for p in itertools.permutations(range(length))]
    for rows in itertools.product(perms, repeat=count):
        for n in (10, 100, 1001):
            assert_same(
                check_interval_suitability(n, primes, list(rows)),
                bitset_interval_suitability(n, primes, list(rows)),
            )


# --- the one-prime pass ---------------------------------------------------------
# The numpy check reads the one-prime nodes, the zone primes up to n, in
# batches straight from the rank matrix and walks only the multi-prime
# nodes; a SUITABILITY_BLOCK of a few rows' worth splits that pass.


def first_failing_indices(n, primes, rows):
    """First index of the first failing one-prime node and of the first
    failing multi-prime node in walk order, each None if none fails."""
    single = multi = None
    for _, ind in itertools.islice(reference_smooth_nodes(primes, n, True), 1, None):
        tops = [max(row[i] for i in ind) for row in rows]
        if any(
            all(row[p] < top for row, top in zip(rows, tops))
            for p in range(len(primes))
            if p not in ind
        ):
            if len(ind) == 1 and single is None:
                single = ind[0]
            if len(ind) > 1 and multi is None:
                multi = ind[0]
    return single, multi


@pytest.mark.parametrize("block", [4, 1 << 20])
def test_suitability_one_prime_failure_against_multi_prime_failure(block, path, monkeypatch):
    # walk order is the lexicographic order of the index tuples, so a
    # failing one-prime node i comes first exactly when every failing
    # multi-prime node has first index j >= i.  j > i cannot occur: a
    # multi-prime node past i makes (i, i + 1) and (i, i + 2) nodes, and
    # the prime below i in every row is missing from one of them
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
    rng = random.Random(5)
    seen = set()
    for _ in range(150):
        primes = TABLE.primes_in(rng.choice((3, 5, 10, 20)), rng.choice((30, 50, 80)))
        n = rng.choice((500, 1000, 2500, 6000))
        rows = [rng.sample(range(len(primes)), len(primes)) for _ in range(rng.randint(1, 4))]
        new = check_interval_suitability(n, primes, rows)
        assert_same(new, bitset_interval_suitability(n, primes, rows))
        i, j = first_failing_indices(n, primes, rows)
        if i is None:
            continue
        kind = "i only" if j is None else "j < i" if j < i else "j = i" if j == i else "j > i"
        seen.add(kind)
        m = new.witness[0]
        if kind == "j < i":
            assert m != primes[j] and min(p for p in primes if m % p == 0) == primes[j]
        else:
            assert m == primes[i]
    assert seen == {"i only", "j < i", "j = i"}


def test_suitability_zone_primes_above_n_are_not_nodes(path, monkeypatch):
    # the primes in (n, 2n] rank above every prime up to n in every row:
    # as one-prime nodes they would fail, but no m <= n holds one
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", 1 << 10)
    n = 4000
    below = TABLE.primes_in(n**0.5, n)
    primes = TABLE.primes_in(n**0.5, 2 * n)
    lifted = list(range(len(below), len(primes)))
    rows = [list(r) for r in random_suitable_interval(n, n**0.5, n, 3, TABLE).ranks]
    assert len(below) > (1 << 10) // len(rows)
    for size in (len(rows), 8):
        cut = [row + lifted for row in rows[:size]]
        new = check_interval_suitability(n, primes, cut)
        assert_same(new, bitset_interval_suitability(n, primes, cut))
        assert new.ok == (size == len(rows))


@pytest.mark.parametrize("block", [1 << 8, 1 << 10])
def test_suitability_zone_without_multi_prime_nodes(block, path, monkeypatch):
    # above sqrt(n) every node is one prime, checked in several batches
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", block)
    n = 4000
    primes = TABLE.primes_in(n**0.5, n)
    rows = [list(r) for r in random_suitable_interval(n, n**0.5, n, 9, TABLE).ranks]
    for size in (len(rows), 12, 8, 2):
        assert len(primes) > block // size
        new = check_interval_suitability(n, primes, rows[:size])
        assert_same(new, bitset_interval_suitability(n, primes, rows[:size]))
        assert new.ok == (size == len(rows))


def test_suitability_1539_zone_fails_at_a_two_prime_node(path, monkeypatch):
    # the n = 1539, eps = 0.001 zone (27, 49] under the identity and its
    # reverse: no one-prime node fails, and 1073 = 29 * 37 skips 31
    monkeypatch.setattr(divposets, "SUITABILITY_BLOCK", 2)
    primes = TABLE.primes_in(27, 49)
    rows = [list(range(6)), list(range(5, -1, -1))]
    new = check_interval_suitability(1539, primes, rows)
    assert new.witness == (1073, 31)
    assert_same(new, bitset_interval_suitability(1539, primes, rows))


def test_suitability_requires_ascending_primes(path):
    # over (7, 17, 11) the walk stopped at 7 * 17 > 100 and never reached 77
    rows = [[0, 2, 1], [2, 0, 1]]
    for primes in ((7, 17, 11), (7, 7, 11), (11, 7)):
        with pytest.raises(DomainError):
            check_interval_suitability(100, primes, rows if len(primes) == 3 else [[0, 1]])
    new = check_interval_suitability(100, (7, 11, 17), rows)
    assert new.witness == (77, 17)
    assert_same(new, bitset_interval_suitability(100, (7, 11, 17), rows))


BOOL_ROWS = [[True, False], [False, True]]  # a permutation of two primes, as ints


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, 0, 1]],
        [[0, 1]],
        [[0, 1, 3]],
        [[0, 1, 2], [0, 1]],
        [[0.0, 1.0, 2.0]],
        [[-1, 0, 1]],
        BOOL_ROWS,
    ],
)
def test_suitability_rejects_non_permutations(rows, path):
    primes = (7, 11) if rows is BOOL_ROWS else (7, 11, 13)
    with pytest.raises(DomainError):
        check_interval_suitability(100, primes, rows)


def test_numpy_suitability_path_refuses_no_rows(monkeypatch):
    # with no rows the work is 0, so only a limit of 0 sends them to numpy
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 0)
    with pytest.raises(DomainError, match="at least one permutation is required"):
        check_interval_suitability(100, (11, 13), [])


# --- draws ------------------------------------------------------------------------


@pytest.fixture
def block(monkeypatch):
    """Draw every row set through the numpy block, however small."""
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1)


@pytest.mark.parametrize("length", [1, 2, 3, 100])
def test_block_draw_equals_scalar_draw(length, block):
    primes = tuple(range(length))
    for seed in (0, 1, 2**63 + 5, MASK64):
        for retry in range(4):
            for count in (0, 1, 2, 7):
                assert draw_interval_perms(primes, seed, retry, count) == scalar_draw(
                    length, seed, retry, count
                )


def test_block_draw_equals_scalar_draw_long_rows(block):
    primes = tuple(range(9515))
    for seed, retry in ((0, 0), (12345, 3)):
        assert draw_interval_perms(primes, seed, retry, 2) == scalar_draw(
            9515, seed, retry, 2
        )


def test_draw_either_side_of_the_numpy_cutoff():
    # 6 rows of 9515 stay below NUMPY_MIN_WORK outputs, 7 rows reach it
    primes = tuple(range(9515))
    assert 6 * 9514 < divposets.NUMPY_MIN_WORK <= 7 * 9514
    for count in (6, 7):
        assert draw_interval_perms(primes, 3, 1, count) == scalar_draw(9515, 3, 1, count)


@pytest.mark.parametrize("length", [1, 2, 3, 257], ids="block-{}".format)
def test_draw_equals_scalar_draw_on_either_path(length, path):
    # the rank rows are the shuffle's swaps applied in reverse; that must
    # give the inverse of each shuffled order, whichever source the swaps have
    primes = tuple(range(length))
    for seed, retry in ((0, 0), (5, 2), (MASK64, 1)):
        for count in (1, 3, 40):
            assert draw_interval_perms(primes, seed, retry, count) == scalar_draw(
                length, seed, retry, count
            )


def test_drawn_rows_share_one_int_object_per_rank():
    # 40 rows of the n = 10^5 top zone's length hold only the 9,515 ints
    # of one range list, so the recorded rows cost no memory per value
    rows = draw_interval_perms(tuple(range(9515)), 0, 0, 40)
    assert len({id(v) for row in rows for v in row}) == 9515


def test_child_seed_equals_stepping_the_stream():
    for seed in (0, 7, MASK64):
        for index in (0, 1, 7, 10**4):
            stream = SplitMix64(seed)
            for _ in range(index):
                stream.next_u64()
            assert child_seed(seed, index) == stream.next_u64()


def test_next_block_equals_next_u64():
    for seed in (0, 7, MASK64):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert a.next_block(300).tolist() == [b.next_u64() for _ in range(300)]
        assert a.state == b.state
        assert a.next_block(0).size == 0 and a.next_u64() == b.next_u64()


@pytest.mark.parametrize("bound", [1, 2, 3, 729, 10**9, 2**63 + 5, 2**64 - 1])
def test_draws_below_equals_randbelow(bound):
    # 2 * LANES + 7 values cross two block boundaries; about half of the
    # outputs fall in the rejection region of 2^63 + 5
    gamma = 0x9E3779B97F4A7C15  # SplitMix64's published increment
    count = 2 * LANES + 7
    for seed in (0, 1, MASK64):
        scalar, stream = SplitMix64(seed), SplitMix64(seed)
        want = [scalar.randbelow(bound) for _ in range(count)]
        assert list(itertools.islice(stream.draws_below(bound), count)) == want
        # the stream's state sits at the end of the block holding the last
        # output the scalar draws read
        outputs = (scalar.state - seed) * pow(gamma, -1, 1 << 64) & MASK64
        blocks = -(-outputs // LANES)
        assert stream.state == (seed + blocks * LANES * gamma) & MASK64


@pytest.mark.parametrize("count", [0, 1, 7, LANES - 1, LANES, LANES + 1, 2 * LANES + 7])
def test_next_words_equals_next_u64_and_next_block(count):
    for seed in (0, 1, MASK64):
        words, scalar, block = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        got = words.next_words(count)
        assert got == [scalar.next_u64() for _ in range(count)]
        assert got == block.next_block(count).tolist()
        assert words.state == scalar.state == block.state
        assert words.next_u64() == scalar.next_u64()


def test_negative_counts_raise_and_keep_the_state():
    rng = SplitMix64(5)
    for method in (rng.next_block, rng.next_words):
        with pytest.raises(ValueError, match="nonnegative"):
            method(-3)
        assert rng.state == 5


@pytest.fixture
def alarm():
    """Fail a test that runs longer than 10 s instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bound", [-1, 0, 2**64 + 1, 2**65])
def test_bounds_outside_1_to_2_64_raise(bound, alarm):
    # accept_limit(2**65) used to be 0, so both draws spun forever
    with pytest.raises(ValueError, match="outside 1..2"):
        accept_limit(bound)
    with pytest.raises(ValueError, match="outside 1..2"):
        SplitMix64(1).randbelow(bound)
    with pytest.raises(ValueError, match="outside 1..2"):
        next(SplitMix64(1).draws_below(bound))


def test_bound_2_64_keeps_every_output():
    assert accept_limit(2**64) == 2**64
    a, b = SplitMix64(3), SplitMix64(3)
    assert [a.randbelow(2**64) for _ in range(5)] == [b.next_u64() for _ in range(5)]


@pytest.fixture
def lanes(monkeypatch):
    """Draw every row set from ``next_words``, however large."""
    monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", 1 << 62)


@pytest.mark.parametrize(
    "length, count",
    [
        (1024, 1),  # count * (L - 1) = LANES - 1, LANES, LANES + 1
        (1025, 1),
        (1026, 1),
        (342, 3),
        (257, 4),
        (206, 5),
        (1196, 31),  # the n = 10^4 top zone's draw
        (0, 3),
        (1, 3),
        (2, 3),
    ],
)
def test_lane_draw_equals_scalar_draw(length, count, lanes):
    primes = tuple(range(length))
    for seed, retry in ((0, 0), (MASK64, 2)):
        assert draw_interval_perms(primes, seed, retry, count) == scalar_draw(
            length, seed, retry, count
        )


def _unmix(z):
    """The inverse of SplitMix64's output mix."""

    def unshift(x, s):
        y = x
        for _ in range(64 // s):
            y = x ^ (y >> s)
        return y

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return unshift(z, 30)


@pytest.mark.parametrize(
    "row, column, rejected", [(0, 0, True), (2, 48, False), (4, 17, True)]
)
def test_lane_draw_rejected_output_falls_back_to_randbelow(
    row, column, rejected, monkeypatch, request
):
    # pick the seed whose stream puts MASK64 at the given row and column of
    # the draw; randbelow(b) rejects it unless b is a power of 2, but the
    # row goes to randbelow either way, whether its words come from
    # next_words or next_block
    gamma = 0x9E3779B97F4A7C15  # SplitMix64's published increment
    length, count = 50, 5
    index = row * (length - 1) + column
    start = (_unmix(MASK64) - (index + 1) * gamma) & MASK64
    seed = (_unmix(start) - gamma) & MASK64
    assert child_seed(seed, 0) == start
    assert (MASK64 >= accept_limit(length - column)) == rejected
    expected = scalar_draw(length, seed, 0, count)
    unforced = scalar_draw(length, seed, 1, count)
    calls = []
    randbelow = SplitMix64.randbelow

    def counted(self, bound):
        calls.append(bound)
        return randbelow(self, bound)

    monkeypatch.setattr(SplitMix64, "randbelow", counted)
    primes = tuple(range(length))
    for source in ("lanes", "block"):
        request.getfixturevalue(source)
        assert draw_interval_perms(primes, seed, 0, count) == expected
        # only the row holding the rejected output is drawn by randbelow
        assert calls == list(range(length, 1, -1))
        calls.clear()
        assert draw_interval_perms(primes, seed, 1, count) == unforced
        assert calls == []

# --- embeddings ----------------------------------------------------------------------


def test_embedding_matches_oracle_on_gf3_instance():
    family = eff_family(build_field(3, 1), 1)
    _, verdict = coverfree_embedding(9, 3, 31, family, 2, TABLE)
    assert verdict and verdict.note == ""
    assert_same(verdict, poset_embedding_verdict(9, TABLE.primes_in(3, 31), family))


def test_embedding_matches_oracle_on_planted_family():
    sets = [frozenset({0}), frozenset({1}), frozenset({0, 1})] + [
        frozenset({i}) for i in range(2, 8)
    ]
    family = SetFamily(9, tuple(sets))
    _, verdict = coverfree_embedding(35, 3, 31, family, 4, TABLE)
    assert not verdict and verdict.witness[2] == "order-created"
    assert_same(verdict, poset_embedding_verdict(35, TABLE.primes_in(3, 31), family))


def test_embedding_matches_oracle_on_random_families():
    rng = random.Random(2024)
    primes = TABLE.primes_in(3, 31)
    outcomes = set()
    for _ in range(60):
        ground = rng.randint(4, 16)
        sets = set()
        while len(sets) < len(primes):
            sets.add(frozenset(e for e in range(ground) if rng.random() < 0.4))
        family = SetFamily(ground, tuple(sets))
        n = rng.choice((35, 100, 243))
        _, verdict = coverfree_embedding(n, 3, 31, family, 5, TABLE)
        assert_same(verdict, poset_embedding_verdict(n, primes, family))
        outcomes.add(verdict.witness[2] if not verdict else "ok")
    assert {"ok", "order-created"} <= outcomes


def oracle_embedding_verdict(n, primes, family) -> Verdict:
    """``_first_containment_mismatch`` over the squarefree elements by value."""
    nodes = sorted(reference_smooth_nodes(primes, n, True))
    members = family.masks()
    source = [sum(1 << i for i in ind) for _, ind in nodes]
    image = [functools.reduce(operator.or_, [members[i] for i in ind], 0) for _, ind in nodes]
    found = _first_containment_mismatch(source, image)
    if found is None:
        return Verdict(True)
    a, b, kind = found
    return Verdict(False, (nodes[a][0], nodes[b][0], kind))


def planted_covers(family, count, length, rng):
    """``count`` families in which one of the first ``length`` members is
    replaced by a union that holds one to three others, or by a subset of
    another."""
    sets = list(family.sets)
    while count:
        j = rng.randrange(length)
        others = rng.sample([k for k in range(length) if k != j], 3)
        if rng.random() < 0.5:
            chosen = others[: rng.randint(1, 3)]
            new = frozenset().union(*(sets[k] for k in chosen))
            if len(chosen) == 1:
                new |= sets[j]  # one other member alone would repeat it
        else:
            new = frozenset(e for e in sets[others[0]] if rng.random() < 0.6)
        if new in sets:
            continue
        yield SetFamily(family.ground_size, tuple(sets[:j] + [new] + sets[j + 1 :]))
        count -= 1


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_embedding_matches_two_sided_oracle_on_union_images(n):
    # the check runs one prime at a time: union images keep containment,
    # so only "order-created" can fail, and first at a prime
    table = sieve_primes(n)
    zones = [z for z in plan(n, 0.5, table).zones if z.kind == "cover-free"]
    assert zones
    rng = random.Random(n)
    kinds = set()
    for zone in zones:
        cert = _coverfree_zone(zone)
        family = SetFamily(cert.ground_size, tuple(map(frozenset, cert.family)))
        _, verdict = coverfree_embedding(n, zone.lo, zone.hi, family, cert.r, table)
        assert verdict
        assert_same(verdict, oracle_embedding_verdict(n, zone.primes, family))
        for planted in planted_covers(family, 30, len(zone.primes), rng):
            _, verdict = coverfree_embedding(n, zone.lo, zone.hi, planted, cert.r, table)
            assert_same(verdict, oracle_embedding_verdict(n, zone.primes, planted))
            kinds.add(verdict.witness[2] if not verdict else "ok")
    assert "order-created" in kinds


def test_embedding_matches_two_sided_oracle_with_an_empty_member():
    family = eff_family(build_field(3, 1), 1)
    primes = TABLE.primes_in(3, 31)
    for j in (0, 4, 8):
        sets = list(family.sets)
        sets[j] = frozenset()
        planted = SetFamily(family.ground_size, tuple(sets))
        for n in (9, 35, 100):
            _, verdict = coverfree_embedding(n, 3, 31, planted, 5, TABLE)
            assert_same(verdict, oracle_embedding_verdict(n, primes, planted))
            assert verdict.ok == (primes[j] > n)


def test_mask_check_matches_verify_embedding_both_directions():
    # arbitrary images, not unions of members, so order can also be lost
    rng = random.Random(7)
    kinds = set()
    for _ in range(200):
        width, height = rng.randint(1, 5), rng.randint(1, 5)
        count = rng.randint(1, 2**width)
        masks = rng.sample(range(2**width), count)
        images = [rng.randrange(2**height) for _ in masks]
        source = FinitePoset.from_predicate(
            range(count), lambda x, y: masks[x] & ~masks[y] == 0
        )
        as_sets = [frozenset(e for e in range(height) if m >> e & 1) for m in images]
        targets = sorted(set(as_sets), key=sorted)
        target = FinitePoset.from_predicate(targets, lambda x, y: x <= y)
        expected = verify_embedding(source, target, dict(enumerate(as_sets)))
        found = _first_containment_mismatch(masks, images)
        assert found == (None if expected else expected.witness)
        if found:
            kinds.add(found[2])
    assert kinds == {"order-lost", "order-created"}


# --- small builds ------------------------------------------------------------


def test_small_certificate_builds_without_numpy(tmp_path):
    # importing numpy costs a fresh process about 0.1 s, more than the
    # whole n = 2000 build, so small inputs take the plain-Python paths;
    # exhaustive verify reruns the build's checks, so it needs none either
    import os
    import subprocess
    import sys
    from pathlib import Path

    import divdim

    script = (
        "import sys; from divdim.cli import main; "
        "main(['certify', '--n', '2000', '--seed', '0', '--out', sys.argv[1]]); "
        "print('numpy' in sys.modules); "
        "assert main(['verify', '--cert', sys.argv[1]]) == 0; "
        "print('numpy' in sys.modules)"
    )
    src = str(Path(divdim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cert.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    built, verified, after_verify = done.stdout.splitlines()[3:]
    assert verified.startswith("PASS: exhaustive verification, 3998000 ordered pairs")
    assert (built, after_verify) == ("False", "False")


def test_1e4_certificate_builds_and_verifies_without_numpy(tmp_path):
    # the n = 10^4 top zone draws 31 rows of 1196 primes, 37,045 outputs,
    # below NUMPY_MIN_WORK: they come from next_words, not numpy
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    import divdim

    cert = tmp_path / "cert.json"
    script = (
        "import sys; from divdim.cli import main; "
        "main(['certify', '--n', '10000', '--seed', '0', '--out', sys.argv[1]]); "
        "assert main(['verify', '--cert', sys.argv[1]]) == 0; "
        "print('numpy' in sys.modules)"
    )
    src = str(Path(divdim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(cert)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
    assert "PASS: exhaustive verification, 99990000 ordered pairs" in done.stdout
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "718cf5c99b654f643abce8e985ab0f14ef5e577f65c011dd167da7bbc673f01a"
    )
