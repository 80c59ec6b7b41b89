import functools
import hashlib
import itertools
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divdim
from divdim import multisets
from divdim.base import DomainError, PreconditionError, ResourceLimitError
from divdim.divposets import squarefree_support_sets
from divdim.multisets import (
    DownsetFamily,
    Multiset,
    Permutation,
    colex_extension,
    decompose,
    min_suitable,
    random_downset,
    suitable_to_realiser,
    support_family,
    verify_suitable,
)
from divdim.posets import exact_dimension, is_realiser, product_order, verify_embedding
from divdim.primes import sieve_primes

G12 = (1, 2)
G235 = (2, 3, 5)


def ms(ground, *items):
    counts = [0] * len(ground)
    for x in items:
        counts[ground.index(x)] += 1
    return Multiset(ground, tuple(counts))


def all_subsets_family(ground):
    members = [
        Multiset(ground, bits)
        for bits in itertools.product((0, 1), repeat=len(ground))
    ]
    return DownsetFamily.build(ground, members)


def squarefree_30_family():
    members = [
        ms(G235, *s)
        for r in range(4)
        for s in itertools.combinations(G235, r)
    ]
    return DownsetFamily.build(G235, members)


# --- multisets and downsets -------------------------------------------------


def test_multiset_basics():
    a = ms(G12, 1, 1, 2)
    assert a.nu(1) == 2 and a.nu(2) == 1
    assert a.support() == {1, 2}
    assert ms(G12, 1).le(a)
    assert not a.le(ms(G12, 1))


def test_multiset_validation():
    with pytest.raises(DomainError):
        Multiset(G12, (1,))
    with pytest.raises(DomainError):
        Multiset(G12, (-1, 0))


def test_downset_closure_check():
    with pytest.raises(DomainError):
        DownsetFamily.build(G12, [ms(G12, 1)])
    fam = DownsetFamily.build(G12, [ms(G12, 1)], close=True)
    assert len(fam) == 2


def test_support_family_collapses_multiplicity():
    fam = DownsetFamily.build(("x",), [Multiset(("x",), (2,))], close=True)
    sup = support_family(fam)
    assert {m.counts for m in sup.members} == {(0,), (1,)}


def test_support_family_idempotent_on_set_families():
    fam = all_subsets_family(G12)
    sup = support_family(fam)
    assert sup.members == fam.members
    assert support_family(sup).members == sup.members


def test_support_family_mixed_example():
    g = ("x", "y")
    members = [
        Multiset(g, (0, 0)),
        Multiset(g, (1, 0)),
        Multiset(g, (0, 1)),
        Multiset(g, (1, 1)),
        Multiset(g, (2, 1)),
    ]
    fam = DownsetFamily.build(g, members, close=True)
    sup = support_family(fam)
    assert {m.counts for m in sup.members} == {(0, 0), (1, 0), (0, 1), (1, 1)}


# --- verify_suitable --------------------------------------------------------


def test_verify_suitable_identity_fails():
    verdict = verify_suitable([Permutation(G12, (1, 2))], [{1}, {2}], G12)
    assert not verdict
    assert verdict.witness == ({2}, 1)


def test_verify_suitable_both_orders():
    perms = [Permutation(G12, (1, 2)), Permutation(G12, (2, 1))]
    assert verify_suitable(perms, [{1}, {2}], G12)


def test_verify_suitable_rotations_cover_30():
    rotations = [
        Permutation(G235, (2, 3, 5)),
        Permutation(G235, (3, 5, 2)),
        Permutation(G235, (5, 2, 3)),
    ]
    assert verify_suitable(rotations, support_family(squarefree_30_family()))


def test_verify_suitable_ground_mismatch():
    with pytest.raises(DomainError):
        verify_suitable([Permutation(G12, (1, 2))], [{1}], (1, 2, 3))


def test_full_ground_member_vacuous():
    assert verify_suitable([Permutation(G12, (1, 2))], [{1, 2}], G12)


# --- min_suitable -----------------------------------------------------------


def test_min_suitable_vacuous_constraints():
    m, sol = min_suitable([{"x"}], ("x",))
    assert m == 1 and len(sol.perms) == 1


def test_min_suitable_two_singletons():
    m, sol = min_suitable([{1}, {2}], G12)
    assert m == 2
    assert verify_suitable(sol.perms, [{1}, {2}], G12)


def test_min_suitable_30_needs_three():
    fam = support_family(squarefree_30_family())
    m, sol = min_suitable(fam)
    assert m == 3
    assert verify_suitable(sol.perms, fam)


def test_min_suitable_empty_family():
    m, _ = min_suitable([], G12)
    assert m == 1


def test_min_suitable_inactive_elements_on_top():
    g = (1, 2, 3)
    m, sol = min_suitable([{1}, {2}], g)
    assert m == 2
    assert verify_suitable(sol.perms, [{1}, {2}], g)
    for perm in sol.perms:
        assert perm.order[-1] == 3


def test_min_suitable_guard():
    with pytest.raises(ResourceLimitError):
        min_suitable([], tuple(range(9)))


# --- colex_extension --------------------------------------------------------


def test_colex_identity_counts_in_binary():
    fam = all_subsets_family(G12)
    ext = colex_extension(Permutation(G12, (1, 2)), fam)
    assert [m.counts for m in ext.order] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_colex_swap_order():
    fam = all_subsets_family(G12)
    ext = colex_extension(Permutation(G12, (2, 1)), fam)
    assert [m.counts for m in ext.order] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_colex_multiplicity_chain():
    fam = DownsetFamily.build(("x",), [Multiset(("x",), (2,))], close=True)
    for order in [("x",)]:
        ext = colex_extension(Permutation(("x",), order), fam)
        assert [m.counts for m in ext.order] == [(0,), (1,), (2,)]


def test_colex_extends_containment():
    fam = random_downset((1, 2, 3), seed=11)
    perm = Permutation((1, 2, 3), (3, 1, 2))
    ext = colex_extension(perm, fam)
    pos = {m: i for i, m in enumerate(ext.order)}
    for a in fam.members:
        for b in fam.members:
            if a.le(b):
                assert pos[a] <= pos[b]


def test_colex_ground_mismatch():
    fam = all_subsets_family(G12)
    with pytest.raises(DomainError):
        colex_extension(Permutation((1, 2, 3), (1, 2, 3)), fam)


# --- suitable_to_realiser ---------------------------------------------------


def test_realiser_for_subsets_of_two():
    fam = all_subsets_family(G12)
    perms = [Permutation(G12, (1, 2)), Permutation(G12, (2, 1))]
    realiser = suitable_to_realiser(perms, fam)
    assert len(realiser.extensions) == 2
    assert is_realiser(fam.poset(), realiser.extensions)


def test_realiser_for_chain_single_permutation():
    fam = DownsetFamily.build(("x",), [Multiset(("x",), (3,))], close=True)
    realiser = suitable_to_realiser([Permutation(("x",), ("x",))], fam)
    assert len(realiser.extensions) == 1
    assert is_realiser(fam.poset(), realiser.extensions)


def test_realiser_for_30_rotations():
    fam = squarefree_30_family()
    rotations = [
        Permutation(G235, (2, 3, 5)),
        Permutation(G235, (3, 5, 2)),
        Permutation(G235, (5, 2, 3)),
    ]
    realiser = suitable_to_realiser(rotations, fam)
    assert len(realiser.extensions) == 3
    assert is_realiser(fam.poset(), realiser.extensions)


def test_unsuitable_permutations_rejected_with_witness():
    fam = all_subsets_family(G12)
    with pytest.raises(PreconditionError):
        suitable_to_realiser([Permutation(G12, (1, 2))], fam)


# --- decompose --------------------------------------------------------------


def test_decompose_singleton_partition_is_identity():
    fam = all_subsets_family(G12)
    dec = decompose(fam, [G12])
    assert dec.factors[0].members == fam.members
    prod = product_order([f.poset() for f in dec.factors])
    assert verify_embedding(fam.poset(), prod, dec.mapping)


def test_decompose_two_blocks():
    fam = all_subsets_family(G12)
    dec = decompose(fam, [(1,), (2,)])
    assert all(len(f) == 2 for f in dec.factors)
    prod = product_order([f.poset() for f in dec.factors])
    assert verify_embedding(fam.poset(), prod, dec.mapping)


def test_decompose_30_downset():
    fam = squarefree_30_family()
    dec = decompose(fam, [(2,), (3, 5)])
    prod = product_order([f.poset() for f in dec.factors])
    assert verify_embedding(fam.poset(), prod, dec.mapping)


def test_decompose_bad_partitions():
    fam = all_subsets_family(G12)
    with pytest.raises(DomainError):
        decompose(fam, [(1,), (1, 2)])
    with pytest.raises(DomainError):
        decompose(fam, [(1,)])


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=25, deadline=None)
def test_decompose_random_downsets(seed):
    fam = random_downset((1, 2, 3), seed, max_members=12)
    dec = decompose(fam, [(1, 3), (2,)])
    prod = product_order([f.poset() for f in dec.factors])
    assert verify_embedding(fam.poset(), prod, dec.mapping)


# --- the dimension equalities ----------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_downset_dimension_equals_min_suitable(seed):
    fam = random_downset((1, 2, 3), seed, max_members=16)
    supports = support_family(fam)
    dim_full = exact_dimension(fam.poset()).dimension
    dim_supports = exact_dimension(supports.poset()).dimension
    m, witness = min_suitable(supports)
    assert dim_full == dim_supports == m
    assert verify_suitable(witness.perms, supports)


def test_random_downset_is_deterministic():
    a = random_downset((1, 2, 3, 4), seed=5)
    b = random_downset((1, 2, 3, 4), seed=5)
    assert a.members == b.members


def _colex_less(perm, a, b):
    """Definition-direct comparison at the permutation-greatest difference."""
    for x in reversed(perm.order):
        if a.nu(x) != b.nu(x):
            return a.nu(x) < b.nu(x)
    return False


@given(st.integers(min_value=0, max_value=300), st.permutations([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_colex_matches_pairwise_definition(seed, order):
    fam = random_downset((1, 2, 3), seed, max_members=14)
    perm = Permutation((1, 2, 3), tuple(order))
    ext = colex_extension(perm, fam)
    for i, a in enumerate(ext.order):
        for b in ext.order[i + 1 :]:
            assert _colex_less(perm, a, b)
            assert not _colex_less(perm, b, a)


def _naive_min_suitable(sets, ground):
    """Independent oracle: try every permutation subset by size."""
    perms = [Permutation(ground, p) for p in itertools.permutations(ground)]
    for size in range(1, len(perms) + 1):
        for combo in itertools.combinations(perms, size):
            if verify_suitable(combo, sets, ground):
                return size
    return None


@given(st.lists(st.sets(st.sampled_from([1, 2, 3])), max_size=6))
@settings(max_examples=40, deadline=None)
def test_min_suitable_matches_naive_subset_search(raw):
    ground = (1, 2, 3)
    sets = []
    for s in raw:
        f = frozenset(s)
        if f not in sets:
            sets.append(f)
    got, witness = min_suitable(sets, ground)
    assert got == _naive_min_suitable(sets, ground)
    assert verify_suitable(witness.perms, sets, ground)


# --- min_suitable against the permutation loop and quadratic filter --------


def rank_loop_coverage(constraints, active):
    """Coverage by ranking every itertools.permutations order in turn."""
    k = len(active)
    pos = {x: i for i, x in enumerate(active)}
    groups = {}
    for bit, (a, x) in enumerate(constraints):
        groups.setdefault(a, []).append((pos[x], bit))
    member_indices = []
    member_bits = []
    for a, targets in groups.items():
        member_indices.append(tuple(pos[y] for y in a))
        row = [0] * k
        for xi, bit in targets:
            row[xi] = 1 << bit
        member_bits.append(row)
    coverage = {}
    for order in itertools.permutations(range(k)):
        rank = [0] * k
        for position, e in enumerate(order):
            rank[e] = position
        mask = 0
        for indices, row in zip(member_indices, member_bits):
            top = 0
            for e in indices:
                r = rank[e]
                if r > top:
                    top = r
            for position in range(top, k):
                mask |= row[order[position]]
        coverage.setdefault(mask, order)
    return coverage


def quadratic_undominated(rows):
    """Keep a row unless it lies inside a row kept before it."""
    kept = []
    for m in rows:
        if not any(m | other == other for other in kept):
            kept.append(m)
    return kept


def per_bit_coversets(masks, universe):
    coversets = {b: 0 for b in multisets._bits_of(universe)}
    for i, mk in enumerate(masks):
        for b in multisets._bits_of(mk & universe):
            coversets[b] |= 1 << i
    return coversets


def reference_min_suitable(sets, ground):
    """min_suitable with its coverage, coversets and kept rows computed
    the slow, direct way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multisets, "_coverage", rank_loop_coverage)
        mp.setattr(multisets, "_coversets", per_bit_coversets)
        mp.setattr(multisets, "_undominated", quadratic_undominated)
        return min_suitable(sets, ground)


def orders(solution):
    return [p.order for p in solution.perms]


def divisibility_case(n):
    primes = sieve_primes(max(n, 2)).primes_in(0, n)
    return squarefree_support_sets(primes, n), primes


@st.composite
def set_families(draw):
    ground = tuple(range(draw(st.integers(min_value=1, max_value=6))))
    sets = draw(st.lists(st.frozensets(st.sampled_from(ground)), max_size=10))
    return sets, ground


@given(set_families())
@settings(max_examples=80, deadline=None)
def test_coverage_and_result_match_the_permutation_loop(case):
    sets, ground = case
    calls = []
    real = multisets._coverage

    def recorded(constraints, active):
        calls.append((constraints, active, real(constraints, active)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multisets, "_coverage", recorded)
        got, solution = min_suitable(sets, ground)
    for constraints, active, coverage in calls:
        # same masks, same first orders, same insertion order
        assert list(coverage.items()) == list(rank_loop_coverage(constraints, active).items())
    want, reference = reference_min_suitable(sets, ground)
    assert got == want
    assert orders(solution) == orders(reference)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=40))
@example([0])
@example([0, 0])
@example([0, 5, 1])
@example([6, 0, 3, 0])
@settings(max_examples=200, deadline=None)
def test_kept_rows_match_the_quadratic_filter(rows):
    assert multisets._undominated(rows) == quadratic_undominated(rows)
    ranked = sorted(dict.fromkeys(rows), key=lambda m: -m.bit_count())
    assert multisets._undominated(ranked) == quadratic_undominated(ranked)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=30),
    st.integers(min_value=0, max_value=(1 << 40) - 1),
)
@settings(max_examples=100, deadline=None)
def test_coversets_match_the_per_bit_loop(masks, universe):
    assert multisets._coversets(masks, universe) == per_bit_coversets(masks, universe)


def random_cover(seed):
    """A universe's bits and coversets, for masks drawn at quarter density."""
    rng = random.Random(seed)
    width = rng.randint(4, 40)
    masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(3, 30))]
    universe = functools.reduce(operator.or_, masks)
    return multisets._bits_of(universe), multisets._coversets(masks, universe)


def test_exclusion_clique_on_random_covers_is_pinned():
    # _set_cover_exact skips its search when this lower bound reaches the
    # greedy cover, so a smaller clique would only slow it down
    cliques = [multisets._exclusion_clique(*random_cover(seed)) for seed in range(40)]
    assert cliques == [
        4, 4, 3, 3, 5, 3, 4, 6, 5, 4, 4, 3, 6, 6, 3, 3, 5, 7, 5, 3,
        4, 3, 3, 4, 3, 3, 3, 4, 3, 5, 4, 2, 3, 5, 7, 6, 3, 2, 5, 7,
    ]


@pytest.mark.parametrize("n", range(2, 19))
def test_divisibility_minimum_matches_the_permutation_loop(n):
    sets, primes = divisibility_case(n)
    got, solution = min_suitable(sets, primes)
    want, reference = reference_min_suitable(sets, primes)
    assert got == want
    assert orders(solution) == orders(reference)


@pytest.mark.parametrize(
    "n, digest",
    [
        (19, "cdc5c699dc697baf571ef0a17748c12581c9cecf239e93b400baec7aab552c7c"),
        (20, "cdc5c699dc697baf571ef0a17748c12581c9cecf239e93b400baec7aab552c7c"),
    ],
)
def test_divisibility_orders_at_the_guard_are_pinned(n, digest):
    # the permutation loop took about 8 s here; the digest is of its orders
    sets, primes = divisibility_case(n)
    got, solution = min_suitable(sets, primes)
    text = "\n".join(" ".join(map(str, order)) for order in orders(solution))
    assert got == 3
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_oracles_run_without_numpy():
    # importing numpy alone adds about 14 MB of resident memory, more than
    # half the peak of the oracles benchmark workload
    script = (
        "import sys\n"
        "from divdim import coverfree, divposets, multisets, primes\n"
        "ps = primes.sieve_primes(18).primes_in(0, 18)\n"
        "sets = divposets.squarefree_support_sets(ps, 18)\n"
        "assert multisets.min_suitable(sets, ps)[0] == 3\n"
        "family = coverfree.eff_family(coverfree.build_field(3, 2), 2)\n"
        "assert coverfree.verify_cover_free(family, 4, mode='sampled', samples=500, seed=1)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(divdim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
