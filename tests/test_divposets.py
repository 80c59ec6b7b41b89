import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim import divposets
from divdim.base import DomainError, PreconditionError, RetryBudgetError
from divdim.coverfree import build_field, eff_family
from divdim.divposets import (
    DivPosetSpec,
    boost_params,
    build_div_poset,
    check_interval_suitability,
    coverfree_embedding,
    smooth_nodes,
    smooth_numbers,
    smooth_preorder,
    squarefree_support_sets,
    suitable_size_cap,
)
from divdim.multisets import min_suitable
from divdim.pipeline import random_suitable_interval
from divdim.posets import exact_dimension
from divdim.primes import factorize, sieve_primes
from zone_reference import smooth_nodes as reference_smooth_nodes

TABLE = sieve_primes(10**4)


# --- poset construction -----------------------------------------------------


def test_full_interval_is_whole_range():
    spec = DivPosetSpec(10, prime_set=(2, 3, 5, 7))
    p = build_div_poset(spec, TABLE)
    assert p.elements == tuple(range(1, 11))
    assert p.leq(2, 4)
    assert not p.leq(3, 4)


def test_squarefree_restriction():
    spec = DivPosetSpec(30, prime_set=(2, 3, 5), squarefree_only=True)
    p = build_div_poset(spec, TABLE)
    assert p.elements == (1, 2, 3, 5, 6, 10, 15, 30)


def test_single_prime_gives_chain():
    spec = DivPosetSpec(10, prime_set=(7,))
    p = build_div_poset(spec, TABLE)
    assert p.elements == (1, 7)
    assert exact_dimension(p).dimension == 1


def test_large_ground_warns():
    spec = DivPosetSpec(100, interval=(1, 100))
    with pytest.warns(UserWarning):
        build_div_poset(spec, TABLE)


def test_spec_validation():
    with pytest.raises(DomainError):
        DivPosetSpec(10)
    with pytest.raises(DomainError):
        DivPosetSpec(10, prime_set=(2,), interval=(1, 5))
    with pytest.raises(DomainError):
        DivPosetSpec(10, interval=(5, 5))
    with pytest.raises(DomainError):
        DivPosetSpec(10, prime_set=(4,)).resolve(TABLE)


def test_smooth_numbers_enumeration():
    assert smooth_numbers((2, 3), 20) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    assert smooth_numbers((2, 3), 20, squarefree=True) == [1, 2, 3, 6]
    assert smooth_numbers((7, 11, 13), 30, squarefree=True) == [1, 7, 11, 13]


def test_smooth_numbers_match_a_factorisation_filter():
    n = 2000
    factors = {m: factorize(m) for m in range(1, n + 1)}
    rng = random.Random(5)
    pool = TABLE.primes_in(0, n)
    subsets = [pool, (2,), (1999,)] + [rng.sample(pool, rng.randint(1, 8)) for _ in range(30)]
    for primes in subsets:  # sampled subsets are unordered
        for squarefree in (False, True):
            expected = [
                m
                for m, f in factors.items()
                if set(f) <= set(primes) and (not squarefree or set(f.values()) <= {1})
            ]
            assert smooth_numbers(primes, n, squarefree=squarefree) == expected


WALK_LIMIT = 5000
FACTORS = {m: factorize(m) for m in range(1, WALK_LIMIT + 1)}
# small primes, so that products of several stay within the limit
_WALK_PRIME = st.one_of(
    st.sampled_from(TABLE.primes_in(0, 50)), st.sampled_from(TABLE.primes_in(0, WALK_LIMIT))
)


@given(
    st.lists(_WALK_PRIME, unique=True, max_size=10).map(sorted).map(tuple),
    st.integers(1, WALK_LIMIT),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_smooth_nodes_match_a_scan_of_n(primes, n, squarefree):
    def qualifying(squarefree_only):
        return [
            m
            for m in range(1, n + 1)
            if set(FACTORS[m]) <= set(primes)
            and not (squarefree_only and any(e > 1 for e in FACTORS[m].values()))
        ]

    nodes = list(smooth_nodes(primes, n, squarefree))
    # the same walk order, not only the same nodes
    assert nodes == list(reference_smooth_nodes(primes, n, squarefree))
    expected = qualifying(squarefree)
    # each qualifying m once: the scan's list has no repeats
    assert sorted(m for m, _ in nodes) == expected
    for m, indices in nodes:
        assert indices == tuple(
            primes.index(p) for p, e in sorted(FACTORS[m].items()) for _ in range(e)
        )
    assert list(smooth_preorder(primes, n, squarefree)) == [m for m, _ in nodes]
    assert smooth_numbers(primes, n, squarefree=squarefree) == expected
    assert squarefree_support_sets(primes, n) == [frozenset(FACTORS[m]) for m in qualifying(True)]


@pytest.mark.parametrize(
    "primes,n",
    [
        ((2, 3, 5), 30),  # 6 * 5 == n: the node 6 extends to exactly n
        ((2, 3, 5), 29),  # and here it is a leaf
        ((7,), 100),
        ((), 10),
        ((2, 3), 1),
        ((2, 3), 72),  # 72 = 2^3 * 3^2: prime powers on both primes
    ],
)
@pytest.mark.parametrize("squarefree", [True, False])
def test_smooth_nodes_keep_the_walk_order(primes, n, squarefree):
    assert list(smooth_nodes(primes, n, squarefree)) == list(
        reference_smooth_nodes(primes, n, squarefree)
    )


# --- the squarefree reduction on real divisibility posets -------------------


@pytest.mark.parametrize(
    "prime_set", [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
)
@pytest.mark.parametrize("n", [10, 30])
def test_three_way_dimension_agreement(prime_set, n):
    full = build_div_poset(DivPosetSpec(n, prime_set=prime_set), TABLE)
    square = build_div_poset(
        DivPosetSpec(n, prime_set=prime_set, squarefree_only=True), TABLE
    )
    dim_full = exact_dimension(full).dimension
    dim_square = exact_dimension(square).dimension
    m, _ = min_suitable(squarefree_support_sets(prime_set, n), prime_set)
    assert dim_full == dim_square == m


# --- randomized suitable sets ------------------------------------------------


def test_interval_example_values():
    s = random_suitable_interval(100, 7, 97, 0, TABLE)
    assert len(s.primes) == 21
    assert s.target_size == 19  # ceil(log(2100) log(100) / log 7)
    assert len(s.ranks) <= suitable_size_cap(100, 7)
    assert check_interval_suitability(100, s.primes, s.ranks)


def test_only_trivial_products_qualify_above_sqrt():
    # in (5, 30] the only qualifying squarefree m are 1 and single primes
    assert smooth_numbers(TABLE.primes_in(5, 30), 30, squarefree=True) == [
        1, 7, 11, 13, 17, 19, 23, 29,
    ]
    s = random_suitable_interval(30, 5, 30, 3, TABLE)
    assert check_interval_suitability(30, s.primes, s.ranks)


def test_single_prime_interval_needs_one_permutation():
    s = random_suitable_interval(100, 11, 13, 9, TABLE)
    assert s.primes == (13,)
    assert s.ranks == ((0,),)
    assert check_interval_suitability(100, s.primes, s.ranks)


def test_identity_only_fails_with_witness():
    primes = TABLE.primes_in(7, 97)
    verdict = check_interval_suitability(100, primes, [list(range(len(primes)))])
    assert not verdict
    m, p = verdict.witness
    assert m in primes and p in primes and p < m


def test_domain_checks():
    with pytest.raises(DomainError):
        random_suitable_interval(100, 1.5, 97, 0, TABLE)
    with pytest.raises(DomainError):
        random_suitable_interval(100, 97, 7, 0, TABLE)
    with pytest.raises(DomainError):
        random_suitable_interval(100, 23.1, 28.9, 0, TABLE)  # no prime inside


def test_retry_budget_exhaustion_reports(monkeypatch):
    # with no retries allowed the budget path is the only way out
    monkeypatch.setattr(divposets, "RETRY_BUDGET", 0)
    with pytest.raises(RetryBudgetError):
        random_suitable_interval(100, 7, 97, 0, TABLE)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=12, deadline=None)
def test_size_cap_invariant(seed):
    s = random_suitable_interval(200, 5, 50, seed, TABLE)
    assert len(s.ranks) <= suitable_size_cap(200, 5)
    assert check_interval_suitability(200, s.primes, s.ranks)


def test_draws_are_seed_deterministic():
    a = random_suitable_interval(500, 10, 100, 42, TABLE)
    b = random_suitable_interval(500, 10, 100, 42, TABLE)
    assert a.ranks == b.ranks
    assert a.retry_index == b.retry_index


# --- cover-free embeddings ----------------------------------------------------


def test_embedding_nine_with_nine_primes():
    family = eff_family(build_field(3, 1), 1)
    embedding, verdict = coverfree_embedding(9, 3, 31, family, 2, TABLE)
    assert len(embedding.primes) == 9
    assert verdict
    assert verdict.note == ""  # fully verified, not skipped


def test_embedding_degenerate_interval():
    family = eff_family(build_field(3, 1), 1)
    embedding, verdict = coverfree_embedding(7, 3, 31, family, 2, TABLE)
    assert verdict


def test_embedding_hypothesis_failures_named():
    family = eff_family(build_field(3, 1), 1)
    with pytest.raises(PreconditionError) as err:
        coverfree_embedding(1000, 3, 31, family, 2, TABLE)
    assert "r log a" in str(err.value)
    small = eff_family(build_field(2, 1), 1)
    with pytest.raises(PreconditionError) as err:
        coverfree_embedding(9, 3, 31, small, 1, TABLE)
    assert "primes" in str(err.value)


def test_embedding_refuses_an_empty_interval():
    # as random_suitable_interval does: (a, b] with a >= b holds no prime
    family = eff_family(build_field(3, 1), 1)
    for a, b in ((30, 20), (20, 20)):
        with pytest.raises(DomainError, match="a < b"):
            coverfree_embedding(100, a, b, family, 2, TABLE)


def test_embedding_catches_non_cover_free_family():
    # {0}, {1}, {0,1} is not cover-free; with n = 35 the qualifying
    # composite 35 = 5*7 maps onto the image of the prime 11, which the
    # two-sided check must flag
    from divdim.coverfree import SetFamily

    sets = [frozenset({0}), frozenset({1}), frozenset({0, 1})] + [
        frozenset({i}) for i in range(2, 8)
    ]
    family = SetFamily(9, tuple(sets))
    embedding, verdict = coverfree_embedding(35, 3, 31, family, 4, TABLE)
    assert not verdict
    assert verdict.witness[2] == "order-created"


# --- boost parameters ----------------------------------------------------------


def test_boost_parameters_at_one_million():
    table = sieve_primes(10**6)
    bp = boost_params(10**6, 1.0, 1, table)
    assert (bp.d, bp.q, bp.a, bp.b) == (15, 29, 15, 225)
    assert bp.h == 2
    assert bp.capacity_ok and bp.coverage_ok and bp.feasible
    assert bp.primes_needed == table.prime_count(225) - table.prime_count(15)
    assert not bp.k_within_bound  # outside the guaranteed regime, still sound


def test_boost_k_bound_reported():
    table = sieve_primes(10**6)
    bp = boost_params(10**6, 1.0, 5, table)
    assert not bp.k_within_bound
    assert any("k=5" in note for note in bp.notes)


def test_boost_small_eps_infeasible():
    table = sieve_primes(10**6)
    bp = boost_params(10**6, 0.01, 1, table)
    assert not bp.feasible
    assert not bp.coverage_ok
    assert any("coverage" in note for note in bp.notes)


def test_boost_untabulated_b_is_infeasible_with_note():
    bp = boost_params(10**6, 1.0, 3, sieve_primes(10**6))
    # b = 15**8 is far beyond the table; must not report feasible
    assert bp.b == 15**8
    assert not bp.feasible
    assert any("not tabulated" in note for note in bp.notes)


def test_boost_domain_checks():
    with pytest.raises(DomainError):
        boost_params(10, 1.0, 1, TABLE)
    with pytest.raises(DomainError):
        boost_params(10**4, -1.0, 1, TABLE)
    with pytest.raises(DomainError):
        boost_params(10**4, 1.0, 0, TABLE)


def test_squarefree_support_sets_match_enumeration():
    sets = squarefree_support_sets((2, 3, 5), 30)
    assert len(sets) == 8
    assert frozenset() in sets and frozenset({2, 3, 5}) in sets
