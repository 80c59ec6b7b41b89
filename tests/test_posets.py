import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim.base import DomainError, ResourceLimitError
from divdim.posets import (
    FinitePoset,
    _conflict_clique,
    _maximal_pairs,
    LinearExtension,
    exact_dimension,
    is_realiser,
    poset_from_edges,
    product_order,
    verify_embedding,
)


def chain(k):
    return FinitePoset(list(range(k)), [(i, i + 1) for i in range(k - 1)])


def antichain(labels):
    return FinitePoset(labels)


def divisibility(n):
    return FinitePoset.from_predicate(list(range(1, n + 1)), lambda a, b: b % a == 0)


def standard_example(k):
    elems = [("a", i) for i in range(k)] + [("b", j) for j in range(k)]
    pairs = [(("a", i), ("b", j)) for i in range(k) for j in range(k) if i != j]
    return FinitePoset(elems, pairs)


@st.composite
def random_posets(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = list(range(n))
    perm = draw(st.permutations(labels))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((perm[i], perm[j]))
    return FinitePoset(labels, pairs)


# --- construction ---------------------------------------------------------


def test_closure_is_transitive():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")


def test_antisymmetry_violation_rejected():
    with pytest.raises(DomainError):
        FinitePoset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(DomainError):
        FinitePoset("abc", [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize(
    "build,first",
    [
        (lambda: FinitePoset("abcd", [("c", "d"), ("d", "c"), ("a", "b"), ("b", "a")]), "'a' and 'b'"),
        (lambda: FinitePoset("abcde", [("e", "b"), ("b", "e"), ("d", "c"), ("c", "d")]), "'b' and 'e'"),
        (lambda: FinitePoset.from_predicate(range(4), lambda a, b: a % 2 == b % 2), "0 and 2"),
        (lambda: FinitePoset.from_predicate(range(6), lambda a, b: a % 2 == b % 2), "0 and 2"),
    ],
)
def test_antisymmetry_violation_names_the_first_pair(build, first):
    # the first element in element order with a cycle partner, and its first partner
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == f"antisymmetry violated between {first}"


def test_duplicate_elements_rejected():
    with pytest.raises(DomainError):
        FinitePoset("aa")


def test_unknown_relation_element_rejected():
    with pytest.raises(DomainError):
        FinitePoset("ab", [("a", "z")])


# --- is_realiser ----------------------------------------------------------


def test_chain_realised_by_itself():
    p = chain(2)
    assert is_realiser(p, [[0, 1]])


def test_antichain_single_extension_fails_with_witness():
    p = antichain("ab")
    verdict = is_realiser(p, [["a", "b"]])
    assert not verdict
    assert verdict.witness == ("uncovered", ("b", "a"))


def test_divisibility_four_example():
    p = divisibility(4)
    assert is_realiser(p, [[1, 2, 4, 3], [1, 3, 2, 4]])


def test_non_extension_detected():
    p = chain(3)
    verdict = is_realiser(p, [[2, 1, 0]])
    assert not verdict
    assert verdict.witness[0] == "not-an-extension"


def test_wrong_ground_is_domain_error():
    p = chain(3)
    with pytest.raises(DomainError):
        is_realiser(p, [[0, 1, 5]])
    with pytest.raises(DomainError):
        is_realiser(p, [[0, 1]])
    with pytest.raises(DomainError):
        is_realiser(p, [])


def test_accepts_linear_extension_objects():
    p = chain(2)
    assert is_realiser(p, [LinearExtension((0, 1))])


# --- exact_dimension ------------------------------------------------------


def test_chain_dimension_one():
    result = exact_dimension(chain(3))
    assert result.dimension == 1
    assert is_realiser(chain(3), result.realiser.extensions)


def test_singleton_and_empty_have_dimension_one():
    assert exact_dimension(FinitePoset(["x"])).dimension == 1
    assert exact_dimension(FinitePoset([])).dimension == 1


def test_divisibility_four_dimension_two():
    result = exact_dimension(divisibility(4))
    assert result.dimension == 2


def test_standard_example_dimension_three():
    p = standard_example(3)
    result = exact_dimension(p)
    assert result.dimension == 3
    assert is_realiser(p, result.realiser.extensions)


def test_boolean_lattice_dimension_matches_ground():
    for k in (2, 3):
        elems = list(range(1 << k))
        p = FinitePoset.from_predicate(elems, lambda a, b: a & ~b == 0)
        assert exact_dimension(p).dimension == k


def test_exceeds_max_d():
    result = exact_dimension(standard_example(3), max_d=2)
    assert result.exceeded
    assert result.dimension is None


def test_size_guard():
    with pytest.raises(ResourceLimitError):
        exact_dimension(antichain(list(range(30))))


@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_exact_dimension_witness_is_realiser(p):
    result = exact_dimension(p)
    assert result.dimension is not None
    assert is_realiser(p, result.realiser.extensions)


# --- verify_embedding -----------------------------------------------------


def test_identity_embedding():
    p = divisibility(6)
    assert verify_embedding(p, p, {e: e for e in p.elements})


def test_constant_map_creates_order():
    p = antichain("ab")
    q = antichain("z")
    verdict = verify_embedding(p, q, {"a": "z", "b": "z"})
    assert not verdict
    assert verdict.witness[2] == "order-created"


def test_order_lost_detected():
    p = chain(2)
    q = antichain([0, 1])
    verdict = verify_embedding(p, q, {0: 0, 1: 1})
    assert not verdict
    assert verdict.witness == (0, 1, "order-lost")


def test_non_total_map_rejected():
    p = chain(2)
    with pytest.raises(DomainError):
        verify_embedding(p, p, {0: 0})
    with pytest.raises(DomainError):
        verify_embedding(p, p, {0: 0, 1: 99})


@given(random_posets(max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_monotonicity_under_induced_suborder(q, rnd):
    keep = [e for e in q.elements if rnd.random() < 0.6] or [q.elements[0]]
    p = FinitePoset.from_predicate(keep, q.leq)
    assert verify_embedding(p, q, {e: e for e in keep})
    assert exact_dimension(p).dimension <= exact_dimension(q).dimension


# --- product_order --------------------------------------------------------


def test_product_of_two_chains_is_diamond():
    p = product_order([chain(2), chain(2)])
    assert len(p) == 4
    assert exact_dimension(p).dimension == 2


def test_product_of_one_poset_is_isomorphic():
    p = divisibility(4)
    q = product_order([p])
    assert verify_embedding(p, q, {e: (e,) for e in p.elements})


def test_product_chain_antichain():
    p = product_order([chain(2), antichain("ab")])
    assert len(p) == 4
    assert exact_dimension(p).dimension == 2


def test_product_size_guard():
    with pytest.raises(ResourceLimitError):
        product_order([antichain(list(range(30)))] * 3)


def test_product_of_nothing_rejected():
    with pytest.raises(DomainError):
        product_order([])


@given(random_posets(max_size=4), random_posets(max_size=4))
@settings(max_examples=30, deadline=None)
def test_dimension_subadditive_on_products(p, q):
    prod = product_order([p, q])
    if len(prod) > 16:
        return
    dp = exact_dimension(p).dimension
    dq = exact_dimension(q).dimension
    assert exact_dimension(prod).dimension <= dp + dq


# --- edge-list ingestion --------------------------------------------------


def test_poset_from_edges():
    p = poset_from_edges("a < b\nb < c\n\n# comment\n")
    assert p.leq("a", "c")
    assert len(p) == 3


def test_poset_from_edges_bad_line():
    with pytest.raises(DomainError):
        poset_from_edges("a b\n")
    with pytest.raises(DomainError):
        poset_from_edges("")


def test_realiser_and_embedding_views_agree_on_small_instances():
    # a realiser of size d gives a coordinatewise embedding into d ranks
    for p in (divisibility(6), standard_example(2), chain(4)):
        result = exact_dimension(p)
        positions = [
            {e: i for i, e in enumerate(ext.order)}
            for ext in result.realiser.extensions
        ]
        vectors = {e: tuple(pos[e] for pos in positions) for e in p.elements}
        target = FinitePoset.from_predicate(
            sorted(set(vectors.values())),
            lambda u, v: all(x <= y for x, y in zip(u, v)),
        )
        assert verify_embedding(p, target, vectors)


# --- independent brute-force oracle for the dimension search ----------------


def _definitional_dimension(p, max_d=4):
    """Dimension by exhaustive enumeration of extension tuples.

    Shares nothing with the backtracking search: linear extensions are
    filtered permutations, realisers are checked straight from the
    definition.
    """
    import itertools

    elems = p.elements
    extensions = [
        perm
        for perm in itertools.permutations(elems)
        if all(
            perm.index(a) <= perm.index(b)
            for a in elems
            for b in elems
            if p.leq(a, b)
        )
    ]
    noncomparable = [
        (a, b)
        for a in elems
        for b in elems
        if a != b and not p.leq(b, a)
    ]
    for d in range(1, max_d + 1):
        for combo in itertools.combinations(extensions, d):
            if all(
                any(perm.index(a) < perm.index(b) for perm in combo)
                for a, b in noncomparable
            ):
                return d
    return None


@given(random_posets(max_size=5))
@settings(max_examples=40, deadline=None)
def test_backtracking_matches_definitional_brute_force(p):
    expected = _definitional_dimension(p)
    assert exact_dimension(p).dimension == expected


def test_definitional_oracle_on_known_posets():
    assert _definitional_dimension(divisibility(4)) == 2
    assert _definitional_dimension(chain(4)) == 1
    assert _definitional_dimension(antichain("abc")) == 2


def test_conflict_clique_on_divisibility_is_pinned():
    # exact_dimension starts its search at this lower bound, so a smaller
    # clique would only slow the search and leave every result unchanged
    cliques = []
    for n in range(2, 21):
        up = divisibility(n)._up
        incomparable = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and not up[i] >> j & 1 and not up[j] >> i & 1
        ]
        cliques.append(_conflict_clique(up, _maximal_pairs(up, incomparable)))
    assert cliques == [0] + [2] * 12 + [3] * 6
