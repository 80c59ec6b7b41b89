import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim.base import DomainError, ResourceLimitError, Verdict
from divdim.coverfree import (
    SetFamily,
    build_field,
    eff_family,
    eval_cover_bounds,
    greatest_prime_power,
    max_cover_free_bruteforce,
    verify_cover_free,
)
from divdim.primes import prime_power_base
from divdim.rng import SplitMix64


def field_for(q):
    return build_field(*prime_power_base(q))


# --- fields -----------------------------------------------------------------


def _power(f, a, e):
    """a**e in the field f, by square and multiply."""
    out = 1
    for bit in bin(e)[2:]:
        out = f.mul(out, out)
        if bit == "1":
            out = f.mul(out, a)
    return out


def test_gf2_addition():
    f = build_field(2, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf9_element_orders_divide_eight():
    f = build_field(3, 2)
    assert f.q == 9
    for a in range(1, 9):
        assert _power(f, a, 8) == 1


def test_gf8_inverses():
    f = build_field(2, 3)
    for a in range(1, 8):
        assert sum(f.mul(a, b) == 1 for b in range(8)) == 1


def test_field_axioms_spot_checked():
    for q in (4, 8, 9, 25):
        f = field_for(q)
        triples = [(1, 2, 3), (q - 1, q - 2, 1), (2, 2, q - 1), (3, q - 1, q - 2)]
        for a, b, c in triples:
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_multiplicative_group_cyclic_spot_check():
    f = build_field(3, 2)
    orders = set()
    for a in range(1, 9):
        x, k = a, 1
        while x != 1:
            x = f.mul(x, a)
            k += 1
        orders.add(k)
    assert 8 in orders  # a generator exists


@pytest.mark.parametrize("q", [169, 343, 625])
def test_untabled_field_axioms_and_orders(q):
    f = field_for(q)
    assert f._tables is None  # above the table cut, arithmetic goes digit by digit
    rng = SplitMix64(q).draws_below(q).__next__
    for _ in range(20):
        a, b, c = rng(), rng(), rng()
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.add(a, 0) == f.mul(a, 1) == a
    for _ in range(10):
        a = rng() or 1
        assert _power(f, a, q - 1) == 1


def test_modulus_is_irreducible_by_brute_force():
    # independent check: no product of two lower-degree monic polynomials
    # over GF(p) reproduces the modulus
    for p, k in [(2, 3), (3, 2), (2, 4)]:
        f = build_field(p, k)

        def polymul(u, v):
            out = [0] * (len(u) + len(v) - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    out[i + j] = (out[i + j] + x * y) % p
            return tuple(out)

        monics = {
            deg: [
                tuple(c) + (1,)
                for c in itertools.product(range(p), repeat=deg)
            ]
            for deg in range(1, k)
        }
        for d1 in range(1, k // 2 + 1):
            for u in monics[d1]:
                for v in monics[k - d1]:
                    assert polymul(u, v) != f.modulus


def test_build_field_rejects_bad_inputs():
    for p in (1, 4):
        with pytest.raises(DomainError, match=f"{p} is not prime"):
            build_field(p, 1)
    with pytest.raises(DomainError):
        build_field(2, 5)
    with pytest.raises(DomainError):
        build_field(257, 2)


# --- polynomial-graph families ------------------------------------------------


def test_eff_q2_h1_explicit():
    fam = eff_family(build_field(2, 1), 1)
    assert fam.ground_size == 4
    assert set(fam.sets) == {
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({0, 3}),
        frozenset({1, 2}),
    }
    assert verify_cover_free(fam, 1)


@pytest.mark.parametrize("q,h", [(3, 1), (4, 1), (5, 2)])
def test_eff_structure(q, h):
    fam = eff_family(field_for(q), h)
    assert len(fam) == q ** (h + 1)
    assert all(len(s) == q for s in fam.sets)
    for a, b in itertools.combinations(fam.sets, 2):
        assert len(a & b) <= h
    assert verify_cover_free(fam, (q - 1) // h)


def test_eff_fails_at_r_equal_q():
    for q in (2, 3, 4, 5):
        fam = eff_family(field_for(q), 1)
        verdict = verify_cover_free(fam, q)
        assert not verdict
        i, combo = verdict.witness
        union = frozenset().union(*(fam.sets[j] for j in combo))
        assert fam.sets[i] <= union


def test_eff_prefix_count():
    fam = eff_family(build_field(3, 1), 1, count=4)
    full = eff_family(build_field(3, 1), 1)
    assert fam.sets == full.sets[:4]


def test_eff_untabled_field_members():
    fam = eff_family(field_for(169), 1, count=40)
    assert len(fam) == 40
    assert all(len(s) == 169 for s in fam.sets)
    for a, b in itertools.combinations(fam.sets, 2):
        assert len(a & b) <= 1


def test_eff_count_guards():
    f = field_for(4)
    with pytest.raises(DomainError, match="count must be between 1 and 16"):
        eff_family(f, 1, count=4**2 + 1)
    with pytest.raises(ResourceLimitError):
        eff_family(field_for(27), 4)  # 27^5 members


def test_eff_degree_bounds():
    f = build_field(3, 1)
    with pytest.raises(DomainError):
        eff_family(f, 0)
    with pytest.raises(DomainError):
        eff_family(f, 3)
    eff_family(f, 2)  # h = q-1 allowed


# --- verify_cover_free ---------------------------------------------------------


def test_trivial_antichain_is_one_cover_free():
    fam = SetFamily(3, (frozenset({0}), frozenset({1})))
    assert verify_cover_free(fam, 1)


def test_union_cover_found_with_witness():
    fam = SetFamily(3, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    verdict = verify_cover_free(fam, 2)
    assert not verdict
    i, combo = verdict.witness
    assert len(combo) == 2 and i not in combo
    assert fam.sets[i] <= frozenset().union(*(fam.sets[j] for j in combo))


def test_exhaustive_guard():
    sets = tuple(frozenset({i}) for i in range(40))
    fam = SetFamily(40, sets)
    with pytest.raises(ResourceLimitError):
        verify_cover_free(fam, 15)
    verdict = verify_cover_free(fam, 15, mode="sampled", samples=100)
    assert verdict
    assert "sample" in verdict.note


def test_sampled_mode_is_labelled_and_seeded():
    fam = eff_family(field_for(4), 1)
    a = verify_cover_free(fam, 3, mode="sampled", samples=500, seed=3)
    b = verify_cover_free(fam, 3, mode="sampled", samples=500, seed=3)
    assert a == b
    assert "500 samples" in a.note


def test_sampled_mode_on_at_most_r_members_is_vacuous():
    fam = SetFamily(3, (frozenset({0}), frozenset({0, 1})))
    verdict = verify_cover_free(fam, 2, mode="sampled", samples=10)
    assert verdict
    assert verdict.note == "sampled; family of 2 members is vacuously 2-cover-free"


def test_sampled_mode_finds_planted_cover():
    fam = SetFamily(4, (frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset({2})))
    verdict = verify_cover_free(fam, 2, mode="sampled", samples=2000, seed=0)
    assert not verdict
    assert verdict.note == "sampled"


def scalar_sampled_verdict(family, r, samples, seed):
    """Sampled mode as it was written with one ``randbelow`` per draw."""
    masks = family.masks()
    m = len(masks)
    rng = SplitMix64(seed)
    for _ in range(samples):
        i = rng.randbelow(m)
        chosen = []
        union = 0
        while len(chosen) < r:
            j = rng.randbelow(m)
            if j != i and j not in chosen:
                chosen.append(j)
                union |= masks[j]
        if masks[i] & ~union == 0:
            return Verdict(False, (i, tuple(chosen)), note="sampled")
    return Verdict(True, note=f"sampled: no counterexample found in {samples} samples")


@pytest.mark.parametrize(
    "family, r, samples, seeds, ok",
    [
        (eff_family(field_for(9), 2), 4, 20_000, (0, 1, 2**64 - 1), True),
        (eff_family(field_for(8), 1), 7, 20_000, (0, 1, 2**64 - 1), True),
        (eff_family(field_for(5), 1), 6, 20_000, range(8), False),
        # fails only after 600 to 4000 samples, several blocks into the stream
        (eff_family(field_for(9), 1), 9, 20_000, range(4), False),
        (
            SetFamily(4, (frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset({2}))),
            2,
            2000,
            range(8),
            False,
        ),
    ],
    ids=["gf9-h2-r4", "gf8-h1-r7", "gf5-h1-r6", "gf9-h1-r9", "planted"],
)
def test_sampled_verdicts_match_the_scalar_loop(family, r, samples, seeds, ok):
    for seed in seeds:
        want = scalar_sampled_verdict(family, r, samples, seed)
        assert want.ok is ok
        assert verify_cover_free(family, r, mode="sampled", samples=samples, seed=seed) == want


def test_family_validation():
    with pytest.raises(DomainError):
        SetFamily(2, (frozenset({0}), frozenset({0})))
    with pytest.raises(DomainError):
        SetFamily(2, (frozenset({5}),))


def test_family_json_round_trip():
    fam = eff_family(field_for(3), 1)
    again = SetFamily.from_json_dict(fam.to_json_dict())
    assert again.sets == fam.sets
    assert again.ground_size == fam.ground_size


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(ground_size=9.5),  # read by int() it would be 9
        lambda d: d.update(r="2"),
        lambda d: d["sets"][0].__setitem__(0, "a"),
        lambda d: d["sets"][0].__setitem__(0, [1]),
        lambda d: d.update(sets=5),
        lambda d: d.pop("ground_size"),
    ],
)
def test_malformed_family_json_rejected(edit):
    data = eff_family(field_for(3), 1).to_json_dict()
    edit(data)
    with pytest.raises(DomainError):
        SetFamily.from_json_dict(data)
    with pytest.raises(DomainError):
        SetFamily.from_json_dict([data])


# --- exact f_r(n) ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_max_antichain_matches_middle_binomial(n):
    value, witness = max_cover_free_bruteforce(n, 1)
    assert value == math.comb(n, n // 2)
    assert verify_cover_free(witness, 1)
    assert len(witness) == value


def test_vacuous_regime():
    value, witness = max_cover_free_bruteforce(3, 3)
    assert value == 3
    assert verify_cover_free(witness, 3)


def test_f2_small_values():
    # r >= 2 forces an antichain with no 2-unions covering a member
    value, witness = max_cover_free_bruteforce(3, 2)
    assert value == 3
    assert verify_cover_free(witness, 2)
    value, witness = max_cover_free_bruteforce(4, 2)
    assert verify_cover_free(witness, 2)
    assert value >= 4


def test_bruteforce_guard():
    with pytest.raises(ResourceLimitError):
        max_cover_free_bruteforce(6, 1)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_bruteforce_witness_always_verifies(n, r):
    value, witness = max_cover_free_bruteforce(n, r)
    assert len(witness) == value
    assert value >= min(n, r)
    assert verify_cover_free(witness, r)


# --- bound evaluation ------------------------------------------------------------


def test_fixed_r_lower_bound_value():
    b = eval_cover_bounds(100, r=1)
    assert b.fixed_r_lower == pytest.approx(4.909093465e9, rel=1e-6)
    assert b.fixed_r_upper == pytest.approx(math.exp(100), rel=1e-9)


def test_sqrt_regime_exponents_at_eps_one():
    b = eval_cover_bounds(100, eps=1.0)
    assert b.sqrt_lower_exponent == 1.0
    assert b.sqrt_upper_exponent == 2
    assert b.sqrt_lower == pytest.approx(100.0)
    assert b.sqrt_upper == pytest.approx(10000.0)


def test_uniform_bounds():
    b = eval_cover_bounds(9, r=2, k=3)
    assert b.uniform_upper == pytest.approx(18.0)
    assert b.uniform_lower == pytest.approx(4.0)


def test_overflow_flagged_as_infinity():
    b = eval_cover_bounds(10**9, r=1)
    assert b.fixed_r_lower == math.inf
    assert "fixed_r_lower" in b.overflowed
    b = eval_cover_bounds(10, eps=0.001)
    assert b.sqrt_lower == b.sqrt_upper == math.inf
    assert set(b.overflowed) == {"sqrt_lower", "sqrt_upper"}


def test_bounds_argument_validation():
    with pytest.raises(DomainError):
        eval_cover_bounds(10)
    with pytest.raises(DomainError):
        eval_cover_bounds(10, r=1, eps=0.5)
    with pytest.raises(DomainError):
        eval_cover_bounds(10, r=2, k=20)


def test_note_labels_asymptotics():
    assert "o(1) dropped" in eval_cover_bounds(10, r=1).note


# --- greatest prime power ---------------------------------------------------------


def test_greatest_prime_power():
    assert greatest_prime_power(30) == 29
    assert greatest_prime_power(32) == 32
    assert greatest_prime_power(27.5) == 27
    assert greatest_prime_power(2) == 2
    with pytest.raises(DomainError):
        greatest_prime_power(1.5)


def _naive_max_cover_free(n, r):
    """Independent oracle: test every family of subsets of [n]."""
    subsets = [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    ]
    best = 0
    for bits in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if bits >> i & 1]
        ok = True
        for f0 in fam:
            others = [f for f in fam if f is not f0]
            for combo in itertools.combinations(others, r):
                if f0 <= frozenset().union(*combo):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(fam))
    return best


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bruteforce_matches_naive_family_enumeration(r):
    got, _ = max_cover_free_bruteforce(3, r)
    assert got == _naive_max_cover_free(3, r)
