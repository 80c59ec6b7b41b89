"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line after its assertions; run with ``-s`` (or
read the captured output) to see the checklist.
"""

import itertools
import json
import math
import time

import pytest

from divdim.cli import main as cli_main
from divdim.coverfree import (
    build_field,
    eff_family,
    max_cover_free_bruteforce,
    verify_cover_free,
)
from divdim.divposets import (
    DivPosetSpec,
    build_div_poset,
    check_interval_suitability,
    coverfree_embedding,
    squarefree_support_sets,
    suitable_size_cap,
)
from divdim.multisets import min_suitable, random_downset, support_family
from divdim.pipeline import bound_table, random_suitable_interval
from divdim.posets import exact_dimension
from divdim.primes import prime_power_base, sieve_primes


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_downset_oracle_equivalence():
    """dim F = M(s(F)) = dim s(F) over 100 seeded random downsets."""
    start = time.monotonic()
    checked = 0
    for seed in range(100):
        ground = (1, 2, 3, 4)[: 2 + seed % 3 + (seed % 5 == 0)]
        family = random_downset(ground, seed, max_members=20)
        supports = support_family(family)
        dim_family = exact_dimension(family.poset()).dimension
        dim_supports = exact_dimension(supports.poset()).dimension
        minimum, witness = min_suitable(supports)
        assert dim_family == dim_supports == minimum, (
            f"seed {seed}: dim F={dim_family}, dim s(F)={dim_supports}, M={minimum}"
        )
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget is 300s"
    report(
        f"ACCEPTANCE 1 PASS: downset/support/suitable dimensions agree on "
        f"{checked} random downsets in {elapsed:.1f}s"
    )


def test_criterion_2_divisibility_reduction():
    """Squarefree reduction equalities on real divisibility posets."""
    table = sieve_primes(30)
    for r in range(1, 4):
        for prime_set in itertools.combinations((2, 3, 5), r):
            for n in (10, 30):
                full = build_div_poset(DivPosetSpec(n, prime_set=prime_set), table)
                square = build_div_poset(
                    DivPosetSpec(n, prime_set=prime_set, squarefree_only=True), table
                )
                m, _ = min_suitable(squarefree_support_sets(prime_set, n), prime_set)
                assert (
                    exact_dimension(full).dimension
                    == exact_dimension(square).dimension
                    == m
                )
    # the highlighted instance
    poset_30 = build_div_poset(DivPosetSpec(30, prime_set=(2, 3, 5)), table)
    m30, _ = min_suitable(squarefree_support_sets((2, 3, 5), 30), (2, 3, 5))
    assert exact_dimension(poset_30).dimension == m30 == 3
    # dim D_[n] for n <= 20 against the backtracking oracle
    for n in range(2, 21):
        tab = sieve_primes(max(n, 2))
        primes = tab.primes_in(0, n)
        poset = build_div_poset(DivPosetSpec(n, prime_set=primes), tab)
        m, _ = min_suitable(squarefree_support_sets(primes, n), primes)
        assert exact_dimension(poset).dimension == m, f"n={n}"
    report(
        "ACCEPTANCE 2 PASS: dim D_[30],{2,3,5} = M(30,{2,3,5}) = 3 and the "
        "reduction agrees with the backtracking oracle for all n <= 20"
    )


def test_criterion_3_polynomial_families():
    """Construction shape and cover-freeness for the seven (q, h) pairs."""
    start = time.monotonic()
    cases = [(3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (8, 1), (9, 2)]
    for q, h in cases:
        p, k = prime_power_base(q)
        family = eff_family(build_field(p, k), h)
        r = (q - 1) // h
        assert len(family) == q ** (h + 1)
        assert all(len(s) == q for s in family.sets)
        masks = family.masks()
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                assert (a & b).bit_count() <= h
        if q <= 5:
            verdict = verify_cover_free(family, r)
            assert verdict and verdict.note == "exhaustive"
        else:
            verdict = verify_cover_free(
                family, r, mode="sampled", samples=10**6, seed=q * 100 + h
            )
            assert verdict and "samples" in verdict.note
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget is 300s"
    report(
        f"ACCEPTANCE 3 PASS: all 7 polynomial families verified "
        f"(GF(8)/GF(9) included) in {elapsed:.1f}s"
    )


def test_criterion_4_single_cover_maximum():
    """f_1(n) equals the middle binomial coefficient for n in 2..5."""
    for n in (2, 3, 4, 5):
        value, witness = max_cover_free_bruteforce(n, 1)
        assert value == math.comb(n, n // 2), f"f_1({n}) = {value}"
        assert verify_cover_free(witness, 1)
    report("ACCEPTANCE 4 PASS: f_1(n) = C(n, floor(n/2)) for n = 2, 3, 4, 5")


def test_criterion_5_interval_suitable_instance():
    """Randomized suitable set at n = 10^4 over (10, 10^4], seed 0."""
    table = sieve_primes(10**4)
    s = random_suitable_interval(10**4, 10, 10**4, 0, table)
    cap = suitable_size_cap(10**4, 10)
    assert cap == 74
    assert len(s.ranks) <= 74
    assert check_interval_suitability(10**4, s.primes, s.ranks)
    report(
        f"ACCEPTANCE 5 PASS: verified suitable set of size {len(s.ranks)} <= 74 "
        f"for (10, 10^4], retry {s.retry_index}"
    )


def test_criterion_6_cover_free_embedding_instance():
    """Embedding of D_[9],(3,31] into the GF(3) family, both directions."""
    table = sieve_primes(31)
    family = eff_family(build_field(3, 1), 1)
    embedding, verdict = coverfree_embedding(9, 3, 31, family, 2, table)
    assert len(embedding.primes) == 9
    assert verdict.ok and "skipped" not in verdict.note
    report(
        "ACCEPTANCE 6 PASS: prime-to-polynomial-graph map verified as a "
        "two-sided embedding for n=9, (3, 31], r=2"
    )


def test_criterion_7_end_to_end(tmp_path, capsys):
    """certify n=1000 + exhaustive verify + reproducibility + mutation."""
    start = time.monotonic()
    cert_path = tmp_path / "cert.json"
    assert cli_main(
        ["certify", "--n", "1000", "--seed", "0", "--out", str(cert_path)]
    ) == 0
    assert cli_main(["verify", "--cert", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "999000 ordered pairs" in out
    assert "PASS" in out

    again = tmp_path / "cert2.json"
    assert cli_main(
        ["certify", "--n", "1000", "--seed", "0", "--out", str(again)]
    ) == 0
    assert cert_path.read_bytes() == again.read_bytes()

    for kind, field in [("random-suitable", "ranks"), ("cover-free", "sigma_ranks")]:
        data = json.loads(cert_path.read_text())
        mutated = False
        for zone in data["zones"]:
            if zone["kind"] == kind:
                zone[field][2][5] ^= 1  # single-bit mutation of one rank
                mutated = True
                break
        assert mutated
        bad_path = tmp_path / f"mutated-{kind}.json"
        bad_path.write_text(json.dumps(data, sort_keys=True, indent=2))
        capsys.readouterr()
        assert cli_main(["verify", "--cert", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert "witness" in err
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget is 300s"
    report(
        f"ACCEPTANCE 7 PASS: n=1000 certify+verify (999000 pairs), "
        f"byte-identical rebuild, mutation detected, in {elapsed:.1f}s"
    )


def test_criterion_8_bound_values():
    """Bound table at n = 10^6 against independent high-precision values."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    n = 10**6
    ln = mp.log(n)
    lln = mp.log(ln)
    llln = mp.log(lln)
    expected_two_zone = ln * ln / lln
    expected_three_zone = (4 / mp.log(2)) * ln * ln * llln / (lln * lln)
    expected_lower = ln * ln / (16 * lln * lln)
    expected_coarse = 4 * ln * ln / lln

    (row,) = bound_table([n])
    for got, want in [
        (row.upper_two_zone, expected_two_zone),
        (row.upper_three_zone, expected_three_zone),
        (row.lower, expected_lower),
        (row.upper_coarse, expected_coarse),
    ]:
        rel = abs(got - float(want)) / float(want)
        assert rel <= 1e-9, f"relative error {rel}"
    assert abs(row.upper_two_zone - 72.6898) < 5e-3
    assert abs(row.upper_three_zone - 154.2223) < 5e-3
    assert "o(1) dropped" in row.note
    report(
        f"ACCEPTANCE 8 PASS: bound values at n=10^6 "
        f"(two-zone {row.upper_two_zone:.4f}, three-zone {row.upper_three_zone:.4f}) "
        f"match high-precision evaluation to 1e-9"
    )
