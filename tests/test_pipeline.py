import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import divdim
from divdim import pipeline
from divdim.base import DomainError
from divdim.coverfree import build_field, eff_family, verify_cover_free
from divdim.divposets import DivPosetSpec, build_div_poset, coverfree_embedding
from divdim.multisets import random_downset
from divdim.pipeline import (
    RealiserCertificate,
    _verify_exhaustive,
    bound_table,
    build_certificate,
    certificate_zones,
    plan,
    random_suitable_interval,
    verify_certificate,
)
from divdim.posets import exact_dimension
from divdim.primes import sieve_primes

TABLE = sieve_primes(2000)


def cert_for(n, seed=0, eps=0.5):
    table = sieve_primes(max(n, 2))
    return build_certificate(plan(n, eps, table), seed, table), table


# --- planning -----------------------------------------------------------------


def test_plan_1000_small_zone():
    pl = plan(1000, 0.5, TABLE)
    assert pl.zones[0].kind == "chains"
    assert pl.zones[0].primes == (2, 3, 5, 7, 11, 13, 17, 19, 23)
    assert pl.interval_count == 2


def test_plan_small_limit_value():
    pl = plan(1000, 0.5, TABLE)
    ln = math.log(1000)
    assert pl.small_limit == pytest.approx(ln * ln / math.log(ln))


def test_plan_16_collapses_middle():
    pl = plan(16, 0.5, sieve_primes(16))
    kinds = [z.kind for z in pl.zones]
    assert kinds[0] == "chains"
    assert "cover-free" not in kinds  # B(16) < A(16), middle is empty


def test_plan_below_16_is_all_chains():
    pl = plan(12, 0.5, sieve_primes(12))
    assert [z.kind for z in pl.zones] == ["chains"]
    assert pl.zones[0].primes == (2, 3, 5, 7, 11)


def test_plan_n_equal_one_placeholder():
    pl = plan(1, 0.5, sieve_primes(2))
    assert pl.zones[0].primes == (2,)


@pytest.mark.parametrize("n", [16, 30, 100, 500, 1000, 1999])
def test_plan_partitions_primes(n):
    table = sieve_primes(n)
    pl = plan(n, 0.5, table)
    pl.validate_partition(table)
    seen = [p for z in pl.zones for p in z.primes]
    assert sorted(seen) == list(table.primes_in(0, n))


def test_plan_strategy_matches_boost_feasibility():
    pl = plan(1000, 0.5, TABLE)
    for z in pl.zones:
        if z.boost is not None:
            assert (z.kind == "cover-free") == z.boost.feasible


def test_plan_widens_when_the_intervals_stop_short_of_the_middle_limit():
    # d^(2^K) = 49 falls short of B = 49.10..., and (49, 49.10] holds no prime
    n = 1332
    table = sieve_primes(n)
    pl = plan(n, 0.01, table)
    assert pl.interval_count == 1
    assert 49 < pl.middle_limit < 50
    zones = [(z.kind, len(z.primes)) for z in pl.zones]
    assert zones == [("chains", 9), ("random-suitable", 6), ("random-suitable", 202)]
    assert pl.zones[1].lo == pl.small_limit and pl.zones[1].hi == 49
    assert pl.zones[2].lo == pl.middle_limit and pl.zones[2].hi == n
    assert pl.zones[1].primes == (29, 31, 37, 41, 43, 47)
    assert pl.zones[2].primes[0] == 53
    cert = build_certificate(pl, 0, table)
    assert cert.dimension == 53
    report = verify_certificate(cert, table)
    assert report.ok
    assert report.pairs_checked == n * n - n


def test_plan_widens_with_a_block_that_holds_a_prime():
    # d^(2^K) = 49 falls short of B = 53.13..., and (49, 53.13...] holds 53
    n = 1539
    table = sieve_primes(n)
    pl = plan(n, 0.001, table)
    assert pl.interval_count == 1
    assert 53 < pl.middle_limit < 54
    zones = [(z.kind, len(z.primes)) for z in pl.zones]
    assert zones == [
        ("chains", 9), ("random-suitable", 6), ("random-suitable", 1), ("random-suitable", 226),
    ]
    widened = pl.zones[2]
    assert (widened.lo, widened.hi) == (49.0, pl.middle_limit)
    assert widened.primes == (53,) and widened.boost is None
    assert pl.zones[3].lo == pl.middle_limit
    cert = build_certificate(pl, 0, table)
    assert cert.dimension == 55
    report = verify_certificate(cert, table)
    assert report.ok and report.pairs_checked == n * n - n
    assert verify_certificate(cert, table, mode="sampled", samples=3000).ok


def test_plan_rejects_bad_arguments():
    with pytest.raises(DomainError):
        plan(0, 0.5, TABLE)
    with pytest.raises(DomainError):
        plan(100, 1.5, TABLE)
    with pytest.raises(DomainError):
        plan(5000, 0.5, TABLE)  # table too small


# --- building -----------------------------------------------------------------


def test_certificate_n2_single_chain():
    cert, _ = cert_for(2)
    assert cert.dimension == 1
    assert len(cert.zones) == 1
    assert cert.zones[0].kind == "chains"


def test_certificate_n1000_exercises_both_strategies():
    cert, _ = cert_for(1000)
    kinds = {z.kind for z in cert.zones}
    assert kinds == {"chains", "cover-free", "random-suitable"}
    assert cert.dimension == sum(z.dimension for z in cert.zones)


def test_certificate_coordinates_count_matches_dimension():
    cert, _ = cert_for(300)
    assert sum(len(rows) for _, rows in certificate_zones(cert)) == cert.dimension


def test_build_is_deterministic():
    a, _ = cert_for(400, seed=7)
    b, _ = cert_for(400, seed=7)
    assert a.dumps() == b.dumps()


def test_different_seeds_differ():
    a, _ = cert_for(400, seed=1)
    b, _ = cert_for(400, seed=2)
    assert a.dumps() != b.dumps()


def test_json_round_trip():
    cert, _ = cert_for(150)
    again = RealiserCertificate.loads(cert.dumps())
    assert again == cert


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(schema_version=2), "unsupported schema_version 2"),
        (lambda d: d.update(n=0), "n must be a positive integer, got 0"),
        (lambda d: d["zones"][0].update(kind="spiral"), "unknown zone kind 'spiral'"),
    ],
    ids=["schema-version-2", "n-0", "spiral-zone"],
)
def test_reader_refuses_an_unknown_version_n_below_1_or_zone_kind(edit, message):
    cert, _ = cert_for(60)
    data = json.loads(cert.dumps())
    edit(data)
    with pytest.raises(DomainError, match=message):
        RealiserCertificate.from_json_dict(data)


def test_build_refuses_a_prime_table_below_n():
    pl = plan(60, 0.5, sieve_primes(60))
    with pytest.raises(DomainError, match="prime table does not cover n"):
        build_certificate(pl, 0, sieve_primes(50))


def test_record_keys_are_the_format_and_the_fields():
    cert, _ = cert_for(150)
    names = {f.name for f in dataclasses.fields(RealiserCertificate)}
    assert cert.to_json_dict().keys() == {"format"} | names


def test_malformed_certificate_rejected():
    with pytest.raises(DomainError):
        RealiserCertificate.loads("{}")
    with pytest.raises(DomainError):
        RealiserCertificate.loads("not json")


# --- verification ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 16, 60, 200])
def test_build_verify_roundtrip(n):
    cert, table = cert_for(n)
    report = verify_certificate(cert, table)
    assert report.ok
    assert report.pairs_checked == n * n - n


def test_verify_sampled_mode():
    cert, table = cert_for(300)
    report = verify_certificate(
        cert, table, mode="sampled", samples=5000, sample_seed=11
    )
    assert report.ok
    assert report.pairs_checked == 5000
    assert any("sampled" in note for note in report.notes)


def test_exhaustive_mode_has_no_size_guard():
    # n = 4000 with the zones of n = 60 is checked, not refused: 61, the
    # smallest prime in no zone, lies at or below 1 in every coordinate,
    # and the zones' rows are not suitable at n = 4000 either
    cert, table = cert_for(60)
    big = RealiserCertificate(
        n=4000,
        eps=cert.eps,
        seed=cert.seed,
        max_exponent=11,
        dimension=cert.dimension,
        zones=cert.zones,
    )
    report = verify_certificate(big, sieve_primes(4000))
    assert not report.ok and report.pairs_checked == 4000 * 3999
    assert report.pair_failures[0] == (61, 1, "coordinates-leq-but-not-divisible")


def test_sampled_verify_of_n_1_imports_no_numpy(tmp_path):
    # n = 1 has no ordered pair to draw, and importing numpy would take
    # most of a fresh process's time
    script = (
        "import sys; from divdim.cli import main; "
        "main(['certify', '--n', '1', '--out', sys.argv[1]]); "
        "assert main(['verify', '--cert', sys.argv[1], '--sampled', '5']) == 0; "
        "assert 'numpy' not in sys.modules"
    )
    src = str(Path(divdim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cert.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS: sampled verification, 0 ordered pairs" in done.stdout


@pytest.fixture(scope="module")
def cert_2000_json():
    cert, _ = cert_for(2000)
    return cert.dumps()


def test_zone_primes_out_of_order_are_checked_in_ascending_order(cert_2000_json):
    # reversing the random-suitable zone's primes with each rank row keeps
    # every prime's ranks, so the pair check gives what it gives on the
    # zone as recorded: all pairs pass with the built rows, and one row
    # ranking the primes in ascending order leaves (67, 71) uncovered
    # first, where the same row read against the reversed primes would
    # leave (71, 67)
    built = json.loads(cert_2000_json)["zones"][2]["ranks"]
    assert len(built[0]) == 285
    for ranks, expected in ((built, []), ([list(range(285))], [(67, 71)])):
        data = json.loads(cert_2000_json)
        zone = data["zones"][2]
        zone["ranks"] = ranks
        as_recorded = RealiserCertificate.from_json_dict(data)
        zone["primes"].reverse()
        zone["ranks"] = [row[::-1] for row in ranks]
        reordered = RealiserCertificate.from_json_dict(data)
        failures = [(a, b, "coordinates-leq-but-not-divisible") for a, b in expected]
        assert _verify_exhaustive(as_recorded, TABLE) == (2000 * 1999, failures)
        assert _verify_exhaustive(reordered, TABLE) == (2000 * 1999, failures)
    data = json.loads(cert_2000_json)
    zone = data["zones"][2]
    zone["primes"].reverse()
    zone["ranks"] = [row[::-1] for row in zone["ranks"]]
    report = verify_certificate(RealiserCertificate.from_json_dict(data), TABLE)
    assert report.pair_failures == ()
    assert report.integrity_failures == (
        ("zone 2 (random-suitable)", "primes differs from its derivation"),
    )


@pytest.mark.parametrize(
    "edit, expected",
    [
        (
            lambda chains: chains.append(67),
            [
                ("zone 0 (chains)", "67 is recorded more than once"),
                ("zone 2 (random-suitable)", "67 is recorded more than once"),
            ],
        ),
        (
            lambda chains: chains.__setitem__(0, 4),
            [
                (2, 1, "coordinates-leq-but-not-divisible"),
                ("zone 0 (chains)", "4 is not a prime up to n=2000"),
            ],
        ),
    ],
    ids=["duplicate-67", "composite-4"],
)
def test_zone_recording_a_prime_twice_or_a_non_prime_is_named(cert_2000_json, edit, expected):
    data = json.loads(cert_2000_json)
    edit(data["zones"][0]["primes"])
    edited = RealiserCertificate.from_json_dict(data)
    assert _verify_exhaustive(edited, TABLE) == (2000 * 1999, expected)


def test_rank_mutation_caught():
    cert, table = cert_for(200)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            zone["ranks"][0][0] ^= 1
            break
    mutated = RealiserCertificate.from_json_dict(data)
    report = verify_certificate(mutated, table)
    assert not report.ok
    assert report.integrity_failures


def test_sigma_mutation_caught():
    cert, table = cert_for(1000)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "cover-free":
            zone["sigma_ranks"][5][1] ^= 1
            break
    mutated = RealiserCertificate.from_json_dict(data)
    report = verify_certificate(mutated, table)
    assert not report.ok
    assert report.integrity_failures


def test_functional_failure_without_integrity_check():
    # corrupt a rank into a non-permutation and skip integrity: the pair
    # phase itself must find a witness
    cert, table = cert_for(100)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            row = zone["ranks"][0]
            row[0], row[-1] = row[-1], row[0]
            for other in zone["ranks"][1:]:
                other[:] = list(row)
            break
    mutated = RealiserCertificate.from_json_dict(data)
    _, failures = _verify_exhaustive(mutated, table)
    ((a, b, kind),) = failures
    assert kind == "coordinates-leq-but-not-divisible" and b % a != 0


def test_seed_mismatch_is_integrity_failure():
    cert, table = cert_for(200)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            zone["zone_seed"] += 1
            break
    mutated = RealiserCertificate.from_json_dict(data)
    report = verify_certificate(mutated, table)
    assert not report.ok
    assert any("seed" in str(w) for w in report.integrity_failures)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seeded_entry_point_rejects_a_seed_outside_64_bits(monkeypatch, seed):
    # SplitMix64 masks its seed to 64 bits, so 2^64 would replay seed 0's draws
    cert, table = cert_for(60)
    family = eff_family(build_field(2, 2), 1)
    calls = [
        lambda: build_certificate(plan(60, 0.5, table), seed, table),
        lambda: verify_certificate(cert, mode="sampled", samples=10, sample_seed=seed),
        lambda: random_suitable_interval(1000, 10, 1000, seed, TABLE),
        lambda: random_downset((0, 1), seed),
        lambda: verify_cover_free(family, 3, mode="sampled", samples=10, seed=seed),
        lambda: verify_certificate(cert, sample_seed=seed),
        lambda: verify_cover_free(family, 3, seed=seed),
    ]
    monkeypatch.setattr(pipeline, "sieve_primes", None)  # verify checks before it sieves
    for call in calls:
        with pytest.raises(DomainError, match=rf"^seed {seed} is outside 0\.\.2\^64-1$"):
            call()


def test_seeds_at_either_end_of_the_64_bit_range_are_accepted():
    _, table = cert_for(60)
    for seed in (0, 2**64 - 1):
        build_certificate(plan(60, 0.5, table), seed, table)
        random_downset((0, 1), seed)


def test_certificate_dimension_dominates_exact_dimension():
    for n in (6, 12, 16, 20):
        cert, _ = cert_for(n)
        poset = build_div_poset(
            DivPosetSpec(n, interval=(1, max(n, 2))), sieve_primes(max(n, 2))
        )
        assert cert.dimension >= exact_dimension(poset).dimension


# --- bound table ------------------------------------------------------------------


def test_bound_rows_at_million():
    (row,) = bound_table([10**6])
    ln = math.log(10**6)
    lln = math.log(ln)
    assert row.upper_two_zone == pytest.approx(ln * ln / lln, rel=1e-12)
    assert row.upper_two_zone == pytest.approx(72.6898, rel=1e-4)
    assert row.upper_three_zone == pytest.approx(154.2223, rel=1e-4)
    assert row.lower == pytest.approx(ln * ln / (16 * lln * lln), rel=1e-12)
    assert row.upper_coarse == pytest.approx(4 * ln * ln / lln, rel=1e-12)
    assert not row.degenerate
    assert "o(1) dropped" in row.note


def test_bound_table_includes_certificate_dimension():
    rows = bound_table([100, 1000], certificates={1000: 153})
    assert rows[0].certificate_dimension is None
    assert rows[1].certificate_dimension == 153


def test_bound_table_degenerate_boundary():
    (row,) = bound_table([15])  # below e^e
    assert row.degenerate
    assert row.middle_interval_count is None
    (row,) = bound_table([math.e**math.e])
    assert row.degenerate
    assert row.upper_three_zone == pytest.approx(0.0, abs=1e-9)


def test_bound_table_rejects_tiny_n():
    with pytest.raises(DomainError):
        bound_table([2])


def test_exhaustive_check_counts_pairs_and_reports_one_pair_per_zone():
    # with one rank row the random-suitable zone is not suitable at
    # n = 1000: many pairs fail, and the zone's first uncovered one is
    # reported
    cert, table = cert_for(1000)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            zone["ranks"] = zone["ranks"][:1]
    broken = RealiserCertificate.from_json_dict(data)
    assert _verify_exhaustive(cert, table) == (1000 * 999, [])
    pairs, failures = _verify_exhaustive(broken, table)
    assert pairs == 1000 * 999
    ((a, b, kind),) = failures
    assert kind == "coordinates-leq-but-not-divisible" and b % a != 0


@pytest.mark.parametrize("mode, samples", [("exhaustive", None), ("sampled", 5000)])
def test_report_times_both_phases_and_lists_every_pair_failure(monkeypatch, mode, samples):
    # keeping one rank row of the random-suitable zone makes many pairs
    # fail at n = 1000; sampled mode keeps 20 of them, exhaustive mode the
    # zone's first, and the summary shows every one kept
    cert, table = cert_for(1000)
    data = json.loads(cert.dumps())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            zone["ranks"] = zone["ranks"][:1]
    broken = RealiserCertificate.from_json_dict(data)
    clock = iter(range(3))
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: 1.5 * next(clock)))
    report = verify_certificate(broken, table, mode=mode, samples=samples)
    # the clock reads 0 at the start, 1.5 after integrity and 3 at the end
    assert (report.integrity_s, report.functional_s) == (1.5, 1.5)
    lines = report.summary().splitlines()
    assert lines[0].startswith(f"FAIL: {mode} verification, ")
    assert lines[0].endswith(" in 3.00s (integrity 1.50s, functional 1.50s)")
    kept = len(report.pair_failures)
    assert kept == (1 if mode == "exhaustive" else 20)
    assert sum(line.startswith("  pair: ") for line in lines) == kept
    assert "wall_time" not in {f.name for f in dataclasses.fields(report)}


def test_structurally_broken_certificates_rejected():
    cert, _ = cert_for(1000)
    base = json.loads(cert.dumps())

    def mutate(edit):
        data = json.loads(json.dumps(base))
        edit(data)
        with pytest.raises(DomainError):
            RealiserCertificate.from_json_dict(data)

    def short_rank_row(data):
        for z in data["zones"]:
            if z["kind"] == "random-suitable":
                z["ranks"][0].pop()
                return

    def ground_escape(data):
        for z in data["zones"]:
            if z["kind"] == "cover-free":
                z["family"][0][0] = z["ground_size"] + 5
                return

    def bad_phi(data):
        for z in data["zones"]:
            if z["kind"] == "cover-free":
                z["phi"][0] = 999
                return

    mutate(short_rank_row)
    mutate(ground_escape)
    mutate(bad_phi)


def test_certificate_that_is_not_an_object_rejected():
    for text in ("[]", "3", '"divdim-certificate"'):
        with pytest.raises(DomainError):
            RealiserCertificate.loads(text)


# --- single-field mutations -------------------------------------------------------

ZONE_FIELDS = {
    "chains": ("lo", "hi", "primes"),
    "random-suitable": (
        "lo", "hi", "primes", "zone_seed", "retry_index", "target_size", "ranks",
    ),
    "cover-free": (
        "lo", "hi", "primes", "field.p", "field.k", "field.modulus", "h", "r",
        "ground_size", "capacity", "family", "phi", "sigma_ranks",
    ),
}
MUTATIONS = [(kind, path) for kind, paths in ZONE_FIELDS.items() for path in paths] + [
    (None, "max_exponent"),
    (None, "dimension"),
]


@pytest.fixture(scope="module")
def cert_1000_json():
    cert, _ = cert_for(1000, seed=0)
    return cert.dumps()


def test_mutations_cover_every_recorded_field(cert_1000_json):
    recorded = set()
    for zone in json.loads(cert_1000_json)["zones"]:
        for key, value in zone.items():
            if isinstance(value, dict):
                recorded.update((zone["kind"], f"{key}.{sub}") for sub in value)
            elif key != "kind":
                recorded.add((zone["kind"], key))
    assert recorded == {m for m in MUTATIONS if m[0] is not None}


@pytest.mark.parametrize("kind,path", MUTATIONS, ids=lambda v: str(v))
def test_single_field_edit_is_caught(cert_1000_json, kind, path):
    # a number gains 1; an array's first entry, or its first row's first
    # entry, gains 1
    data = json.loads(cert_1000_json)
    owner = data if kind is None else next(z for z in data["zones"] if z["kind"] == kind)
    *groups, key = path.split(".")
    for group in groups:
        owner = owner[group]
    value = owner[key]
    if not isinstance(value, list):
        owner[key] = value + 1
    elif isinstance(value[0], list):
        value[0][0] += 1
    else:
        value[0] += 1
    try:
        mutated = RealiserCertificate.from_json_dict(data)
    except DomainError:
        return
    report = verify_certificate(mutated, TABLE, mode="sampled", samples=200)
    assert not report.ok and report.integrity_failures


# --- argument checks and tampered recipes ------------------------------------------


@pytest.mark.parametrize(
    "n,kwargs,error",
    [
        (60, {"mode": "pairs"}, DomainError),
        (60, {"mode": "sampled"}, DomainError),
        (60, {"mode": "sampled", "samples": 0}, DomainError),
    ],
)
def test_arguments_checked_before_integrity(monkeypatch, n, kwargs, error):
    import divdim.pipeline as pipeline

    def integrity_not_expected(*args):
        raise AssertionError("integrity phase ran before the argument checks")

    monkeypatch.setattr(pipeline, "_integrity_failures", integrity_not_expected)
    cert, _ = cert_for(60)
    cert = RealiserCertificate(
        n=n,
        eps=cert.eps,
        seed=cert.seed,
        max_exponent=cert.max_exponent,
        dimension=cert.dimension,
        zones=cert.zones,
    )
    with pytest.raises(error):
        verify_certificate(cert, **kwargs)


def test_coverfree_zone_at_a_million_is_checked(monkeypatch):
    # its 127 primes give 8,129 squarefree elements; every embedding
    # check runs, whatever the zone's size
    import divdim.pipeline as pipeline

    table = sieve_primes(10**6)
    (zone,) = [
        z for z in plan(10**6, 0.5, table).zones
        if z.kind == "cover-free" and len(z.primes) == 127
    ]
    verdicts = []

    def recording(*args, **kwargs):
        result = coverfree_embedding(*args, **kwargs)
        verdicts.append(result[1])
        return result

    monkeypatch.setattr(pipeline, "coverfree_embedding", recording)
    built = pipeline._build_coverfree_zone(10**6, zone, table)
    (verdict,) = verdicts
    assert verdict.ok and verdict.note == ""
    assert built == pipeline._coverfree_zone(zone)


def test_loads_shares_one_int_per_numeral():
    # JSON decoding would otherwise make a fresh int for every rank above
    # the small-int cache; the n = 2000 zone has 285 primes, so its ranks
    # reach 284
    cert, _ = cert_for(2000)
    loaded = RealiserCertificate.loads(cert.dumps())
    (zone,) = [z for z in loaded.zones if z.kind == "random-suitable"]
    assert len({id(v) for row in zone.ranks for v in row}) == len(zone.primes) == 285


@pytest.mark.parametrize(
    "text",
    # int() refuses a numeral of more than 4300 digits, and the decoder
    # recurses once per level of nesting; neither is a JSONDecodeError
    ['{"n": ' + "1" * 5000 + "}", "[" * 200_000 + "]" * 200_000],
    ids=["long-numeral", "deep-nesting"],
)
def test_unparsable_text_is_a_domain_error(text):
    with pytest.raises(DomainError, match="not valid JSON"):
        RealiserCertificate.loads(text)
