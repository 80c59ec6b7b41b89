"""Batched sampled verify against the pair-at-a-time loop it replaced.

``scalar_sampled`` is the reference: it draws a = randbelow(n) + 1 and
then b, skips a == b, and compares the two numbers' colex keys under
every row of every zone where their parts differ, stopping at the 20th
failure.  The batched verifier must check the same pairs and report
the same count and failure list, whatever the certificate holds.
"""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim import divposets, pipeline
from divdim.pipeline import (
    RealiserCertificate,
    _colex_key,
    _colex_ranks,
    _failure_kind,
    _sample_pairs,
    build_certificate,
    certificate_zones,
    plan,
    verify_certificate,
)
from divdim.primes import factorize, sieve_primes
from divdim.rng import SplitMix64
from zone_reference import _zone_owns
from zone_reference import colex_places_of_owns as _colex_places


def scalar_sampled(cert, samples, sample_seed):
    n = cert.n
    if n < 2:
        return 0, []
    zones = certificate_zones(cert)
    owns = _zone_owns(zones)
    rng = SplitMix64(sample_seed)
    failures = []
    checked = 0
    while checked < samples:
        a = rng.randbelow(n) + 1
        b = rng.randbelow(n) + 1
        if a == b:
            continue
        checked += 1
        oa, ob = owns(factorize(a)), owns(factorize(b))
        met = [zi for zi in sorted(oa.keys() | ob.keys()) if oa.get(zi) != ob.get(zi)]
        below = (
            _colex_key(row, oa.get(zi, ())) <= _colex_key(row, ob.get(zi, ()))
            for zi in met
            for row in zones[zi][1]
        )
        if all(below) != (b % a == 0):
            failures.append((a, b, _failure_kind(a, b)))
        if len(failures) >= 20:
            break
    return checked, failures


@lru_cache(maxsize=None)
def cert_text(n, seed):
    table = sieve_primes(max(n, 2))
    return build_certificate(plan(n, 0.5, table), seed, table).dumps()


def _suitable_rank(value):
    def edit(zone):
        if zone["kind"] == "random-suitable":
            zone["ranks"][0][0] = value

    return edit


def _sigma_rank(value):
    def edit(zone):
        if zone["kind"] == "cover-free":
            zone["sigma_ranks"][1][2] = value

    return edit


def _keep_one_rank_row(zone):
    if zone["kind"] == "random-suitable":
        zone["ranks"] = zone["ranks"][:1]


def _one_tied_rank_row(zone):
    # distinct parts with equal keys: a coordinate that ties them
    if zone["kind"] == "random-suitable":
        zone["ranks"] = [[0] * len(zone["primes"])]


def _keep_three_sigma_rows(zone):
    if zone["kind"] == "cover-free":
        zone["sigma_ranks"] = zone["sigma_ranks"][:3]


def _drop_first_chain(zone):
    if zone["kind"] == "chains":
        zone["primes"] = zone["primes"][1:]


def _reverse_chains(zone):
    if zone["kind"] == "chains":
        zone["primes"] = zone["primes"][::-1]


def _repeat_last_chain_prime(zone):
    if zone["kind"] == "chains":
        zone["primes"] = zone["primes"] + zone["primes"][-1:]


def _first_chain_prime_1(zone):
    if zone["kind"] == "chains" and zone["primes"]:
        zone["primes"][0] = 1


def _flip_one_rank_bit(zone):
    if zone["kind"] == "random-suitable":
        zone["ranks"][0][0] ^= 1


def _reverse_rank_rows(zone):
    # the same coordinates, but a pair's first separating row now comes late
    if zone["kind"] == "random-suitable":
        zone["ranks"] = zone["ranks"][::-1]


BREAKS = {
    "intact": None,
    "one-rank-row": _keep_one_rank_row,
    "one-tied-rank-row": _one_tied_rank_row,
    "three-sigma-rows": _keep_three_sigma_rows,
    "first-chain-dropped": _drop_first_chain,
    # sampled verify decides chain zones by their parts; scalar_sampled reads their rows
    "chains-reversed": _reverse_chains,
    "chain-prime-repeated": _repeat_last_chain_prime,
    "chain-prime-1": _first_chain_prime_1,
    "rank-bit-flipped": _flip_one_rank_bit,
    "rows-reversed": _reverse_rank_rows,
    "rank-1e12": _suitable_rank(10**12),
    "rank-2^70": _suitable_rank(2**70),
}


SIGMA_BREAKS = {"sigma-1e11": _sigma_rank(10**11), "sigma-2^70": _sigma_rank(2**70)}
BREAKS_ALL = {**BREAKS, **SIGMA_BREAKS}


def certificate(n, seed, brk):
    data = json.loads(cert_text(n, seed))
    if BREAKS_ALL[brk]:
        for zone in data["zones"]:
            BREAKS_ALL[brk](zone)
    return RealiserCertificate.from_json_dict(data)


@pytest.mark.parametrize("brk", ["intact", "three-sigma-rows", *SIGMA_BREAKS])
@pytest.mark.parametrize("n", [1000, 10**4])
def test_cover_free_rows_are_the_tau_rank_rows(n, brk):
    """Each zone's prime indices, each chain zone's standard rows, and each
    random-suitable zone's recorded ranks, as ``certificate_zones`` gives
    them; the cover-free rows are checked across the ranker cut below."""
    cert = certificate(n, 0, brk)
    zones = iter(certificate_zones(cert))
    for zone in cert.zones:
        if zone.kind == "chains":
            k = len(zone.primes)
            rows = [(*range(i), k - 1, *range(i, k - 1)) for i in range(k)]
            assert next(zones) == ({p: i for i, p in enumerate(zone.primes)}, tuple(rows))
            continue
        index, rows = next(zones)
        assert index == {p: i for i, p in enumerate(zone.primes)}
        if zone.kind == "random-suitable":
            assert rows == zone.ranks
    assert next(zones, None) is None
    assert {zone.kind for zone in cert.zones} == {"chains", "random-suitable", "cover-free"}


def cover_free_zones(cert):
    zones = [zone for zone in cert.zones if zone.kind == "cover-free"]
    assert zones
    return zones


@pytest.mark.parametrize("brk", ["intact", "three-sigma-rows", *SIGMA_BREAKS])
@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_tau_rows_agree_across_the_ranker_cut(monkeypatch, n, brk):
    cert = certificate(n, 0, brk)
    # the rows both verifiers evaluate, keyed by the zone's primes
    evaluated = {tuple(index): rows for index, rows in certificate_zones(cert)}
    for zone in cover_free_zones(cert):
        sides = []
        for limit in (1, 1 << 62):  # every zone ranked by numpy, then by Python
            monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", limit)
            sides.append(zone.tau_rank_rows())
        numpy_rows, python_rows = sides
        assert numpy_rows == python_rows
        assert all(type(row) is list and set(map(type, row)) == {int} for row in numpy_rows)
        assert evaluated[tuple(zone.primes)] == numpy_rows


@pytest.mark.parametrize(
    "n, primes, ranker", [(10**5, 47, "_colex_places"), (2000, 9, "_colex_ranks")]
)
def test_the_ranker_cut_sends_large_zones_to_numpy(monkeypatch, n, primes, ranker):
    # the n = 2000 build ranks in Python, so it can run without numpy
    cert = certificate(n, 0, "intact")
    (zone,) = [z for z in cover_free_zones(cert) if len(z.primes) == primes]
    called = []

    def spy(name):
        real = getattr(pipeline, name)

        def counted(*args):
            called.append(name)
            return real(*args)

        return counted

    for name in ("_colex_places", "_colex_ranks"):
        monkeypatch.setattr(pipeline, name, spy(name))
    zone.tau_rank_rows()
    assert set(called) == {ranker}


def batched(cert, samples, sample_seed):
    report = verify_certificate(cert, mode="sampled", samples=samples, sample_seed=sample_seed)
    return report.pairs_checked, list(report.pair_failures)


NS = [2, 3, 60, 150, 1000, 2000, 10**4]


@pytest.mark.parametrize("samples", [1, 200, 5000])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", NS)
def test_intact_certificates_match_the_scalar_loop(n, seed, samples):
    cert = certificate(n, seed, "intact")
    got = batched(cert, samples, seed + 7)
    assert got == scalar_sampled(cert, samples, seed + 7)
    assert got == (samples, [])


@pytest.mark.parametrize("brk", [b for b in BREAKS_ALL if b != "intact"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", NS)
def test_broken_certificates_match_the_scalar_loop(n, seed, brk):
    cert = certificate(n, seed, brk)
    assert batched(cert, 5000, seed) == scalar_sampled(cert, 5000, seed)


def test_breaks_include_cut_failure_lists():
    # the cut at the 20th failure must be matched, not just full runs
    checked, failures = batched(certificate(1000, 0, "one-rank-row"), 5000, 0)
    assert len(failures) == 20 and checked < 5000


@pytest.mark.parametrize("brk", ["intact", "one-rank-row", "rank-2^70"])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batch_boundaries_do_not_matter(monkeypatch, brk, batch):
    cert = certificate(2000, 1, brk)
    want = scalar_sampled(cert, 700, 3)
    monkeypatch.setattr(pipeline, "SAMPLE_BATCH", batch)
    assert batched(cert, 700, 3) == want


def scalar_pairs(n, count, seed):
    rng = SplitMix64(seed)
    pairs = []
    while len(pairs) < count:
        a = rng.randbelow(n) + 1
        b = rng.randbelow(n) + 1
        if a != b:
            pairs.append((a, b))
    return pairs


def drawn_pairs(n, count, seed):
    batches = list(_sample_pairs(n, count, seed))
    assert all(0 < len(a) == len(b) <= pipeline.SAMPLE_BATCH for a, b in batches)
    return [(int(a), int(b)) for xs, ys in batches for a, b in zip(xs, ys)]


# 2^63 + 1 rejects about half of all outputs; a power of two rejects none
@pytest.mark.parametrize("n", [2, 3, 1000, 10**5, 2**40, 2**63, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("batch", [1, 3, 4096])
def test_sample_pairs_follow_the_scalar_stream(monkeypatch, n, batch):
    monkeypatch.setattr(pipeline, "SAMPLE_BATCH", batch)
    for seed in (0, 5):
        assert drawn_pairs(n, 1000, seed) == scalar_pairs(n, 1000, seed)
    assert drawn_pairs(n, 0, 0) == []


def _distinct_owns(zones, n):
    owns_by_m = list(map(_zone_owns(zones), map(factorize, range(1, n + 1))))
    for zi in range(len(zones)):
        yield zi, list(dict.fromkeys(own.get(zi, ()) for own in owns_by_m))


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_places_equal_colex_ranks_on_every_zone(n):
    zones = certificate_zones(certificate(n, 0, "intact"))
    for zi, owns in _distinct_owns(zones, n):
        rows = zones[zi][1]
        got = [place.tolist() for place in _colex_places(rows, owns)]
        assert got == [_colex_ranks(row, owns) for row in rows], zi


@pytest.mark.parametrize("block", [1, 5, 1 << 15])
def test_places_with_tied_and_huge_values(monkeypatch, block):
    monkeypatch.setattr(pipeline, "PLACES_BLOCK", block)
    rows = [
        (3, 1, 2, 0),
        (0, 0, 0, 0),
        (7, 7, 2, 9),
        (2**70, 5, 10**12, 5),
        (2**63, 2**63 - 1, 0, 2**64),
    ]
    owns = [(), ((0, 1),), ((1, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 1), (0, 1)),
            ((2, 3), (3, 1)), ((3, 1), (1, 2), (0, 1)), ((3, 4),)]
    got = [place.tolist() for place in _colex_places(rows, owns)]
    assert got == [_colex_ranks(row, owns) for row in rows]


def test_places_of_empty_keys_and_no_rows():
    assert [p.tolist() for p in _colex_places([(1, 0)], [(), ()])] == [[0, 0]]
    assert list(_colex_places([], [((0, 1),)])) == []


_ROW_VALUES = st.one_of(st.integers(0, 6), st.sampled_from([10**12, 2**63, 2**70]))
# rows with ties and huge values, and parts as {column: exponent}
_ROWS_AND_PARTS = st.integers(1, 5).flatmap(
    lambda width: st.tuples(
        st.lists(st.lists(_ROW_VALUES, min_size=width, max_size=width), max_size=4),
        st.lists(
            st.dictionaries(st.integers(0, width - 1), st.integers(1, 4), max_size=width),
            min_size=1,
            max_size=12,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(_ROWS_AND_PARTS)
def test_places_equal_colex_ranks_on_random_rows(case):
    rows, parts = case
    owns = [tuple(part.items()) for part in parts]
    got = [place.tolist() for place in _colex_places(rows, owns)]
    assert got == [_colex_ranks(row, owns) for row in rows]


@settings(max_examples=200, deadline=None)
@given(_ROWS_AND_PARTS, st.randoms(use_true_random=False))
def test_places_never_put_a_part_above_a_part_it_divides(case, random):
    # sampled verify skips such pairs in a zone: this is the rule it relies on
    rows, parts = case
    # each part with a divisor of it: some columns dropped, exponents lowered
    parts = parts + [
        {c: random.randint(1, e) for c, e in part.items() if random.random() < 0.7}
        for part in parts
    ]
    dividing = [
        (j, k)
        for j, small in enumerate(parts)
        for k, large in enumerate(parts)
        if all(large.get(c, 0) >= e for c, e in small.items())
    ]
    for place in _colex_places(rows, [tuple(part.items()) for part in parts]):
        assert all(place[j] <= place[k] for j, k in dividing)


def test_sampled_verify_derives_only_the_blocks_pairs_reach(monkeypatch):
    cert = certificate(10**5, 0, "intact")
    read = {}

    def spy(zone_type):
        real = zone_type.rows

        def rows(self, start=0, stop=None):
            got = real(self, start, stop)
            if got:
                read.setdefault(id(self), []).append((start, stop, len(got)))
            return got

        return rows

    for zone_type in (pipeline.SuitableZoneCert, pipeline.CoverFreeZoneCert):
        monkeypatch.setattr(zone_type, "rows", spy(zone_type))
    assert batched(cert, 10**4, 1) == (10**4, [])
    for zone in cert.zones:
        if zone.kind == "chains":
            continue
        blocks = read[id(zone)]
        # each block of rows is derived once, and kept for later batches
        assert len({(start, stop) for start, stop, _ in blocks}) == len(blocks) >= 1
        if zone.kind == "cover-free":
            assert sum(count for _, _, count in blocks) < len(zone.sigma_ranks) == 256


def test_places_are_one_int_array_per_row():
    places = list(_colex_places([(1, 0), (0, 1)], [((0, 1),), ((1, 1),)]))
    assert [p.dtype for p in places] == [np.int64, np.int64]
