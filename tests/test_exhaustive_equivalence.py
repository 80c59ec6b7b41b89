"""Exhaustive verify's per-zone check against the dense pair scan.

Exhaustive verify proves all ordered pairs through the zones: the zones
must partition the primes up to n, and each zone's rows must pass
``check_interval_suitability``, the check the build ran on them.  The
reference here does not use that reduction.  ``dense_values`` evaluates
every coordinate on every m into an n × D matrix, and ``dense_scan``
compares all ordered pairs through a (chunk, n, D) broadcast.  On every
certificate and functional break, checked with the integrity phase off,
the check must pass exactly when the dense scan finds no failing pair,
and every pair it reports must fail in the dense relation.  The one
stated difference is a rank row with a tied rank: the check reports the
row as no permutation, while the dense relation may still be
divisibility.  Beyond n = 2000, where the dense scan is out of reach,
a reported pair is checked against the sampled verifier's evaluator.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from divdim.pipeline import (
    RealiserCertificate,
    _below_everywhere,
    _colex_key,
    _failure_kind,
    _rank_matrix,
    _verify_exhaustive,
    _zone_table,
    build_certificate,
    certificate_zones,
    plan,
)
from divdim.primes import factorize, sieve_primes
from zone_reference import _zone_owns


def dense_values(cert):
    """Every coordinate of every m in 1..n, as an (n, D) int32 matrix."""
    n = cert.n
    zones = certificate_zones(cert)
    owns_by_m = list(map(_zone_owns(zones), map(factorize, range(1, n + 1))))
    values = np.empty((n, sum(len(rows) for _, rows in zones)), dtype=np.int32)
    column = 0
    for zi, (_, rows) in enumerate(zones):
        distinct = {}
        group = np.array(
            [distinct.setdefault(own.get(zi, ()), len(distinct)) for own in owns_by_m]
        )
        for row in rows:
            keys = [_colex_key(row, own) for own in distinct]
            order = {k: i for i, k in enumerate(sorted(set(keys)))}
            values[:, column] = np.array([order[k] for k in keys], dtype=np.int32)[group]
            column += 1
    return values


def dense_scan(cert, values):
    """The pair count and the first 20 failing pairs of the dense relation."""
    n = cert.n
    arr = np.arange(1, n + 1, dtype=np.int64)
    divides = (arr[None, :] % arr[:, None]) == 0  # [i, j] = m_i | m_j
    chunk = max(1, min(n, 50_000_000 // (n * max(values.shape[1], 1))))
    failures = []
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        leq = (values[start:stop, None, :] <= values[None, :, :]).all(axis=2)
        for i, j in zip(*(leq != divides[start:stop]).nonzero()):
            a, b = start + int(i) + 1, int(j) + 1
            if a != b:
                failures.append((a, b, _failure_kind(a, b)))
        if len(failures) >= 20:
            break
    return n * n - n, failures[:20]


def fails_densely(values, a, b):
    """Whether (a, b) fails in the full dense relation, with no cut-off."""
    return bool((values[a - 1] <= values[b - 1]).all()) != (b % a == 0)


@lru_cache(maxsize=None)
def prime_table(n):
    return sieve_primes(max(n, 2))


@lru_cache(maxsize=None)
def cert_text(n, seed):
    table = prime_table(n)
    return build_certificate(plan(n, 0.5, table), seed, table).dumps()


def keep_one_rank_row(zone):
    if zone["kind"] == "random-suitable":
        zone["ranks"] = zone["ranks"][:1]


def keep_three_sigma_rows(zone):
    if zone["kind"] == "cover-free":
        zone["sigma_ranks"] = zone["sigma_ranks"][:3]


def drop_first_chain(zone):
    if zone["kind"] == "chains":
        zone["primes"] = zone["primes"][1:]


def flip_one_rank_bit(zone):
    if zone["kind"] == "random-suitable":
        zone["ranks"][0][0] ^= 1


BREAKS = {
    "intact": None,
    "one-rank-row": keep_one_rank_row,
    "three-sigma-rows": keep_three_sigma_rows,
    "first-chain-dropped": drop_first_chain,
    "rank-bit-flipped": flip_one_rank_bit,
}


def certificate(n, seed, brk):
    data = json.loads(cert_text(n, seed))
    if BREAKS[brk]:
        for zone in data["zones"]:
            BREAKS[brk](zone)
    return RealiserCertificate.from_json_dict(data)


@pytest.mark.parametrize("brk", list(BREAKS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [60, 150, 1000, 2000])
def test_bitset_scan_matches_dense_scan(n, seed, brk):
    cert = certificate(n, seed, brk)
    values = dense_values(cert)
    pairs, failures = _verify_exhaustive(cert, prime_table(n))
    want_pairs, want_failures = dense_scan(cert, values)
    assert pairs == want_pairs
    if brk == "intact":
        assert not want_failures
    if brk == "rank-bit-flipped":
        # a flipped bit ties two ranks of a row or leaves its range; the
        # dense relation stays divisibility, the row is no permutation
        assert not want_failures
        assert failures == [
            (f"zone {zi} (random-suitable)", "rank row is not a permutation")
            for zi, zone in enumerate(cert.zones)
            if zone.kind == "random-suitable"
        ]
        return
    assert bool(failures) == bool(want_failures)
    for a, b, kind in failures:
        assert kind == _failure_kind(a, b)
        assert fails_densely(values, a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_n_matches_dense_scan(n):
    cert = certificate(n, 0, "intact")
    assert _verify_exhaustive(cert, prime_table(n)) == dense_scan(cert, dense_values(cert))


def test_witness_at_1e5_is_a_failing_pair():
    # at n = 10^5 the dense relation holds 10^10 cells; the top zone cut
    # to one rank row must yield a pair p, s with p not dividing s that
    # the sampled verifier's evaluator puts p at or below s
    n = 10**5
    data = json.loads(cert_text(n, 0))
    assert data["zones"][-1]["kind"] == "random-suitable"
    data["zones"][-1]["ranks"] = data["zones"][-1]["ranks"][:1]
    cert = RealiserCertificate.from_json_dict(data)
    pairs, failures = _verify_exhaustive(cert, prime_table(n))
    assert pairs == n * (n - 1)
    ((p, s, kind),) = failures
    assert s % p != 0 and kind == "coordinates-leq-but-not-divisible"
    zones = [(index, _rank_matrix(rows)) for index, rows in certificate_zones(cert)]
    a, b = np.array([p], dtype=np.uint64), np.array([s], dtype=np.uint64)
    assert _below_everywhere(zones, _zone_table(zones), a, b).tolist() == [True]
