"""The per-zone bitset scan of exhaustive verify against the dense pair scan.

``dense_scan`` is the reference: it evaluates every coordinate on every
m into an n × D matrix and compares all ordered pairs through a
(chunk, n, D) broadcast.  Both must give the same pair count, failure
list and notes on every certificate and on functionally broken ones,
checked with the integrity phase off.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from divdim.pipeline import (
    RealiserCertificate,
    _colex_key,
    _failure_kind,
    _verify_exhaustive,
    build_certificate,
    certificate_zones,
    plan,
)
from divdim.primes import factorize, sieve_primes
from zone_reference import _zone_owns


def dense_scan(cert, report_notes):
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
        if len(failures) > 20:
            break
    if len(failures) > 20:
        failures = failures[:20]
        report_notes.append("failure list truncated at 20")
    return n * n - n, failures


@lru_cache(maxsize=None)
def cert_text(n, seed):
    table = sieve_primes(max(n, 2))
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
    got_notes, want_notes = [], []
    got = _verify_exhaustive(cert, got_notes)
    want = dense_scan(cert, want_notes)
    assert (got, got_notes) == (want, want_notes)
    if brk == "intact":
        assert not want[1]
    if brk == "one-rank-row":  # more than 20 pairs fail
        assert want_notes == ["failure list truncated at 20"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_n_matches_dense_scan(n):
    cert = certificate(n, 0, "intact")
    got_notes, want_notes = [], []
    assert _verify_exhaustive(cert, got_notes) == dense_scan(cert, want_notes)
    assert got_notes == want_notes == []
