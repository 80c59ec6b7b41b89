"""The zone-local colex key against the big-integer encodings it replaced.

The oracles below are the formulas the verifiers used before: a coordinate
valued m at sum(e * (max_exponent + 1) ** rank) over m's primes in the
zone, and a cover-free ordering keyed each member set at
sum(1 << sigma[e]).  Both must order everything exactly as the key does.
"""

import pytest

from divdim.pipeline import (
    _colex_key,
    _coverfree_zone,
    build_certificate,
    certificate_zones,
    plan,
)
from divdim.primes import factorize, sieve_primes


def dense_ranks(values):
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def bigint_tau_rank_rows(zone):
    rows = []
    for sigma in zone.sigma_ranks:
        keys = [sum(1 << sigma[e] for e in zone.family[i]) for i in zone.phi]
        order = sorted(range(len(keys)), key=lambda j: keys[j])
        ranks = [0] * len(keys)
        for position, j in enumerate(order):
            ranks[j] = position
        rows.append(ranks)
    return rows


@pytest.mark.parametrize("n", [60, 1000, 2000])
def test_key_orders_like_the_bigint_value(n):
    table = sieve_primes(n)
    cert = build_certificate(plan(n, 0.5, table), 0, table)
    base = cert.max_exponent + 1
    exponents = [factorize(m) for m in range(1, n + 1)]
    zones = certificate_zones(cert)
    assert sum(len(rows) for _, rows in zones) == cert.dimension
    for index, rows in zones:
        for row in rows:
            keys, values = [], []
            for exps in exponents:
                own = [(index[p], e) for p, e in exps.items() if p in index]
                keys.append(_colex_key(row, own))
                values.append(sum(e * base ** row[c] for c, e in own))
            assert dense_ranks(keys) == dense_ranks(values)


@pytest.mark.parametrize("n", [1000, 10**4, 10**5])
def test_tau_rank_rows_match_the_bigint_keys(n):
    zones = [z for z in plan(n, 0.5, sieve_primes(n)).zones if z.kind == "cover-free"]
    assert zones
    for zp in zones:
        zone = _coverfree_zone(zp)
        assert zone.tau_rank_rows() == bigint_tau_rank_rows(zone)


def test_key_compares_the_highest_ranked_difference():
    row = (2, 0, 1)  # column 0 ranks highest, then column 2, then column 1
    assert _colex_key(row, [(1, 3), (2, 1)]) == ((1, 1), (0, 3))
    assert _colex_key(row, []) < _colex_key(row, [(1, 1)])
    assert _colex_key(row, [(1, 5), (2, 1)]) < _colex_key(row, [(2, 2)])
    assert _colex_key(row, [(2, 2)]) < _colex_key(row, [(0, 1)])
    # a recorded rank of any size costs nothing extra
    assert _colex_key((10**12,), [(0, 1)]) > _colex_key((10**12,), [])
