"""Zone parts in numpy columns against the dict-based reference.

``_zone_parts`` names each number's part in a zone by its value and
returns each zone's distinct parts as padded (column, exponent) arrays.
``zone_reference._zone_owns`` is the per-number dict map it replaced.
Both must split every number the same way, on certificate zones and on
edited zone maps, and the place matrix of the parts must rank them as
``_colex_ranks`` does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim.pipeline import (
    _colex_places,
    _colex_ranks,
    _rank_matrix,
    _zone_parts,
    _zone_table,
    build_certificate,
    certificate_zones,
    plan,
)
from divdim.primes import factorize, sieve_primes
from zone_reference import _zone_owns


def as_owns(parts):
    """Padded (columns, exponents) arrays as owns, tuples of (column, exponent)."""
    cols, exps = parts
    return [
        tuple((c, e) for c, e in zip(row_cols, row_exps) if e)
        for row_cols, row_exps in zip(cols.tolist(), exps.tolist())
    ]


def check_parts(zones, numbers):
    """_zone_parts against _zone_owns; returns each zone's parts as owns."""
    parts, group = _zone_parts(_zone_table(zones), len(zones), np.array(numbers))
    assert group.shape == (len(zones), len(numbers))
    owns_of = _zone_owns(zones)
    found = [owns_of(factorize(m)) for m in numbers]
    zone_owns = []
    for zi, (index, _) in enumerate(zones):
        owns = as_owns(parts[zi])
        zone_owns.append(owns)
        assert owns[0] == ()  # the empty part comes first
        assert [owns[g] for g in group[zi].tolist()] == [f.get(zi, ()) for f in found]
        # each part once, each part met by some number, by ascending value
        assert len(set(owns)) == len(owns)
        assert set(group[zi].tolist()) | {0} == set(range(len(owns)))
        prime_of = {c: p for p, c in index.items()}
        values = [math.prod(prime_of[c] ** e for c, e in own) for own in owns]
        assert values == sorted(values)
    return parts, zone_owns


# 1, composites, 0, a negative number and a number beyond int64 may be
# recorded as primes; none of them ever matches a factor
_LISTED = [2, 3, 5, 7, 11, 13, 97, 101, 1, 4, 6, 15, 0, -3, 2**70]
_ROW_VALUES = st.one_of(st.integers(0, 6), st.sampled_from([10**12, 2**70]))


@st.composite
def edited_zones(draw):
    """Zone maps as ``certificate_zones`` builds them from recorded primes:
    a prime may repeat in a zone (its last column counts), sit in several
    zones or in none, and the rows rank the recorded columns."""
    zones = []
    recorded = st.lists(st.sampled_from(_LISTED), max_size=5)
    for primes in draw(st.lists(recorded, min_size=1, max_size=5)):
        row = st.lists(_ROW_VALUES, min_size=len(primes), max_size=len(primes))
        zones.append(({p: i for i, p in enumerate(primes)}, draw(st.lists(row, max_size=3))))
    return zones


_NUMBERS = st.lists(
    st.one_of(st.integers(1, 3000), st.sampled_from([2**19, 3**12, 97 * 101**2, 999_983])),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(edited_zones(), _NUMBERS)
def test_parts_match_the_dict_reference_on_edited_zone_maps(zones, numbers):
    parts, zone_owns = check_parts(zones, numbers)
    for (_, rows), zone_parts, owns in zip(zones, parts, zone_owns):
        places = _colex_places(_rank_matrix(rows), zone_parts)
        assert places.shape == (len(rows), len(owns))
        assert places.tolist() == [_colex_ranks(row, owns) for row in rows]


def test_parts_of_no_numbers_and_of_zones_without_primes():
    zones = [({}, [(0,)]), ({2: 0}, [(0,)]), ({}, [])]
    parts, group = _zone_parts(_zone_table(zones), 3, np.array([], dtype=np.int64))
    assert group.shape == (3, 0)
    assert [as_owns(p) for p in parts] == [[()], [()], [()]]
    parts, group = _zone_parts(_zone_table(zones), 3, np.array([1, 2, 3, 8]))
    assert group.tolist() == [[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0]]
    assert as_owns(parts[1]) == [(), ((0, 1),), ((0, 3),)]


@pytest.mark.parametrize("n", [60, 1000, 10**4, 10**5])
def test_place_matrix_rows_equal_colex_ranks_on_certificate_zones(n):
    table = sieve_primes(n)
    zones = certificate_zones(build_certificate(plan(n, 0.5, table), 0, table))
    # every number up to 3000, and a stride through the rest
    numbers = sorted({*range(1, min(n, 3000) + 1), *range(1, n + 1, 37)})
    parts, zone_owns = check_parts(zones, numbers)
    for (_, rows), zone_parts, owns in zip(zones, parts, zone_owns):
        places = _colex_places(_rank_matrix(rows), zone_parts)
        assert places.tolist() == [_colex_ranks(row, owns) for row in rows]
