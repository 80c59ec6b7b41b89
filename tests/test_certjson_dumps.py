"""``RealiserCertificate.dumps`` against the ``json.dumps`` text it speeds up.

``certjson.dumps`` writes each ``certjson.Rows`` block from a shared
table of numerals and every other value through ``json.dumps``.
Whatever the data, its text must be ``json.dumps``' own, or its error
the same.
"""

import dataclasses
import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim import certjson
from divdim.pipeline import RealiserCertificate, build_certificate, plan
from divdim.primes import sieve_primes


@lru_cache(maxsize=None)
def built(n, eps=0.5):
    table = sieve_primes(max(n, 2))
    return build_certificate(plan(n, eps, table), 0, table)


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def outcome(write, data):
    try:
        return write(data)
    except Exception as exc:  # the same error, type and message
        return type(exc), str(exc)


def plain_calls(monkeypatch):
    """The list each ``certjson._plain_dumps`` call appends to: one call
    means the rows were written from the table, two that it fell back."""
    calls = []
    plain = certjson._plain_dumps

    def counted(data):
        calls.append(data)
        return plain(data)

    monkeypatch.setattr(certjson, "_plain_dumps", counted)
    return calls


CERTIFICATES = [
    (1, 0.5), (20, 0.5), (1000, 0.5), (1738, 0.5), (2000, 0.5), (100_000, 0.5), (1539, 0.001),
]


@pytest.mark.parametrize("n,eps", CERTIFICATES, ids=[f"{n}-{eps}" for n, eps in CERTIFICATES])
def test_dumps_is_the_json_dumps_text_before_and_after_a_round_trip(monkeypatch, n, eps):
    cert = built(n, eps)
    blocks = [z for z in cert.zones if z.kind != "chains"]
    # below n = 16 every prime is a chain; above it, every zone's rows are Rows
    assert all(type(getattr(z, "ranks", None) or z.sigma_ranks) is certjson.Rows for z in blocks)
    assert bool(blocks) == (n >= 16)
    calls = plain_calls(monkeypatch)
    text = cert.dumps()
    assert len(calls) == 1
    assert text == canonical(cert.to_json_dict()) + "\n"
    loaded = RealiserCertificate.loads(text)
    assert loaded == cert
    assert loaded.dumps() == canonical(loaded.to_json_dict()) + "\n" == text


@pytest.mark.parametrize("n", [300, 2000, 100_000])
def test_a_loaded_certificate_writes_every_row_field_from_the_table(monkeypatch, n):
    text = built(n).dumps()
    loaded = RealiserCertificate.loads(text)
    names = ("ranks", "sigma_ranks", "family")
    row_fields = [getattr(z, f, ()) for z in loaded.zones for f in names]
    assert {type(rows) for rows in row_fields if rows} == {certjson.Rows}
    calls = plain_calls(monkeypatch)
    assert loaded.dumps() == text
    # one call, on the data with each row field a placeholder
    assert len(calls) == 1
    assert canonical(calls[0]).count("NaN") == sum(map(bool, row_fields))


def _replace_zone(cert, kind, **changes):
    i = next(i for i, z in enumerate(cert.zones) if z.kind == kind)
    zones = list(cert.zones)
    zones[i] = dataclasses.replace(zones[i], **changes)
    return dataclasses.replace(cert, zones=tuple(zones))


def _edits():
    cert = built(1000)
    ranks = next(z for z in cert.zones if z.kind == "random-suitable").ranks
    width = len(ranks[0])
    past = certjson.Rows(((width, *ranks[0][1:]), *ranks[1:]))
    rows = certjson.Rows
    return {
        # plain tuples go to json.dumps as they are, odd values and all
        "tuple-true": (_replace_zone(cert, "random-suitable", ranks=((True, 0),)), 1),
        "tuple-negative": (_replace_zone(cert, "random-suitable", ranks=((-1, 0),)), 1),
        "tuple-huge": (_replace_zone(cert, "random-suitable", ranks=((2**70, 0),)), 1),
        "tuple-float": (_replace_zone(cert, "random-suitable", ranks=((3.0, 0),)), 1),
        # a rank past its row's length, as a loaded tampered certificate has
        "rows-past-the-table": (_replace_zone(cert, "random-suitable", ranks=past), 2),
        "rows-empty": (_replace_zone(cert, "random-suitable", ranks=rows()), 1),
        "rows-of-empty-rows": (_replace_zone(cert, "random-suitable", ranks=rows(((), ()))), 2),
        # one-value rows, whose numerals the cover-free zone's wider rows
        # put in the table: "[[10],[12]]", not "[[1,0],[1,2]]"
        "rows-of-one-value": (
            _replace_zone(cert, "random-suitable", ranks=rows(((10,), (12,)))), 1
        ),
        "nan-lo": (_replace_zone(cert, "random-suitable", lo=math.nan), 2),
        "nan-string": (_replace_zone(cert, "chains", lo="NaN"), 2),
        "infinite-hi": (_replace_zone(cert, "cover-free", hi=-math.inf), 1),
        "not-json": (_replace_zone(cert, "chains", lo=object()), 2),
        "set-of-rows": (_replace_zone(cert, "cover-free", family={(0, 1)}), 2),
    }


@pytest.mark.parametrize("case", list(_edits()))
def test_odd_zones_dump_as_json_dumps_writes_them(monkeypatch, case):
    cert, expected_calls = _edits()[case]
    data = cert.to_json_dict()
    want = outcome(lambda d: canonical(d) + "\n", data)
    calls = plain_calls(monkeypatch)
    assert outcome(lambda _: cert.dumps(), data) == want
    assert len(calls) == expected_calls


def _permutations(width):
    return st.permutations(range(width)).map(tuple)


BLOCKS = st.integers(1, 300).flatmap(
    lambda width: st.lists(_permutations(width), min_size=1, max_size=20).map(certjson.Rows)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(BLOCKS, min_size=1, max_size=3), st.floats(allow_nan=False))
def test_random_row_blocks_dump_as_json_dumps_writes_them(blocks, lo):
    # the first zone's keys are out of order: its blocks are written in
    # sorted key order, the order of their placeholders in the text
    data = {
        "zones": [
            {"sigma_ranks": blocks[-1], "lo": lo, "ranks": blocks[0]},
            *({"field": {"p": 3}, "sigma_ranks": rows} for rows in blocks[1:-1]),
        ],
        "n": 7,
    }
    with pytest.MonkeyPatch.context() as patch:
        calls = plain_calls(patch)
        assert certjson.dumps(data) == canonical(data)
    assert len(calls) == 1
