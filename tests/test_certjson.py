"""``RealiserCertificate.loads`` against the plain parse it speeds up.

``loads`` reads each large block of rank rows with numpy
(``certjson._row_block_parse``).  Whatever the text, it must give the
certificate that the plain parse (every number through ``json.loads``)
gives, or fail with the same DomainError.  With ``NUMPY_MIN_WORK``
patched to 1, every block, however small, is offered to the numpy path.
"""

import json
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdim import certjson, divposets
from divdim.base import DomainError
from divdim.pipeline import RealiserCertificate, build_certificate, plan
from divdim.primes import sieve_primes


@lru_cache(maxsize=None)
def cert_text(n, seed=0):
    table = sieve_primes(max(n, 2))
    return build_certificate(plan(n, 0.5, table), seed, table).dumps()


def plain_loads(text):
    return RealiserCertificate.from_json_dict(certjson._plain_parse(text))


def result(read, text):
    try:
        return read(text)
    except DomainError as exc:
        return f"DomainError: {exc}"


def loads_on_numpy(text):
    """(loads' result, whether it read a block with numpy), every block offered."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divposets, "NUMPY_MIN_WORK", 1)
        return result(RealiserCertificate.loads, text), certjson._row_block_parse(text) is not None


def assert_loads_as_plain(text):
    got, on_numpy = loads_on_numpy(text)
    assert got == result(plain_loads, text)
    if isinstance(got, RealiserCertificate):
        # equal is not enough: a numpy integer compares equal to its int
        blocks = [getattr(z, f, ()) for z in got.zones for f in ("ranks", "sigma_ranks")]
        assert {type(v) for rows in blocks for row in rows for v in row} <= {int}
    return got, on_numpy


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("n", [60, 300, 1000])
def test_canonical_certificates_take_the_numpy_path(n):
    # n = 300 and 1000 hold a cover-free zone's sigma_ranks before the
    # random-suitable zone's ranks, so the placeholders resolve in order
    got, on_numpy = assert_loads_as_plain(cert_text(n))
    assert on_numpy and isinstance(got, RealiserCertificate)
    blocks = [getattr(z, "ranks", None) or getattr(z, "sigma_ranks", ()) for z in got.zones]
    assert {type(rows) for rows in blocks if rows} == {certjson.Rows}


def test_blocks_below_numpy_min_work_numbers_stay_with_the_decoder(monkeypatch):
    text = cert_text(60)
    zone = next(z for z in json.loads(text)["zones"] if z["kind"] == "random-suitable")
    count = sum(map(len, zone["ranks"]))
    for limit, on_numpy in ((count, True), (count + 1, False)):
        monkeypatch.setattr(divposets, "NUMPY_MIN_WORK", limit)
        assert (certjson._row_block_parse(text) is not None) == on_numpy


RANKS = st.one_of(
    st.integers(0, 300),
    st.integers(0, 10**18 - 1),
    st.integers(10**18, 10**25),  # 19 digits or more
    st.integers(-(10**6), -1),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(RANKS, max_size=6), max_size=5))
def test_any_rank_rows_load_as_the_plain_parse_reads_them(rows):
    data = json.loads(cert_text(60))
    zone = next(z for z in data["zones"] if z["kind"] == "random-suitable")
    zone["ranks"] = rows
    _, on_numpy = assert_loads_as_plain(canonical(data))
    values = [v for row in rows for v in row]
    numpy_form = rows and all(rows) and all(0 <= v < 10**18 for v in values)
    assert on_numpy == bool(numpy_form)


FRAGMENTS = [
    " ", "\n", "0", "00", "01", ",", ",,", "-", "-0", "1.0", "1e3", "true",
    "1" * 19, "9" * 5000, "[]", "[", "]", "],[", '"', "NaN", "Infinity",
    "\\u0031", "é",
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_row_blocks_load_as_the_plain_parse_reads_them(data):
    # one fragment inserted at, or written over, a place in or next to a
    # row block: whitespace, leading zeros, empty elements, trailing
    # commas, long or negative numerals, floats, true, quotes, escapes
    text = cert_text(data.draw(st.sampled_from([60, 300])))
    keys = [i for i in range(len(text)) if text.startswith('ranks":[[', i)]
    start = data.draw(st.sampled_from(keys)) + len('ranks":')
    end = text.index("]]", start) + 2
    at = data.draw(st.integers(start - 2, end + 1))
    cut = data.draw(st.integers(0, 2))
    fragment = data.draw(st.sampled_from(FRAGMENTS))
    assert_loads_as_plain(text[:at] + fragment + text[at + cut :])


def _in_zone(text, before, insert):
    return text.replace(before, insert + before, 1)


@pytest.mark.parametrize(
    "edit",
    [
        # duplicate keys: JSON keeps the last, which is the recorded rows...
        lambda t: _in_zone(t, '"ranks":[[', '"ranks":[[1,0],[0,1]],'),
        # ...or the extra rows
        lambda t: _in_zone(t, '"retry_index"', '"ranks":[[1,0],[0,1]],'),
        # a block inside a string: a quote left open before it...
        lambda t: _in_zone(t, '"ranks":[[', '"note":"a '),
        # ...or written escaped
        lambda t: _in_zone(t, '"retry_index"', '"note":"\\"ranks\\":[[1,0]]",'),
        # a key that only ends in ranks, and sigma_ranks where none is read
        lambda t: _in_zone(t, '"retry_index"', '"xranks":[[1,0]],"sigma_ranks":[[1]],'),
        # a constant outside the blocks
        lambda t: t.replace('"eps":0.5', '"eps":NaN'),
        lambda t: t.replace('"eps":0.5', '"eps":-Infinity'),
    ],
    ids=[
        "duplicate-key-first", "duplicate-key-last", "open-string",
        "escaped-string", "other-keys", "nan", "minus-infinity",
    ],
)
def test_odd_layouts_load_as_the_plain_parse_reads_them(edit):
    for n in (60, 300):
        text = edit(cert_text(n))
        assert text != cert_text(n)
        assert_loads_as_plain(text)


@pytest.fixture(scope="module")
def text_1e5():
    text = cert_text(100_000)
    # the top zone's 40 × 9515 ranks and each cover-free zone's 256 × 256
    # reach NUMPY_MIN_WORK without patching
    assert certjson._row_block_parse(text) is not None
    return text


def test_loads_at_1e5_shares_one_int_per_rank(text_1e5):
    cert = RealiserCertificate.loads(text_1e5)
    assert cert == plain_loads(text_1e5)
    zone = cert.zones[-1]
    assert zone.kind == "random-suitable"
    assert len({id(v) for row in zone.ranks for v in row}) == len(zone.primes) == 9515


def test_loads_at_1e5_peaks_no_higher_than_the_plain_parse(text_1e5):
    def peak(read):
        tracemalloc.start()
        try:
            read(text_1e5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(RealiserCertificate.loads) <= peak(plain_loads)


@pytest.mark.parametrize(
    "n,kind,key", [(60, "random-suitable", "ranks"), (1000, "cover-free", "sigma_ranks")]
)
def test_negative_or_short_rows_are_rejected_at_load(n, kind, key):
    # a row the decoder reads is walked for a negative value; one the
    # numpy reader reads cannot hold one, and only its length is checked
    for edit, message in (
        (lambda rows: rows[0].__setitem__(0, -1), f"{key} holds a negative value"),
        (lambda rows: rows[0].pop(), "malformed"),
    ):
        data = json.loads(cert_text(n))
        edit(next(z for z in data["zones"] if z["kind"] == kind)[key])
        text = canonical(data)
        with pytest.raises(DomainError, match=message):
            RealiserCertificate.loads(text)
        assert_loads_as_plain(text)
