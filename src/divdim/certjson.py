"""Certificate JSON text as Python values, for ``RealiserCertificate.loads``.

``parse`` gives what ``json.loads`` gives, with two differences.  Equal
ints are one object, so the millions of ranks a large certificate
records take little more than their pointers.  And NaN, Infinity and
-Infinity, which Python's decoder reads but JSON lacks, make the text
invalid.  A large block of rank rows is read with numpy, as ``Rows``
of tuples: the same values, at a fraction of the decoder's cost per
number.
"""

from __future__ import annotations

import json

from . import divposets
from .base import DomainError


def parse(text: str):
    """JSON ``text`` as Python values, or DomainError."""
    data = _row_block_parse(text)
    return _plain_parse(text) if data is None else data


def _plain_parse(text: str):
    """``parse`` without numpy: every number through ``_IntMemo``."""
    try:
        return json.loads(text, parse_int=_IntMemo().__getitem__, parse_constant=_not_json)
    # JSONDecodeError, a numeral too long for int, a constant JSON lacks,
    # or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"certificate is not valid JSON: {exc}") from exc


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON value")


class _IntMemo(dict):
    """Numeral -> int for one parse, one int object per distinct numeral.

    JSON decoding otherwise makes a new int for every number, so at
    n = 10^5 the loaded rank rows would hold about 12 MB of equal ints;
    shared, they are little more than their pointers.  But the decoder
    calls it once per number, so the large row blocks that
    ``_row_block_parse`` reads bypass it: their values come from
    ``_RowReader``'s table, one int object per value too.
    """

    def __missing__(self, numeral: str) -> int:
        value = self[numeral] = int(numeral)
        return value


class Rows(tuple):
    """Rank rows read by ``_RowReader``: tuples of ints, checked as they were read."""


def _row_block_parse(text: str):
    """The parse of ``text``, its large rank-row blocks read by numpy, or None.

    A row block is the value of a "ranks" or "sigma_ranks" key.  One of
    at least ``divposets.NUMPY_MIN_WORK`` numbers, written exactly as
    ``RealiserCertificate.dumps`` writes it, is read by ``_RowReader``
    and replaced by a NaN token, which ``parse_constant`` turns back
    into its rows in document order.  A block holds only digits, commas
    and brackets, so the rest of the text decides whether that is
    sound: it must hold no backslash, so quotes alone delimit strings;
    an even count of quotes before the key, so the block is not inside
    a string; and no NaN or Infinity, so every NaN is a placeholder.
    The spliced text then parses exactly when ``text`` does, to the same
    values.  None means ``text`` is to be parsed as it is, which gives
    an unparsable text its usual error.
    """
    min_work = divposets.NUMPY_MIN_WORK
    # the smallest such block: min_work one-digit numbers, their
    # separators and the outer brackets
    smallest = 2 * min_work + 3
    if len(text) < smallest:
        return None
    reader = None
    rest, blocks = [], []  # the text around the blocks read, and their rows
    pos = last = done = quotes = 0  # quotes counts those in text[:done]
    while (hit := text.find('ranks":[[', pos)) >= 0:
        pos, start = hit + 1, hit + 7
        end = text.find("]]", start) + 2  # the block's end, if canonical
        if text[hit - 1 : hit] == '"':
            key = hit - 1
        elif hit >= 7 and text.startswith('"sigma_', hit - 7):
            key = hit - 7
        else:
            continue
        if end - start < smallest:
            continue
        count = text.count(",", start, end) + 1  # its numbers, if canonical
        quotes += text.count('"', done, key)
        done = key
        if count < min_work or quotes % 2:
            continue
        reader = reader or _RowReader()
        rows = reader.read(text, start, end)
        if rows is not None:
            rest.append(text[last:start])
            blocks.append(rows)
            pos = last = end
    rest.append(text[last:])
    if not blocks or any(s in part for part in rest for s in ("\\", "NaN", "Infinity")):
        return None
    placed = iter(blocks)
    try:
        return json.loads(
            "NaN".join(rest),
            parse_int=_IntMemo().__getitem__,
            parse_constant=lambda _: next(placed),
        )
    except (ValueError, RecursionError):
        return None


class _RowReader:
    """Reads row blocks with numpy, a bounded chunk at a time.

    ``table[v]`` is the int v, so equal values read anywhere stay one int
    object.  It grows to the largest value read, as long as that value is
    below the length of its chunk's longest row, which bounds every rank
    of a permutation row; a chunk holding a larger value gets fresh ints.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.table = np.empty(0, dtype=object)

    def read(self, text: str, start: int, end: int) -> Rows | None:
        """The rows of the block ``text[start:end]``, or None.

        None unless the block is exactly the canonical text of its
        values.  It is read a chunk of whole rows at a time, each chunk
        ending at the first row end past ``divposets.NUMPY_MIN_WORK``
        characters.
        """
        step = divposets.NUMPY_MIN_WORK
        rows: list[tuple[int, ...]] = []
        at, stop = start + 2, end - 2  # inside the outer brackets
        while True:
            cut = text.find("],[", at + step, stop)
            chunk = self._chunk(text[at : stop if cut < 0 else cut])
            if chunk is None:
                return None
            # each row tuple is made straight from the chunk's object array,
            # after the chunk's other arrays are freed: a list per row, or
            # tuples made amid those arrays, left more freed blocks between
            # the tuples that stay, and a higher peak RSS over repeated
            # in-process verifies at n = 10^5
            ints, bounds = chunk
            rows += [tuple(ints[a:b]) for a, b in zip(bounds, bounds[1:])]
            if cut < 0:
                return Rows(rows)
            at = cut + 3

    def _chunk(self, text: str) -> tuple[object, list[int]] | None:
        """(values, row bounds) of ``text``, canonical rows joined by "],[", or None.

        The values are an object array of shared ints, or of fresh ones
        past the table.
        """
        np = self.np
        c = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
        # every "]" starts a "],[" and every "[" ends one
        close = np.flatnonzero(c == ord("]"))
        if close.size and (
            close[-1] + 2 >= c.size
            or (c[close + 1] != ord(",")).any()
            or (c[close + 2] != ord("[")).any()
        ):
            return None
        if np.count_nonzero(c == ord("[")) != close.size:
            return None
        # what is left are numbers and commas: 1 to 18 digits each, no
        # leading zero
        s = c[(c != ord("[")) & (c != ord("]"))]
        comma = s == ord(",")
        if not (comma | ((s >= ord("0")) & (s <= ord("9")))).all():
            return None
        seps = np.flatnonzero(comma)
        starts = np.concatenate(([0], seps + 1))
        ends = np.concatenate((seps, [s.size]))
        lengths = ends - starts
        if lengths.min() < 1 or lengths.max() > 18:
            return None
        if ((s[starts] == ord("0")) & (lengths > 1)).any():
            return None
        values = np.zeros(lengths.size, dtype=np.int64)
        for j in range(int(lengths.max())):
            digit = np.where(lengths > j, s[ends - 1 - j] - ord("0"), 0)
            values += digit.astype(np.int64) * 10**j
        # with the brackets gone, the comma after the k-th "]" stands at
        # close[k] - 2k in s; if that is seps[i], row k ends after number i
        row_ends = np.searchsorted(seps, close - 2 * np.arange(close.size)) + 1
        bounds = np.concatenate(([0], row_ends, [values.size]))
        top = int(values.max())
        if len(self.table) <= top < np.diff(bounds).max():
            grown = np.arange(len(self.table), top + 1).astype(object)
            self.table = np.concatenate((self.table, grown))
        ints = self.table[values] if top < len(self.table) else values.astype(object)
        return ints, bounds.tolist()
