"""Reference versions that the library's zone code is checked against.

``_zone_owns`` is the map sampled and exhaustive verify used before
their zone parts moved to numpy columns: it reads one number's
``factorize`` dict and gives its own, the (column, exponent) pairs, in
each zone it meets.  ``colex_places_of_owns`` ranks owns given as
tuples under rows as recorded through ``pipeline._colex_places``.
``smooth_nodes`` is the zone walk with one recursive generator per
node, whose order ``divposets.smooth_nodes`` must keep: the
suitability witness is the first failing number in that order.
``_first_containment_mismatch`` is the two-sided embedding check, one
element at a time on each side, that ``divposets.coverfree_embedding``,
which checks union images one prime at a time, must agree with.
"""

import functools
import operator
from typing import Callable, Iterator, Sequence

from divdim.pipeline import _colex_places, _padded, _rank_matrix
from divdim.posets import _coversets


def _zone_owns(zones) -> Callable[[dict[int, int]], dict[int, tuple]]:
    """A map from m's factorisation to {zone number: own}, for the zones m meets.

    ``own`` is m's (column, exponent) pairs on the zone's primes.  A zone
    m does not meet is absent: its own is ().
    """
    homes: dict[int, tuple[int, ...]] = {}
    for zi, (index, _) in enumerate(zones):
        for p in index:
            homes[p] = homes.get(p, ()) + (zi,)

    def owns(factors: dict[int, int]) -> dict[int, tuple]:
        found: dict[int, tuple] = {}
        for p, e in factors.items():
            for zi in homes.get(p, ()):
                found[zi] = found.get(zi, ()) + ((zones[zi][0][p], e),)
        return found

    return owns


def colex_places_of_owns(rows, owns):
    """``_colex_places`` for rank rows as recorded and owns as tuples of
    (column, exponent) pairs."""
    return _colex_places(_rank_matrix(rows), _padded(owns))


def smooth_nodes(
    primes: Sequence[int], n: int, squarefree: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(m, prime indices) for each m <= n over ascending ``primes``, depth first."""

    def rec(start: int, value: int, indices: tuple[int, ...]):
        yield value, indices
        for i in range(start, len(primes)):
            v = value * primes[i]
            if v > n:
                break
            ind = indices + (i,)
            while v <= n:
                yield from rec(i + 1, v, ind)
                if squarefree:
                    break
                v *= primes[i]
                ind += (i,)

    return rec(0, 1, ())


def _first_containment_mismatch(
    source: Sequence[int], image: Sequence[int]
) -> tuple[int, int, str] | None:
    """First (a, b) in row-major order where containment is not preserved.

    ``source[k]`` and ``image[k]`` are sets as bitmasks.  This is
    ``verify_embedding`` for the map source[k] -> image[k] between the
    two containment orders: (a, b, "order-lost") when source[a] is
    contained in source[b] but image[a] not in image[b], (a, b,
    "order-created") for the converse.  Each side's columns, the rows
    holding each element as a bitmask, come from one ``_coversets``; the
    rows holding all of a's elements are the AND of their columns, so a
    row costs |a| big-int ANDs, not a scan of b.
    """
    everyone = (1 << len(source)) - 1

    def holding(mask: int, held: dict[int, int]) -> int:
        rows = everyone
        while mask:
            low = mask & -mask
            rows &= held[low.bit_length() - 1]
            mask ^= low
        return rows

    source_held = _coversets(source, functools.reduce(operator.or_, source, 0))
    image_held = _coversets(image, functools.reduce(operator.or_, image, 0))
    for a, (mask, img) in enumerate(zip(source, image)):
        above = holding(mask, source_held)
        differ = above ^ holding(img, image_held)
        if differ:
            b = (differ & -differ).bit_length() - 1
            return a, b, "order-lost" if above >> b & 1 else "order-created"
    return None
