"""Reference versions that the library's zone code is checked against.

``_zone_owns`` is the map sampled and exhaustive verify used before
their zone parts moved to numpy columns: it reads one number's
``factorize`` dict and gives its own, the (column, exponent) pairs, in
each zone it meets.  ``colex_places_of_owns`` ranks owns given as
tuples under rows as recorded through ``pipeline._colex_places``.
``smooth_nodes`` is the zone walk with one recursive generator per
node, whose order ``divposets.smooth_nodes`` must keep: the
suitability witness is the first failing number in that order.
"""

from typing import Callable, Iterator, Sequence

from divdim.pipeline import _colex_places, _padded, _rank_matrix


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
