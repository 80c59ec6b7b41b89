"""Three-zone realiser certificates for the divisibility order on [n].

The primes up to n are split into a small zone (one chain coordinate per
prime), middle doubling intervals (cover-free colex coordinates when the
numeric hypotheses hold, random suitable sets otherwise), and a large
zone (random suitable sets).  The resulting coordinate list certifies an
upper bound on the order dimension and can be re-verified independently
from the recorded seeds and recipes.  ``random_suitable_interval`` draws,
checks and retries one random suitable set; the build calls it per zone,
and ``divdim suitable`` calls it for a single interval.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

from . import certjson, divposets
from .base import DomainError, O1_DROPPED_NOTE, RetryBudgetError, Verdict
from .coverfree import SetFamily, build_field, eff_family
from .divposets import (
    BoostParams,
    boost_params,
    check_interval_suitability,
    coverfree_embedding,
    draw_interval_perms,
    suitable_draw_size,
)
from .primes import PrimeTable, factorize_many, prime_power_base, sieve_primes
from .rng import MASK64, SplitMix64, accept_limit, check_seed, child_seed

SCHEMA_VERSION = 1
CERTIFICATE_FORMAT = "divdim-certificate"
# ordered pairs the sampled verifier checks at once; its memory is
# O(SAMPLE_BATCH), whatever the sample count
SAMPLE_BATCH = 4096
# colex codes, (row, part, place in the part) cells, that _colex_places
# handles at once
PLACES_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# planning


@dataclass(frozen=True)
class ZonePlan:
    kind: str  # "chains" | "cover-free" | "random-suitable"
    lo: float
    hi: float
    primes: tuple[int, ...]
    boost: BoostParams | None = None


@dataclass(frozen=True)
class PipelinePlan:
    n: int
    eps: float
    small_limit: float
    middle_limit: float
    interval_count: int
    zones: tuple[ZonePlan, ...]

    def validate_partition(self, table: PrimeTable) -> None:
        """Every prime <= n must land in exactly one zone."""
        if self.n < 2:
            return
        seen: list[int] = []
        for z in self.zones:
            seen.extend(z.primes)
        expected = list(table.primes_in(0, self.n))
        if sorted(seen) != expected or len(seen) != len(set(seen)):
            raise DomainError("plan zones do not partition the primes up to n")


def plan(n: int, eps: float = 0.5, table: PrimeTable | None = None) -> PipelinePlan:
    """Zone decomposition for n; degenerate cases collapse to chains.

    For n < 16 the asymptotic zone formulas are meaningless and every
    prime becomes a chain (for n = 1, which has no primes at all, a
    single constant chain coordinate on the prime 2 keeps the realiser
    nonempty).
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if table is None:
        table = sieve_primes(max(n, 2))
    if table.limit < n:
        raise DomainError(f"prime table limit {table.limit} is below n={n}")
    if n == 1:
        zones = (ZonePlan("chains", 1.0, 2.0, (2,)),)
        return PipelinePlan(n, eps, 1.0, 1.0, 0, zones)
    if n < 16:
        zones = (ZonePlan("chains", 1.0, float(n), table.primes_in(0, n)),)
        return PipelinePlan(n, eps, float(n), float(n), 0, zones)
    ln = math.log(n)
    lln = math.log(ln)
    llln = math.log(lln)
    small = ln * ln / lln
    middle = math.exp(lln * lln)
    d = int((2 + eps) * ln / lln)
    count = math.ceil((1 / math.log(2) + eps) * llln)
    zones: list[ZonePlan] = [ZonePlan("chains", 1.0, small, table.primes_in(0, small))]
    if middle > small:
        for k in range(1, count + 1):
            lo = max(small, float(d ** (2 ** (k - 1))))
            hi = min(middle, float(d ** (2**k)))
            if hi <= lo:
                continue
            primes = table.primes_in(lo, hi)
            if not primes:
                continue
            bp = boost_params(n, eps, k, table)
            kind = "cover-free" if bp.feasible else "random-suitable"
            zones.append(ZonePlan(kind, lo, hi, primes, bp))
        if d ** (2**count) < middle:
            # the requested intervals stop short of B; widen with one more block
            lo = max(small, float(d ** (2**count)))
            primes = table.primes_in(lo, middle)
            if primes:
                zones.append(ZonePlan("random-suitable", lo, middle, primes))
    top = max(small, middle)
    if top < n:
        primes = table.primes_in(top, n)
        if primes:
            zones.append(ZonePlan("random-suitable", top, float(n), primes))
    out = PipelinePlan(n, eps, small, top, count, tuple(zones))
    out.validate_partition(table)
    return out


# ---------------------------------------------------------------------------
# certificates


# cover-free field parameters sit under one "field" object in the JSON
_IN_FIELD = {"group": "field"}


@dataclass(frozen=True)
class ChainZoneCert:
    lo: float
    hi: float
    primes: tuple[int, ...]

    kind = "chains"

    @property
    def dimension(self) -> int:
        return len(self.primes)

    def check_shape(self) -> None:
        """Nothing to check: the primes alone give the rows."""

    def rows(self, start: int = 0, stop: int | None = None) -> tuple[tuple[int, ...], ...]:
        """The standard rows, or those in range(start, stop): row c is column c's chain."""
        return _standard_rows(len(self.primes))[start:stop]


@dataclass(frozen=True)
class SuitableZoneCert:
    lo: float
    hi: float
    primes: tuple[int, ...]
    zone_seed: int
    retry_index: int
    target_size: int
    ranks: tuple[tuple[int, ...], ...]

    kind = "random-suitable"

    @property
    def dimension(self) -> int:
        return len(self.ranks)

    def check_shape(self) -> None:
        """Structural sanity of loaded rows, whose values ``_typed`` has
        checked are non-negative ints.

        Whether the rows really are the seeded permutations is
        verification's job.
        """
        if any(len(row) != len(self.primes) for row in self.ranks):
            raise DomainError("malformed rank row")

    def rows(self, start: int = 0, stop: int | None = None) -> tuple[tuple[int, ...], ...]:
        """The recorded rank rows, or those in range(start, stop)."""
        return self.ranks[start:stop]


@dataclass(frozen=True)
class CoverFreeZoneCert:
    lo: float
    hi: float
    primes: tuple[int, ...]
    p: int = field(metadata=_IN_FIELD)
    k: int = field(metadata=_IN_FIELD)
    modulus: tuple[int, ...] = field(metadata=_IN_FIELD)
    h: int
    r: int
    ground_size: int
    capacity: int
    family: tuple[tuple[int, ...], ...]  # sorted member arrays, construction order
    phi: tuple[int, ...]
    sigma_ranks: tuple[tuple[int, ...], ...]

    kind = "cover-free"

    @property
    def dimension(self) -> int:
        return self.ground_size

    def check_shape(self) -> None:
        """Structural sanity of loaded members, assignment and ground rows."""
        for member in self.family:
            if any(not 0 <= e < self.ground_size for e in member):
                raise DomainError("family element outside the ground")
        if len(self.phi) != len(self.primes) or any(
            not 0 <= i < len(self.family) for i in self.phi
        ):
            raise DomainError("malformed member assignment")
        if any(len(row) != self.ground_size for row in self.sigma_ranks):
            raise DomainError("malformed ground permutation")

    def tau_rank_rows(self, start: int = 0, stop: int | None = None) -> list[list[int]]:
        """Zone-prime orderings induced by the family images.

        For each ground permutation sigma, primes are ordered by the
        colex key of their assigned member set (each element with
        exponent 1); that family of orderings is suitable for the zone's
        squarefree supports.  Row i reads sigma row i alone, so the rows
        in range(start, stop) are those of that slice of ``sigma_ranks``.
        A zone below ``divposets.NUMPY_MIN_WORK`` colex codes (all its
        rows × summed member sizes) is ranked in Python by
        ``_colex_ranks``, so a small build or verify runs without numpy;
        a larger one by ``_colex_places``, whatever the slice.  The rows
        are the same.
        """
        members = self._members()
        sigmas = self.sigma_ranks[start:stop]
        if len(self.sigma_ranks) * sum(map(len, members)) < divposets.NUMPY_MIN_WORK:
            return [_colex_ranks(sigma, members) for sigma in sigmas]
        return _colex_places(_rank_matrix(sigmas), _padded(members)).tolist()

    rows = tau_rank_rows

    def _members(self) -> list[tuple[tuple[int, int], ...]]:
        # each prime's assigned member set as an own: every element, exponent 1
        return [tuple((e, 1) for e in self.family[i]) for i in self.phi]


_ZONE_TYPES = {z.kind: z for z in (ChainZoneCert, SuitableZoneCert, CoverFreeZoneCert)}


def _zone_json(zone) -> dict:
    """A zone's fields as JSON values; tuples encode as JSON arrays."""
    out = {"kind": zone.kind}
    for f in fields(zone):
        group = f.metadata.get("group")
        (out.setdefault(group, {}) if group else out)[f.name] = getattr(zone, f.name)
    return out


def _zone_from_json(data: dict):
    zone_type = _ZONE_TYPES.get(data["kind"])
    if zone_type is None:
        raise DomainError(f"unknown zone kind {data['kind']!r}")
    values = {}
    for f in fields(zone_type):
        group = f.metadata.get("group")
        values[f.name] = _typed(f.name, f.type, (data[group] if group else data)[f.name])
    zone = zone_type(**values)
    zone.check_shape()
    return zone


_ROWS = "tuple[tuple[int, ...], ...]"


def _typed(name: str, kind: str, value):
    """A recorded JSON value as the field annotated ``kind``, or DomainError.

    Ints are checked by exact type: JSON true, false and numbers written
    3.0 are not ints.  A float field takes ints too.  Arrays become
    tuples, and rows ``certjson.Rows``, as a built certificate holds
    them.  Rows hold no negative value; ``certjson.Rows`` cannot, so
    only the decoder's rows are walked for one.  An annotation with no
    reader here raises, so a new field cannot be read unchecked.
    """
    if kind == "int":
        if type(value) is int:
            return value
    elif kind == "float":
        if type(value) in (int, float):
            return value
    elif kind == "tuple[int, ...]":
        if _int_array(value):
            return tuple(value)
    elif kind == _ROWS:
        if type(value) is certjson.Rows:  # checked as it was read
            return value
        if isinstance(value, list) and all(map(_int_array, value)):
            if any(min(row, default=0) < 0 for row in value):
                raise DomainError(f"malformed certificate: {name} holds a negative value")
            return certjson.Rows(map(tuple, value))
    else:
        raise NotImplementedError(f"no JSON reader for field {name}: {kind}")
    raise DomainError(f"malformed certificate: {name} is not {kind}")


def _int_array(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {int}


@dataclass(frozen=True)
class RealiserCertificate:
    """Serialisable proof object for dim(divisibility on [n]) <= dimension."""

    n: int
    eps: float
    seed: int
    max_exponent: int
    dimension: int
    zones: tuple
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self) -> dict:
        """The format tag and every field, as ``from_json_dict`` reads them."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(format=CERTIFICATE_FORMAT, zones=[_zone_json(z) for z in self.zones])
        return out

    def dumps(self) -> str:
        """Canonical compact JSON: sorted keys, no whitespace, one final newline.

        ``certjson.dumps`` writes it: the text of ``json.dumps``, with the
        ``certjson.Rows`` blocks a built or loaded certificate holds
        written from a table of numerals rather than by the encoder one
        int at a time.
        """
        return certjson.dumps(self.to_json_dict()) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "RealiserCertificate":
        try:
            if not isinstance(data, dict) or data.get("format") != CERTIFICATE_FORMAT:
                raise DomainError("not a certificate file")
            if data["schema_version"] != SCHEMA_VERSION:
                raise DomainError(
                    f"unsupported schema_version {data['schema_version']}"
                )
            values = {
                f.name: _typed(f.name, f.type, data[f.name])
                for f in fields(cls)
                if f.name != "zones"
            }
            if values["n"] < 1:
                raise DomainError(f"n must be a positive integer, got {values['n']}")
            zones = tuple(_zone_from_json(z) for z in data["zones"])
            return cls(zones=zones, **values)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed certificate: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "RealiserCertificate":
        """The certificate that JSON ``text`` records, or DomainError."""
        return cls.from_json_dict(certjson.parse(text))


def _standard_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """d permutations of [d]: the i-th puts element i on top.

    These realise any suborder of the subset lattice on [d]: whenever
    U is not contained in V, any x in U minus V makes V colex-smaller
    than U under the x-on-top order, and likewise for multisets, with x
    of higher multiplicity in U: so they are a chain zone's rows too.
    """
    return tuple((*range(i), d - 1, *range(i, d - 1)) for i in range(d))


def _coverfree_zone(zp: ZonePlan) -> CoverFreeZoneCert:
    """A cover-free zone from its boost parameters alone.

    That is the field, the family, the canonical phi and the standard
    ground permutations.
    """
    bp = zp.boost
    fieldspec = build_field(*prime_power_base(bp.q))
    family = eff_family(fieldspec, bp.h, count=len(zp.primes))
    return CoverFreeZoneCert(
        lo=zp.lo,
        hi=zp.hi,
        primes=zp.primes,
        p=fieldspec.p,
        k=fieldspec.k,
        modulus=fieldspec.modulus,
        h=bp.h,
        r=bp.r,
        ground_size=fieldspec.q**2,
        capacity=bp.capacity,
        family=certjson.Rows(tuple(sorted(s)) for s in family.sets),
        phi=tuple(range(len(zp.primes))),
        sigma_ranks=certjson.Rows(_standard_rows(fieldspec.q**2)),
    )


def _derive_zone(n: int, zi: int, zp: ZonePlan, seed: int, retry_index: int):
    """Zone ``zi`` of the certificate for (plan, seed), given its one recipe input.

    Chains come from the plan alone and cover-free zones from its boost
    parameters.  A random-suitable zone is ``_drawn_zone`` at
    ``retry_index`` (which must lie in range(RETRY_BUDGET)) of the stream
    child_seed(seed, zi).  No recorded value sizes a computation here.
    """
    if zp.kind == "chains":
        return ChainZoneCert(zp.lo, zp.hi, zp.primes)
    if zp.kind == "cover-free":
        return _coverfree_zone(zp)
    return _drawn_zone(n, zp.lo, zp.hi, zp.primes, child_seed(seed, zi), retry_index)


def _drawn_zone(
    n: int, lo: float, hi: float, primes: tuple[int, ...], zone_seed: int, retry_index: int
) -> SuitableZoneCert:
    """The draw at ``retry_index`` of the stream ``zone_seed`` for the
    primes in (lo, hi], at the size ``suitable_draw_size`` gives; unchecked."""
    size = suitable_draw_size(n, lo, len(primes), retry_index)
    rows = draw_interval_perms(primes, zone_seed, retry_index, size)
    ranks = certjson.Rows(map(tuple, rows))
    return SuitableZoneCert(lo, hi, primes, zone_seed, retry_index, size, ranks)


def _zone_verdict(n: int, zone) -> Verdict:
    """``check_interval_suitability`` on the zone's ``rows``; chains pass
    unwalked, as the row of a prime's column ranks it above all others."""
    if zone.kind == "chains":
        return Verdict(True)
    rows = zone.rows()
    primes = zone.primes
    # re-index by ascending prime only when the primes do not ascend: a
    # copy of a large zone's rows would raise the build's peak memory
    if any(a > b for a, b in zip(primes, primes[1:])):
        order = sorted(range(len(primes)), key=primes.__getitem__)
        primes = [primes[i] for i in order]
        rows = [[row[i] for i in order] for row in rows]
    return check_interval_suitability(n, primes, rows)


def _build_coverfree_zone(n: int, zone: ZonePlan, table: PrimeTable) -> CoverFreeZoneCert:
    """The zone's certificate, with every construction check run on it."""
    cert = _coverfree_zone(zone)
    family = SetFamily(cert.ground_size, tuple(map(frozenset, cert.family)))
    masks = family.masks()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() > cert.h:
                raise RuntimeError("polynomial graphs intersect above the degree bound")
    _, verdict = coverfree_embedding(n, zone.lo, zone.hi, family, cert.r, table)
    if not verdict:
        raise RuntimeError(f"cover-free embedding failed verification: {verdict.witness}")
    suit = _zone_verdict(n, cert)
    if not suit:
        raise RuntimeError(f"derived orderings not suitable: {suit.witness}")
    return cert


def random_suitable_interval(
    n: int, a: float, b: float, seed: int, table: PrimeTable
) -> SuitableZoneCert:
    """Draw and verify a suitable set for the primes in (a, b].

    Retry i is ``_drawn_zone`` at index i of the stream ``seed``, checked
    with ``_zone_verdict``; the first that passes is returned.  The
    budget is ``divposets.RETRY_BUDGET``, read at call time so that it can
    be patched.  ``build_certificate`` calls it for each random-suitable
    zone with the zone's seed, and ``divdim suitable`` with the given one.
    """
    if a < 2:
        raise DomainError("a must be at least 2 so log a is positive")
    if not a < b <= n:
        raise DomainError("need a < b <= n")
    check_seed(seed)
    primes = table.primes_in(a, b)
    if not primes:
        raise DomainError(f"no primes in ({a}, {b}]")
    budget = divposets.RETRY_BUDGET
    for retry in range(budget):
        zone = _drawn_zone(n, a, b, primes, seed, retry)
        if _zone_verdict(n, zone):
            return zone
    raise RetryBudgetError(
        f"no suitable set found for ({a}, {b}] with n={n} in {budget} retries "
        f"at draw size {suitable_draw_size(n, a, len(primes), budget - 1)}"
    )


def build_certificate(
    pl: PipelinePlan, seed: int, table: PrimeTable
) -> RealiserCertificate:
    """Assemble and constructively verify all zone coordinates.

    Deterministic in (plan, seed).  A random-suitable zone is the first
    passing retry of ``random_suitable_interval`` on the stream
    child_seed(seed, zi); integrity re-derives it with ``_derive_zone``
    and exhaustive verify checks it with ``_zone_verdict``, the calls
    that retry makes.
    """
    check_seed(seed)
    if table.limit < pl.n:
        raise DomainError("prime table does not cover n")
    zones: list = []
    for zi, zp in enumerate(pl.zones):
        if zp.kind == "random-suitable":
            try:
                zone = random_suitable_interval(pl.n, zp.lo, zp.hi, child_seed(seed, zi), table)
            except RetryBudgetError as exc:
                raise RetryBudgetError(f"zone {zi}: {exc}") from None
        elif zp.kind == "cover-free":
            zone = _build_coverfree_zone(pl.n, zp, table)
        else:
            zone = _derive_zone(pl.n, zi, zp, seed, 0)  # chains: _zone_verdict passes them
        zones.append(zone)
    dimension = sum(z.dimension for z in zones)
    return RealiserCertificate(
        n=pl.n,
        eps=pl.eps,
        seed=seed,
        max_exponent=max(pl.n.bit_length() - 1, 0),
        dimension=dimension,
        zones=tuple(zones),
    )


# ---------------------------------------------------------------------------
# coordinate evaluation


def _colex_key(
    row: tuple[int, ...], own: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """m's (rank, exponent) pairs under ``row``, highest rank first.

    ``own`` lists m's (column, exponent) pairs on a zone's primes and
    ``row`` ranks the columns.  Exponents are positive, so when the ranks
    are distinct, comparing two keys as tuples is the colex order: the
    highest-ranked column where the exponents differ decides.  The key
    is as long as ``own``, whatever values are recorded in ``row``.
    """
    return tuple(sorted([(row[c], e) for c, e in own], reverse=True))


def _colex_ranks(row: Sequence[int], owns: Iterable) -> list[int]:
    """Each own's place among the distinct colex keys under ``row``.

    Equal keys share a place.  The keys are sorted and neighbours
    compared, not put in a set or dict: a key is a tuple of pairs that
    is hashed anew on each use, which made ``tau_rank_rows`` about a
    third slower at n = 10^5.
    """
    keys = [_colex_key(row, own) for own in owns]
    ranks = [0] * len(keys)
    place, last = -1, None
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[j] != last:
            place, last = place + 1, keys[j]
        ranks[j] = place
    return ranks


def _rank_matrix(rows: Sequence[Sequence[int]]):
    """Equal-length rank rows as one int64 array of values in range(len(row)).

    A row holding a value outside that range (``check_shape`` lets it
    through, integrity rejects it) is replaced by the dense order of its
    values.  That keeps their order and ties, so every colex comparison
    comes out the same, and no recorded value, however large, is
    multiplied or overflows int64.
    """
    import numpy as np

    try:
        ranks = np.asarray(rows, dtype=np.int64)
    except OverflowError:  # a value beyond int64
        ranks = np.array(rows, dtype=object)
    ranks = ranks.reshape(len(rows), len(rows[0]) if len(rows) else 0)
    if (ranks >= ranks.shape[1]).any():
        dense = [np.unique(row, return_inverse=True)[1] for row in ranks]
        ranks = np.array(dense, dtype=np.int64).reshape(ranks.shape)
    return ranks


def _padded(owns: Sequence) -> tuple:
    """Owns, each a sequence of (column, exponent) pairs, as padded arrays.

    Returns (columns, exponents), two int64 arrays of one row per own,
    as wide as the longest; exponent 0 marks padding.
    """
    import numpy as np

    width = max(map(len, owns), default=0)
    lengths = np.fromiter(map(len, owns), dtype=np.intp, count=len(owns))
    used = np.arange(width) < lengths[:, None]
    pairs = np.array([pair for own in owns for pair in own], dtype=np.int64).reshape(-1, 2)
    cols = np.zeros(used.shape, dtype=np.int64)
    exps = np.zeros(used.shape, dtype=np.int64)
    cols[used], exps[used] = pairs[:, 0], pairs[:, 1]
    return cols, exps


def _colex_places(ranks, parts: tuple):
    """Each part's place among the distinct colex keys, one row per rank row.

    ``ranks`` is ``_rank_matrix(rows)`` and ``parts`` a (columns,
    exponents) pair of padded arrays, as ``_padded`` and ``_zone_parts``
    give them.  Entry [i, k] of the int64 (rows × parts) matrix equals
    ``_colex_ranks(rows[i], owns)[k]`` for the parts as owns, so equal
    keys share a place.  Each (column, exponent) pair is coded
    rank·(E+1)+e, with E the largest exponent, and padding as 0, which
    is below every code; a part's codes sorted ascending read its key
    from the end.  So ``lexsort`` with the last code as primary key
    orders the parts as their keys, and a neighbour whose codes differ
    starts a new place.  Rows are coded PLACES_BLOCK codes at a time.
    """
    import numpy as np

    cols, exps = parts
    places = np.zeros((len(ranks), len(cols)), dtype=np.int64)
    if not exps.any():  # every key is empty
        return places
    used = exps > 0
    base = int(exps.max()) + 1
    step = max(1, PLACES_BLOCK // used.size)
    for lo in range(0, len(ranks), step):
        codes = ranks[lo : lo + step, cols]
        codes *= base
        codes += exps
        codes *= used
        codes.sort(axis=2)
        order = np.lexsort(np.moveaxis(codes, 2, 0), axis=-1)
        codes = np.take_along_axis(codes, order[:, :, None], axis=1)
        steps = np.zeros(order.shape, dtype=np.int64)
        np.cumsum((codes[:, 1:] != codes[:, :-1]).any(axis=2), axis=1, out=steps[:, 1:])
        np.put_along_axis(places[lo : lo + step], order, steps, axis=1)
    return places


# a zone's prime -> column dict and the rank rows of its coordinates
_Zone = tuple[dict[int, int], Sequence[Sequence[int]]]


def _columns(zone) -> dict[int, int]:
    """The zone's prime -> column dict; a prime recorded twice keeps its last column."""
    return {p: i for i, p in enumerate(zone.primes)}


def certificate_zones(cert: RealiserCertificate) -> list[_Zone]:
    """The certificate's zones, each a colex order per row on its primes.

    One entry per zone, chains included: its column dict and its
    ``rows()``, the rows the build checked.
    """
    return [(_columns(zone), zone.rows()) for zone in cert.zones]


class _RowBlocks:
    """A zone's rank rows, each slice of them derived on first use and kept.

    ``blocks[start:stop]`` is ``_rank_matrix(zone.rows(start, stop))``,
    as a slice of the zone's whole rank matrix would be, so sampled
    verify reads it as it reads a plain matrix but derives only the
    blocks of rows that a pair reaches.
    """

    def __init__(self, zone) -> None:
        self._zone = zone
        self._made: dict[tuple, object] = {}

    def __getitem__(self, rows: slice):
        key = (rows.start, rows.stop)
        if key not in self._made:
            self._made[key] = _rank_matrix(self._zone.rows(rows.start, rows.stop))
        return self._made[key]


def _zone_table(zones: list[_Zone]):
    """Every zone's (prime, zone number, column) entries, sorted by prime.

    A (3, entries) int64 array, built once per certificate.  A prime in
    several zones has an entry for each; a prime in none has none.  A
    recorded prime outside 1..2^63-1 never divides a number that is
    checked, so it gets no entry either.
    """
    import numpy as np

    entries = [
        (p, zi, c)
        for zi, (index, _) in enumerate(zones)
        for p, c in index.items()
        if 0 < p < 1 << 63
    ]
    table = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return table[:, np.lexsort(table[::-1])]


def _zone_parts(table, zone_count: int, numbers):
    """Each zone's distinct parts among ``numbers``, and each number's part.

    ``table`` is ``_zone_table(zones)``.  A number's part in zone Z is
    named by its value, the product of p^e over the primes p of Z with
    p^e exactly dividing the number: it divides the number, so it fits
    int64, and no recorded value sizes it.  Returns (parts, group,
    values): parts[Z] holds the zone's distinct parts as padded
    (columns, exponents) arrays, ``_padded``'s form with each part's
    columns in the order of its primes, the empty part first and the
    others by ascending value; values[Z] holds their values, an int64
    array from 1, the empty part's; group[Z, k] is the index there of
    numbers[k]'s part.  The numbers are factorised together by
    ``factorize_many`` and each factor is matched to its zones' entries
    in the table; then each zone in turn takes its entries in factor
    order (by number, each number's primes ascending) and numbers the
    values it meets.
    """
    import numpy as np

    index, primes, exps = factorize_many(numbers)
    lo = np.searchsorted(table[0], primes, side="left")
    hits = np.searchsorted(table[0], primes, side="right") - lo
    # one entry per (factor, zone) match, in factor order
    factor = np.repeat(np.arange(len(primes)), hits)
    entry = lo[factor] + np.arange(len(factor)) - np.repeat(np.cumsum(hits) - hits, hits)
    zone, cols, exps = table[1, entry], table[2, entry], exps[factor]
    powers, number = primes[factor] ** exps, index[factor]
    group = np.zeros((zone_count, len(numbers)), dtype=np.intp)
    parts, values = [], []
    for zi in range(zone_count):
        at = np.flatnonzero(zone == zi)
        starts = np.flatnonzero(np.diff(number[at], prepend=-1))
        value = np.multiply.reduceat(powers[at], starts) if len(at) else at
        distinct, first, part = np.unique(value, return_index=True, return_inverse=True)
        values.append(np.insert(distinct, 0, 1))
        group[zi, number[at[starts]]] = part + 1
        # the first run of each distinct part fills its row; row 0, the
        # empty part, stays all zeros
        length = np.diff(starts, append=len(at))[first]
        used = np.arange(length.max(initial=0)) < length[:, None]
        take = at[(starts[first, None] + np.arange(used.shape[1]))[used]]
        part_cols = np.zeros((len(first) + 1, used.shape[1]), dtype=np.int64)
        part_exps = np.zeros_like(part_cols)
        part_cols[1:][used], part_exps[1:][used] = cols[take], exps[take]
        parts.append((part_cols, part_exps))
    return parts, group, values


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    ok: bool
    mode: str
    pairs_checked: int
    pair_failures: tuple
    integrity_failures: tuple
    integrity_s: float  # the prime table and the integrity phase
    functional_s: float  # the pair check
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status}: {self.mode} verification, {self.pairs_checked} ordered "
            f"pairs in {self.integrity_s + self.functional_s:.2f}s "
            f"(integrity {self.integrity_s:.2f}s, functional {self.functional_s:.2f}s)"
        ]
        for w in self.integrity_failures[:10]:
            lines.append(f"  integrity: {w}")
        for w in self.pair_failures:
            lines.append(f"  pair: {w}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _integrity_failures(
    cert: RealiserCertificate, table: PrimeTable
) -> list[tuple]:
    """Re-plan, derive every zone, and report where the record departs.

    Each zone is derived from the recomputed plan, the master seed and,
    for a random-suitable zone, its recorded retry index, so any edit of
    a recorded value shows up as a mismatch with the derivation.  A seed
    outside 0..2^64-1 is reported itself: the generator would alias it.
    """
    try:
        expected = plan(cert.n, cert.eps, table)
    except DomainError as exc:
        return [("plan", str(exc))]
    if len(expected.zones) != len(cert.zones):
        found = f"expected {len(expected.zones)} zones, found {len(cert.zones)}"
        return [("plan", found)]
    problems: list[tuple] = []
    if not 0 <= cert.seed <= MASK64:
        problems.append(("seed", cert.seed))
    if cert.max_exponent != max(cert.n.bit_length() - 1, 0):
        problems.append(("max_exponent", cert.max_exponent))
    if cert.dimension != sum(z.dimension for z in cert.zones):
        problems.append(("dimension", cert.dimension))
    for zi, (zp, zc) in enumerate(zip(expected.zones, cert.zones)):
        retry = getattr(zc, "retry_index", 0)  # the one recorded recipe input
        if zc.kind != zp.kind:
            detail = f"kind differs from the recomputed plan's {zp.kind!r}"
        elif not 0 <= retry < divposets.RETRY_BUDGET:
            detail = f"retry_index {retry!r} outside range({divposets.RETRY_BUDGET})"
        else:
            detail = _first_difference(zc, _derive_zone(cert.n, zi, zp, cert.seed, retry))
        if detail:
            problems.append((f"zone {zi} ({zc.kind})", detail))
    return problems


def _first_difference(recorded, derived) -> str | None:
    """The first field, or for rows the first row, where a zone differs."""
    for f in fields(derived):
        got, want = getattr(recorded, f.name), getattr(derived, f.name)
        if f.type == _ROWS:
            if len(got) != len(want):
                return f"{f.name}: {len(got)} rows recorded, {len(want)} derived"
            for i, (row, derived_row) in enumerate(zip(got, want)):
                if tuple(row) != tuple(derived_row):
                    return f"{f.name} row {i} differs from its derivation"
        elif got != want:
            shown = "" if isinstance(want, tuple) else f": recorded {got!r}, derived {want!r}"
            return f"{f.name} differs from its derivation{shown}"
    return None


def _failure_kind(a: int, b: int) -> str:
    if b % a == 0:
        return "divides-but-coordinates-disagree"
    return "coordinates-leq-but-not-divisible"


def _verify_exhaustive(
    cert: RealiserCertificate, table: PrimeTable
) -> tuple[int, list[tuple]]:
    """Prove all ordered pairs of 1..n zone by zone, without building the relation.

    With permutation rows, m | m' puts m at or below m' in every colex
    coordinate, and when p^e divides m but not m', a row ranking p above
    each prime of p's zone where m' has the larger exponent puts m above
    m'.  So the coordinates realise divisibility exactly when the zones
    partition the primes up to n and each zone's rows pass
    ``_zone_verdict``, the build's check, whose witness (s, p) is the
    failing pair (p, s); a prime in no zone fails as (p, 1).  A zone
    recording a prime more than once, a number that is not a prime up to
    n, or rows that are not permutations gets one line naming it.
    """
    n = cert.n
    if n < 2:
        return 0, []
    primes = table.primes_in(0, n)
    recorded = Counter(p for zone in cert.zones for p in zone.primes)
    missing = next((p for p in primes if p not in recorded), None)
    failures = [] if missing is None else [(missing, 1, _failure_kind(missing, 1))]
    expected = set(primes)
    for zi, zone in enumerate(cert.zones):
        name = f"zone {zi} ({zone.kind})"
        bad = next((p for p in zone.primes if recorded[p] > 1 or p not in expected), None)
        if bad is not None:
            why = "recorded more than once" if recorded[bad] > 1 else f"not a prime up to n={n}"
            failures.append((name, f"{bad} is {why}"))
            continue
        try:
            verdict = _zone_verdict(n, zone)
        except DomainError as exc:  # a row that is not a permutation, or no rows
            failures.append((name, str(exc)))
            continue
        if not verdict:
            s, p = verdict.witness
            failures.append((p, s, _failure_kind(p, s)))
    return n * n - n, failures


def _sample_pairs(n: int, count: int, seed: int) -> Iterator:
    """The first ``count`` ordered pairs a != b of [1, n] drawn from ``seed``.

    They are the pairs of the scalar draw: a = randbelow(n) + 1 and
    then b the same way from SplitMix64(seed), skipping a == b.  Here
    the outputs come a block at a time; those in randbelow's rejection
    region are dropped, consecutive accepted outputs pair up as (a, b),
    an odd last one waits for the next block, and pairs with a == b are
    dropped.  With that one, a block holds at most 2 * min(count,
    SAMPLE_BATCH) outputs, so it yields at most min(count, SAMPLE_BATCH)
    pairs, as two uint64 arrays, or nothing.  Needs 2 <= n < 2^64.
    """
    import numpy as np

    rng = SplitMix64(seed)
    limit = accept_limit(n)
    carry = np.empty(0, dtype=np.uint64)  # an accepted draw in [1, n] without its b
    while count:
        block = rng.next_block(2 * min(count, SAMPLE_BATCH) - len(carry))
        if limit <= MASK64:
            block = block[block < np.uint64(limit)]
        values = np.concatenate([carry, block % np.uint64(n) + np.uint64(1)])
        half = len(values) // 2
        a, b = values[: 2 * half : 2], values[1 : 2 * half : 2]
        carry = values[2 * half :]
        kept = a != b
        if kept.any():
            yield a[kept], b[kept]
            count -= int(kept.sum())


def _below_everywhere(zones: list[_Zone], table, a, b):
    """For each pair, whether a lies at or below b in every coordinate.

    ``zones`` hold their rows as ``_rank_matrix`` gives them, or as
    ``_RowBlocks``, which slice the same way, or None, and ``table`` is
    ``_zone_table(zones)``.  The batch's distinct numbers go through
    ``_zone_parts`` once each.  A zone's coordinates read only the
    parts, and a colex key only grows when an exponent grows or a prime
    is added, whatever the row's values, ties and all: so a pair whose
    part of a divides its part of b is at or below in every row of the
    zone, and the zone checks only the other pairs.  Parts are products
    of prime factors over one prime -> column map, so that is one
    modulus of their values; equal parts and the empty part, whose
    value is 1, divide too.  It reads its rows PLACES_BLOCK //
    SAMPLE_BATCH at a time, from row 0 on.  Each block places
    (``_colex_places``) just the parts that the pairs still live hold,
    since only their order is read, and filters the pairs through it
    row by row, keeping the ones no row has yet put a above b; the zone
    stops at the block after which none is live, so no matrix of rows ×
    pairs is made and later blocks are not read.  A chain zone's rows,
    given as None, are not read: where a's part does not divide b's,
    the standard row of a column where a's exponent is larger puts a
    above b.
    """
    import numpy as np

    numbers, index = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = index[: len(a)], index[len(a) :]
    parts, groups, values = _zone_parts(table, len(zones), numbers)
    below = np.ones(len(a), dtype=bool)
    step = max(1, PLACES_BLOCK // SAMPLE_BATCH)
    for (_, ranks), (cols, exps), g, value in zip(zones, parts, groups, values):
        live = np.flatnonzero(below & (value[g[ib]] % value[g[ia]] != 0))
        below[live] = False
        if ranks is None:  # a chain zone's standard rows refute every live pair
            continue
        start = 0
        while len(live):
            block = ranks[start : start + step]
            if not len(block):
                break
            met, pair_parts = np.unique(
                np.concatenate([g[ia[live]], g[ib[live]]]), return_inverse=True
            )
            pa, pb = pair_parts[: len(live)], pair_parts[len(live) :]
            for place in _colex_places(block, (cols[met], exps[met])):
                keep = place[pa] <= place[pb]
                live, pa, pb = live[keep], pa[keep], pb[keep]
            start += step
        below[live] = True
    return below


def _verify_sampled(
    cert: RealiserCertificate, samples: int, sample_seed: int
) -> tuple[int, list[tuple]]:
    """Check ``samples`` drawn pairs, at most SAMPLE_BATCH at a time.

    Each zone's rows are ``_RowBlocks``, so a block of rows is derived
    when a pair first reaches it, and kept for later batches; a chain
    zone's are None, as its parts decide it.  Stops at the 20th failure,
    and then counts the pairs up to it.
    """
    n = cert.n
    if n < 2:  # no ordered pair a != b to draw
        return 0, []
    import numpy as np

    zones = [
        (_columns(zone), None if zone.kind == "chains" else _RowBlocks(zone))
        for zone in cert.zones
    ]
    table = _zone_table(zones)
    failures: list[tuple] = []
    checked = 0
    for a, b in _sample_pairs(n, samples, sample_seed):
        wrong = np.flatnonzero(_below_everywhere(zones, table, a, b) != (b % a == 0))
        for i in wrong[: 20 - len(failures)].tolist():
            x, y = int(a[i]), int(b[i])
            failures.append((x, y, _failure_kind(x, y)))
            if len(failures) == 20:
                return checked + i + 1, failures
        checked += len(a)
    return checked, failures


def verify_certificate(
    cert: RealiserCertificate,
    table: PrimeTable | None = None,
    *,
    mode: str = "exhaustive",
    samples: int | None = None,
    sample_seed: int = 0,
) -> VerificationReport:
    """Independent re-check of a certificate.

    The integrity phase always runs first: it re-derives permutations
    from seeds and families from field parameters, so any mutation of
    recorded data is reported even when redundant coordinates would mask
    it functionally.  The functional phase then checks m | m' iff
    coordinatewise <= on all ordered pairs or on N sampled pairs.
    Exhaustive mode proves all n·(n−1) pairs through the zones with the
    build's own suitability check (``_verify_exhaustive``), one line per
    failing zone.  Sampled mode evaluates the coordinates themselves
    (``_below_everywhere``), at most SAMPLE_BATCH pairs at a time, so
    beyond the certificate and its rank rows its memory does not grow
    with N; it stops at the batch that holds the 20th failure.  The
    report times the integrity phase (with the prime table) and the
    functional phase apart.
    """
    start = time.perf_counter()
    if mode not in ("exhaustive", "sampled"):
        raise DomainError(f"unknown mode {mode!r}")
    # exhaustive mode draws nothing, but refuses an out-of-range seed all the same
    check_seed(sample_seed)
    if mode == "sampled":
        if not samples or samples < 1:
            raise DomainError("sampled mode needs a positive sample count")
    if table is None:
        table = sieve_primes(max(cert.n, 2))
    integrity = _integrity_failures(cert, table)
    middle = time.perf_counter()
    notes = ()
    if mode == "exhaustive":
        pairs, failures = _verify_exhaustive(cert, table)
    else:
        pairs, failures = _verify_sampled(cert, samples, sample_seed)
        notes = (f"sampled mode: {pairs} ordered pairs, seed {sample_seed}",)
    return VerificationReport(
        ok=not failures and not integrity,
        mode=mode,
        pairs_checked=pairs,
        pair_failures=tuple(failures),
        integrity_failures=tuple(integrity),
        integrity_s=middle - start,
        functional_s=time.perf_counter() - middle,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# bound table


@dataclass(frozen=True)
class BoundRow:
    """Numeric values of the dimension bound formulas at one n.

    All values drop o(1) terms; ``degenerate`` marks n at or below e^e
    where the triple-log factor vanishes or goes negative.
    """

    n: float
    lower: float
    upper_coarse: float
    upper_two_zone: float
    upper_three_zone: float
    middle_interval_count: int | None
    certificate_dimension: int | None
    degenerate: bool
    note: str = O1_DROPPED_NOTE

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def bound_table(
    ns: Iterable[float],
    eps: float = 0.5,
    certificates: dict[int, int] | None = None,
) -> list[BoundRow]:
    """Evaluate the bound formulas at each n.

    ``certificates`` optionally maps n to a built certificate dimension,
    reported alongside.  eps only affects the planned middle interval
    count (the formulas themselves are eps-free once o(1) is dropped).
    """
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    rows = []
    for n in ns:
        if n <= math.e:
            raise DomainError(f"n must exceed e, got {n}")
        ln = math.log(n)
        lln = math.log(ln)
        degenerate = lln <= 1.0
        llln = math.log(lln) if lln > 0 else math.nan
        three = (4 / math.log(2)) * ln * ln * llln / (lln * lln)
        count = None
        if not degenerate:
            count = math.ceil((1 / math.log(2) + eps) * llln)
        rows.append(
            BoundRow(
                n=n,
                lower=ln * ln / (16 * lln * lln),
                upper_coarse=4 * ln * ln / lln,
                upper_two_zone=ln * ln / lln,
                upper_three_zone=three,
                middle_interval_count=count,
                certificate_dimension=(certificates or {}).get(int(n)),
                degenerate=degenerate,
            )
        )
    return rows
