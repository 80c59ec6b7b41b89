"""Three-zone realiser certificates for the divisibility order on [n].

The primes up to n are split into a small zone (one chain coordinate per
prime), middle doubling intervals (cover-free colex coordinates when the
numeric hypotheses hold, random suitable sets otherwise), and a large
zone (random suitable sets).  The resulting coordinate list certifies an
upper bound on the order dimension and can be re-verified independently
from the recorded seeds and recipes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from .base import DomainError, O1_DROPPED_NOTE, ResourceLimitError, RetryBudgetError
from .coverfree import build_field, eff_family
from .divposets import (
    BoostParams,
    boost_params,
    check_interval_suitability,
    coverfree_embedding,
    draw_interval_perms,
    random_suitable_interval,
    suitable_size_cap,
)
from .primes import PrimeTable, factorize, prime_power_base, sieve_primes
from .rng import SplitMix64, child_seed

SCHEMA_VERSION = 1
CERTIFICATE_FORMAT = "divdim-certificate"
EXHAUSTIVE_VERIFY_GUARD = 2000


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


@dataclass(frozen=True)
class ChainZoneCert:
    lo: float
    hi: float
    primes: tuple[int, ...]

    kind = "chains"

    @property
    def dimension(self) -> int:
        return len(self.primes)


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


@dataclass(frozen=True)
class CoverFreeZoneCert:
    lo: float
    hi: float
    primes: tuple[int, ...]
    p: int
    k: int
    modulus: tuple[int, ...]
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

    def tau_rank_rows(self) -> list[list[int]]:
        """Zone-prime orderings induced by the family images.

        For each ground permutation sigma, primes are ordered by the
        colex key of their assigned member set; that family of orderings
        is suitable for the zone's squarefree supports.
        """
        rows = []
        for sigma in self.sigma_ranks:
            keys = []
            for j in range(len(self.primes)):
                member = self.family[self.phi[j]]
                keys.append(sum(1 << sigma[e] for e in member))
            order = sorted(range(len(self.primes)), key=lambda j: keys[j])
            ranks = [0] * len(self.primes)
            for position, j in enumerate(order):
                ranks[j] = position
            rows.append(ranks)
        return rows


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
    # build-time remarks such as skipped checks; not part of the JSON
    notes: tuple[str, ...] = field(default=(), compare=False)

    def to_json_dict(self) -> dict:
        zones = []
        for z in self.zones:
            if z.kind == "chains":
                zones.append(
                    {"kind": z.kind, "lo": z.lo, "hi": z.hi, "primes": list(z.primes)}
                )
            elif z.kind == "random-suitable":
                zones.append(
                    {
                        "kind": z.kind,
                        "lo": z.lo,
                        "hi": z.hi,
                        "primes": list(z.primes),
                        "zone_seed": z.zone_seed,
                        "retry_index": z.retry_index,
                        "target_size": z.target_size,
                        "ranks": [list(r) for r in z.ranks],
                    }
                )
            else:
                zones.append(
                    {
                        "kind": z.kind,
                        "lo": z.lo,
                        "hi": z.hi,
                        "primes": list(z.primes),
                        "field": {"p": z.p, "k": z.k, "modulus": list(z.modulus)},
                        "h": z.h,
                        "r": z.r,
                        "ground_size": z.ground_size,
                        "capacity": z.capacity,
                        "family": [list(s) for s in z.family],
                        "phi": list(z.phi),
                        "sigma_ranks": [list(s) for s in z.sigma_ranks],
                    }
                )
        return {
            "format": CERTIFICATE_FORMAT,
            "schema_version": self.schema_version,
            "n": self.n,
            "eps": self.eps,
            "seed": self.seed,
            "max_exponent": self.max_exponent,
            "dimension": self.dimension,
            "zones": zones,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "RealiserCertificate":
        try:
            if data.get("format") != CERTIFICATE_FORMAT:
                raise DomainError("not a certificate file")
            if data["schema_version"] != SCHEMA_VERSION:
                raise DomainError(
                    f"unsupported schema_version {data['schema_version']}"
                )
            zones: list = []
            for z in data["zones"]:
                kind = z["kind"]
                if kind == "chains":
                    zones.append(
                        ChainZoneCert(z["lo"], z["hi"], tuple(z["primes"]))
                    )
                elif kind == "random-suitable":
                    primes = tuple(z["primes"])
                    ranks = z["ranks"]
                    # structural sanity only; whether the rows really are
                    # the seeded permutations is verification's job
                    for row in ranks:
                        if len(row) != len(primes) or any(
                            not isinstance(v, int) or v < 0 for v in row
                        ):
                            raise DomainError("malformed rank row")
                    zones.append(
                        SuitableZoneCert(
                            z["lo"],
                            z["hi"],
                            primes,
                            z["zone_seed"],
                            z["retry_index"],
                            z["target_size"],
                            _share_rank_ints(ranks, len(primes)),
                        )
                    )
                elif kind == "cover-free":
                    zone = CoverFreeZoneCert(
                        z["lo"],
                        z["hi"],
                        tuple(z["primes"]),
                        z["field"]["p"],
                        z["field"]["k"],
                        tuple(z["field"]["modulus"]),
                        z["h"],
                        z["r"],
                        z["ground_size"],
                        z["capacity"],
                        tuple(tuple(s) for s in z["family"]),
                        tuple(z["phi"]),
                        tuple(tuple(s) for s in z["sigma_ranks"]),
                    )
                    for member in zone.family:
                        if any(not 0 <= e < zone.ground_size for e in member):
                            raise DomainError("family element outside the ground")
                    if len(zone.phi) != len(zone.primes) or any(
                        not 0 <= i < len(zone.family) for i in zone.phi
                    ):
                        raise DomainError("malformed member assignment")
                    for row in zone.sigma_ranks:
                        if len(row) != zone.ground_size or any(
                            not isinstance(v, int) or v < 0 for v in row
                        ):
                            raise DomainError("malformed ground permutation")
                    zones.append(zone)
                else:
                    raise DomainError(f"unknown zone kind {kind!r}")
            return cls(
                n=data["n"],
                eps=data["eps"],
                seed=data["seed"],
                max_exponent=data["max_exponent"],
                dimension=data["dimension"],
                zones=tuple(zones),
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed certificate: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "RealiserCertificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"certificate is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _share_rank_ints(rows: list[list[int]], length: int) -> tuple[tuple[int, ...], ...]:
    """Rows as tuples whose values below ``length`` share one int object each.

    JSON decoding makes a new int for every number, so at n = 10^5 the
    loaded rank rows would hold about 12 MB of equal ints; shared, they
    are little more than their pointers.
    """
    shared = list(range(length))
    return tuple(
        tuple(map(shared.__getitem__, row)) if row and max(row) < length else tuple(row)
        for row in rows
    )


def _standard_sigma_ranks(d: int) -> tuple[tuple[int, ...], ...]:
    """d permutations of [d]: the i-th puts element i on top.

    These realise any suborder of the subset lattice on [d]: whenever
    U is not contained in V, any x in U minus V makes V colex-smaller
    than U under the x-on-top order.
    """
    rows = []
    for i in range(d):
        ranks = [0] * d
        for e in range(d):
            if e == i:
                ranks[e] = d - 1
            elif e < i:
                ranks[e] = e
            else:
                ranks[e] = e - 1
        rows.append(tuple(ranks))
    return tuple(rows)


def _build_coverfree_zone(
    n: int, zone: ZonePlan, table: PrimeTable
) -> tuple[CoverFreeZoneCert, str]:
    """The zone's certificate and the embedding verdict's note ("" when checked)."""
    bp = zone.boost
    base = prime_power_base(bp.q)
    fieldspec = build_field(*base)
    count = len(zone.primes)
    family = eff_family(fieldspec, bp.h, count=count)
    if bp.capacity < count:
        raise DomainError("family capacity below the zone's prime count")
    masks = family.masks()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() > bp.h:
                raise RuntimeError("polynomial graphs intersect above the degree bound")
    embedding, verdict = coverfree_embedding(
        n, zone.lo, zone.hi, family, bp.r, table
    )
    if not verdict:
        raise RuntimeError(f"cover-free embedding failed verification: {verdict.witness}")
    cert = CoverFreeZoneCert(
        lo=zone.lo,
        hi=zone.hi,
        primes=zone.primes,
        p=fieldspec.p,
        k=fieldspec.k,
        modulus=fieldspec.modulus,
        h=bp.h,
        r=bp.r,
        ground_size=fieldspec.q**2,
        capacity=bp.capacity,
        family=tuple(tuple(sorted(s)) for s in family.sets),
        phi=embedding.assignment,
        sigma_ranks=_standard_sigma_ranks(fieldspec.q**2),
    )
    suit = check_interval_suitability(n, cert.primes, cert.tau_rank_rows())
    if not suit:
        raise RuntimeError(f"derived orderings not suitable: {suit.witness}")
    return cert, verdict.note


def build_certificate(
    pl: PipelinePlan, seed: int, table: PrimeTable
) -> RealiserCertificate:
    """Assemble and constructively verify all zone coordinates.

    Deterministic in (plan, seed): zone z draws from child_seed(seed, z),
    and each randomized zone is verified before being recorded.
    """
    if table.limit < pl.n:
        raise DomainError("prime table does not cover n")
    zones: list = []
    notes: list[str] = []
    for zi, zone in enumerate(pl.zones):
        if zone.kind == "chains":
            zones.append(ChainZoneCert(zone.lo, zone.hi, zone.primes))
        elif zone.kind == "random-suitable":
            zone_seed = child_seed(seed, zi)
            try:
                iss = random_suitable_interval(pl.n, zone.lo, zone.hi, zone_seed, table)
            except RetryBudgetError as exc:
                raise RetryBudgetError(f"zone {zi}: {exc}") from exc
            zones.append(
                SuitableZoneCert(
                    lo=zone.lo,
                    hi=zone.hi,
                    primes=iss.primes,
                    zone_seed=zone_seed,
                    retry_index=iss.retry_index,
                    target_size=iss.target_size,
                    ranks=iss.ranks,
                )
            )
        elif zone.kind == "cover-free":
            cert, note = _build_coverfree_zone(pl.n, zone, table)
            zones.append(cert)
            if note:
                notes.append(
                    f"zone {zi} (cover-free, {len(zone.primes)} primes in "
                    f"({zone.lo:g}, {zone.hi:g}]): embedding {note}"
                )
        else:
            raise DomainError(f"unknown zone kind {zone.kind!r}")
    dimension = sum(z.dimension for z in zones)
    return RealiserCertificate(
        n=pl.n,
        eps=pl.eps,
        seed=seed,
        max_exponent=max(pl.n.bit_length() - 1, 0),
        dimension=dimension,
        zones=tuple(zones),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# coordinate evaluation


@dataclass(frozen=True)
class _Coordinate:
    """Either a chain on one prime or a colex key over a prime tuple."""

    primes: tuple[int, ...]
    ranks: tuple[int, ...] | None  # None marks a chain coordinate
    base: int
    # prime -> its index in ``primes``; one dict serves all of a zone's coordinates
    index: dict[int, int] | None = field(default=None, compare=False)

    def value(self, exponents: dict[int, int]) -> int:
        if self.ranks is None:
            return exponents.get(self.primes[0], 0)
        out = 0
        for p, e in exponents.items():
            i = self.index.get(p)
            if i is not None:
                out += e * self.base ** self.ranks[i]
        return out


def certificate_coordinates(cert: RealiserCertificate) -> list[_Coordinate]:
    base = cert.max_exponent + 1
    coords: list[_Coordinate] = []
    for zone in cert.zones:
        if zone.kind == "chains":
            for p in zone.primes:
                coords.append(_Coordinate((p,), None, base))
            continue
        index = {p: i for i, p in enumerate(zone.primes)}
        rows = zone.ranks if zone.kind == "random-suitable" else zone.tau_rank_rows()
        for row in rows:
            coords.append(_Coordinate(zone.primes, tuple(row), base, index))
    return coords


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    ok: bool
    mode: str
    pairs_checked: int
    pair_failures: tuple
    integrity_failures: tuple
    wall_time: float
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status}: {self.mode} verification, {self.pairs_checked} ordered "
            f"pairs in {self.wall_time:.2f}s"
        ]
        for w in self.integrity_failures[:10]:
            lines.append(f"  integrity: {w}")
        for w in self.pair_failures[:10]:
            lines.append(f"  pair: {w}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _integrity_failures(
    cert: RealiserCertificate, table: PrimeTable
) -> list[tuple]:
    """Re-derive every recorded recipe and report mismatches.

    Randomized zones are re-drawn from their recorded (seed, retry);
    cover-free zones are rebuilt from the field parameters.  Any edit of
    a recorded rank therefore shows up as a derivation mismatch.
    """
    problems: list[tuple] = []
    try:
        expected = plan(cert.n, cert.eps, table)
    except DomainError as exc:
        return [("plan", str(exc))]
    if len(expected.zones) != len(cert.zones):
        problems.append(
            ("plan", f"expected {len(expected.zones)} zones, found {len(cert.zones)}")
        )
        return problems
    if cert.max_exponent != max(cert.n.bit_length() - 1, 0):
        problems.append(("max_exponent", cert.max_exponent))
    if cert.dimension != sum(z.dimension for z in cert.zones):
        problems.append(("dimension", cert.dimension))
    for zi, (zp, zc) in enumerate(zip(expected.zones, cert.zones)):
        where = f"zone {zi} ({zc.kind})"
        if (
            zp.kind != zc.kind
            or zp.primes != zc.primes
            or zp.lo != zc.lo
            or zp.hi != zc.hi
        ):
            problems.append((where, "zone does not match the recomputed plan"))
            continue
        if zc.kind == "random-suitable":
            if zc.zone_seed != child_seed(cert.seed, zi):
                problems.append((where, "zone seed does not derive from the master seed"))
                continue
            rows = draw_interval_perms(
                zc.primes, zc.zone_seed, zc.retry_index, zc.target_size
            )
            if len(rows) != len(zc.ranks) or any(
                tuple(want) != got for got, want in zip(zc.ranks, rows)
            ):
                detail = None
                for pi, (got, want) in enumerate(zip(zc.ranks, rows)):
                    if tuple(want) != got:
                        detail = f"permutation {pi} differs from its seeded draw"
                        break
                problems.append((where, detail or "rank rows differ from seeded draw"))
            cap = suitable_size_cap(cert.n, zc.lo)
            if len(zc.ranks) > cap:
                problems.append((where, f"{len(zc.ranks)} permutations exceed cap {cap}"))
        elif zc.kind == "cover-free":
            bp = zp.boost
            base = prime_power_base(bp.q)
            fieldspec = build_field(*base)
            if (fieldspec.p, fieldspec.k, fieldspec.modulus) != (
                zc.p,
                zc.k,
                zc.modulus,
            ):
                problems.append((where, "field parameters differ from derivation"))
                continue
            family = eff_family(fieldspec, zc.h, count=len(zc.primes))
            expected_family = tuple(tuple(sorted(s)) for s in family.sets)
            if expected_family != zc.family:
                problems.append((where, "family differs from the polynomial derivation"))
            if zc.phi != tuple(range(len(zc.primes))):
                problems.append((where, "phi is not the canonical assignment"))
            if zc.sigma_ranks != _standard_sigma_ranks(zc.ground_size):
                detail = "sigma ranks differ from the canonical permutations"
                for si, (got, want) in enumerate(
                    zip(zc.sigma_ranks, _standard_sigma_ranks(zc.ground_size))
                ):
                    if got != want:
                        detail = f"sigma permutation {si} differs from canonical form"
                        break
                problems.append((where, detail))
            if (zc.h, zc.r, zc.ground_size, zc.capacity) != (
                bp.h,
                bp.r,
                fieldspec.q**2,
                bp.capacity,
            ):
                problems.append((where, "recorded parameters differ from derivation"))
    return problems


def _exponent_table(n: int, coords: list[_Coordinate]) -> list[dict[int, int]]:
    needed = set()
    for c in coords:
        needed.update(c.primes)
    table: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    for p in sorted(needed):
        if p > n:
            continue
        pe = p
        while pe <= n:
            for m in range(pe, n + 1, pe):
                table[m][p] = table[m].get(p, 0) + 1
            pe *= p
    return table


def _verify_exhaustive(
    cert: RealiserCertificate, report_notes: list[str], workers: int
) -> tuple[int, list[tuple]]:
    import numpy as np

    n = cert.n
    coords = certificate_coordinates(cert)
    exps = _exponent_table(n, coords)
    columns = []
    for coord in coords:
        col = [coord.value(exps[m]) for m in range(1, n + 1)]
        order = {v: i for i, v in enumerate(sorted(set(col)))}
        columns.append([order[v] for v in col])
    values = np.array(columns, dtype=np.int32).T  # (n, D)
    arr = np.arange(1, n + 1, dtype=np.int64)
    divides = (arr[None, :] % arr[:, None]) == 0  # [i, j] = m_i | m_j
    chunk = max(1, min(n, 50_000_000 // (n * max(values.shape[1], 1))))
    spans = [(start, min(n, start + chunk)) for start in range(0, n, chunk)]

    def scan(span: tuple[int, int]) -> list[tuple]:
        start, stop = span
        found: list[tuple] = []
        leq = (values[start:stop, None, :] <= values[None, :, :]).all(axis=2)
        mism = leq != divides[start:stop]
        if mism.any():
            for i, j in zip(*mism.nonzero()):
                a, b = start + int(i) + 1, int(j) + 1
                if a == b:
                    continue
                kind = (
                    "divides-but-coordinates-disagree"
                    if b % a == 0
                    else "coordinates-leq-but-not-divisible"
                )
                found.append((a, b, kind))
                if len(found) >= 20:
                    break
        return found

    failures: list[tuple] = []
    if workers > 1:
        # numpy's elementwise kernels drop the GIL, so threads genuinely
        # overlap; spans are disjoint so the merged result is identical
        # for any worker count
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for found in pool.map(scan, spans):
                failures.extend(found)
    else:
        for span in spans:
            failures.extend(scan(span))
            if len(failures) >= 20:
                break
    if len(failures) > 20:
        failures = failures[:20]
        report_notes.append("failure list truncated at 20")
    return n * n - n, failures


def _verify_sampled(
    cert: RealiserCertificate, samples: int, sample_seed: int
) -> tuple[int, list[tuple]]:
    n = cert.n
    coords = certificate_coordinates(cert)
    rng = SplitMix64(sample_seed)
    cache: dict[int, dict[int, int]] = {}

    def exps(m: int) -> dict[int, int]:
        if m not in cache:
            cache[m] = factorize(m)
        return cache[m]

    failures: list[tuple] = []
    checked = 0
    while checked < samples:
        a = rng.randbelow(n) + 1
        b = rng.randbelow(n) + 1
        if a == b:
            continue
        checked += 1
        ea, eb = exps(a), exps(b)
        if b % a == 0:
            if not all(c.value(ea) <= c.value(eb) for c in coords):
                failures.append((a, b, "divides-but-coordinates-disagree"))
        else:
            if not any(c.value(ea) > c.value(eb) for c in coords):
                failures.append((a, b, "coordinates-leq-but-not-divisible"))
        if len(failures) >= 20:
            break
    return checked, failures


def verify_certificate(
    cert: RealiserCertificate,
    table: PrimeTable | None = None,
    *,
    mode: str = "exhaustive",
    samples: int | None = None,
    sample_seed: int = 0,
    check_integrity: bool = True,
    workers: int = 1,
) -> VerificationReport:
    """Independent re-check of a certificate.

    The integrity phase re-derives permutations from seeds and families
    from field parameters, so any mutation of recorded data is reported
    even when redundant coordinates would mask it functionally.  The
    functional phase then checks m | m' iff coordinatewise <= on all
    ordered pairs (exhaustive, n <= 2000) or on N sampled pairs.
    """
    start = time.perf_counter()
    if table is None:
        table = sieve_primes(max(cert.n, 2))
    notes: list[str] = []
    integrity: list[tuple] = []
    if check_integrity:
        integrity = _integrity_failures(cert, table)
    if workers < 1:
        raise DomainError("workers must be positive")
    if mode == "exhaustive":
        if cert.n > EXHAUSTIVE_VERIFY_GUARD:
            raise ResourceLimitError(
                f"exhaustive mode is guarded at n <= {EXHAUSTIVE_VERIFY_GUARD}; "
                "use sampled mode"
            )
        pairs, failures = _verify_exhaustive(cert, notes, workers)
    elif mode == "sampled":
        if not samples or samples < 1:
            raise DomainError("sampled mode needs a positive sample count")
        pairs, failures = _verify_sampled(cert, samples, sample_seed)
        notes.append(f"sampled mode: {pairs} ordered pairs, seed {sample_seed}")
    else:
        raise DomainError(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    return VerificationReport(
        ok=not failures and not integrity,
        mode=mode,
        pairs_checked=pairs,
        pair_failures=tuple(failures),
        integrity_failures=tuple(integrity),
        wall_time=elapsed,
        notes=tuple(notes),
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
