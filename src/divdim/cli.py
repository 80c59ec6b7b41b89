"""Command-line interface.

Exit codes: 0 success or verified, 1 verification failure (witness on
stderr), 2 usage or domain error, 3 resource guard or retry budget.  A
command whose reader closes standard output early still runs to its end
and exits with its own code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from itertools import islice
from pathlib import Path
from typing import Iterable

from .base import DomainError, ResourceLimitError, RetryBudgetError
from .coverfree import (
    SetFamily,
    build_field,
    eff_family,
    verify_cover_free,
)
from .divposets import (
    DivPosetSpec,
    build_div_poset,
    smooth_preorder,
)
from .pipeline import (
    RealiserCertificate,
    bound_table,
    build_certificate,
    plan,
    random_suitable_interval,
    verify_certificate,
)
from .posets import DEFAULT_EXACT_GUARD, FinitePoset, exact_dimension, parse_edges
from .primes import prime_power_base, sieve_primes

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

WORD_CAP = 2**63 - 1  # ground elements are machine integers


def _capped(value: str) -> int:
    n = int(value)
    if n > WORD_CAP:
        raise argparse.ArgumentTypeError(f"{n} exceeds the 2^63-1 input cap")
    return n


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _int_list(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a comma-separated list of integers")


def _cmd_sieve(args) -> int:
    table = sieve_primes(args.limit)
    info = {
        "limit": table.limit,
        "prime_count": len(table.primes),
        "largest_prime": table.primes[-1] if table.primes else None,
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"pi({table.limit}) = {info['prime_count']}")
        print(f"largest prime = {info['largest_prime']}")
    return EXIT_OK


def _refuse_above(elements: Iterable, max_size: int) -> None:
    """Refuse a poset of more than ``max_size`` elements before it is built.

    Building closes the relation, which takes size² bits, so the guard
    counts at most max_size + 1 of the elements first.
    """
    if len(list(islice(elements, max_size + 1))) > max_size:
        raise ResourceLimitError(
            f"poset has more than {max_size} elements, exact search guard is {max_size}"
        )


def _cmd_exact_dim(args) -> int:
    if (args.edges is None) == (args.divisibility is None):
        print("give exactly one of --edges and --divisibility", file=sys.stderr)
        return EXIT_USAGE
    if args.edges is not None:
        labels, pairs = parse_edges(Path(args.edges).read_text())
        _refuse_above(labels, args.max_size)
        poset = FinitePoset(labels, pairs)
    else:
        n = args.divisibility
        if args.primes:
            spec = DivPosetSpec(n, prime_set=args.primes, squarefree_only=args.squarefree)
            # enough to tell whether each given prime is prime and at most n
            table = sieve_primes(max(min(max(args.primes), n), 2))
        else:
            spec = DivPosetSpec(n, interval=(1, max(n, 2)), squarefree_only=args.squarefree)
            table = sieve_primes(max(n, 2))
        _refuse_above(smooth_preorder(spec.resolve(table), n, args.squarefree), args.max_size)
        with warnings.catch_warnings():
            # build_div_poset warns against the default guard; --max-size is checked above
            warnings.simplefilter("ignore", UserWarning)
            poset = build_div_poset(spec, table)
    result = exact_dimension(poset, args.max_d, max_size=args.max_size)
    if result.exceeded:
        print(f"dimension exceeds max_d = {result.max_d}")
        return EXIT_OK
    if args.json:
        print(
            json.dumps(
                {
                    "dimension": result.dimension,
                    "realiser": [
                        [str(e) for e in ext.order]
                        for ext in result.realiser.extensions
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"dimension = {result.dimension}")
        for i, ext in enumerate(result.realiser.extensions):
            print(f"L{i}: " + " ".join(str(e) for e in ext.order))
    return EXIT_OK


def _cmd_suitable(args) -> int:
    table = sieve_primes(max(args.n, 2))
    zone = random_suitable_interval(args.n, args.a, args.b, args.seed, table)
    if args.json:
        # the zone's fields, under the names this file has always used
        data = dict(vars(zone), n=args.n)
        for field, key in (("lo", "a"), ("hi", "b"), ("zone_seed", "seed")):
            data[key] = data.pop(field)
        Path(args.json).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    print(
        f"suitable set for ({args.a}, {args.b}], n={args.n}: "
        f"{len(zone.ranks)} permutations of {len(zone.primes)} primes "
        f"(seed {zone.zone_seed}, retry {zone.retry_index})"
    )
    # random_suitable_interval returns a set only once
    # check_interval_suitability has passed on its rows
    print("verified: covering property holds")
    return EXIT_OK


def _cmd_coverfree_build(args) -> int:
    base = prime_power_base(args.q)
    if base is None:
        print(f"{args.q} is not a prime power", file=sys.stderr)
        return EXIT_USAGE
    fieldspec = build_field(*base)
    family = eff_family(fieldspec, args.h)
    print(
        f"family over GF({args.q}): {len(family)} sets of size {fieldspec.q} "
        f"on ground {family.ground_size}, design r = {family.r}"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(family.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )
    if args.verify is not None:
        verdict = verify_cover_free(family, args.verify)
        if not verdict:
            print(f"not {args.verify}-cover-free: witness {verdict.witness}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print(f"verified {args.verify}-cover-free ({verdict.note})")
    return EXIT_OK


def _cmd_coverfree_verify(args) -> int:
    try:
        data = json.loads(Path(args.family).read_text())
    except ValueError as exc:
        raise DomainError(f"family file is not valid JSON: {exc}") from exc
    mode = "exhaustive" if args.sampled is None else "sampled"
    family = SetFamily.from_json_dict(data)
    verdict = verify_cover_free(family, args.r, mode=mode, samples=args.sampled, seed=args.seed)
    if not verdict:
        print(f"witness: {verdict.witness}", file=sys.stderr)
        print(f"not {args.r}-cover-free ({verdict.note})")
        return EXIT_VERIFY_FAILED
    print(f"{args.r}-cover-free ({verdict.note})")
    return EXIT_OK


def _cmd_certify(args) -> int:
    table = sieve_primes(max(args.n, 2))
    pl = plan(args.n, args.eps, table)
    cert = build_certificate(pl, args.seed, table)
    Path(args.out).write_text(cert.dumps())
    kinds = ", ".join(f"{z.kind}[{len(z.primes)}p:{z.dimension}d]" for z in cert.zones)
    print(f"certificate for n={args.n}: dimension {cert.dimension}")
    print(f"zones: {kinds}")
    print(f"written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = RealiserCertificate.loads(Path(args.cert).read_text())
    mode = "exhaustive" if args.sampled is None else "sampled"
    report = verify_certificate(
        cert, mode=mode, samples=args.sampled, sample_seed=args.seed
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    else:
        print(report.summary())
    if not report.ok:
        for w in report.integrity_failures[:5]:
            print(f"witness: {w}", file=sys.stderr)
        for w in report.pair_failures[:5]:
            print(f"witness: {w}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _general(n: int) -> str:
    """n as ``f"{n:>12.6g}"`` prints it, also beyond the float range."""
    try:
        return f"{n:>12.6g}"
    except OverflowError:
        from decimal import Context  # 0.4 MB of RSS, so only when needed

        six_digits = Context(prec=6)
        return format(six_digits.create_decimal(n).normalize(six_digits), ">12g")


def _cmd_bounds(args) -> int:
    certs = {}
    if args.cert:
        cert = RealiserCertificate.loads(Path(args.cert).read_text())
        if cert.n not in args.n:
            raise DomainError(f"the certificate is for n={cert.n}, which --n does not list")
        certs[cert.n] = cert.dimension
    rows = bound_table(args.n, args.eps, certs)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in rows], sort_keys=True))
        return EXIT_OK
    header = (
        f"{'n':>12} {'lower':>12} {'upper(coarse)':>14} {'upper(2-zone)':>14} "
        f"{'upper(3-zone)':>14} {'K':>3} {'cert':>6}"
    )
    print(header)
    for r in rows:
        cert_s = str(r.certificate_dimension) if r.certificate_dimension else "-"
        k_s = str(r.middle_interval_count) if r.middle_interval_count else "-"
        flag = " (degenerate)" if r.degenerate else ""
        print(
            f"{_general(r.n)} {r.lower:>12.4f} {r.upper_coarse:>14.4f} "
            f"{r.upper_two_zone:>14.4f} {r.upper_three_zone:>14.4f} "
            f"{k_s:>3} {cert_s:>6}{flag}"
        )
    print(f"all values: {rows[0].note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divdim",
        description="Dimension certificates for the divisibility order on {1..n}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve primes and report pi")
    p.add_argument("--limit", type=_capped, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("exact-dim", help="exact dimension by backtracking")
    p.add_argument("--edges", help="file with one 'a < b' pair per line")
    p.add_argument("--divisibility", type=_capped, help="use the divisibility order on [N]")
    p.add_argument("--primes", type=_int_list, help="comma-separated prime set restriction")
    p.add_argument("--squarefree", action="store_true")
    p.add_argument("--max-d", type=int, default=None)
    p.add_argument("--max-size", type=_positive, default=DEFAULT_EXACT_GUARD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact_dim)

    p = sub.add_parser("suitable", help="randomized suitable set for (a, b]")
    p.add_argument("--n", type=_capped, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the set to this JSON file")
    p.set_defaults(func=_cmd_suitable)

    p = sub.add_parser("coverfree", help="cover-free family operations")
    csub = p.add_subparsers(dest="subcommand", required=True)
    b = csub.add_parser("build", help="polynomial-graph family over GF(q)")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--h", type=int, required=True)
    b.add_argument("--verify", type=_positive, default=None, metavar="R")
    b.add_argument("--json", help="write the family to this JSON file")
    b.set_defaults(func=_cmd_coverfree_build)
    v = csub.add_parser("verify", help="check a stored family")
    v.add_argument("--family", required=True)
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--sampled", type=int, default=None, metavar="N")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_coverfree_verify)

    p = sub.add_parser("certify", help="build a realiser certificate")
    p.add_argument("--n", type=_capped, required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--sampled", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="evaluate the bound formulas")
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated list of n")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--cert", help="include this certificate's dimension")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    stdout, sys.stdout = sys.stdout, _ReaderMayLeave(sys.stdout)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, RetryBudgetError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    # a missing or unreadable file, a directory, or a file that is not text
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.stdout = stdout


class _ReaderMayLeave:
    """Standard output for one command, whose reader may close it early.

    A write or flush that finds the pipe closed points the stream's file
    descriptor at devnull, as the Python docs advise, and goes on: the
    command runs to its end and exits with its own code, and the flush
    at exit does not fail again.  Anything else is the stream's own.
    """

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._to_devnull()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._to_devnull()

    def _to_devnull(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
