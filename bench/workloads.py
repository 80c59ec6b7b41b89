"""The benchmark's four workloads.

Each workload derives every input from the run's seed, prepares its
inputs in ``setup`` (timed as ``setup_s``), runs one operation per
``op`` call (timed as ``op_s``) and checks every output afterwards, in
``check`` and ``tamper_check``, outside the timed region.  Certificate
operations enter through ``divdim.cli.main`` in-process, so argument
parsing, file I/O and exit codes are on the measured path; the oracles
call the library's public functions.

Why these four (bench/README.md maps each layer metric to the end-to-end
metric it should move):

- certify-1e5 is the only path where the seeded draws, the interval
  suitability check and the cover-free embedding check do real work.
- verify-exhaustive-2000 is dominated by the n^2 numpy scan and the
  column evaluation; there is no suitability or embedding check.
- verify-sampled-1e5 evaluates big-integer colex keys pair by pair and
  re-draws the random-suitable rows for integrity, so a change that helps
  one verifier mode and hurts the other shows.
- oracles keeps ``coverfree`` and ``multisets`` measured: the sampled
  cover-free check of the GF(9), h = 2 family at r = 4, and
  ``exact_dimension`` beside ``min_suitable`` on D_[n].
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from divdim import cli, coverfree, divposets, multisets, pipeline, posets, primes

WORKLOADS = ("certify-1e5", "verify-exhaustive-2000", "verify-sampled-1e5", "oracles")

# Pairs sampled when checking a certify output, and when verifying a
# tampered certificate above the exhaustive guard.
CHECK_SAMPLES = 200


@dataclass
class OpRecord:
    """What one operation returned, kept for the checks after timing."""

    index: int
    code: int = 0
    out: str = ""
    err: str = ""
    seed: int = 0
    result: Any = None
    size: tuple[int, int] | None = None  # (certificate bytes, dimension)


def derive(seed: int, *labels) -> int:
    """A 63-bit value that depends only on the run seed and the labels."""
    return random.Random(":".join(map(str, (seed, *labels)))).getrandbits(63)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``divdim.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def tamper(src: Path, dst: Path, seed: int) -> None:
    """Copy a certificate with one bit of one random-suitable rank flipped."""
    rng = random.Random(seed)
    data = json.loads(src.read_text())
    rows = [
        row
        for zone in data["zones"]
        if zone["kind"] == "random-suitable"
        for row in zone["ranks"]
    ]
    row = rows[rng.randrange(len(rows))]
    row[rng.randrange(len(row))] ^= 1
    dst.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def exit_problems(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {err.strip()}"]


def tampered_problems(argv: list[str]) -> list[str]:
    code, _, _ = run_cli(argv)
    return [] if code == 1 else [f"tampered certificate: exit {code}, expected 1"]


class Certify:
    """``divdim certify --n N --seed S`` with a fresh S per operation."""

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        self.seed = seed
        self.work = work
        self.n = 200 if tiny else 100_000
        self.warm_n = 100 if tiny else 2000
        self.table = None

    def setup(self) -> None:
        # one small certify, so first-call costs are not timed
        code, _, err = run_cli(
            ["certify", "--n", str(self.warm_n), "--seed", str(derive(self.seed, "warm")),
             "--out", str(self.work / "warm.json")]
        )
        if code != 0:
            raise RuntimeError(f"warm-up certify failed ({code}): {err}")

    def _path(self, i: int) -> Path:
        return self.work / f"cert-{i}.json"

    def op(self, i: int) -> OpRecord:
        rec = OpRecord(i, seed=derive(self.seed, "cert", i))
        rec.code, rec.out, rec.err = run_cli(
            ["certify", "--n", str(self.n), "--seed", str(rec.seed),
             "--out", str(self._path(i))]
        )
        return rec

    def check(self, rec: OpRecord) -> list[str]:
        problems = exit_problems(rec.code, rec.err)
        if problems:
            return problems
        path = self._path(rec.index)
        cert = pipeline.RealiserCertificate.loads(path.read_text())
        rec.size = (path.stat().st_size, cert.dimension)
        if (cert.n, cert.seed) != (self.n, rec.seed):
            problems.append("certificate n or seed differs from the request")
        printed = re.search(r"dimension (\d+)", rec.out)
        zone_sum = sum(z.dimension for z in cert.zones)
        if printed is None or not int(printed.group(1)) == cert.dimension == zone_sum:
            problems.append("printed dimension differs from the sum of the zone dimensions")
        if self.table is None:
            self.table = primes.sieve_primes(max(self.n, 2))
        report = pipeline.verify_certificate(
            cert, self.table, mode="sampled", samples=CHECK_SAMPLES,
            sample_seed=derive(self.seed, "check", rec.index),
        )
        if not report.ok:
            problems.append(f"certificate fails verification: {report.summary()}")
        return problems

    def tamper_check(self, records: list[OpRecord]) -> list[str]:
        bad = self.work / "tampered.json"
        tamper(self._path(records[0].index), bad, derive(self.seed, "tamper"))
        return tampered_problems(
            ["verify", "--cert", str(bad), "--sampled", str(CHECK_SAMPLES),
             "--seed", str(derive(self.seed, "tamper-sample"))]
        )


class Verify:
    """``divdim verify`` on one certificate that setup builds.

    Exhaustive when ``samples`` is None, else ``--sampled samples`` with
    a fresh sample seed per operation.
    """

    def __init__(self, seed: int, work: Path, root: Path, n: int, samples: int | None) -> None:
        self.seed = seed
        self.root = root
        self.n = n
        self.samples = samples
        self.path = work / "cert.json"
        self.tampered = work / "tampered.json"

    def setup(self) -> None:
        # a child process builds the certificate, so the build's peak
        # memory stays out of this process's high-water mark
        done = subprocess.run(
            [sys.executable, "-m", "divdim.cli", "certify", "--n", str(self.n),
             "--seed", str(derive(self.seed, "cert")), "--out", str(self.path)],
            env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup certify failed ({done.returncode}): {done.stderr}")

    def _argv(self, path: Path, samples: int | None, sample_seed: int) -> list[str]:
        argv = ["verify", "--cert", str(path)]
        if samples is not None:
            argv += ["--sampled", str(samples), "--seed", str(sample_seed)]
        return argv

    def op(self, i: int) -> OpRecord:
        rec = OpRecord(i)
        argv = self._argv(self.path, self.samples, derive(self.seed, "sample", i))
        rec.code, rec.out, rec.err = run_cli(argv + ["--json"])
        return rec

    def check(self, rec: OpRecord) -> list[str]:
        problems = exit_problems(rec.code, rec.err)
        if problems:
            return problems
        report = json.loads(rec.out)
        expected = self.n * self.n - self.n if self.samples is None else self.samples
        if not report["ok"]:
            problems.append("verify reported a failure with exit code 0")
        if report["pairs_checked"] != expected:
            problems.append(f"{report['pairs_checked']} pairs checked, expected {expected}")
        if rec.index == 0:
            cert = pipeline.RealiserCertificate.loads(self.path.read_text())
            rec.size = (self.path.stat().st_size, cert.dimension)
        return problems

    def tamper_check(self, records: list[OpRecord]) -> list[str]:
        tamper(self.path, self.tampered, derive(self.seed, "tamper"))
        samples = None if self.samples is None else CHECK_SAMPLES
        return tampered_problems(
            self._argv(self.tampered, samples, derive(self.seed, "tamper-sample"))
        )


class Oracles:
    """Sampled cover-free check, and exact_dimension beside min_suitable."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # min_suitable is exhaustive over orderings of the pi(n) primes:
        # about 0.4 s in total for n <= 18, but 7.5 s at n = 19 alone
        self.ns = range(2, 11 if tiny else 19)
        self.samples = 2000 if tiny else 75_000
        self.r = 4

    def setup(self) -> None:
        self.family = coverfree.eff_family(coverfree.build_field(3, 2), 2)
        self.cases = []
        for n in self.ns:
            table = primes.sieve_primes(max(n, 2))
            prime_set = table.primes_in(0, n)
            spec = divposets.DivPosetSpec(n, prime_set=prime_set)
            poset = divposets.build_div_poset(spec, table)
            supports = divposets.squarefree_support_sets(prime_set, n)
            self.cases.append((n, poset, supports, prime_set))

    def op(self, i: int) -> OpRecord:
        rec = OpRecord(i, seed=derive(self.seed, "sample", i))
        verdict = coverfree.verify_cover_free(
            self.family, self.r, mode="sampled", samples=self.samples, seed=rec.seed
        )
        exact = [posets.exact_dimension(poset) for _, poset, _, _ in self.cases]
        minimum = [multisets.min_suitable(sup, ps)[0] for _, _, sup, ps in self.cases]
        rec.result = (verdict, exact, minimum)
        return rec

    def check(self, rec: OpRecord) -> list[str]:
        verdict, exact, minimum = rec.result
        problems = []
        if not verdict or "samples" not in verdict.note:
            problems.append(f"cover-free verdict {verdict}")
        for (n, *_), found, m in zip(self.cases, exact, minimum):
            if found.dimension != m:
                problems.append(f"n={n}: exact_dimension {found.dimension} != min_suitable {m}")
        # the oracles' certificate is their realiser witnesses, in the
        # form ``divdim exact-dim --json`` prints them
        realisers = [[[str(e) for e in ext.order] for ext in r.realiser.extensions] for r in exact]
        rec.size = (len(json.dumps(realisers)), sum(r.dimension for r in exact))
        return problems

    def tamper_check(self, records: list[OpRecord]) -> list[str]:
        """The oracles must reject what is false: a realiser below the
        dimension, and a family with a planted cover."""
        problems = []
        _, exact, _ = records[0].result
        k = random.Random(derive(self.seed, "tamper")).randrange(len(self.cases))
        n, poset, _, _ = self.cases[k]
        dim = exact[k].dimension
        if dim > 1 and not posets.exact_dimension(poset, dim - 1).exceeded:
            problems.append(f"n={n}: a realiser of size {dim - 1} was accepted")
        planted = coverfree.SetFamily(3, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
        verdict = coverfree.verify_cover_free(
            planted, 2, mode="sampled", samples=2000, seed=derive(self.seed, "planted")
        )
        if verdict:
            problems.append("planted 2-cover not found")
        return problems


def make(name: str, seed: int, work: Path, root: Path, tiny: bool):
    if name == "certify-1e5":
        return Certify(seed, work, tiny)
    if name == "verify-exhaustive-2000":
        return Verify(seed, work, root, 200 if tiny else 2000, None)
    if name == "verify-sampled-1e5":
        return Verify(seed, work, root, 200 if tiny else 100_000, 200 if tiny else 10_000)
    if name == "oracles":
        return Oracles(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
