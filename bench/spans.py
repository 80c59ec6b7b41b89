"""Span recorder for the benchmark's traced runs.

Each wrapped divdim function records one span per call: name, start,
end, parent span and operation id.  Spans stay in memory and are written
out once, when the run ends.  Wrapping happens from outside the library:
``Recorder.installed`` replaces a function at every name through which
divdim modules look it up (``draw_interval_perms`` is bound in both
``divdim.divposets`` and ``divdim.pipeline``) and puts the originals back
on exit.  A target that no longer exists is recorded as absent, so code
moved by later changes reads 0 instead of crashing the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


def _count_rows(rec, args, kwargs, result):
    rec.count("rows_drawn", len(result))


def _count_embedding(rec, args, kwargs, result):
    verdict = result[1]
    skipped = "skipped" in verdict.note
    rec.count("embedding_skipped" if skipped else "embedding_checked")


def _count_accepted(rec, args, kwargs, result):
    rec.count("draws_accepted")


def _count_coords(rec, args, kwargs, result):
    rec.count("coords", len(result))


def _count_pairs(rec, args, kwargs, result):
    rec.count("pairs_checked", result.pairs_checked)


def _count_samples(rec, args, kwargs, result):
    if kwargs.get("mode") == "sampled":
        rec.count("samples_checked", kwargs["samples"])


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, owning module, attribute path."""

    span: str
    module: str
    attr: str  # "function" or "Class.method"
    on_return: Callable | None = None


TARGETS = (
    Target("primes.sieve", "divdim.primes", "sieve_primes"),
    Target("primes.factorize", "divdim.primes", "factorize"),
    Target("posets.verify_embedding", "divdim.posets", "verify_embedding"),
    Target("posets.exact_dimension", "divdim.posets", "exact_dimension"),
    Target("multisets.min_suitable", "divdim.multisets", "min_suitable"),
    Target("coverfree.build_field", "divdim.coverfree", "build_field"),
    Target("coverfree.eff_family", "divdim.coverfree", "eff_family"),
    Target("coverfree.verify_cover_free", "divdim.coverfree", "verify_cover_free", _count_samples),
    Target("divposets.suitability", "divdim.divposets", "check_interval_suitability"),
    Target("divposets.embedding", "divdim.divposets", "coverfree_embedding", _count_embedding),
    Target("divposets.random_suitable", "divdim.divposets", "random_suitable_interval", _count_accepted),
    Target("divposets.draw", "divdim.divposets", "draw_interval_perms", _count_rows),
    Target("pipeline.plan", "divdim.pipeline", "plan"),
    Target("pipeline.build", "divdim.pipeline", "build_certificate"),
    Target("pipeline.dumps", "divdim.pipeline", "RealiserCertificate.dumps"),
    Target("pipeline.loads", "divdim.pipeline", "RealiserCertificate.loads"),
    Target("pipeline.verify", "divdim.pipeline", "verify_certificate", _count_pairs),
    Target("pipeline.coords", "divdim.pipeline", "certificate_coordinates", _count_coords),
    Target("cli", "divdim.cli", "main"),
)

# Untraced operations still observe the embedding verdicts, because a
# skipped check fails a certify operation; that costs one call per zone.
OBSERVED = tuple(t for t in TARGETS if t.span == "divposets.embedding")

# Span names whose summed duration per operation is a per-layer metric.
TIMED = (
    "divposets.suitability",
    "divposets.embedding",
    "posets.verify_embedding",
    "divposets.random_suitable",
    "divposets.draw",
    "pipeline.plan",
    "primes.sieve",
    "pipeline.build",
    "pipeline.dumps",
    "pipeline.loads",
    "pipeline.verify",
    "pipeline.coords",
    "coverfree.build_field",
    "coverfree.eff_family",
    "primes.factorize",
    "coverfree.verify_cover_free",
    "multisets.min_suitable",
    "posets.exact_dimension",
)

# Spans whose self time (duration minus the time their child spans
# cover) is reported: zone assembly, the functional verify phase, and
# argument parsing plus certificate file I/O.
SELF_TIMED = ("pipeline.build", "pipeline.verify", "cli")

# (metric, unit, better) in the order they are printed; see per_op().
LAYER_METRICS = (
    tuple((f"{s}_s", "s", "lower") for s in TIMED)
    + tuple((f"{s}.self_s", "s", "lower") for s in SELF_TIMED)
    + (
        ("divposets.suitability_calls", "count", "lower"),
        ("divposets.embedding_checked", "count", "higher"),
        ("divposets.embedding_skipped", "count", "lower"),
        ("divposets.draw_calls", "count", "lower"),
        ("divposets.rows_drawn", "count", "lower"),
        ("divposets.draw_accept_ratio", "ratio", "higher"),
        ("pipeline.coords", "count", "lower"),
        ("pipeline.pairs_checked", "count", "higher"),
        ("primes.factorize_calls", "count", "lower"),
        ("coverfree.samples_checked", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def _resolve(target: Target):
    """(owner, attribute name) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Recorder:
    """In-memory spans and per-operation counts for one benchmark run.

    Single-threaded: the workloads run one operation at a time with the
    default ``--workers 1``, so one span stack is enough.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.absent: set[str] = set()
        self.op: int | None = None
        self.timing = False
        self._stack: list[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[self.op][key] += amount

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        on_return = target.on_return
        name = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.timing:
                result = fn(*args, **kwargs)
            else:
                parent = self._stack[-1] if self._stack else None
                span = [name, perf_counter(), None, parent, self.op]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    self._stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, op: int, timing: bool):
        """Wrap the targets for one operation; the originals come back on exit.

        Untraced operations wrap only OBSERVED, and record no spans.
        """
        undo: list[tuple[object, str, object]] = []

        def put(owner, name: str, value) -> None:
            undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "divdim" or name.startswith("divdim."))
        ]
        self.op, self.timing = op, timing
        try:
            for target in TARGETS if timing else OBSERVED:
                where = _resolve(target)
                if where is None:
                    self.absent.add(target.span)
                    continue
                owner, name = where
                raw = vars(owner)[name]
                if isinstance(raw, classmethod):
                    put(owner, name, classmethod(self._wrap(target, raw.__func__)))
                elif isinstance(owner, type):
                    put(owner, name, self._wrap(target, raw))
                else:
                    wrapped = self._wrap(target, raw)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is raw:
                                put(module, attr, wrapped)
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)
            self.op, self.timing = None, False

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "absent": sorted(self.absent)}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def per_op(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation, trace overhead aside."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        build_draws = 0
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            took = end - start
            total[name] += took
            self_time[name] += took
            calls[name] += 1
            if parent is not None:
                parent_name = self.spans[parent][0]
                self_time[parent_name] -= took
                if name == "divposets.draw" and parent_name == "divposets.random_suitable":
                    build_draws += 1
        counts = self.counts[op]
        out = {f"{s}_s": total[s] for s in TIMED}
        out.update({f"{s}.self_s": self_time[s] for s in SELF_TIMED})
        out.update(
            {
                "divposets.suitability_calls": calls["divposets.suitability"],
                "divposets.embedding_checked": counts["embedding_checked"],
                "divposets.embedding_skipped": counts["embedding_skipped"],
                "divposets.draw_calls": calls["divposets.draw"],
                "divposets.rows_drawn": counts["rows_drawn"],
                # accepted draws over draws made while building; 0 when
                # the operation built nothing (the verify re-draws are
                # never accepted or rejected)
                "divposets.draw_accept_ratio": (
                    counts["draws_accepted"] / build_draws if build_draws else 0.0
                ),
                "pipeline.coords": counts["coords"],
                "pipeline.pairs_checked": counts["pairs_checked"],
                "primes.factorize_calls": calls["primes.factorize"],
                "coverfree.samples_checked": counts["samples_checked"],
            }
        )
        return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each per-layer metric."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
