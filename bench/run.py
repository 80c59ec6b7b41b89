"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certify-1e5, verify-exhaustive-2000, verify-sampled-1e5,
oracles.  The sources are imported from ``src/`` beside this directory.
Setup runs at least SETUP_REPEATS times and SETUP_SECONDS long, then
operations run one after another (closed loop, one process) until S
seconds have passed; every output is checked after the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced operations; the spans are
written to ``.bench_trace/`` when it ends.  ``--tiny`` shrinks every
input for the self-test.

Times are scaled to one machine speed.  The shared 2-vCPU virtual
machine this was tuned on runs up to 3x slower for moments to minutes,
so raw wall times of runs a few minutes apart differ by more than any
useful bound (over ten seeds the quartile spread of a run's fastest
operation reached 0.35 of its median, of its median operation 0.62).
So a fixed pure-Python probe loop that does not touch divdim (about
1 ms) runs at the start and the end of every timed region and every
50 ms inside it, from a timer signal; the region's wall time, less the
probes' own time, is scaled by PROBE_S over the probes' mean time.  A
scaled second is a second on that machine in its fast phase, where the
probe takes PROBE_S.  A change to divdim moves the scaled time as it
moves the wall time; a change of machine phase slows the region and the
probes alike and cancels.  Each vCPU changes phase on its own, so the
run and the child processes it starts are pinned to one CPU.
``op_s`` is the median scaled time of the run's untraced operations and
``setup_s`` the median scaled time of its setups; the summary line
above the JSON gives the raw wall times and the operation count too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup runs at least SETUP_REPEATS times and for at least SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# The probe loop's iterations; its time in seconds on the tuning machine
# (a shared 2-vCPU VM, CPython 3.11) in that machine's fast phase; and
# how often it runs inside a timed region.  See the module docstring.
PROBE_ITERS = 5000
PROBE_S = 0.0008
PROBE_EVERY_S = 0.05

# (metric, unit): what a user of divdim sees
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cert_bytes", "bytes"),
    ("cert_dim", "coords"),
)


def import_library():
    """Import divdim from this checkout's sources, never from elsewhere."""
    if not (SRC / "divdim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no divdim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import divdim

    if Path(divdim.__file__).resolve().parent != (SRC / "divdim").resolve():
        raise SystemExit(f"bench: divdim was imported from {divdim.__file__}, not {SRC}")


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU.

    On the tuning machine each vCPU speeds up and slows down on its own
    (probe times on the two correlate at 0.15), so the probe tracks a
    timed region only when both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_s() -> float:
    """Time of a fixed pure-Python loop that does not touch divdim: the
    speed of this CPU at this moment."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return perf_counter() - start


class Timed:
    """Wall time of one region, and that time scaled to the reference speed.

    The probe runs at the start and the end of the region and, from a
    SIGALRM handler, every PROBE_EVERY_S seconds inside it.  The time
    the probes take is left out of both ``wall`` and ``scaled``.
    """

    def _probe(self, *_) -> None:
        took = probe_s()
        self.probes.append(took)
        self.probing += took

    def __enter__(self):
        self.probes: list[float] = []
        self.probing = 0.0
        self.start = perf_counter()
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        self.wall = perf_counter() - self.start - self.probing
        self.scaled = self.wall * PROBE_S / statistics.mean(self.probes)
        return False


def measure(workload, rec, seconds: float, traced: bool) -> dict:
    """Set up, then run operations for ``seconds``; nothing is checked yet."""
    setup: list[Timed] = []
    start = perf_counter()
    while len(setup) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        gc.collect()
        with Timed() as t:
            workload.setup()
        setup.append(t)
    records, errors, plain, timed = [], {}, [], []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or i < (2 if traced else 1):
        tracing = traced and i % 2 == 1
        gc.collect()
        with rec.installed(i, tracing), Timed() as t:
            try:
                records.append(workload.op(i))
            except Exception:
                errors[i] = traceback.format_exc()
        (timed if tracing else plain).append(t)
        i += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup": setup, "records": records, "errors": errors,
        "plain": plain, "timed": timed, "peak_mb": peak_mb, "ops": i,
    }


def check(workload, rec, run: dict) -> list[str]:
    """One line per failed operation or failed tamper check."""
    failures = [f"op {i}: raised\n{tb}" for i, tb in run["errors"].items()]
    for record in run["records"]:
        try:
            problems = workload.check(record)
        except Exception:
            problems = [traceback.format_exc()]
        skipped = rec.counts[record.index]["embedding_skipped"]
        if skipped:
            problems.append(f"{skipped} embedding check(s) skipped")
        if problems:
            failures.append(f"op {record.index}: " + "; ".join(problems))
    try:
        problems = workload.tamper_check(run["records"]) if run["records"] else ["no output"]
    except Exception:
        problems = [traceback.format_exc()]
    if problems:
        failures.append("tamper check: " + "; ".join(problems))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import_library()
    pin_to_one_cpu()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    traced = args.trace == 1
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    rec = spans.Recorder()
    try:
        workload = workloads.make(args.workload, args.seed, work, ROOT, args.tiny)
        run = measure(workload, rec, args.seconds, traced)
        failures = check(workload, rec, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = run["ops"] + 1  # the operations and the tamper check
    plain = run["plain"]
    wall = [t.wall for t in plain]
    print(
        f"{args.workload} seed {args.seed}: {run['ops']} operations, {len(plain)} untraced: "
        f"wall s min {min(wall):.4f}, median {statistics.median(wall):.4f}, "
        f"max {max(wall):.4f}; setup wall s median {statistics.median(t.wall for t in run['setup']):.4f} "
        f"of {len(run['setup'])}; fail_share {len(failures) / attempted} ratio "
        f"({len(failures)} of {attempted})"
    )
    op_s = statistics.median(t.scaled for t in plain)
    if traced:
        trace_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
        rec.write(trace_file, {"workload": args.workload, "seed": args.seed})
        if rec.absent:
            print(f"absent from src (read as 0): {', '.join(sorted(rec.absent))}")
        traced_ops = [r.index for r in run["records"] if r.index % 2 == 1]
        values = spans.median_metrics([rec.per_op(i) for i in traced_ops] or [rec.per_op(None)])
        values["trace.overhead_s"] = statistics.median(t.scaled for t in run["timed"]) - op_s
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        sizes = [r.size for r in run["records"] if r.size is not None] or [(0, 0)]
        values = {
            "setup_s": statistics.median(t.scaled for t in run["setup"]),
            "op_s": op_s,
            "peak_rss_mb": run["peak_mb"],
            "cert_bytes": statistics.median(b for b, _ in sizes),
            "cert_dim": statistics.median(d for _, d in sizes),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
