"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Runs every workload named in BENCHMARK.json with ``--tiny`` (n = 200, a
small oracle set), untraced and traced, and checks that every metric
BENCHMARK.json names is printed with its unit and that no operation
failed.  Also checks the span arithmetic and that the benchmark refuses
to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [name for name, _, _ in spans.LAYER_METRICS] == [m["name"] for m in spec["per_layer"]]
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(
                ROOT, "--workload", workload["name"], "--seed", "7",
                "--seconds", "0.5", "--trace", str(trace), "--tiny",
            )
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
            assert "fail_share 0.0 ratio" in done.stdout, done.stdout
            if trace:
                assert result["metrics"]["divposets.embedding_skipped"]["value"] == 0


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder()
    rec.spans = [
        ["cli", 0.0, 10.0, None, 0],
        ["pipeline.build", 1.0, 5.0, 0, 0],
        ["divposets.random_suitable", 2.0, 4.0, 1, 0],
        ["divposets.draw", 2.0, 2.5, 2, 0],
        ["pipeline.dumps", 6.0, 7.0, 0, 0],
    ]
    rec.counts[0]["draws_accepted"] = 1
    m = rec.per_op(0)
    assert m["cli.self_s"] == 5.0
    assert m["pipeline.build_s"] == 4.0
    assert m["pipeline.build.self_s"] == 2.0
    assert m["divposets.draw_calls"] == 1
    assert m["divposets.draw_accept_ratio"] == 1.0


def test_timed_region_is_probed_inside():
    with run.Timed() as t:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(t.probes) >= 4
    assert 0 < t.wall < 0.3 and t.scaled > 0


def test_missing_target_is_absent():
    gone = spans.Target("pipeline.gone", "divdim.pipeline", "no_such_function")
    assert spans._resolve(gone) is None
    assert spans._resolve(spans.Target("x", "divdim.pipeline", "RealiserCertificate.loads"))


def test_refuses_to_run_without_sources():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "--workload", "oracles", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"PASS {test.__name__}")
