"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py

The sample-level tests start real samples in fresh interpreters, so this
takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(name: str, seed: int | None = 0, trace: bool = True, digests=None) -> run.Run:
    if digests is None:
        digests = json.loads(run.DIGESTS.read_text())
    return run.Run(run.WORKLOADS[name], seed, trace, digests)


def test_consecutive_standard_samples_both_run_the_timeline(tmp_path):
    """Sample isolation: no sample inherits the timeline memo of another."""
    bench = _run("report-standard")
    bench.set_up(tmp_path)
    bench.take_sample(traced=True)
    bench.take_sample(traced=True)
    assert bench.problems == []
    for sample in bench.traced:
        values = run.layer_values(sample)
        assert values["timeline.run_s"] > 0
        assert values["timeline.snapshots"] == 43
        assert values["storage.reads"] == 0 and values["storage.decode_s"] == 0


def test_sweep_peak_rss_counts_pool_workers(tmp_path):
    """Memory accounting: the sweep's pool workers enter peak_rss_mb."""
    bench = _run("sweep-families", trace=False)
    bench.set_up(tmp_path)
    bench.take_sample(traced=False)
    assert bench.problems == []
    sample = bench.samples[0]
    assert sample["rss_children_kb"] > 0
    assert sample["peak_rss_kb"] == max(sample["rss_self_kb"], sample["rss_children_kb"])
    assert bench.end_to_end()["peak_rss_mb"] == [sample["peak_rss_kb"] / 1024]
    assert (sample["attempted"], sample["failed"]) == (40, 1)  # collector-size@6


def test_digest_mismatch_and_stored_miss_fail_the_check():
    bench = _run("report-large-stored", digests={"report-large-stored": {"0": "a" * 64}})
    bench.check({"digest": "b" * 64, "stages": {"misses": 1}, "report_s": 1.0})
    assert len(bench.problems) == 2
    unrecorded = _run("report-standard", digests={})
    unrecorded.check({"digest": "a" * 64, "stages": {"misses": 6}, "report_s": 1.0})
    assert len(unrecorded.problems) == 1


def test_uncovered_traced_sample_fails_the_check():
    bench = _run("report-standard")
    expected = bench.expected
    bench.check({"digest": expected, "stages": {}, "report_s": 1.0, "covered_s": 0.9})
    assert len(bench.problems) == 1
    bench.check({"digest": expected, "stages": {}, "report_s": 1.0, "covered_s": 0.99})
    assert len(bench.problems) == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    times = tracer.self_times()
    assert times["inner"] >= 0.03
    assert 0.02 <= times["outer"] < 0.03
    assert tracer.top_level_seconds() == pytest.approx(times["outer"] + times["inner"])


def test_metric_lists_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)

    from repro.experiments.registry import experiment_ids

    assert tuple(experiment_ids()) == run.EXPERIMENTS


def test_every_slot_has_a_recorded_digest():
    digests = json.loads(run.DIGESTS.read_text())
    slots = {"preset", *map(str, range(run.SLOTS))}
    for name in run.WORKLOADS:
        assert set(digests[name]) == slots


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-standard",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
