"""Scenario-to-report benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py                                  # every workload, round-robin
    python3 perfbench/run.py --workload report-standard --seed 3 --seconds 20
    python3 perfbench/run.py --workload sweep-families --trace 1   # per-layer run
    python3 perfbench/run.py --record                         # re-record digests.json

Each sample is a fresh interpreter (``perfbench/sample.py``), so every
sample starts with empty process-local caches.  Before every sample a fixed
CPU-bound loop is timed as ``host.probe_s``; it is reported, never used to
rescale a number.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of traced samples (untraced samples run alongside them to
price the tracing), and the spans are written as Chrome trace-event JSON
under ``.perfbench/``.  The exit code is 1 when an output check fails.

See ``perfbench/README.md`` for the workloads, metrics and their rationale.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench"

#: Recorded input sets per workload: ``--seed n`` runs seed ``n % SLOTS``,
#: whose report digest is in ``digests.json``.
SLOTS = 16

#: Interpreter-start-plus-import timings per cold set-up (median reported).
IMPORT_REPEATS = 15

#: Iterations of the host-speed reference loop.
PROBE_LOOPS = 1_500_000

#: Untraced samples per workload, at least: a median of two halves the
#: weight of one slow sample.  A traced run takes one traced and one
#: untraced sample at least.
MIN_ROUNDS = 2

#: A sample may not take longer than this (seconds).
SAMPLE_TIMEOUT = 170

#: Top-level spans must cover at least this share of a traced sample.
MIN_COVERAGE = 0.95

#: Every registered experiment, in registry order.
EXPERIMENTS = (
    "ablations", "atoms", "case3", "fig2", "fig6", "fig7", "fig9", "table1",
    "table10", "table11", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9",
)

STAGES = ("topology", "policies", "propagation", "observation", "irr", "analysis")

#: Span names whose summed self time is reported as ``<name>_s``.
LAYER_SPANS = (
    "timeline.run",
    "fastpath.compile", "fastpath.run", "fastpath.publish",
    "collector.collect",
    "analysis.index_build", "relationships.gao",
    "storage.decode", "storage.read", "storage.encode", "storage.write",
    *(f"session.{stage}" for stage in STAGES),
    *(f"experiments.{identifier}" for identifier in EXPERIMENTS),
)

#: Counters recorded by the span wrappers, with their units.
LAYER_COUNTERS = (
    ("timeline.snapshots", "count"),
    ("fastpath.runs", "count"),
    ("storage.reads", "count"),
    ("storage.bytes_read", "bytes"),
    ("storage.writes", "count"),
    ("storage.bytes_written", "bytes"),
)

#: Layers of the store-backed workload's set-up (its traced populate run).
SETUP_LAYERS = (
    "fastpath.compile_s", "fastpath.run_s", "fastpath.publish_s",
    "collector.collect_s", "analysis.index_build_s", "relationships.gao_s",
    "storage.encode_s", "storage.write_s", "storage.bytes_written",
    *(f"session.{stage}_s" for stage in STAGES),
)

END_TO_END = (("report_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return dict(LAYER_COUNTERS).get(name.removeprefix("setup."), "count")


PER_LAYER = (
    *((f"{span}_s", "s") for span in LAYER_SPANS),
    *LAYER_COUNTERS,
    ("session.cache_hits", "count"),
    ("session.cache_disk_hits", "count"),
    ("session.cache_misses", "count"),
    ("sweep.case_s", "s"),
    ("sweep.case_max_s", "s"),
    ("sweep.attempts", "count"),
    ("sweep.completed", "count"),
    ("sweep.failed", "count"),
    ("sweep.quarantined", "count"),
    ("process.cpu_s", "s"),
    ("process.children_cpu_s", "s"),
    ("host.probe_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    *((f"setup.{name}", _unit(name)) for name in SETUP_LAYERS),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a set-up plus a repeated, checked sample."""

    name: str
    kind: str  # the sample kind that is timed
    reference: dict  # the sample spec whose digest --record stores
    stored: bool = False  # samples read a store populated by the set-up


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("report-standard", "standard", {"kind": "standard"}),
        Workload(
            "report-large-stored", "large-stored", {"kind": "large-cold"}, stored=True
        ),
        Workload("sweep-families", "sweep", {"kind": "sweep", "workers": 1}),
    )
}


def _env() -> dict:
    """The sample environment: ``src`` first, no ``REPRO_*`` settings."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def run_sample(spec: dict) -> tuple[dict, float]:
    """Run one sample in a fresh interpreter; return (result, wall seconds)."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(SAMPLE), json.dumps(spec)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"sample {spec['kind']} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1]), wall


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.perf_counter() - started


def _slot(seed: int | None) -> tuple[int | None, str]:
    """The seed a sample runs and its digest slot."""
    if seed is None:
        return None, "preset"
    return seed % SLOTS, str(seed % SLOTS)


class Run:
    """The samples of one workload in one benchmark invocation."""

    def __init__(self, workload: Workload, seed: int | None, trace: bool, digests: dict):
        self.workload = workload
        self.seed, slot = _slot(seed)
        self.expected = digests.get(workload.name, {}).get(slot)
        self.trace = trace
        self.store: str | None = None
        self.setup_times: list[float] = []
        self.setup_sample: dict | None = None
        self.samples: list[dict] = []  # untraced
        self.traced: list[dict] = []
        self.probes: list[float] = []
        self.problems: list[str] = []

    def set_up(self, scratch: pathlib.Path) -> None:
        if self.workload.stored:
            self.store = str(scratch / f"{self.workload.name}-store")
            populate = {"kind": "populate", "seed": self.seed, "store": self.store}
            self.setup_sample, wall = run_sample({**populate, "trace": self.trace})
            self.setup_times = [wall]
            return
        if self.workload.kind == "sweep":
            self.store = str(scratch / f"{self.workload.name}-store")
        if not self.trace:
            self.setup_times = [run_sample({"kind": "import"})[1] for _ in range(IMPORT_REPEATS)]

    def take_sample(self, traced: bool) -> None:
        self.probes.append(host_probe())
        if self.workload.kind == "sweep":
            shutil.rmtree(self.store, ignore_errors=True)  # every sweep starts cold
        result, _wall = run_sample(
            {"kind": self.workload.kind, "seed": self.seed, "store": self.store, "trace": traced}
        )
        (self.traced if traced else self.samples).append(result)
        self.check(result)

    def check(self, result: dict) -> None:
        label = f"{self.workload.name} sample {len(self.samples) + len(self.traced)}"
        if self.expected is None:
            self.problems.append(f"{label}: no recorded digest for seed {self.seed}")
        elif result["digest"] != self.expected:
            self.problems.append(
                f"{label}: report digest {result['digest'][:12]} != recorded "
                f"{self.expected[:12]}"
            )
        if self.workload.stored and result["stages"]["misses"]:
            self.problems.append(
                f"{label}: {result['stages']['misses']} stage miss(es) on the stored path"
            )
        if "covered_s" in result and result["covered_s"] < MIN_COVERAGE * result["report_s"]:
            self.problems.append(
                f"{label}: top-level spans cover {result['covered_s']:.3f} s of "
                f"{result['report_s']:.3f} s"
            )

    # -- results ---------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(s["attempted"] for s in self.samples + self.traced)

    @property
    def failed(self) -> int:
        return sum(s["failed"] for s in self.samples + self.traced)

    def end_to_end(self) -> dict[str, list[float]]:
        return {
            "report_s": [s["report_s"] for s in self.samples],
            "setup_s": self.setup_times,
            "peak_rss_mb": [s["peak_rss_kb"] / 1024 for s in self.samples],
        }

    def per_layer(self) -> dict[str, list[float]]:
        values: dict[str, list[float]] = {name: [] for name, _unit in PER_LAYER}
        for sample in self.traced:
            for name, value in layer_values(sample).items():
                values[name].append(value)
        setup = layer_values(self.setup_sample) if self.setup_sample else {}
        for name in SETUP_LAYERS:
            values[f"setup.{name}"] = [setup.get(name, 0.0)]
        values["host.probe_s"] = list(self.probes)
        overhead = _median([s["report_s"] for s in self.traced]) - _median(
            [s["report_s"] for s in self.samples]
        )
        values["trace.overhead_s"] = [overhead]
        return values


def layer_values(sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    self_times = sample.get("self_times", {})
    counters = sample.get("counters", {})
    values = {f"{span}_s": self_times.get(span, 0.0) for span in LAYER_SPANS}
    values.update({name: counters.get(name, 0.0) for name, _unit in LAYER_COUNTERS})
    stages = sample.get("stages", {})
    values["session.cache_hits"] = stages.get("hits", 0)
    values["session.cache_disk_hits"] = stages.get("disk_hits", 0)
    values["session.cache_misses"] = stages.get("misses", 0)
    cases = sample.get("cases", [])
    seconds = [case_seconds for _status, case_seconds, attempts in cases if attempts]
    statuses = [status for status, _seconds, _attempts in cases]
    values["sweep.case_s"] = _median(seconds)
    values["sweep.case_max_s"] = max(seconds, default=0.0)
    values["sweep.attempts"] = sum(attempts for _s, _t, attempts in cases)
    for status in ("completed", "failed", "quarantined"):
        values[f"sweep.{status}"] = statuses.count(status)
    values["process.cpu_s"] = sample.get("cpu_s", 0.0)
    values["process.children_cpu_s"] = sample.get("children_cpu_s", 0.0)
    if "report_s" in sample and "covered_s" in sample:
        values["trace.coverage"] = sample["covered_s"] / sample["report_s"]
    return values


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def write_trace(runs: list[Run], path: pathlib.Path) -> None:
    """Every traced sample's spans as Chrome trace-event JSON."""
    events = []
    pid = 0
    for run in runs:
        traced = ([("setup", run.setup_sample)] if run.setup_sample else []) + [
            (f"sample {index}", sample) for index, sample in enumerate(run.traced, 1)
        ]
        for label, sample in traced:
            if "spans" not in sample:
                continue
            pid += 1
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                 "args": {"name": f"{run.workload.name} {label}"}}
            )
            spans = sample["spans"]
            for name, start, end, parent in spans:
                events.append(
                    {
                        "name": name,
                        "cat": name.split(".")[0],
                        "ph": "X",
                        "ts": round(start * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "pid": pid,
                        "tid": 1,
                        "args": {"parent": spans[parent][0] if parent >= 0 else None},
                    }
                )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def measure(names: list[str], seed: int | None, seconds: float, trace: bool) -> list[Run]:
    """Set up every workload, then sample them round-robin for ``seconds`` each."""
    digests = json.loads(DIGESTS.read_text())
    runs = [Run(WORKLOADS[name], seed, trace, digests) for name in names]
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        for run in runs:
            run.set_up(scratch)
        deadline = time.monotonic() + seconds * len(runs)
        for round_number in itertools.count(1):
            for run in runs:
                run.take_sample(traced=False)
                if trace:
                    run.take_sample(traced=True)
            if round_number >= (1 if trace else MIN_ROUNDS) and time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return runs


def summarize(runs: list[Run], trace: bool) -> dict:
    """Print every metric with its unit; return the result object."""
    units = dict(END_TO_END if not trace else PER_LAYER)
    metrics = {}
    for run in runs:
        series = run.per_layer() if trace else run.end_to_end()
        prefix = f"{run.workload.name}/" if len(runs) > 1 else ""
        print(f"{run.workload.name}: {run.attempted} operations attempted, {run.failed} failed")
        for name, values in series.items():
            value = _median(values)
            metrics[prefix + name] = {"value": value, "unit": units[name]}
            spread = f"  [{min(values):.4g} .. {max(values):.4g}]" if len(values) > 1 else ""
            print(f"  {name:34s} {value:12.6g} {units[name]:6s} n={len(values)}{spread}")
        if not trace:
            print(f"  (host.probe_s {_median(run.probes):.4g} s, n={len(run.probes)})")
        for problem in run.problems:
            print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not any(run.problems for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def record(names: list[str]) -> None:
    """Re-record the workloads' reference digests from their cold reference runs."""
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    digests: dict[str, dict[str, str]] = {}
    try:
        for workload in map(WORKLOADS.get, names):
            digests[workload.name] = {}
            for seed in [None, *range(SLOTS)]:
                store = str(scratch / f"{workload.name}-{seed}")
                result, wall = run_sample({**workload.reference, "seed": seed, "store": store})
                _seed, slot = _slot(seed)
                digests[workload.name][slot] = result["digest"]
                print(
                    f"{workload.name} seed {slot}: {result['digest'][:12]} "
                    f"failed {result['failed']}/{result['attempted']} ({wall:.1f} s)",
                    flush=True,
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded.update(digests)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    WORK.mkdir(exist_ok=True)
    if args.record:
        record(names)
        return 0
    runs = measure(names, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        label = "-".join(names) + ("" if args.seed is None else f"-seed{args.seed}")
        write_trace(runs, WORK / f"trace-{label}.json")
    result = summarize(runs, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
