"""One benchmark sample, run in a fresh interpreter by ``perfbench/run.py``.

Usage::

    PYTHONPATH=src python3 perfbench/sample.py '{"kind": "standard", "seed": 3}'

The argument is a JSON object: ``kind`` (``import``, ``standard``,
``large-stored``, ``large-cold``, ``populate`` or ``sweep``), ``seed`` (an
integer, or ``null`` for the preset as-is), ``store`` (the artifact store
directory of the store-backed kinds) and ``trace`` (record layer spans).
The last line of standard output is one JSON object with the sample's
measurements: ``report_s`` (the timed operation), ``digest`` (SHA-256 of the
timing-masked report), operation counts, peak RSS and, when traced, the
spans, counters and self times.

Everything the timed operation needs is imported before the clock starts,
so interpreter start plus these imports is the cold workloads' set-up
(``kind`` ``import`` stops right after them).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import STAGES, Tracer, instrument  # noqa: E402

import repro.experiments.registry  # noqa: E402,F401  (registers every experiment)
from repro.session import (  # noqa: E402
    PropagationSettings,
    StageCache,
    SuiteReport,
    expand_case_specs,
    family_names,
    get_scenario,
    run_suite,
    run_sweep,
)
from repro.storage.store import DiskStore  # noqa: E402

#: The persistence pair: scenario-independent, so the store-backed workload
#: leaves them to the other two.
PERSISTENCE = ("fig6", "fig7")

#: Seeds per family in the sweep workload.
SWEEP_COUNT = 8


def _study(preset: str, seed: int | None, cache: StageCache, workers: int = 1):
    """The preset's study, re-seeded by ``seed`` unless it is ``None``.

    ``standard`` runs ``Study.seeded(seed)``.  ``large`` re-seeds only its
    IRR stage: re-seeding its topology or Looking Glass set changed the
    legacy ablation analyzers' time by about 3x between seeds, enough on
    its own to exceed the benchmark's bound.  A new IRR draw still changes
    the IRR and analysis artifacts the workload stores and decodes.
    """
    study = get_scenario(preset).study(
        cache=cache, propagation=PropagationSettings(workers=workers)
    )
    if seed is None:
        return study
    if preset == "standard":
        return study.seeded(seed)
    return study.with_(irr=dataclasses.replace(study.config.irr, seed=seed))


def _experiment_ids(kind: str) -> list[str]:
    ids = repro.experiments.registry.experiment_ids()
    if kind == "standard":
        return ids
    return [identifier for identifier in ids if identifier not in PERSISTENCE]


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _run_report(study, ids: list[str], tracer: Tracer | None) -> tuple[str, int]:
    """Run each experiment as its own suite; return (masked report, failures).

    One suite call per experiment makes an experiment the unit of failure:
    an experiment that raises is counted and recorded in the report text,
    and the others still run.  Stage builds happen in the first call that
    needs them, exactly as in one ``run_suite`` over every id.
    """
    reports, errors = [], {}
    for identifier in ids:
        with _span(tracer, "session.run_suite"):
            try:
                reports.extend(run_suite(study, [identifier]).experiments)
            except Exception as error:  # noqa: BLE001 - one failed operation
                errors[identifier] = f"{type(error).__name__}: {error}"
    with _span(tracer, "report.serialize"):
        text = SuiteReport(experiments=reports).to_json(include_timing=False)
        if errors:
            text += "\n" + json.dumps(errors, sort_keys=True)
    return text, len(errors)


def _stage_counts(stats: dict) -> dict[str, int]:
    counts = {"hits": 0, "disk_hits": 0, "misses": 0}
    for stage in STAGES:
        for field, value in stats.get(stage, {}).items():
            counts[field] += value
    return counts


def _sweep_text(report) -> str:
    """The sweep's outcome without its run-specific paths and cache tallies."""
    rows = []
    for case in report.cases:
        body = pathlib.Path(case.report_path).read_bytes() if case.report_path else b""
        rows.append(
            [case.spec, case.status, case.error, hashlib.sha256(body).hexdigest()]
        )
    return json.dumps(rows, indent=1)


def run(spec: dict) -> dict:
    kind = spec["kind"]
    seed = spec.get("seed")
    tracer = Tracer() if spec.get("trace") else None
    if tracer and kind != "sweep":
        instrument(tracer)  # pool workers are not traced: nothing to wrap
    out: dict = {"kind": kind, "attempted": 0, "failed": 0}
    if kind == "import":
        return out

    started = time.perf_counter()
    if kind in ("standard", "large-stored", "large-cold"):
        preset = "standard" if kind == "standard" else "large"
        disk = DiskStore(spec["store"]) if kind == "large-stored" else None
        cache = StageCache(disk=disk)
        ids = _experiment_ids(kind)
        text, failed = _run_report(_study(preset, seed, cache), ids, tracer)
        out.update(attempted=len(ids), failed=failed, stages=_stage_counts(cache.stats_dict()))
    elif kind == "populate":
        cache = StageCache(disk=DiskStore(spec["store"]))
        _study("large", seed, cache, workers=2).analysis()
        text = ""
        out.update(stages=_stage_counts(cache.stats_dict()))
    elif kind == "sweep":
        specs = expand_case_specs(
            None, family_names(), count=SWEEP_COUNT, seed=seed or 0
        )
        with _span(tracer, "session.sweep"):
            report = run_sweep(
                specs, cache_dir=spec["store"], workers=spec.get("workers", 2)
            )
        with _span(tracer, "report.serialize"):
            text = _sweep_text(report)
        failed = report.count("failed") + report.count("quarantined")
        stages = {"hits": 0, "disk_hits": 0, "misses": 0}
        for case in report.cases:
            for field, value in _stage_counts(case.cache_stats or {}).items():
                stages[field] += value
        out.update(
            attempted=len(report.cases),
            failed=failed,
            stages=stages,
            cases=[[c.status, c.seconds, c.attempts] for c in report.cases],
        )
    else:
        raise SystemExit(f"unknown sample kind {kind!r}")
    with _span(tracer, "report.serialize"):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    out["report_s"] = time.perf_counter() - started
    out["digest"] = digest

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["rss_self_kb"] = own.ru_maxrss
    out["rss_children_kb"] = children.ru_maxrss
    out["peak_rss_kb"] = max(own.ru_maxrss, children.ru_maxrss)
    out["cpu_s"] = own.ru_utime + own.ru_stime
    out["children_cpu_s"] = children.ru_utime + children.ru_stime
    if tracer:
        if kind == "sweep":  # pool workers write the store: count what they left
            for stage in DiskStore(spec["store"]).stats().values():
                tracer.count("storage.writes", stage["artifacts"])
                tracer.count("storage.bytes_written", stage["bytes"])
        out["spans"] = tracer.spans
        out["self_times"] = tracer.self_times()
        out["counters"] = dict(tracer.counters)
        out["covered_s"] = tracer.top_level_seconds()
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
