"""Golden digests of the persistence experiments (``python -m scripts.persistence_digests``).

Figures 6 and 7 run on a dedicated persistence Internet, independent of the
scenario, so one SHA-256 each over the timing-masked experiment report
pins their bytes absolutely.  The differential tests compare the
incremental timeline against the legacy engine; these digests also catch
a change to code both sides share (the decision process, the propagation
core, the persistence analysis), which a differential test cannot see.

Usage::

    python -m scripts.persistence_digests            # print, exit 1 on mismatch
    python -m scripts.persistence_digests --write    # re-record the digests

An intended digest change must be re-recorded with ``--write`` and
explained in ``CHANGES.md``.  Pure standard library.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Where the recorded digests live (read by the tier-1 golden test).
DIGEST_FILE = ROOT / "tests" / "experiments" / "persistence_digests.json"

#: The scenario-independent persistence experiments.
EXPERIMENTS = ("fig6", "fig7")


def report_json(experiment_id: str) -> str:
    """The timing-masked JSON of one persistence experiment's report."""
    import repro.experiments.registry  # noqa: F401  (registers every experiment)
    from repro.session import StageCache, get_scenario, run_suite

    # The persistence experiments require no stage, so the scenario is
    # irrelevant: nothing of it is built.
    study = get_scenario("small").study(cache=StageCache())
    report = run_suite(study, [experiment_id]).experiments[0]
    return json.dumps(report.to_dict(include_timing=False), indent=2, default=str)


def compute() -> dict[str, str]:
    """SHA-256 of every persistence experiment's timing-masked report."""
    return {
        experiment_id: hashlib.sha256(report_json(experiment_id).encode()).hexdigest()
        for experiment_id in EXPERIMENTS
    }


def recorded() -> dict[str, str]:
    """The committed digests."""
    return json.loads(DIGEST_FILE.read_text())


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    digests = compute()
    if "--write" in args:
        DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGEST_FILE.relative_to(ROOT)}")
        return 0
    expected = recorded()
    status = 0
    for experiment_id, digest in digests.items():
        ok = expected.get(experiment_id) == digest
        status |= not ok
        print(f"{experiment_id} {digest} {'ok' if ok else 'MISMATCH'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
