"""Persistence paths (Timeline, Figs. 6/7) on sampled non-preset scenarios.

The golden persistence test runs on one fixed small Internet; here the
timeline and the snapshot-sharing ``analysis.persistence`` fast path are
exercised on scenario-family samples — topologies nobody hand-picked —
asserting (a) the incremental timeline (one compile, then per-snapshot
``rerun`` of only the churned origins' prefixes) equals a legacy replay
that re-simulates every snapshot from scratch with the legacy engine, and
(b) the snapshot-sharing analysis equals the legacy
:class:`~repro.core.persistence.PersistenceAnalyzer` on every snapshot.
"""

import copy
import random
from collections import Counter

import pytest

from repro.analysis.persistence import SnapshotSACore, persistence_series, uptime_distribution
from repro.core.persistence import PersistenceAnalyzer
from repro.experiments.common import persistence_snapshots, persistence_timeline
from repro.session.scenarios import get_family
from repro.simulation.policies import PolicyGenerator
from repro.simulation.propagation import PropagationEngine
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import InternetGenerator

#: Two sampled (family, seed) scenarios — deliberately not presets.
SAMPLES = (("multihoming", 3), ("peering-density", 5))

SNAPSHOT_COUNT = 4

_CACHE: dict[tuple[str, int], dict] = {}


def legacy_replay(timeline: Timeline) -> list[tuple[set, object]]:
    """The oracle: ``(changed origins, legacy result)`` per snapshot.

    Drives the timeline's own churn with the same seeded random source over
    a private copy of the assignment, and runs the legacy engine on the
    whole Internet at every snapshot — no compilation, no reuse.
    """
    rng = random.Random(timeline.parameters.seed)
    assignment = copy.deepcopy(timeline.base_assignment)
    replay = []
    for index in range(timeline.parameters.snapshot_count):
        changed = timeline._churn(assignment, rng) if index > 0 else set()
        result = PropagationEngine(
            timeline.internet, assignment, observed_ases=timeline.observed_ases
        ).run()
        replay.append((changed, result))
    return replay


def _timeline_case(family: str, seed: int) -> dict:
    """Internet, provider, the incremental snapshots and the legacy replay."""
    case = _CACHE.get((family, seed))
    if case is None:
        config = get_family(family).sample(seed)
        internet = InternetGenerator(config.topology).generate()
        assignment = PolicyGenerator(config.policy).generate(internet)
        provider = max(internet.tier1, key=internet.graph.degree)
        parameters = TimelineParameters(
            snapshot_count=SNAPSHOT_COUNT,
            churn_probability=0.2,
            appear_probability=0.05,
            disappear_probability=0.05,
            seed=seed,
        )
        timeline = Timeline(
            internet, assignment, observed_ases=[provider], parameters=parameters
        )
        case = _CACHE[(family, seed)] = {
            "internet": internet,
            "provider": provider,
            "snapshots": timeline.run(),
            "legacy": legacy_replay(timeline),
        }
    return case


def _snapshot_content(snapshot, provider):
    return _snapshot_content_of(snapshot.result, provider)


def _snapshot_content_of(result, provider):
    table = result.table_of(provider)
    return {
        entry.prefix: (Counter(entry.routes), entry.best) for entry in table.entries()
    }


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fast_and_legacy_timelines_agree(family, seed):
    case = _timeline_case(family, seed)
    snapshots, legacy = case["snapshots"], case["legacy"]
    assert len(snapshots) == len(legacy) == SNAPSHOT_COUNT
    assert any(snapshot.changed_origins for snapshot in snapshots[1:])
    for index, (snapshot, (changed, expected)) in enumerate(zip(snapshots, legacy)):
        assert snapshot.index == index
        assert snapshot.changed_origins == changed
        assert _snapshot_content(snapshot, case["provider"]) == _snapshot_content_of(
            expected, case["provider"]
        )
        assert snapshot.result.message_count == expected.message_count
        assert snapshot.result.truncated_prefixes == expected.truncated_prefixes


@pytest.mark.parametrize("snapshot_count,seed", [(31, 315), (12, 316)])
def test_preset_timelines_match_legacy_replay(snapshot_count, seed):
    """The Figs. 6/7 timelines (daily and intra-day) equal full legacy runs."""
    provider, snapshots, _graph = persistence_snapshots(snapshot_count, seed)
    legacy = legacy_replay(persistence_timeline(snapshot_count, seed))
    assert len(snapshots) == len(legacy) == snapshot_count
    for snapshot, (changed, expected) in zip(snapshots, legacy):
        assert snapshot.changed_origins == changed
        assert _snapshot_content(snapshot, provider) == _snapshot_content_of(
            expected, provider
        )
        assert snapshot.result.message_count == expected.message_count
        assert snapshot.result.truncated_prefixes == expected.truncated_prefixes


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fig6_series_matches_legacy_analyzer(family, seed):
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]
    provider = case["provider"]
    legacy = PersistenceAnalyzer(graph).series_for_provider(snapshots, provider)
    assert persistence_series(snapshots, provider, graph) == legacy
    assert legacy.snapshot_indices == list(range(SNAPSHOT_COUNT))


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fig7_uptime_matches_legacy_analyzer(family, seed):
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]
    provider = case["provider"]
    legacy = PersistenceAnalyzer(graph).uptime_distribution(snapshots, provider)
    distribution = uptime_distribution(snapshots, provider, graph)
    assert distribution == legacy
    assert all(1 <= count <= SNAPSHOT_COUNT for count in distribution.uptime.values())
    assert all(
        distribution.sa_uptime[prefix] <= distribution.uptime[prefix]
        for prefix in distribution.sa_uptime
    )


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_snapshot_sharing_core_is_equivalent_to_fresh_analyzers(family, seed):
    """One shared SnapshotSACore across Figs. 6 and 7 changes nothing."""
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]
    provider = case["provider"]
    core = SnapshotSACore(graph)
    assert persistence_series(snapshots, provider, graph, core=core) == (
        persistence_series(snapshots, provider, graph)
    )
    assert uptime_distribution(snapshots, provider, graph, core=core) == (
        uptime_distribution(snapshots, provider, graph)
    )
