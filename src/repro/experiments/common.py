"""Shared, memoised computations used by several experiments.

Several tables consume the same intermediate products (the SA-prefix reports
of the studied providers, the set of tagging Looking Glass ASes, the
persistence timeline).  Since the :mod:`repro.analysis` layer those shared
products are served by the dataset's memoised
:class:`~repro.analysis.engine.AnalysisEngine` — one compiled measurement
index per dataset, shared by every experiment and every ``run_suite``
worker — so the helpers here are thin delegates kept for compatibility.
"""

from __future__ import annotations

import functools

from repro.bgp.rib import LocRib
from repro.core.export_policy import SAPrefixReport
from repro.net.asn import ASN
from repro.session.stages import StageView
from repro.simulation.collector import LookingGlass
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.timeline import Snapshot, Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator

# The number of studied providers ("AS1, AS3549 and AS7018" in the paper)
# is configured per study via repro.session.stages.AnalysisParameters
# (study_provider_count, default 3); the dataset's engine is built with it.


def _engine(dataset):
    """The dataset's analysis engine.

    Goes through ``StageView.analysis`` when given a view, so an experiment
    that reaches these helpers without declaring ``Stage.ANALYSIS`` still
    fails loudly.
    """
    if isinstance(dataset, StageView):
        return dataset.analysis
    return dataset.analysis_engine()


def provider_tables(dataset: StageView, count: int | None = None) -> dict[ASN, LocRib]:
    """The routing tables of the studied (largest Tier-1) providers.

    ``count=None`` defers to the engine's configured
    ``study_provider_count``, so the whole suite agrees on one provider set.
    """
    return _engine(dataset).provider_tables(count)


def sa_reports(dataset: StageView) -> dict[ASN, SAPrefixReport]:
    """The Fig. 4 SA-prefix reports for the studied providers."""
    return _engine(dataset).sa_reports()


def all_provider_reports(dataset: StageView) -> dict[ASN, SAPrefixReport]:
    """SA-prefix reports for every observed AS that has customers (Table 5)."""
    return _engine(dataset).all_provider_reports()


def tagging_glasses(dataset: StageView) -> list[LookingGlass]:
    """Looking Glass ASes that tag routes with relationship communities."""
    return [
        dataset.looking_glass_of(asn)
        for asn in dataset.looking_glass_ases
        if dataset.assignment.policies[asn].community_plan is not None
    ]


def persistence_timeline(snapshot_count: int = 31, seed: int = 315) -> Timeline:
    """The persistence timeline on its dedicated small Internet (not yet run)."""
    internet = InternetGenerator(
        GeneratorParameters(
            seed=777, tier1_count=4, tier2_count=8, tier3_count=16, stub_count=90
        )
    ).generate()
    assignment = PolicyGenerator(PolicyParameters(seed=915)).generate(internet)
    provider = max(internet.tier1, key=internet.graph.degree)
    return Timeline(
        internet,
        assignment,
        observed_ases=[provider],
        parameters=TimelineParameters(
            snapshot_count=snapshot_count,
            churn_probability=0.015,
            appear_probability=0.008,
            disappear_probability=0.005,
            seed=seed,
        ),
    )


@functools.lru_cache(maxsize=4)
def persistence_snapshots(
    snapshot_count: int = 31, seed: int = 315
) -> tuple[ASN, tuple[Snapshot, ...], object]:
    """A memoised persistence timeline on a dedicated small Internet.

    The persistence study (Figs. 6 and 7) re-simulates the Internet once per
    snapshot, so it runs on a smaller topology than the main dataset.
    Returns ``(studied provider, snapshots, annotated graph)``.
    """
    timeline = persistence_timeline(snapshot_count, seed)
    (provider,) = timeline.observed_ases
    return provider, tuple(timeline.run()), timeline.internet.graph
