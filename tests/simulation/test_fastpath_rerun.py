"""Differential tests of ``FastPropagationEngine.rerun``.

After origins change their export policy in place, ``rerun(previous,
changed_origins)`` re-propagates only their prefixes and reuses every other
prefix's routes.  In every case below it must equal a fresh
``FastPropagationEngine(...).run()`` on the mutated assignment: per-AS
entries in trie order, each entry's route list, which route of the list is
the best one (identity), the message count and the truncated prefixes.
"""

import random

import pytest

from repro.bgp.attributes import EMPTY_COMMUNITIES
from repro.exceptions import SimulationError
from repro.simulation.fastpath import FastPropagationEngine, compile_topology
from repro.simulation.policies import PolicyGenerator, PolicyParameters, scoped_community
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator


@pytest.fixture(scope="module")
def internet():
    return InternetGenerator(
        GeneratorParameters(seed=13, tier1_count=3, tier2_count=6, tier3_count=10, stub_count=40)
    ).generate()


@pytest.fixture
def assignment(internet):
    """A private assignment per test: the cases mutate it in place."""
    return PolicyGenerator(PolicyParameters(seed=21)).generate(internet)


def assert_same_result(result, fresh):
    """``result`` equals ``fresh`` in every observable the engines promise."""
    assert sorted(result.tables) == sorted(fresh.tables)
    for asn, fresh_table in fresh.tables.items():
        entries = list(result.tables[asn].entries())
        fresh_entries = list(fresh_table.entries())
        assert [e.prefix for e in entries] == [e.prefix for e in fresh_entries]
        for entry, fresh_entry in zip(entries, fresh_entries):
            assert entry.routes == fresh_entry.routes
            assert [r is entry.best for r in entry.routes] == [
                r is fresh_entry.best for r in fresh_entry.routes
            ]
    assert result.message_count == fresh.message_count
    assert result.truncated_prefixes == fresh.truncated_prefixes


def fresh_run(internet, assignment, **kwargs):
    return FastPropagationEngine(
        internet, assignment, observed_ases=internet.tier1, **kwargs
    ).run()


def stub_origin(internet, assignment, min_providers=1):
    """A stub origin (no customers) with at least ``min_providers`` providers."""
    graph = internet.graph
    for origin in sorted(internet.originated):
        if (
            not graph.customers_of(origin)
            and len(graph.providers_of(origin)) >= min_providers
            and internet.prefixes_of(origin)
            and origin not in internet.tier1
            and origin not in assignment.selective_origins
        ):
            return origin
    raise AssertionError("the fixture Internet has no suitable stub origin")


def silence(internet, assignment, origin, prefix):
    """Announce ``prefix`` to nobody: no provider, every peer withheld."""
    policy = assignment.policy_for(origin)
    policy.announce_to_providers[prefix] = frozenset()
    policy.withhold_from_peers[prefix] = frozenset(internet.graph.peers_of(origin))


class TestRerunEquivalence:
    def test_empty_change_reuses_every_route(self, internet, assignment):
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        first = engine.run()
        second = engine.rerun(first, set())
        assert_same_result(second, fresh_run(internet, assignment))
        for asn, table in second.tables.items():
            old_table = first.tables[asn]
            assert table is not old_table
            for entry in table.entries():
                old_entry = old_table.entry(entry.prefix)
                assert entry is not old_entry
                assert entry.routes is not old_entry.routes
                assert all(a is b for a, b in zip(entry.routes, old_entry.routes))
                assert entry.best is old_entry.best

    def test_prefix_stops_and_then_newly_reaches_the_observed_ases(
        self, internet, assignment
    ):
        origin = stub_origin(internet, assignment)
        prefix = internet.prefixes_of(origin)[0]
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        result = engine.run()
        assert any(prefix in table for table in result.tables.values())

        silence(internet, assignment, origin, prefix)
        result = engine.rerun(result, {origin})
        assert not any(prefix in table for table in result.tables.values())
        assert_same_result(result, fresh_run(internet, assignment))

        policy = assignment.policy_for(origin)
        del policy.announce_to_providers[prefix]
        del policy.withhold_from_peers[prefix]
        result = engine.rerun(result, {origin})
        assert any(prefix in table for table in result.tables.values())
        assert_same_result(result, fresh_run(internet, assignment))

    def test_origin_gains_a_scoped_announcement(self, internet, assignment):
        origin = stub_origin(internet, assignment, min_providers=2)
        prefix = internet.prefixes_of(origin)[0]
        provider = sorted(internet.graph.providers_of(origin))[0]
        observed = sorted(set(internet.tier1) | {provider})
        engine = FastPropagationEngine(internet, assignment, observed_ases=observed)
        result = engine.run()

        assignment.policy_for(origin).scoped_to_providers[prefix] = frozenset({provider})
        result = engine.rerun(result, {origin})
        fresh = FastPropagationEngine(internet, assignment, observed_ases=observed).run()
        assert_same_result(result, fresh)
        marker = scoped_community(provider)
        scoped = [
            route
            for route in result.tables[provider].all_routes(prefix)
            if marker in route.communities
        ]
        assert scoped and scoped[0].as_path.asns == (origin,)

    def test_full_churn_timeline_steps(self, internet, assignment):
        timeline = Timeline(
            internet,
            assignment,
            observed_ases=internet.tier1,
            parameters=TimelineParameters(
                snapshot_count=6, churn_probability=1.0, appear_probability=0.5, seed=8
            ),
        )
        rng = random.Random(8)
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        result = engine.run()
        changed_any = False
        for _ in range(5):
            changed = timeline._churn(assignment, rng)
            changed_any = changed_any or bool(changed)
            result = engine.rerun(result, changed)
            assert_same_result(result, fresh_run(internet, assignment))
        assert changed_any

    def test_compiled_topology_is_never_mutated(self, internet, assignment):
        compiled = compile_topology(internet, assignment, internet.tier1)
        seeds = dict(compiled.seeds)
        comm_table = list(compiled.comm_table)
        comm_index = dict(compiled.comm_index)
        tasks = list(compiled.origin_tasks)
        engine = FastPropagationEngine(
            internet, assignment, observed_ases=internet.tier1, compiled=compiled
        )
        result = engine.run()

        origin = stub_origin(internet, assignment, min_providers=2)
        prefix = internet.prefixes_of(origin)[0]
        provider = sorted(internet.graph.providers_of(origin))[-1]
        assignment.policy_for(origin).scoped_to_providers[prefix] = frozenset({provider})
        marked = EMPTY_COMMUNITIES.add(scoped_community(provider))
        assert marked not in comm_index  # the rerun must intern a new set

        result = engine.rerun(result, {origin})
        assert_same_result(result, fresh_run(internet, assignment))
        assert compiled.seeds == seeds
        assert all(compiled.seeds[key] is plan for key, plan in seeds.items())
        assert compiled.comm_table == comm_table
        assert compiled.comm_index == comm_index
        assert compiled.origin_tasks == tasks

    def test_truncated_prefixes_follow_the_rerun(self, internet, assignment):
        budget = 40
        engine = FastPropagationEngine(
            internet, assignment, observed_ases=internet.tier1,
            message_budget_per_prefix=budget,
        )
        result = engine.run()
        assert result.truncated_prefixes  # the budget really bites
        origin = next(
            o
            for o in sorted(internet.originated)
            if not internet.graph.customers_of(o)
            and set(internet.prefixes_of(o)) & set(result.truncated_prefixes)
        )
        for prefix in internet.prefixes_of(origin):
            silence(internet, assignment, origin, prefix)
        result = engine.rerun(result, {origin})
        assert not set(internet.prefixes_of(origin)) & set(result.truncated_prefixes)
        assert_same_result(
            result, fresh_run(internet, assignment, message_budget_per_prefix=budget)
        )

    def test_pool_engine_reruns_serially(self, internet, assignment):
        engine = FastPropagationEngine(
            internet, assignment, observed_ases=internet.tier1, workers=2
        )
        result = engine.run()
        origin = stub_origin(internet, assignment)
        silence(internet, assignment, origin, internet.prefixes_of(origin)[0])
        result = engine.rerun(result, {origin})
        fresh = fresh_run(internet, assignment)
        assert_same_result(result, fresh)
        # A later full run sees the rerun's seed plans too.
        assert_same_result(engine.run(), fresh)


class TestRerunPreconditions:
    def test_rerun_before_run_raises(self, internet, assignment):
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        other = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        with pytest.raises(SimulationError):
            engine.rerun(other.run(), set())

    def test_rerun_from_a_stale_result_raises(self, internet, assignment):
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        first = engine.run()
        engine.rerun(first, set())
        with pytest.raises(SimulationError):
            engine.rerun(first, set())

    def test_unknown_origin_is_rejected(self, internet, assignment):
        engine = FastPropagationEngine(internet, assignment, observed_ases=internet.tier1)
        result = engine.run()
        with pytest.raises(SimulationError):
            engine.rerun(result, {max(internet.graph.ases()) + 1})
