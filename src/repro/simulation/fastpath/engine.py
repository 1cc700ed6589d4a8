"""The interned flat-graph propagation engine.

:class:`FastPropagationEngine` replays the legacy engine's message-passing
algorithm — same FIFO schedule, same export rules, same budget accounting —
over the arrays of a :class:`~repro.simulation.fastpath.compile.CompiledTopology`.
Four things make it fast:

* **No per-message object churn.**  AS paths and community sets are interned
  (a path/set is a small integer id; prepends and tag-adds are memo-table
  hits after first use), candidates are plain tuples, and the per-edge
  policy/relationship work of the legacy engine is a couple of array reads
  off a precompiled receiver-side edge slot.
* **Grouped fan-out.**  The legacy engine enqueues one message object per
  (sender, receiver) pair.  Exports fan the same wire route out to many
  neighbors, so the queue holds one *group* per export — the pre-sorted
  target tuple plus the interned route — and receivers are expanded at pop
  time.  The flattened schedule (and the message budget accounting) is
  identical; the allocation count is not.
* **Incremental best-route selection.**  The legacy engine re-scans every
  candidate on every message.  Within one AS's candidate set every route
  comes from a distinct next-hop AS, so MED never compares, IGP metric and
  router id are constant, and the decision process collapses to the total
  order ``(-LOCAL_PREF, path length, insertion sequence)`` — the insertion
  sequence reproduces the legacy tie-break "the incumbent wins a complete
  tie" exactly.  A new announcement therefore challenges the incumbent in
  O(1); a full re-scan happens only when the incumbent itself is displaced
  or withdrawn.
* **Zero-copy parallel fan-out.**  Prefixes propagate independently, so the
  originated-prefix list is cut into contiguous shards over a
  ``ProcessPoolExecutor``.  Nothing bulky crosses the process boundary in
  either direction: the parent publishes the compiled topology once into a
  shared-memory segment (:mod:`repro.simulation.fastpath.shm`) and ships
  each worker only ``(descriptor, shard range)``; workers attach read-only
  array views by segment name and return observed tables in lowered form
  (flat integer columns plus their interned path/community tables), which
  the parent materializes into :class:`Route` objects while merging shards
  in task order — keeping the result bit-identical to a serial run for any
  worker count.

:meth:`FastPropagationEngine.rerun` is the incremental form of a run: after
origins change their export policy, it recompiles only those origins' seed
plans and re-propagates only their prefixes, reusing every other prefix's
routes from the previous result.  The persistence timeline is built on it.

The ORIGIN attribute is constant (``originate`` always emits ``Origin.IGP``
and no policy knob rewrites it), so it is excluded from the decision key and
the re-announcement signature; the legacy engine relies on the same
invariant.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, Community, CommunitySet, Origin
from repro.bgp.decision import DecisionProcess
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, RouteSource
from repro.exceptions import SimulationError
from repro.faults.runtime import fault_point, mark_worker
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.fastpath.compile import (
    KIND_LOCAL,
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    REL_SIBLING,
    CompiledTopology,
    SeedPlan,
    compile_seed_plan,
    compile_topology,
)
from repro.simulation.fastpath.shm import (
    AttachCache,
    SharedTopologyView,
    attach,
    publish,
)
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import PrefixRun, PrefixState, SimulationResult
from repro.topology.generator import SyntheticInternet

_KIND_TO_NEIGHBOR_KIND = {
    REL_CUSTOMER: NeighborKind.CUSTOMER,
    REL_PEER: NeighborKind.PEER,
    REL_PROVIDER: NeighborKind.PROVIDER,
    REL_SIBLING: NeighborKind.SIBLING,
}

_EMPTY_SET: frozenset[int] = frozenset()

_SET_FIELD = object.__setattr__

# Candidate tuple layout: (local_pref, path_len, path_id, comm_id, kind, seq).
_LP, _PLEN, _PATH, _COMM, _KIND, _SEQ = range(6)


class _State:
    """Per-AS state for the prefix currently being propagated (fast form).

    States live in a per-core slot array and are recycled between prefixes:
    a state whose ``gen`` stamp is stale is logically absent and is reset
    lazily on first touch, so steady-state propagation allocates nothing.
    """

    __slots__ = (
        "cand", "best", "best_sender", "bk0", "bk1", "bk2",
        "announced", "counter", "gen",
    )

    def __init__(self, gen: int) -> None:
        self.cand: dict[int, tuple] = {}
        self.best: tuple | None = None
        self.best_sender: int | None = None
        # The incumbent's decision key (-local_pref, path_len, seq), held as
        # three scalars so the per-message challenge needs no tuple.  Only
        # meaningful while ``best_sender`` is not None.
        self.bk0 = 0
        self.bk1 = 0
        self.bk2 = 0
        # Neighbors currently holding this AS's announcement; a frozenset
        # shared with the export-target memo (exports replace it wholesale).
        self.announced: frozenset[int] = _EMPTY_SET
        self.counter = 0
        self.gen = gen

    def reset(self, gen: int) -> None:
        self.cand.clear()
        self.best = None
        self.best_sender = None
        self.announced = _EMPTY_SET
        self.counter = 0
        self.gen = gen


class _Core:
    """Single-process propagation over a compiled topology.

    Holds the per-process intern tables (paths, community sets, export
    target memos) and the recycled state slots; one core serves every prefix
    of a run, so interned structure is shared across prefixes.
    """

    def __init__(
        self, topology: CompiledTopology | SharedTopologyView, message_budget: int
    ) -> None:
        self.topology = topology
        self.message_budget = message_budget
        # Recycled per-AS state slots, validated by generation stamp.
        self._states: list[_State | None] = [None] * topology.as_count
        self._generation = 0
        # Path interning: id -> tuple of dense AS ids (receiver-first).
        self._paths: list[tuple[int, ...]] = []
        self._path_index: dict[tuple[int, ...], int] = {}
        self._plen: list[int] = []
        self._prepend_memo: dict[tuple[int, int], int] = {}
        # Community-set interning, seeded from the compiled table.  The run
        # representation of a set is a frozenset of (asn, value) int pairs —
        # value-deduplicated so id equality is set equality — and the real
        # CommunitySet is materialized lazily, only for observed routes.
        self._comm_members: list[frozenset[tuple[int, int]]] = []
        self._comm_lookup: dict[frozenset[tuple[int, int]], int] = {}
        self._comm_cs: list[CommunitySet | None] = []
        for communities in topology.comm_table:
            pairs = frozenset((c.asn, c.value) for c in communities.communities)
            self._comm_lookup[pairs] = len(self._comm_members)
            self._comm_members.append(pairs)
            self._comm_cs.append(communities)
        self._tag_pairs = [(t.asn, t.value) for t in topology.tag_communities]
        # Per-tag memo of comm_id -> comm_id-with-tag (int keys, no tuples).
        self._comm_tag_memos: list[dict[int, int]] = [
            {} for _ in topology.tag_communities
        ]
        # Export target memo: (as, class, excluded next hop) -> (pairs, set).
        self._target_memo: dict[tuple[int, bool, int], tuple[tuple, frozenset]] = {}
        # Materialization memo: path id -> ASPath.
        self._aspath_memo: dict[int, ASPath] = {}
        # Aliases for the export path (one attribute hop instead of two).
        self._exp_local = topology.exp_local
        self._exp_local_set = topology.exp_local_set
        self._exp_customer = topology.exp_customer
        self._exp_down = topology.exp_down
        self._honor_scoped = topology.honor_scoped
        self._scoped_marker = topology.scoped_marker

    # -- interning ----------------------------------------------------------

    def _intern_path(self, path: tuple[int, ...]) -> int:
        path_id = self._path_index.get(path)
        if path_id is None:
            path_id = len(self._paths)
            self._paths.append(path)
            self._plen.append(len(path))
            self._path_index[path] = path_id
        return path_id

    def _prepend(self, path_id: int, asn_idx: int) -> int:
        key = (path_id, asn_idx)
        new_id = self._prepend_memo.get(key)
        if new_id is None:
            new_id = self._intern_path((asn_idx,) + self._paths[path_id])
            self._prepend_memo[key] = new_id
        return new_id

    def intern_communities(self, communities: CommunitySet) -> int:
        """Intern a :class:`CommunitySet`, extending the run table."""
        pairs = frozenset((c.asn, c.value) for c in communities.communities)
        comm_id = self._comm_lookup.get(pairs)
        if comm_id is None:
            comm_id = len(self._comm_members)
            self._comm_lookup[pairs] = comm_id
            self._comm_members.append(pairs)
            self._comm_cs.append(communities)
        return comm_id

    def _comm_add(self, comm_id: int, tag_id: int) -> int:
        members = self._comm_members[comm_id] | {self._tag_pairs[tag_id]}
        new_id = self._comm_lookup.get(members)
        if new_id is None:
            new_id = len(self._comm_members)
            self._comm_lookup[members] = new_id
            self._comm_members.append(members)
            self._comm_cs.append(None)
        self._comm_tag_memos[tag_id][comm_id] = new_id
        return new_id

    def _communities_of(self, comm_id: int) -> CommunitySet:
        communities = self._comm_cs[comm_id]
        if communities is None:
            communities = CommunitySet(
                Community(asn, value) for asn, value in self._comm_members[comm_id]
            )
            self._comm_cs[comm_id] = communities
        return communities

    # -- propagation --------------------------------------------------------

    def run_task(self, origin_idx: int, prefix: Prefix, seed: SeedPlan) -> tuple[int, bool]:
        """Propagate one prefix to a fixed point (or the message budget).

        Returns ``(messages processed, truncated?)``; the resulting per-AS
        states stay in the core's slot array (current generation) until the
        next ``run_task`` call — read them via :meth:`observed_routes` or
        :meth:`states`.  The hot loop is deliberately inlined: per-message
        work is a handful of array and dict operations over interned ids.
        """
        topology = self.topology
        edge_lp = topology.edge_lp
        edge_tag = topology.edge_tag
        edge_rel = topology.edge_rel
        # Per-prefix overrides are sparse; hoist the emptiness check so the
        # common case pays nothing per message.
        overrides_get = topology.edge_overrides.get if topology.edge_overrides else None
        paths = self._paths
        plens = self._plen
        comm_add = self._comm_add
        tag_memos = self._comm_tag_memos
        rescan = self._rescan
        export = self._export
        states = self._states
        gen = self._generation + 1
        self._generation = gen

        origin_state = states[origin_idx]
        if origin_state is None:
            origin_state = states[origin_idx] = _State(gen)
        else:
            origin_state.reset(gen)
        local_path = self._intern_path((origin_idx,))
        local_cand = (DEFAULT_LOCAL_PREF, 1, local_path, 0, KIND_LOCAL, 0)
        origin_state.cand[origin_idx] = local_cand
        origin_state.counter = 1
        origin_state.best = local_cand
        origin_state.best_sender = origin_idx
        origin_state.bk0 = -DEFAULT_LOCAL_PREF
        origin_state.bk1 = 1
        origin_state.bk2 = 0
        origin_state.announced = seed.announced

        # Queue of fan-out groups: (sender, targets, path_id, comm_id).
        # path_id None marks a withdrawal group (targets are plain ids);
        # announcement groups carry (target, receiver-side slot) pairs.
        queue: deque[tuple] = deque()
        for pairs, comm_id in seed.groups:
            queue.append((origin_idx, pairs, local_path, comm_id))

        budget = self.message_budget
        processed = 0
        truncated = False
        popleft = queue.popleft
        append = queue.append
        while queue:
            sender, targets, path_id, group_comm = popleft()

            # Budget accounting is hoisted to the group level: only when this
            # group could cross the budget does the loop count per message
            # (`overflow`), preserving the legacy engine's exact truncation
            # point and total count.
            overflow = processed + len(targets) > budget
            if not overflow:
                processed += len(targets)

            if path_id is None:
                # -- withdrawal group -----------------------------------------
                for receiver in targets:
                    if overflow:
                        processed += 1
                        if processed > budget:
                            truncated = True
                            break
                    state = states[receiver]
                    if state is None or state.gen != gen:
                        continue
                    cand_map = state.cand
                    if sender not in cand_map:
                        continue
                    previous = state.best
                    del cand_map[sender]
                    if sender == state.best_sender:
                        rescan(state)
                    best = state.best
                    if previous is best or (
                        previous is not None
                        and best is not None
                        and previous[2] == best[2]
                        and previous[3] == best[3]
                        and previous[0] == best[0]
                    ):
                        continue
                    export(receiver, state, append)
                if truncated:
                    break
                continue

            # -- announcement group -------------------------------------------
            path = paths[path_id]
            plen = plens[path_id]
            for receiver, slot in targets:
                if overflow:
                    processed += 1
                    if processed > budget:
                        truncated = True
                        break
                if receiver in path:
                    continue
                lp = edge_lp[slot]
                if overrides_get is not None:
                    overrides = overrides_get(slot)
                    if overrides is not None:
                        lp = overrides.get(prefix, lp)
                tag_id = edge_tag[slot]
                rel = edge_rel[slot]
                if tag_id >= 0:
                    comm_id = tag_memos[tag_id].get(group_comm)
                    if comm_id is None:
                        comm_id = comm_add(group_comm, tag_id)
                else:
                    comm_id = group_comm
                state = states[receiver]
                if state is None:
                    state = states[receiver] = _State(gen)
                elif state.gen != gen:
                    state.cand.clear()
                    state.best = None
                    state.best_sender = None
                    state.announced = _EMPTY_SET
                    state.counter = 0
                    state.gen = gen
                cand_map = state.cand
                old = cand_map.get(sender)
                if old is None:
                    seq = state.counter
                    state.counter = seq + 1
                else:
                    seq = old[5]
                cand = (lp, plen, path_id, comm_id, rel, seq)
                cand_map[sender] = cand
                previous = state.best
                nlp = -lp
                best_sender = state.best_sender
                if best_sender is None:
                    state.best = cand
                    state.best_sender = sender
                    state.bk0 = nlp
                    state.bk1 = plen
                    state.bk2 = seq
                elif sender == best_sender:
                    # The incumbent's own update: seq is unchanged, so the
                    # (-lp, plen, seq) <= comparison reduces to two scalars.
                    if nlp < state.bk0 or (nlp == state.bk0 and plen <= state.bk1):
                        state.best = cand
                        state.bk0 = nlp
                        state.bk1 = plen
                    else:
                        rescan(state)
                elif nlp < state.bk0 or (
                    nlp == state.bk0
                    and (
                        plen < state.bk1
                        or (plen == state.bk1 and seq < state.bk2)
                    )
                ):
                    state.best = cand
                    state.best_sender = sender
                    state.bk0 = nlp
                    state.bk1 = plen
                    state.bk2 = seq
                best = state.best
                if previous is best or (
                    previous is not None
                    and previous[2] == best[2]
                    and previous[3] == best[3]
                    and previous[0] == best[0]
                ):
                    continue
                export(receiver, state, append)
            if truncated:
                break

        return processed, truncated

    def _rescan(self, state: _State) -> None:
        """Full re-selection after the incumbent was displaced or withdrawn."""
        best = None
        best_sender = None
        bk0 = bk1 = bk2 = 0
        for sender, cand in state.cand.items():
            nlp = -cand[0]
            plen = cand[1]
            seq = cand[5]
            if (
                best is None
                or nlp < bk0
                or (nlp == bk0 and (plen < bk1 or (plen == bk1 and seq < bk2)))
            ):
                best, best_sender = cand, sender
                bk0, bk1, bk2 = nlp, plen, seq
        state.best = best
        state.best_sender = best_sender
        state.bk0 = bk0
        state.bk1 = bk1
        state.bk2 = bk2

    def _export(self, asn_idx: int, state: _State, append) -> None:
        """Mirror of the legacy ``_export``: withdrawals first, then the
        (pre-sorted) announcements, then the announced-to bookkeeping.

        ``append`` is the queue's bound ``append`` — the caller sits in the
        hot loop and passes it pre-bound.
        """
        best = state.best
        if best is None:
            targets: tuple = ()
            target_set: frozenset[int] = _EMPTY_SET
        else:
            kind = best[4]
            if kind == KIND_LOCAL:
                targets = self._exp_local[asn_idx]
                target_set = self._exp_local_set[asn_idx]
            elif (
                self._honor_scoped[asn_idx]
                and self._scoped_marker[asn_idx] in self._comm_members[best[3]]
            ):
                # The customer asked this AS not to propagate the route further.
                targets = ()
                target_set = _EMPTY_SET
            else:
                from_customer = kind == REL_CUSTOMER or kind == REL_SIBLING
                next_hop = state.best_sender
                memo_key = (asn_idx, from_customer, next_hop)
                cached = self._target_memo.get(memo_key)
                if cached is None:
                    template = (
                        self._exp_customer[asn_idx]
                        if from_customer
                        else self._exp_down[asn_idx]
                    )
                    targets = tuple(p for p in template if p[0] != next_hop)
                    target_set = frozenset(p[0] for p in targets)
                    self._target_memo[memo_key] = (targets, target_set)
                else:
                    targets, target_set = cached
        announced = state.announced
        if announced is not target_set:
            withdrawn = announced - target_set
            if withdrawn:
                append((asn_idx, tuple(sorted(withdrawn)), None, 0))
        if targets:
            if best[4] == KIND_LOCAL:
                exported_path = best[2]
            else:
                exported_path = self._prepend(best[2], asn_idx)
            append((asn_idx, targets, exported_path, best[3]))
        state.announced = target_set

    # -- materialization ----------------------------------------------------

    def states(self) -> dict[int, _State]:
        """The per-AS states of the most recent ``run_task``, by dense id."""
        gen = self._generation
        return {
            idx: state
            for idx, state in enumerate(self._states)
            if state is not None and state.gen == gen
        }

    def _aspath_of(self, path_id: int) -> ASPath:
        as_path = self._aspath_memo.get(path_id)
        if as_path is None:
            asns = self.topology.asns
            as_path = ASPath._from_validated(
                tuple(asns[i] for i in self._paths[path_id])
            )
            self._aspath_memo[path_id] = as_path
        return as_path

    def route_of(self, prefix: Prefix, sender_idx: int, cand: tuple) -> Route:
        """Materialize one candidate tuple back into a :class:`Route`.

        Builds the frozen dataclass directly via ``object.__setattr__`` —
        every field is assigned explicitly (``__post_init__`` would be a
        no-op because ``learned_from`` is set), and observed tables hold
        tens of thousands of these.
        """
        lp, _, path_id, comm_id, kind, _ = cand
        route = Route.__new__(Route)
        set_field = _SET_FIELD
        set_field(route, "prefix", prefix)
        set_field(route, "as_path", self._aspath_of(path_id))
        set_field(route, "origin", Origin.IGP)
        set_field(route, "med", 0)
        set_field(route, "communities", self._communities_of(comm_id))
        set_field(route, "learned_from", self.topology.asns[sender_idx])
        set_field(route, "igp_metric", 0)
        set_field(route, "router_id", 0)
        if kind == KIND_LOCAL:
            set_field(route, "local_pref", DEFAULT_LOCAL_PREF)
            set_field(route, "source", RouteSource.LOCAL)
            set_field(route, "neighbor_kind", NeighborKind.UNKNOWN)
        else:
            set_field(route, "local_pref", lp)
            set_field(route, "source", RouteSource.EBGP)
            set_field(route, "neighbor_kind", _KIND_TO_NEIGHBOR_KIND[kind])
        return route

    def observed_routes(self, prefix: Prefix) -> dict[ASN, tuple[list[Route], Route | None]]:
        """Candidate routes (insertion order) + best route per observed AS.

        Reads the most recent ``run_task``'s states.  The best route is the
        same object as its entry in the candidate list, so downstream
        identity checks (``RibEntry.alternatives``) behave exactly as with
        the legacy engine.
        """
        tables: dict[ASN, tuple[list[Route], Route | None]] = {}
        asns = self.topology.asns
        states = self._states
        gen = self._generation
        route_of = self.route_of
        for asn_idx in self.topology.observed:
            state = states[asn_idx]
            # A state whose candidates were all withdrawn is recorded as no
            # entry at all, exactly like the legacy `_record_observed`.
            if state is None or state.gen != gen or not state.cand:
                continue
            routes: list[Route] = []
            best_route: Route | None = None
            best_sender = state.best_sender
            for sender, cand in state.cand.items():
                route = route_of(prefix, sender, cand)
                routes.append(route)
                if sender == best_sender:
                    best_route = route
            tables[asns[asn_idx]] = (routes, best_route)
        return tables

    # -- lowered results (process-pool wire format) --------------------------

    def lowered_observed(self, out: array) -> tuple:
        """Append the last ``run_task``'s observed candidates to ``out``.

        The wire format of a worker's results: five integers per candidate
        row — sender, LOCAL_PREF, path id, community id, kind — appended in
        the exact per-AS insertion order :meth:`observed_routes` would
        materialize, plus a returned meta tuple of ``(asn_idx, best_sender,
        candidate count)`` per observed AS.  Flat columns pickle as raw
        machine bytes, so shipping a shard's tables back to the parent
        costs a fraction of pickling materialized :class:`Route` objects.
        """
        meta = []
        states = self._states
        gen = self._generation
        for asn_idx in self.topology.observed:
            state = states[asn_idx]
            if state is None or state.gen != gen or not state.cand:
                continue
            best_sender = state.best_sender
            meta.append(
                (asn_idx, -1 if best_sender is None else best_sender, len(state.cand))
            )
            for sender, cand in state.cand.items():
                out.extend((sender, cand[0], cand[2], cand[3], cand[4]))
        return tuple(meta)

    def lowered_tables(self) -> tuple[array, array, array, array]:
        """The core's intern tables in flat column form.

        ``(path_indptr, path_flat, comm_indptr, comm_flat)`` — the id
        spaces referenced by :meth:`lowered_observed` rows, for the parent
        to rebuild :class:`ASPath`/:class:`CommunitySet` objects from.
        """
        path_indptr = array("q", [0])
        path_flat = array("q")
        for path in self._paths:
            path_flat.extend(path)
            path_indptr.append(len(path_flat))
        comm_indptr = array("q", [0])
        comm_flat = array("q")
        for members in self._comm_members:
            for pair in members:
                comm_flat.extend(pair)
            comm_indptr.append(len(comm_flat))
        return path_indptr, path_flat, comm_indptr, comm_flat


# -- process-pool fan-out ------------------------------------------------------

#: Worker-side memo of attached cores, keyed by ``(descriptor, budget)``
#: shipped with each shard — a pure function of the task arguments, which
#: is what makes this module-level state pool-safe (see ``AttachCache``).
_SHARD_CORES = AttachCache(lambda key: _Core(attach(key[0]), key[1]))


def _shard_ranges(task_count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal task ranges covering ``range(task_count)``.

    More shards than workers (up to 4× as many) keeps the pool load-balanced
    when per-prefix cost is skewed, while each shard stays large enough to
    amortize its attach + result-shipping overhead.
    """
    shard_count = min(task_count, workers * 4)
    base, extra = divmod(task_count, shard_count)
    ranges = []
    start = 0
    for index in range(shard_count):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _run_shard(
    descriptor: tuple, message_budget: int, start: int, stop: int
) -> tuple[list, array, tuple]:
    """Propagate one contiguous task range against the attached topology.

    Workers never see a pickled topology: ``descriptor`` names a shared
    segment (or a cached artifact file) and the attached zero-copy view is
    memoized per process, so every shard after the first is pure compute.
    """
    fault_point("worker-kill", f"propagation-shard:{start}:{stop}")
    core = _SHARD_CORES.get((descriptor, message_budget))
    topology = core.topology
    cand = array("q")
    meta = []
    for task_index in range(start, stop):
        origin_idx, prefix = topology.origin_tasks[task_index]
        processed, truncated = core.run_task(
            origin_idx, prefix, topology.seed_for(task_index)
        )
        meta.append((task_index, processed, truncated, core.lowered_observed(cand)))
    return meta, cand, core.lowered_tables()


class _ShardMerger:
    """Parent-side materialization of lowered shard results.

    Rebuilds :class:`ASPath` and :class:`CommunitySet` objects from each
    shard's interned tables, memoized across shards (by dense path tuple /
    community pair set) so structure shared between shards is built once.
    """

    def __init__(self, topology: CompiledTopology | SharedTopologyView) -> None:
        self._asns = topology.asns
        self._aspath_memo: dict[tuple[int, ...], ASPath] = {}
        self._comm_memo: dict[frozenset, CommunitySet] = {}

    def load_shard(self, tables: tuple) -> None:
        """Switch to one shard's id spaces (its interned tables)."""
        path_indptr, path_flat, comm_indptr, comm_flat = tables
        self._path_indptr = path_indptr
        self._path_flat = path_flat
        self._path_cache: list[ASPath | None] = [None] * (len(path_indptr) - 1)
        self._comm_indptr = comm_indptr
        self._comm_flat = comm_flat
        self._comm_cache: list[CommunitySet | None] = [None] * (len(comm_indptr) - 1)

    def _aspath_of(self, path_id: int) -> ASPath:
        as_path = self._path_cache[path_id]
        if as_path is None:
            indptr = self._path_indptr
            dense = tuple(self._path_flat[indptr[path_id] : indptr[path_id + 1]])
            as_path = self._aspath_memo.get(dense)
            if as_path is None:
                asns = self._asns
                as_path = ASPath._from_validated(tuple(asns[i] for i in dense))
                self._aspath_memo[dense] = as_path
            self._path_cache[path_id] = as_path
        return as_path

    def _communities_of(self, comm_id: int) -> CommunitySet:
        communities = self._comm_cache[comm_id]
        if communities is None:
            indptr = self._comm_indptr
            flat = self._comm_flat
            pairs = frozenset(
                (flat[k], flat[k + 1])
                for k in range(indptr[comm_id], indptr[comm_id + 1], 2)
            )
            communities = self._comm_memo.get(pairs)
            if communities is None:
                communities = CommunitySet(
                    Community(asn, value) for asn, value in pairs
                )
                self._comm_memo[pairs] = communities
            self._comm_cache[comm_id] = communities
        return communities

    def route_of(
        self, prefix: Prefix, sender_idx: int, lp: int, path_id: int, comm_id: int, kind: int
    ) -> Route:
        """Materialize one lowered candidate row (same fields as the core)."""
        route = Route.__new__(Route)
        set_field = _SET_FIELD
        set_field(route, "prefix", prefix)
        set_field(route, "as_path", self._aspath_of(path_id))
        set_field(route, "origin", Origin.IGP)
        set_field(route, "med", 0)
        set_field(route, "communities", self._communities_of(comm_id))
        set_field(route, "learned_from", self._asns[sender_idx])
        set_field(route, "igp_metric", 0)
        set_field(route, "router_id", 0)
        if kind == KIND_LOCAL:
            set_field(route, "local_pref", DEFAULT_LOCAL_PREF)
            set_field(route, "source", RouteSource.LOCAL)
            set_field(route, "neighbor_kind", NeighborKind.UNKNOWN)
        else:
            set_field(route, "local_pref", lp)
            set_field(route, "source", RouteSource.EBGP)
            set_field(route, "neighbor_kind", _KIND_TO_NEIGHBOR_KIND[kind])
        return route


class FastPropagationEngine:
    """Drop-in fast replacement for :class:`PropagationEngine`.

    Args:
        internet: the synthetic Internet (graph + prefix ownership).
        assignment: per-AS policies.
        observed_ases: ASes whose final tables are retained; defaults to the
            Tier-1 clique.
        message_budget_per_prefix: safety valve against policy-induced
            oscillation (same semantics as the legacy engine).
        workers: per-prefix fan-out width.  ``1`` runs in-process; ``N > 1``
            cuts the originated-prefix list into contiguous shards over a
            process pool on the zero-copy path — the compiled topology is
            published to shared memory (or attached from a cached artifact
            file) and workers attach by name — then merges the lowered
            shard results deterministically in task order.  :meth:`rerun`
            is always serial, and so is every :meth:`run` after one.
        compiled: an already-compiled topology to reuse (skips
            compilation); either a :class:`CompiledTopology` or a
            :class:`SharedTopologyView` attached from the store, in which
            case pool workers re-attach the same artifact instead of the
            parent publishing a segment.

    Attributes:
        last_run_phases: wall-clock seconds of the most recent :meth:`run`,
            split into ``compile`` (topology compilation, paid in the
            constructor), ``publish`` (lowering + shared-memory copy),
            ``compute`` (pool execution, or the whole serial loop) and
            ``merge`` (parent-side materialization of shard results).
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        assignment: PolicyAssignment,
        observed_ases: list[ASN] | None = None,
        message_budget_per_prefix: int = 500_000,
        workers: int = 1,
        compiled: CompiledTopology | SharedTopologyView | None = None,
    ) -> None:
        self.internet = internet
        self.assignment = assignment
        self.graph = internet.graph
        self.observed_ases = sorted(
            set(observed_ases if observed_ases is not None else internet.tier1)
        )
        self.message_budget_per_prefix = message_budget_per_prefix
        self.workers = max(1, int(workers))
        self.decision = DecisionProcess()
        started = perf_counter()
        self.compiled = (
            compiled
            if compiled is not None
            else compile_topology(internet, assignment, self.observed_ases)
        )
        self._compile_seconds = 0.0 if compiled is not None else perf_counter() - started
        self.last_run_phases: dict[str, float] = {}
        self._core: _Core | None = None
        # Seed plans recompiled by `rerun`, shadowing `compiled.seeds`: the
        # compiled topology may be shared or store-backed, so it is never
        # patched in place.  Their community ids live in the local core.
        self._seed_overlay: dict[tuple[int, Prefix], SeedPlan] = {}
        # Per-task message counts of the last run/rerun, in `origin_tasks`
        # order, and a weak reference to the result they describe.
        self._task_messages: array | None = None
        self._last_result: weakref.ref | None = None

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Propagate every originated prefix and return the observed tables."""
        result = SimulationResult(internet=self.internet, assignment=self.assignment)
        for asn in self.observed_ases:
            result.tables[asn] = LocRib(owner=asn, decision=self.decision)
        topology = self.compiled
        tasks = topology.origin_tasks
        messages = array("q", [0]) * len(tasks)
        # Overlay seed plans exist only in the local core's id space, so an
        # engine that has rerun propagates serially from then on.
        if self.workers == 1 or len(tasks) <= 1 or self._seed_overlay:
            started = perf_counter()
            core = self._local_core()
            for task_index, (origin_idx, prefix) in enumerate(tasks):
                processed, truncated = core.run_task(
                    origin_idx, prefix, self._seed_of(origin_idx, prefix)
                )
                messages[task_index] = processed
                result.message_count += processed
                if truncated:
                    result.truncated_prefixes.append(prefix)
                for asn, (routes, best) in core.observed_routes(prefix).items():
                    result.tables[asn].load_entry(prefix, routes, best)
            self.last_run_phases = {
                "compile": self._compile_seconds,
                "publish": 0.0,
                "compute": perf_counter() - started,
                "merge": 0.0,
            }
            return self._remember(result, messages)

        # Zero-copy fan-out: publish once (unless the topology is already an
        # attached artifact view), ship only (descriptor, range) per shard,
        # and always unlink the owned segment — engine exceptions and killed
        # workers included.
        shards = _shard_ranges(len(tasks), self.workers)
        budget = self.message_budget_per_prefix
        publish_seconds = 0.0
        handle = None
        descriptor = getattr(topology, "descriptor", None)
        if descriptor is None:
            started = perf_counter()
            handle = publish(topology)
            descriptor = handle.descriptor
            publish_seconds = perf_counter() - started
        started = perf_counter()
        try:
            with ProcessPoolExecutor(
                max_workers=self.workers, initializer=mark_worker
            ) as pool:
                futures = [
                    pool.submit(_run_shard, descriptor, budget, start, stop)
                    for start, stop in shards
                ]
                shard_results = [future.result() for future in futures]
        finally:
            if handle is not None:
                handle.unlink()
        compute_seconds = perf_counter() - started

        # Shards are contiguous and submitted in task order, so walking them
        # in submission order is the deterministic task-order merge.
        started = perf_counter()
        asns = topology.asns
        merger = _ShardMerger(topology)
        for meta, cand, intern_tables in shard_results:
            merger.load_shard(intern_tables)
            route_of = merger.route_of
            cursor = 0
            for task_index, processed, truncated, table_meta in meta:
                messages[task_index] = processed
                result.message_count += processed
                prefix = tasks[task_index][1]
                if truncated:
                    result.truncated_prefixes.append(prefix)
                for asn_idx, best_sender, count in table_meta:
                    routes = []
                    best_route = None
                    for _ in range(count):
                        sender = cand[cursor]
                        route = route_of(
                            prefix,
                            sender,
                            cand[cursor + 1],
                            cand[cursor + 2],
                            cand[cursor + 3],
                            cand[cursor + 4],
                        )
                        cursor += 5
                        routes.append(route)
                        if sender == best_sender:
                            best_route = route
                    result.tables[asns[asn_idx]].load_entry(prefix, routes, best_route)
        self.last_run_phases = {
            "compile": self._compile_seconds,
            "publish": publish_seconds,
            "compute": compute_seconds,
            "merge": perf_counter() - started,
        }
        return self._remember(result, messages)

    def rerun(
        self, previous: SimulationResult, changed_origins: Iterable[ASN]
    ) -> SimulationResult:
        """Re-propagate only the prefixes of origins whose policy changed.

        The incremental form of :meth:`run` for an assignment mutated in
        place since the last run: the seed plans of ``changed_origins``'
        prefixes are recompiled against the engine's current
        ``assignment`` and only those prefixes are propagated again —
        serially in the local core, whatever ``workers`` is.  Every other
        prefix reuses ``previous``'s (frozen) routes in a fresh entry.  The
        result equals a fresh ``run()`` on the mutated assignment: same
        tables, message count and truncated prefixes.

        Only *origin export* changes are supported (announcement pattern
        per prefix); import policies, export templates and the topology are
        taken as compiled.

        Args:
            previous: the result of this engine's most recent :meth:`run`
                or :meth:`rerun`.
            changed_origins: origins whose export policy changed since.

        Raises:
            SimulationError: if ``previous`` is not the engine's most recent
                result (or the engine has not run yet), or a changed origin
                is not in the graph.
        """
        messages = self._task_messages
        if (
            messages is None
            or self._last_result is None
            or self._last_result() is not previous
        ):
            raise SimulationError(
                "rerun needs the result of this engine's most recent run or rerun"
            )
        started = perf_counter()
        topology = self.compiled
        core = self._local_core()
        stale: set[Prefix] = set()
        for origin in changed_origins:
            origin_idx = topology.index_of.get(origin)
            if origin_idx is None:
                raise SimulationError(f"origin AS{origin} is not in the graph")
            for prefix in self.internet.prefixes_of(origin):
                self._seed_overlay[(origin_idx, prefix)] = self._compile_seed(
                    origin, prefix, core
                )
                stale.add(prefix)
        tasks = topology.origin_tasks

        result = SimulationResult(internet=self.internet, assignment=self.assignment)
        tables = result.tables
        for asn in self.observed_ases:
            tables[asn] = LocRib(owner=asn, decision=self.decision)
        previous_tables = [
            (previous.tables[asn], tables[asn]) for asn in self.observed_ases
        ]
        copied: set[Prefix] = set()
        for task_index, (origin_idx, prefix) in enumerate(tasks):
            if prefix in stale:
                processed, _ = core.run_task(
                    origin_idx, prefix, self._seed_of(origin_idx, prefix)
                )
                messages[task_index] = processed
                for asn, (routes, best) in core.observed_routes(prefix).items():
                    tables[asn].load_entry(prefix, routes, best)
            elif prefix not in copied:
                # Every task of an unchanged prefix is unchanged, so its
                # merged entry is copied once, at the prefix's first task.
                copied.add(prefix)
                for old_table, table in previous_tables:
                    entry = old_table.entry(prefix)
                    if entry is not None:
                        table.load_entry(prefix, entry.routes, entry.best)
        # `run_task` stops one message past the budget exactly when it
        # truncates, so the per-task counts alone reproduce both totals.
        budget = self.message_budget_per_prefix
        result.message_count = sum(messages)
        result.truncated_prefixes = [
            prefix
            for (_, prefix), count in zip(tasks, messages)
            if count > budget
        ]
        self.last_run_phases = {
            "compile": 0.0,
            "publish": 0.0,
            "compute": perf_counter() - started,
            "merge": 0.0,
        }
        return self._remember(result, messages)

    def run_prefix(self, prefix: Prefix, origin: ASN) -> PrefixRun:
        """Propagate a single prefix and return the full per-AS state.

        API- and result-compatible with :meth:`PropagationEngine.run_prefix`.
        """
        topology = self.compiled
        origin_idx = topology.index_of.get(origin)
        if origin_idx is None:
            raise SimulationError(f"origin AS{origin} is not in the graph")
        core = self._local_core()
        seed = self._seed_of(origin_idx, prefix)
        if seed is None:
            seed = self._compile_seed(origin, prefix, core)
        processed, truncated = core.run_task(origin_idx, prefix, seed)
        states: dict[ASN, PrefixState] = {}
        asns = topology.asns
        for asn_idx, raw in core.states().items():
            state = PrefixState()
            for sender, cand in raw.cand.items():
                route = core.route_of(prefix, sender, cand)
                state.candidates[asns[sender]] = route
                if sender == raw.best_sender:
                    state.best = route
            state.announced_to = {asns[i] for i in raw.announced}
            states[asns[asn_idx]] = state
        return PrefixRun(states=states, message_count=processed, truncated=truncated)

    # -- helpers -------------------------------------------------------------

    def _local_core(self) -> _Core:
        if self._core is None:
            self._core = _Core(self.compiled, self.message_budget_per_prefix)
        return self._core

    def _seed_of(self, origin_idx: int, prefix: Prefix) -> SeedPlan | None:
        """The current seed plan of one task (a rerun overlay wins)."""
        seed = self._seed_overlay.get((origin_idx, prefix))
        return seed if seed is not None else self.compiled.seeds.get((origin_idx, prefix))

    def _remember(self, result: SimulationResult, messages: array) -> SimulationResult:
        """Record ``result`` as the base the next :meth:`rerun` starts from."""
        self._task_messages = messages
        self._last_result = weakref.ref(result)
        return result

    def _compile_seed(self, origin: ASN, prefix: Prefix, core: _Core) -> SeedPlan:
        """A seed plan compiled against the engine's current assignment.

        Used for (prefix, origin) pairs outside the compiled set and for the
        changed origins of a rerun.  Scoped markers are interned into the
        local core's table, never into the (possibly shared) compiled one.
        """
        graph = self.graph
        by_rel: dict[int, list[ASN]] = {code: [] for code in range(4)}
        rel_code = {
            "customer": REL_CUSTOMER,
            "peer": REL_PEER,
            "provider": REL_PROVIDER,
            "sibling": REL_SIBLING,
        }
        for neighbor, relationship in sorted(graph.neighbor_items(origin)):
            by_rel[rel_code[relationship.value]].append(neighbor)
        return compile_seed_plan(
            self.compiled,
            self.assignment.policy_for(origin),
            by_rel[REL_PROVIDER],
            by_rel[REL_PEER],
            by_rel[REL_CUSTOMER],
            by_rel[REL_SIBLING],
            prefix,
            core.intern_communities,
        )
