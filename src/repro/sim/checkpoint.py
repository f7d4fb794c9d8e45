"""Warm-state checkpointing: save a quiesced :class:`System`, restore it.

Sweeps re-warm caches, directory state, push/prefetch tables, and trace
cursors from cold for every config even when the warm phase is shared.
This module amortizes that cost:

* :meth:`System.run_to_quiesce` holds the Nth barrier crossing so every
  core parks at a deterministic trace position and the NoC drains — all
  in-flight fills, writebacks, pushes, and acks land, leaving nothing
  but architectural state (no packets, VCs, or MSHRs to serialize);
* :func:`capture_state` snapshots that state — SRAM arrays, directory
  entries, push shadows/PDRMap, prefetch tables, trace cursors, the
  memory controllers' token clocks, NoC accounting, the full stats tree
  — plus a *baseline* :class:`SimResult` so measured-region deltas are
  exact;
* :func:`restore_system` rebuilds a **fresh** ``System`` into that state
  and re-schedules the held cores in their recorded arrival order.
  Continuing a restored system is bit-identical to continuing the
  original process past the hold (``tests/test_checkpoint.py`` enforces
  this across schemes and fabrics);
* :class:`CheckpointStore` persists snapshots through the unified
  content-addressed store's ``ckpt`` namespace (:mod:`repro.store`; gzip
  codec, streaming compression) keyed by (trace key, warm-relevant
  config fields, warmup window, warming mode).  Corrupt or
  version-mismatched entries fall back to a cold rebuild with a
  warning.

Functional warming (``mode="functional"``) builds the warm state on the
fixed-latency :class:`~repro.noc.functional.FunctionalNetwork`; its
checkpoint key drops ``NoCParams`` entirely, so one warm image is shared
across every topology/link-width variant of a scheme.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.cache.coherence import DirState
from repro.cache.sram import CacheArray
from repro.common.errors import SimulationError
from repro.cpu.tracebuf import trace_key
from repro.noc.functional import FunctionalNetwork
from repro.sim.results import SimResult, collect_result
from repro.store import (CKPT_SCHEMA_VERSION, Store, cache_disabled,
                         warn_fallback)


# ---------------------------------------------------------------------------
# keying
# ---------------------------------------------------------------------------

def checkpoint_key(params, workload: str, num_cores: int, seed: int,
                   sizes: Dict, warmup_barriers: int, mode: str,
                   chained: bool = False) -> str:
    """Content hash of everything that determines a warm state.

    ``mode="functional"`` drops the NoC parameters from the key: the
    functional warm phase never consults them, so the image is shared
    across topology and link-width knobs of the same scheme.

    ``chained`` selects the build discipline and is part of the
    identity: a *direct* image holds the cores once, at the requested
    barrier; a *chained* image (sampled-region anchors) holds and
    quiesces at **every** barrier up to it.  Each intermediate hold
    drains in-flight traffic the uninterrupted run would still be
    carrying, so the two disciplines produce genuinely different warm
    states from the third barrier on — they must never share a cache
    slot.  The key component is omitted for direct images, keeping
    their keys identical to earlier layouts.
    """
    config = asdict(params)
    if mode == "functional":
        config.pop("noc", None)
    spec = {
        "schema": CKPT_SCHEMA_VERSION,
        "trace": trace_key(workload, num_cores, seed, sizes),
        "config": config,
        "warmup_barriers": warmup_barriers,
        "mode": mode,
    }
    if chained:
        spec["chained"] = True
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# per-component serialization (plain JSON-safe values only)
# ---------------------------------------------------------------------------

def _dump_array(arr: CacheArray) -> Dict:
    """Compact occupied-slot snapshot of a flat :class:`CacheArray`."""
    tags, state, payload = arr._tags, arr._state, arr._payload
    flags, stamps = arr._flags, arr._stamps
    return {
        "stamp": arr._stamp,
        "lines": [[addr, slot, state[slot], payload[slot], flags[slot],
                   stamps[slot]]
                  for addr, slot in arr._slot_of.items()],
        "free": [list(free) for free in arr._free],
    }


def _load_array(arr: CacheArray, snap: Dict) -> None:
    slots = arr.num_sets * arr.assoc
    arr._stamp = snap["stamp"]
    # Mutate every container in place: hot paths hold bound references
    # (e.g. ``_slot_of.get``) into them.
    arr._slot_of.clear()
    arr._tags[:] = [-1] * slots
    arr._state[:] = bytes(slots)
    arr._payload[:] = [0] * slots
    arr._flags[:] = bytes(slots)
    arr._stamps[:] = [0] * slots
    arr._views[:] = [None] * slots
    for addr, slot, state, payload, flags, stamp in snap["lines"]:
        arr._slot_of[addr] = slot
        arr._tags[slot] = addr
        arr._state[slot] = state
        arr._payload[slot] = payload
        arr._flags[slot] = flags
        arr._stamps[slot] = stamp
    for dst, src in zip(arr._free, snap["free"]):
        dst[:] = src


def _dump_private(cache) -> Dict:
    if cache.mshrs._entries or cache._mshr_waiters:
        raise SimulationError(
            f"tile {cache.tile}: MSHRs busy at checkpoint capture "
            "(system not quiesced)")
    snap = {
        "l1": _dump_array(cache.l1),
        "l2": _dump_array(cache.l2),
        "last_inv_version": sorted(cache._last_inv_version.items()),
        "inv_pending": sorted(cache._inv_pending),
        "tpc": cache.tpc,
        "upc": cache.upc,
    }
    unit = cache.prefetcher
    if unit is not None:
        snap["bingo"] = unit.bingo.state()
        snap["stride"] = unit.stride.state()
    return snap


def _load_private(cache, snap: Dict) -> None:
    _load_array(cache.l1, snap["l1"])
    _load_array(cache.l2, snap["l2"])
    cache._last_inv_version.clear()
    cache._last_inv_version.update(
        (addr, version) for addr, version in snap["last_inv_version"])
    cache._inv_pending.clear()
    cache._inv_pending.update(snap["inv_pending"])
    cache.tpc = snap["tpc"]
    cache.upc = snap["upc"]
    unit = cache.prefetcher
    if unit is not None and "bingo" in snap:
        unit.bingo.restore_state(snap["bingo"])
        unit.stride.restore_state(snap["stride"])


def _dump_slice(slc) -> Dict:
    if slc._coalescing:
        raise SimulationError(
            f"slice {slc.tile}: coalescing window open at capture")
    entries = []
    for line_addr, entry in slc._dir.items():
        if (entry.busy or entry.filling or entry.queue
                or entry.awaiting_mask or entry.push_acks
                or entry.pending_grant is not None
                or entry.state is DirState.P):
            raise SimulationError(
                f"slice {slc.tile}: directory entry 0x{line_addr:x} "
                "has transient state at capture (system not quiesced)")
        entries.append([line_addr, entry.state.name, entry.sharers_mask,
                        -1 if entry.owner is None else entry.owner,
                        entry.resident])
    return {
        "array": _dump_array(slc.array),
        "dir": entries,
        "next_free": slc._next_free,
        "pdrmap": sorted(slc.pdrmap),
        "push_shadow": [[line, expiry, sorted(dests)]
                        for line, (expiry, dests)
                        in slc._push_shadow.items()],
    }


def _load_slice(slc, snap: Dict) -> None:
    from repro.cache.llc import DirEntry
    _load_array(slc.array, snap["array"])
    slc._dir.clear()
    for line_addr, state, sharers_mask, owner, resident in snap["dir"]:
        entry = DirEntry(line_addr)
        entry.state = DirState[state]
        entry.sharers_mask = sharers_mask
        entry.owner = None if owner < 0 else owner
        entry.resident = resident
        slc._dir[line_addr] = entry
    slc._next_free = snap["next_free"]
    slc.pdrmap.clear()
    slc.pdrmap.update(snap["pdrmap"])
    slc._push_shadow.clear()
    for line, expiry, dests in snap["push_shadow"]:
        slc._push_shadow[line] = (expiry, frozenset(dests))


def _dump_network(network) -> Dict:
    if isinstance(network, FunctionalNetwork):
        return {"functional": True}
    if getattr(network, "engine_kind", "event") != "event":
        # ensure_warm_state always builds the warm phase on the event
        # reference engine; capturing from another backend would bake
        # its statistical divergences into a shared warm image.
        raise SimulationError(
            "warm-state capture requires the event NoC engine")
    network.flush_stat_batches()
    for router in network.routers:
        for port in router.output_ports:
            filt = getattr(port, "filter", None) if port else None
            if filt is not None and filt._by_addr:
                raise SimulationError(
                    f"router {router.router_id}: in-network filter "
                    "non-empty at capture (system not quiesced)")
    return {
        "functional": False,
        "stats": network.stats.state(),
        "router_stats": [router.stats.state()
                         for router in network.routers],
        "port_flits_tx": [[port.flits_tx if port is not None else 0
                           for port in router.output_ports]
                          for router in network.routers],
        "traffic_flits": list(network._traffic_flits),
        "link_load": list(network._link_load),
        "last_progress": network._last_progress,
        "rr_vnet": [ni._rr_vnet for ni in network.interfaces],
    }


def _load_network(network, snap: Dict, cycle: int) -> None:
    if isinstance(network, FunctionalNetwork):
        # A functional warm image may continue warming on another
        # functional system (the chained-capture path); the functional
        # fabric carries no restorable state, so there is nothing to
        # load.  A *detailed* image never restores functionally — its
        # timing context would be silently discarded.
        if not snap.get("functional"):
            raise SimulationError(
                "detailed warm images restore into detailed systems only")
        return
    if snap.get("functional"):
        # Functional warm image: the detailed fabric starts cold; only
        # anchor the deadlock watchdog at the restore cycle.
        network._last_progress = cycle
        return
    if getattr(network, "engine_kind", "event") == "array":
        # The array backend shares the event engine's flat accounting
        # layouts, so an event-built warm image restores directly; the
        # per-router stats and port counters have no array analogue (it
        # keeps no router objects) and are dropped.
        network.stats.restore_state(snap["stats"])
        if len(network._traffic_flits) == len(snap["traffic_flits"]):
            network._traffic_flits[:] = snap["traffic_flits"]
        if len(network._link_load) == len(snap["link_load"]):
            network._link_load[:] = snap["link_load"]
        network._last_progress = snap["last_progress"]
        network._ni_rr[:] = snap["rr_vnet"]
        return
    network.stats.restore_state(snap["stats"])
    for router, rsnap in zip(network.routers, snap["router_stats"]):
        router.stats.restore_state(rsnap)
    for router, flits in zip(network.routers, snap["port_flits_tx"]):
        for port, value in zip(router.output_ports, flits):
            if port is not None:
                port.flits_tx = value
    if len(network._traffic_flits) == len(snap["traffic_flits"]):
        network._traffic_flits[:] = snap["traffic_flits"]
    if len(network._link_load) == len(snap["link_load"]):
        network._link_load[:] = snap["link_load"]
    network._last_progress = snap["last_progress"]
    for ni, rr_vnet in zip(network.interfaces, snap["rr_vnet"]):
        ni._rr_vnet = rr_vnet


def _push_degree_raw(system) -> List[int]:
    total = 0
    count = 0
    for slc in system.slices:
        hist = slc.stats.histograms().get("push_degree")
        if hist is not None:
            total += hist.total
            count += hist.count
    return [total, count]


# ---------------------------------------------------------------------------
# capture / restore
# ---------------------------------------------------------------------------

def capture_state(system, workload: str, config: str) -> Dict:
    """Snapshot a quiesced, barrier-held :class:`System` as JSON data.

    The system must be sitting at a :meth:`System.run_to_quiesce` hold.
    Capture never mutates simulation state (beyond folding pending stat
    batches, which is a no-op for results), so the original system can
    keep running afterwards — that property is what the bit-identity
    tests lean on.
    """
    barrier = system.cores[0].barrier if system.cores else None
    if barrier is None or barrier.held is None:
        raise SimulationError(
            "capture_state() requires a system held at a quiesced "
            "barrier (run run_to_quiesce first)")
    if system.network.active or system.scheduler.pending:
        raise SimulationError("capture_state() on a non-quiesced system")
    cycle = system.scheduler.now
    system.network.flush_stat_batches()
    baseline = collect_result(system, workload, config, cycle).to_dict()
    return {
        "version": CKPT_SCHEMA_VERSION,
        "cycle": cycle,
        "crossings": barrier.crossings,
        "arrival_order": [core.tile for core in barrier.held],
        "cores": [[core._cursor, core._last_issue, core.instructions]
                  for core in system.cores],
        "caches": [_dump_private(cache) for cache in system.caches],
        "slices": [_dump_slice(slc) for slc in system.slices],
        "versions": sorted(system.versions.items()),
        "memories": [[tile, ctrl._next_start]
                     for tile, ctrl in sorted(system.memories.items())],
        "network": _dump_network(system.network),
        "stats": system.stats.state(),
        "baseline": baseline,
        "push_degree_raw": _push_degree_raw(system),
    }


def restore_system(system, state: Dict) -> int:
    """Load ``state`` into a fresh, attached, not-yet-run ``System``.

    Re-schedules every core's step at the checkpoint cycle in the
    recorded barrier-arrival order — exactly what
    ``Barrier.release_held`` would have done in the original process —
    and returns that cycle.  Call :meth:`System.run` afterwards.
    """
    if state.get("version") != CKPT_SCHEMA_VERSION:
        raise SimulationError(
            f"checkpoint schema {state.get('version')} != "
            f"{CKPT_SCHEMA_VERSION}")
    if system._cores_started or system.scheduler.now:
        raise SimulationError(
            "restore_system() requires a fresh system")
    if not system.cores:
        raise SimulationError("attach_workload() before restore_system()")
    if len(state["cores"]) != len(system.cores):
        raise SimulationError(
            f"checkpoint has {len(state['cores'])} cores, system has "
            f"{len(system.cores)}")
    cycle = state["cycle"]
    scheduler = system.scheduler
    scheduler.now = cycle

    for core, (cursor, last_issue, instructions) in zip(
            system.cores, state["cores"]):
        core._cursor = cursor
        core._last_issue = last_issue
        core.instructions = instructions
        core._loaded = False
    system.cores[0].barrier.crossings = state["crossings"]

    for cache, snap in zip(system.caches, state["caches"]):
        _load_private(cache, snap)
    for slc, snap in zip(system.slices, state["slices"]):
        _load_slice(slc, snap)
    system.versions.clear()
    system.versions.update(
        (line, version) for line, version in state["versions"])
    for tile, next_start in state["memories"]:
        ctrl = system.memories.get(tile)
        if ctrl is not None:
            ctrl._next_start = next_start
    _load_network(system.network, state["network"], cycle)
    system.stats.restore_state(state["stats"])

    for tile in state["arrival_order"]:
        core = system.cores[tile]
        core._step_scheduled = True
        scheduler.at(cycle, core._step)
    system._cores_started = True
    system.restored_at = cycle
    return cycle


def rebase_measurement(state: Dict, system, workload: str,
                       config: str) -> Dict:
    """A copy of ``state`` whose measurement baseline is *now*.

    The detach window (detailed warming, SMARTS-style): after restoring
    the anchor image the runner executes ``detach_cycles`` to let the
    post-quiesce timing transient die out — the hold drained every
    in-flight message, so the first cycles after release run faster
    than steady state.  Rebasing moves the delta bookkeeping (baseline
    counters, push-degree sums, region start cycle) to the current
    cycle so :func:`measured_result` excludes the run-up along with the
    warm phase.  Only bookkeeping moves; simulation state is untouched,
    and the system needs no quiesce — mid-flight traffic stays in
    flight.
    """
    system.network.flush_stat_batches()
    cycle = system.scheduler.now
    rebased = dict(state)
    rebased["cycle"] = cycle
    rebased["baseline"] = collect_result(
        system, workload, config, cycle).to_dict()
    rebased["push_degree_raw"] = _push_degree_raw(system)
    return rebased


def measured_result(system, workload: str, config: str,
                    finish: int, state: Dict,
                    warmup_barriers: int, mode: str) -> SimResult:
    """Measured-region :class:`SimResult`: final stats minus baseline.

    ``cycles`` becomes the measured-region length (finish minus the
    checkpoint cycle); every counter, traffic class, endpoint flit
    count, and link load is the exact delta over the warm phase.  The
    push-degree mean is rebuilt from raw histogram sums so it carries no
    float reconstruction error.
    """
    full = collect_result(system, workload, config, finish)
    base = state["baseline"]

    def _delta_map(current: Dict[str, int], key: str) -> Dict[str, int]:
        stored = base.get(key, {})
        return {name: value - stored.get(name, 0)
                for name, value in current.items()}

    base_links = {}
    for link, flits in base.get("link_load", {}).items():
        router, direction = link.split(":", 1)
        base_links[(int(router), direction)] = flits
    link_load = {}
    for link, flits in full.link_load.items():
        delta = flits - base_links.get(link, 0)
        if delta:
            link_load[link] = delta

    base_total, base_count = state["push_degree_raw"]
    final_total, final_count = _push_degree_raw(system)
    degree_count = final_count - base_count
    extra = dict(full.extra)
    extra["warmup_barriers"] = warmup_barriers
    extra["warmup_mode"] = mode
    extra["warmup_cycles"] = state["cycle"]
    return SimResult(
        config=config,
        workload=workload,
        num_cores=full.num_cores,
        cycles=finish - state["cycle"],
        instructions=full.instructions - base["instructions"],
        l2_demand_accesses=(full.l2_demand_accesses
                            - base["l2_demand_accesses"]),
        l2_demand_misses=(full.l2_demand_misses
                          - base["l2_demand_misses"]),
        traffic=_delta_map(full.traffic, "traffic"),
        l2_inject=_delta_map(full.l2_inject, "l2_inject"),
        l2_eject=_delta_map(full.l2_eject, "l2_eject"),
        llc_inject=_delta_map(full.llc_inject, "llc_inject"),
        llc_eject=_delta_map(full.llc_eject, "llc_eject"),
        push_usage=_delta_map(full.push_usage, "push_usage"),
        link_load=link_load,
        requests_filtered=(full.requests_filtered
                           - base["requests_filtered"]),
        pushes_triggered=(full.pushes_triggered
                          - base["pushes_triggered"]),
        mean_push_degree=((final_total - base_total) / degree_count
                          if degree_count else 0.0),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------

def _json_chunks(state: Dict) -> Iterator[str]:
    """Canonical-JSON a snapshot one top-level section at a time.

    A 64-core snapshot serializes to many megabytes; feeding sections
    to the store's streaming gzip writer keeps the compressed object
    from ever sitting next to the full encoded text in memory.  Each
    ``"key":value`` section goes through the C encoder (``encode``),
    not the pure-Python ``iterencode``; the joined text is exactly
    ``json.dumps(state, sort_keys=True, separators=(",", ":"))``.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    yield "{"
    separator = ""
    for key in sorted(state):
        yield f"{separator}{encode(key)}:{encode(state[key])}"
        separator = ","
    yield "}"


class CheckpointStore:
    """Warm-state snapshots as a typed view over the unified store.

    A thin wrapper around the store's ``ckpt`` namespace (gzip codec,
    streaming compression): honors ``REPRO_CACHE_DIR`` and
    ``REPRO_NO_CACHE`` (resolved per call), writes atomically, and
    treats unreadable, corrupt, or version-mismatched entries as
    misses — with a warning through the store's single fallback path —
    so a bad checkpoint can only cost a cold rebuild, never a crash.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = root
        self.hits = 0
        self.misses = 0

    def _store(self) -> Optional[Store]:
        if cache_disabled():
            return None
        return Store(self._root)

    def path_for(self, key: str) -> Optional[Path]:
        """The entry file for ``key`` (None when disabled)."""
        store = self._store()
        return None if store is None else store.entry_path("ckpt", key)

    def has(self, key: str) -> bool:
        """Whether a trusted snapshot exists for ``key``.

        Entry-level only — no multi-megabyte payload read — so sweep
        planning can cheaply decide whether a warm build is needed.
        """
        store = self._store()
        return store is not None and store.entry("ckpt", key) is not None

    def _load(self, key: str) -> Optional[Dict]:
        """Fetch and vet a snapshot without touching the counters."""
        store = self._store()
        if store is None:
            return None
        data = store.get("ckpt", key)
        if data is None:
            return None
        try:
            state = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            warn_fallback("ckpt", key, f"corrupt snapshot payload: {exc}")
            return None
        # The entry-level schema guards the container; the snapshot
        # still carries its own version so a payload written by other
        # tooling is vetted before restore_system would trip over it.
        if not isinstance(state, dict) or \
                state.get("version") != CKPT_SCHEMA_VERSION:
            version = state.get("version") if isinstance(state, dict) \
                else None
            warn_fallback("ckpt", key,
                          f"snapshot schema {version} "
                          f"(want {CKPT_SCHEMA_VERSION})")
            return None
        return state

    def get(self, key: str) -> Optional[Dict]:
        state = self._load(key)
        if state is None:
            self.misses += 1
        else:
            self.hits += 1
        return state

    def peek(self, key: str) -> Optional[Dict]:
        """:meth:`get` minus the hit/miss accounting.

        The chain builder's ancestor probes and built-it-this-call
        re-reads are implementation detail, not cache performance —
        they would otherwise make one logical warm lookup count
        several times.
        """
        return self._load(key)

    def put(self, key: str, state: Dict) -> None:
        store = self._store()
        if store is None:
            return
        store.set("ckpt", key, _json_chunks(state))

    def clear(self) -> None:
        store = self._store()
        if store is not None:
            store.clear("ckpt")


class MemoCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` with a bounded memo of parsed states.

    Restoring N sweep points from one warm image re-reads and
    re-gunzips the same multi-megabyte snapshot N times.  This subclass
    keeps the last few **parsed** states in process memory (LRU over
    ``memo_limit`` images), so a worker serving a warm-affinity batch
    pays the disk-and-parse cost once per image instead of once per
    point.  Snapshots are immutable by contract —
    :func:`restore_system` only reads them — which is what makes
    handing the same dict to every restore safe.

    ``put`` memoizes too: the worker that builds a warm image serves
    its own batch without ever re-reading what it just wrote.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 memo_limit: int = 4) -> None:
        super().__init__(root)
        self.memo: "OrderedDict[str, Dict]" = OrderedDict()
        self.memo_limit = memo_limit
        self.memo_hits = 0
        self.memo_misses = 0

    def _remember(self, key: str, state: Dict) -> None:
        self.memo[key] = state
        self.memo.move_to_end(key)
        while len(self.memo) > self.memo_limit:
            self.memo.popitem(last=False)

    def _load(self, key: str) -> Optional[Dict]:
        state = self.memo.get(key)
        if state is not None:
            self.memo.move_to_end(key)
            self.memo_hits += 1
            return state
        self.memo_misses += 1
        state = super()._load(key)
        if state is not None:
            self._remember(key, state)
        return state

    def put(self, key: str, state: Dict) -> None:
        super().put(key, state)
        self._remember(key, state)
