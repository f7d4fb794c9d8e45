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
  exact.  Each component owns its slice of the layout through a
  ``state()`` / ``restore_state()`` pair; :meth:`System.state` and
  :meth:`System.restore_state` walk them, so this module reads no
  component's internals;
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
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.common.errors import SimulationError
from repro.cpu.tracebuf import trace_key
from repro.sim.results import SimResult, collect_result
from repro.store import CKPT_SCHEMA_VERSION, Store, warn_fallback


# ---------------------------------------------------------------------------
# keying
# ---------------------------------------------------------------------------

def warm_params(params):
    """The hardware a warm image is built and keyed on: always the
    event reference engine, whose quiesce invariants capture needs; an
    image restores into either backend."""
    if params.noc.engine == "event":
        return params
    return replace(params, noc=replace(params.noc, engine="event"))


def checkpoint_key(params, workload: str, num_cores: int, seed: int,
                   sizes: Dict, warmup_barriers: int, mode: str,
                   chained: bool = False) -> str:
    """Content hash of everything that determines a warm state.

    The one warm-image key, for the sweep planner and the builder
    alike; it hashes :func:`warm_params`, so an ``engine="array"``
    point shares its event twin's image.

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
    their keys identical to earlier layouts.  No image holds at
    barrier 0, so the chained key there names a whole chain: the
    sweep planner files one chain build under it.
    """
    config = asdict(warm_params(params))
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
# capture / restore
# ---------------------------------------------------------------------------

def _push_degree_raw(system) -> List[int]:
    total = 0
    count = 0
    for slc in system.slices:
        hist = slc.stats.histograms().get("push_degree")
        if hist is not None:
            total += hist.total
            count += hist.count
    return [total, count]


def capture_state(system, workload: str, config: str) -> Dict:
    """Snapshot a quiesced, barrier-held :class:`System` as JSON data.

    The system must be sitting at a :meth:`System.run_to_quiesce` hold.
    :meth:`System.state` walks every component's ``state()``; capture
    never mutates simulation state, so the original system can keep
    running afterwards — that property is what the bit-identity tests
    lean on.
    """
    state = system.state()
    state["version"] = CKPT_SCHEMA_VERSION
    state["baseline"] = collect_result(system, workload, config,
                                       state["cycle"]).to_dict()
    state["push_degree_raw"] = _push_degree_raw(system)
    return state


def restore_system(system, state: Dict) -> int:
    """Load ``state`` into a fresh, attached, not-yet-run ``System``.

    :meth:`System.restore_state` walks every component's
    ``restore_state()`` and re-schedules every core at the checkpoint
    cycle in the recorded barrier-arrival order — exactly what
    ``Barrier.release_held`` would have done in the original process —
    and returns that cycle.  Call :meth:`System.run` afterwards.
    """
    if state.get("version") != CKPT_SCHEMA_VERSION:
        raise SimulationError(
            f"checkpoint schema {state.get('version')} != "
            f"{CKPT_SCHEMA_VERSION}")
    return system.restore_state(state)


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
    streaming compression): honors ``REPRO_CACHE_DIR`` (resolved per
    call), writes atomically, and treats unreadable, corrupt, or
    version-mismatched entries as misses — with a warning through the
    store's single fallback path — so a bad checkpoint can only cost a
    cold rebuild, never a crash.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = root
        self.hits = 0
        self.misses = 0

    def has(self, key: str) -> bool:
        """Whether a trusted snapshot exists for ``key``.

        Entry-level only — no multi-megabyte payload read — so sweep
        planning can cheaply decide whether a warm build is needed.
        """
        return Store(self._root).entry("ckpt", key) is not None

    def _load(self, key: str) -> Optional[Dict]:
        """Fetch and vet a snapshot without touching the counters."""
        data = Store(self._root).get("ckpt", key)
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
        Store(self._root).set("ckpt", key, _json_chunks(state))


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
    ``memo_hits``/``memo_misses`` count the counted lookups (:meth:`get`,
    one per restore), so a builder's :meth:`peek` reads stay out.
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
            return state
        state = super()._load(key)
        if state is not None:
            self._remember(key, state)
        return state

    def get(self, key: str) -> Optional[Dict]:
        if key in self.memo:
            self.memo_hits += 1
        else:
            self.memo_misses += 1
        return super().get(key)

    def put(self, key: str, state: Dict) -> None:
        super().put(key, state)
        self._remember(key, state)
