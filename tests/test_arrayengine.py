"""Array-engine equivalence suite (``repro.noc.arrayengine``).

The array backend is gated on statistical equivalence with the event
reference, the same contract the functional stand-in carries — with the
bounds calibrated to what the engines actually guarantee:

* **exact** flit conservation: every injected packet ejects exactly once
  per destination (or is consumed by the in-network filter);
* **exact** total flits and **exact per-link loads** on pure-NoC
  traffic: routing is deterministic (table-based XY / dateline rings),
  so each packet's link set is timing-independent and both engines must
  account the same flits on the same links;
* **bounded** end-to-end divergence: the array engine resolves switch
  allocation in one vectorized phase per cycle, so single-flit credits
  become visible one cycle later than the event engine's in-sweep
  credit callbacks.  Under protocol feedback this shifts cycle counts
  by a few percent, which the golden matrix bounds below enforce.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.common.messages import CoherenceMsg, MsgType
from repro.common.params import NoCParams
from repro.common.scheduler import Scheduler
from repro.noc.arrayengine import ArrayNetwork
from repro.noc.network import DEADLOCK_WATCHDOG_CYCLES, Network
from repro.sim.checkpoint import capture_state, restore_system
from repro.sim.config import bench_kwargs, make_params
from repro.sim.runner import resolve_point, run_workload
from repro.sim.system import System
from repro.workloads.registry import build_trace_buffers

# ---------------------------------------------------------------------------
# pure-NoC synthetic driver (no coherence stack; both engines see the
# exact same offered traffic and the same run-loop contract as System)
# ---------------------------------------------------------------------------


def _discard(msg: CoherenceMsg) -> None:
    """Eject sink for the pure-NoC driver: no coherence stack behind it."""


def _build(engine: str, params: NoCParams):
    scheduler = Scheduler()
    cls = Network if engine == "event" else ArrayNetwork
    net = cls(params, scheduler)
    for iface in net.interfaces:
        iface.eject_hook = _discard
    return net, scheduler


def _drive(net, scheduler, tiles: int, rate: float, horizon: int,
           seed: int, mc_frac: float = 0.0) -> int:
    """Uniform-random traffic for ``horizon`` cycles, then drain."""
    rng = random.Random(seed)
    unicast_types = (MsgType.GETS, MsgType.DATA_S, MsgType.INV)
    cycle = 0
    while True:
        if cycle < horizon:
            for src in range(tiles):
                if rng.random() >= rate:
                    continue
                if rng.random() < mc_frac:
                    fanout = rng.randrange(2, 6)
                    dests = tuple(rng.sample(
                        [t for t in range(tiles) if t != src], fanout))
                    mtype = MsgType.PUSH
                else:
                    dst = rng.randrange(tiles - 1)
                    if dst >= src:
                        dst += 1
                    dests = (dst,)
                    mtype = unicast_types[rng.randrange(3)]
                net.send(CoherenceMsg(mtype, rng.randrange(1 << 16) << 6,
                                      src, dests, need_push=False))
        elif not net.active:
            break
        scheduler.run_due(cycle)
        net.tick(cycle)
        if cycle < horizon:
            cycle += 1
        else:
            if not net.active:
                break
            nxt = scheduler.next_event_cycle()
            work = net.next_work_cycle()
            target = work if nxt is None else min(nxt, work)
            cycle = max(cycle + 1, target)
        assert cycle < 2_000_000, "synthetic run failed to drain"
    return cycle


#: 64-tile grid per fabric; the ring carries all 64 tiles on one cycle,
#: so it saturates at a fraction of the mesh's sustainable load
FABRICS = {
    "mesh": (dict(rows=8, cols=8), 0.25),
    "torus": (dict(rows=8, cols=8, topology="torus"), 0.25),
    "ring": (dict(rows=8, cols=8, topology="ring"), 0.1),
    "cmesh": (dict(rows=8, cols=8, topology="cmesh"), 0.25),
}


class TestSyntheticFabrics:
    """Randomized 64-tile traffic, every fabric, exact accounting."""

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_flits_and_link_loads_exact(self, fabric: str) -> None:
        grid, rate = FABRICS[fabric]
        out = {}
        for engine in ("event", "array"):
            net, scheduler = _build(engine, NoCParams(**grid))
            cycles = _drive(net, scheduler, 64, rate, horizon=200,
                            seed=42, mc_frac=0.2)
            out[engine] = (cycles, net.total_flits(), dict(net.link_load))
        ec, ef, el = out["event"]
        ac, af, al = out["array"]
        assert af == ef, f"{fabric}: total flits diverged"
        assert al == el, f"{fabric}: per-link loads diverged"
        assert ac <= ec * 1.25, f"{fabric}: array drained >25% slower"

    def test_randomized_vc_shapes(self) -> None:
        """Equivalence holds off the default VC configuration too."""
        rng = random.Random(7)
        for trial in range(2):
            grid = dict(rows=8, cols=8,
                        vcs_per_vnet=rng.choice((2, 4)),
                        vc_depth_flits=rng.choice((8, 16)))
            out = {}
            for engine in ("event", "array"):
                net, scheduler = _build(engine, NoCParams(**grid))
                _drive(net, scheduler, 64, 0.2, horizon=150,
                       seed=100 + trial, mc_frac=0.15)
                out[engine] = (net.total_flits(), dict(net.link_load))
            assert out["array"] == out["event"], grid


class TestConservation:
    def test_injected_equals_ejected_after_drain(self) -> None:
        net, scheduler = _build("array", NoCParams(rows=4, cols=4))
        _drive(net, scheduler, 16, 0.4, horizon=300, seed=5, mc_frac=0.3)
        assert net.inflight == 0 and not net.active
        assert not net._mc and net._backlog_total == 0
        assert int((net._s_pix >= 0).sum()) == 0
        # every credit came home: each bucket reads its full depth
        assert (net._free_cnt == net._vcs_per_bucket).all()
        injected = net.stats.get("packets_injected")
        ejected = net.stats.get("packets_ejected")
        # pure-NoC run, no filters: every destination got its delivery
        assert ejected >= injected > 0


class TestCreditCounts:
    """The per-bucket free-VC counts stay exact as slots fill and free.

    ``_free_cnt`` is updated at every install and slot clear rather than
    recounted; after every tick it must equal a recount of the slot
    occupancy, including the clears the filter's events make between
    ticks.
    """

    @staticmethod
    def _checked_ticks(monkeypatch) -> list:
        ticks = []
        tick = ArrayNetwork.tick

        def checked(net, cycle):
            tick(net, cycle)
            depth = net._vcs_per_bucket
            recount = (net._s_pix.reshape(-1, depth) < 0).sum(axis=1)
            assert (net._free_cnt == recount).all(), cycle
            ticks.append(cycle)

        monkeypatch.setattr(ArrayNetwork, "tick", checked)
        return ticks

    @pytest.mark.parametrize("fabric", ("mesh", "torus", "cmesh"))
    def test_counts_match_occupancy_every_tick(
            self, fabric: str, monkeypatch) -> None:
        ticks = self._checked_ticks(monkeypatch)
        grid, rate = FABRICS[fabric]
        net, scheduler = _build("array", NoCParams(**grid))
        _drive(net, scheduler, 64, rate, horizon=150, seed=11,
               mc_frac=0.2)
        assert ticks and not net.active
        assert (net._free_cnt == net._vcs_per_bucket).all()

    def test_counts_match_with_filter_drops(self, monkeypatch) -> None:
        """Full stack: ``_Lookup`` and ``_Register`` free dropped
        requests' slots outside ``tick``."""
        ticks = self._checked_ticks(monkeypatch)
        result = run_workload("cachebw", "push_mc_filter", num_cores=16,
                              engine="array", iters=2, array_lines=576,
                              **bench_kwargs())
        assert ticks
        assert result.pushes_triggered > 0
        assert result.requests_filtered > 0


#: 16-tile grid per fabric for the bookkeeping checks below
SMALL_FABRICS = {
    "mesh": (dict(rows=4, cols=4), 0.3),
    "torus": (dict(rows=4, cols=4, topology="torus"), 0.3),
    "ring": (dict(rows=4, cols=4, topology="ring"), 0.15),
    "cmesh": (dict(rows=4, cols=4, topology="cmesh"), 0.3),
}


class TestPacketRecords:
    """Per-packet constants and per-hop slot fields stay in step.

    A slot holds only per-hop state; everything else is read through
    its ``pix`` from arrays written once per packet.  After every tick,
    every occupied unicast slot must point at arrays that match its live
    ``Packet``, and its credit bucket must be the ejection sentinel
    exactly when its routed output is an ejection port.  The mesh run's
    registry outgrows the initial per-packet arrays, so the check also
    spans a growth.
    """

    @staticmethod
    def _check(net) -> None:
        tiles = net._num_tiles
        sentinel = net._eject_bucket
        assert net._credit[sentinel] == net._vcs_per_bucket
        for slot in (net._s_pix >= 0).nonzero()[0].tolist():
            out_key = int(net._s_outkey[slot])
            if out_key == -2:
                continue  # a multicast resident, or one draining its tail
            pix = int(net._s_pix[slot])
            packet = net._pkt[pix]
            assert len(packet.dests) == 1, packet
            assert net._pk_flits[pix] == packet.flits
            assert net._pk_traffic[pix] == packet.traffic_idx
            assert net._pk_vdest[pix] == \
                packet.vnet * tiles + packet.dests[0]
            assert net._pk_inv[pix] == (packet.msg_type is MsgType.INV)
            assert net._pk_gets[pix] == (packet.msg_type is MsgType.GETS)
            assert net._pk_push[pix] == (packet.msg_type is MsgType.PUSH)
            ejects = net._eject_tile_l[out_key] >= 0
            assert (net._s_downbucket[slot] == sentinel) == ejects, slot

    @pytest.mark.parametrize("fabric", sorted(SMALL_FABRICS))
    def test_records_match_live_packets(self, fabric: str,
                                        monkeypatch) -> None:
        ticks = []
        tick = ArrayNetwork.tick

        def checked(net, cycle):
            tick(net, cycle)
            self._check(net)
            ticks.append(cycle)

        monkeypatch.setattr(ArrayNetwork, "tick", checked)
        grid, rate = SMALL_FABRICS[fabric]
        net, scheduler = _build("array", NoCParams(**grid))
        _drive(net, scheduler, 16, rate, horizon=150, seed=3,
               mc_frac=0.25)
        assert ticks and not net.active
        if fabric == "mesh":
            assert len(net._pkt) > 256  # past the initial array size
        # nothing ever took or returned the sentinel's credit
        assert net._credit[net._eject_bucket] == net._vcs_per_bucket
        assert (net._free_cnt == net._vcs_per_bucket).all()


class TestNextHopTable:
    """The next-hop table equals a recomputation from the routing
    tables and the topology's port graph."""

    @staticmethod
    def _check(net) -> None:
        topo = net.topology
        tabs = topo.port_tables()
        radix = topo.radix
        tiles = net._num_tiles
        buckets = net._buckets_per_port
        classes = net._num_classes
        checked = 0
        for vnet in range(net._num_vnets):
            table = net.tables.by_vnet[vnet]
            for router in range(topo.num_routers):
                for dest in range(tiles):
                    port = table[router][dest]
                    row = (router * net._num_vnets + vnet) * tiles + dest
                    assert net._nh_key[row] == router * radix + port
                    if tabs["eject_tile"][router][port] >= 0:
                        want = net._eject_bucket
                    else:
                        nbr = (tabs["neighbor_router"][router][port] * radix
                               + tabs["neighbor_port"][router][port])
                        want = nbr * buckets + vnet * classes
                        if classes > 1:
                            want += tabs["dateline"][router][port]
                    assert net._nh_bucket[row] == want, (router, vnet, dest)
                    checked += 1
        assert checked == net._nh_key.size == net._nh_bucket.size
        # every link leads to its downstream router's table row
        for router in range(topo.num_routers):
            for port in range(radix):
                nbr = tabs["neighbor_router"][router][port]
                if nbr >= 0:
                    assert net._down_row[router * radix + port] == \
                        nbr * net._num_vnets * tiles

    @pytest.mark.parametrize("fabric", sorted(SMALL_FABRICS))
    def test_table_matches_routing_16c(self, fabric: str) -> None:
        grid, _ = SMALL_FABRICS[fabric]
        self._check(ArrayNetwork(NoCParams(**grid), Scheduler()))

    def test_table_matches_routing_64c_mesh(self) -> None:
        grid, _ = FABRICS["mesh"]
        self._check(ArrayNetwork(NoCParams(**grid), Scheduler()))


class TestTakeFreeVC:
    def test_count_mismatch_raises(self) -> None:
        """A full bucket hands out no slot; a count that claims credit
        for it fails loudly instead of handing out a live slot."""
        net, _ = _build("array", NoCParams(rows=4, cols=4))
        bucket = net._local_bucket_l[5][1]
        for _ in range(net._vcs_per_bucket):
            slot = net._take_free_vc(bucket)
            assert slot // net._vcs_per_bucket == bucket
            net._s_pix[slot] = 0
        assert net._take_free_vc(bucket) == -1
        net._free_cnt[bucket] = 1
        with pytest.raises(SimulationError, match="occupied"):
            net._take_free_vc(bucket)


# ---------------------------------------------------------------------------
# end-to-end golden matrix (full coherence stack at 16 cores)
# ---------------------------------------------------------------------------

GOLDEN_CONFIGS = ("baseline", "push_multicast", "push_mc_filter",
                  "pushack", "ordpush")
#: light enough for the quick tier, heavy enough that pushes trigger
GOLDEN_SIZES = dict(num_cores=16, iters=2, array_lines=512)

_pairs: dict = {}


def _golden_pair(config: str):
    if config not in _pairs:
        _pairs[config] = {
            engine: run_workload("cachebw", config, engine=engine,
                                 **GOLDEN_SIZES, **bench_kwargs())
            for engine in ("event", "array")}
    return _pairs[config]


class TestGoldenMatrix:
    @pytest.mark.parametrize("config", GOLDEN_CONFIGS)
    def test_statistical_equivalence(self, config: str) -> None:
        pair = _golden_pair(config)
        event, array = pair["event"], pair["array"]
        assert abs(array.cycles - event.cycles) <= 0.05 * event.cycles
        assert abs(array.total_flits - event.total_flits) \
            <= 0.02 * event.total_flits
        if event.pushes_triggered:
            assert array.pushes_triggered > 0
            assert (abs(array.pushes_triggered - event.pushes_triggered)
                    <= 0.15 * event.pushes_triggered)

    def test_engine_tagged_in_results(self) -> None:
        pair = _golden_pair("baseline")
        assert pair["array"].extra.get("engine") == "array"
        assert "engine" not in pair["event"].extra


class TestFilterEquivalence:
    """The in-network filter must stay effective on the array engine.

    Filter hits are coincidence-sensitive (a push registration must
    cover the exact window a request passes through), so the engines'
    one-cycle credit divergence shifts the count; the array engine is
    required to catch a comparable volume, not the identical set.
    """

    def test_filter_catches_comparable_volume(self) -> None:
        results = {
            engine: run_workload("cachebw", "push_mc_filter",
                                 num_cores=16, engine=engine,
                                 iters=2, array_lines=768,
                                 **bench_kwargs())
            for engine in ("event", "array")}
        event, array = results["event"], results["array"]
        assert event.requests_filtered > 0
        assert array.requests_filtered > 0
        ratio = array.requests_filtered / event.requests_filtered
        assert 0.5 <= ratio <= 1.5, ratio
        assert abs(array.total_flits - event.total_flits) \
            <= 0.02 * event.total_flits


# ---------------------------------------------------------------------------
# engine selection and integration plumbing
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_make_params_threads_engine(self) -> None:
        params = make_params("ordpush", num_cores=16, engine="array")
        assert params.noc.engine == "array"
        assert make_params("ordpush", num_cores=16).noc.engine == "event"

    def test_system_builds_array_network(self) -> None:
        params = make_params("ordpush", num_cores=16, engine="array")
        system = System(params)
        assert isinstance(system.network, ArrayNetwork)
        assert system.network.engine_kind == "array"
        # the push switches survive the engine swap
        assert system.network.filter_enabled
        assert system.network.ordered_pushes

    def test_lazy_package_export(self) -> None:
        import repro.noc
        assert repro.noc.ArrayNetwork is ArrayNetwork

    def test_checkpoint_capture_rejects_array_engine(self) -> None:
        net, _ = _build("array", NoCParams(rows=2, cols=2))
        with pytest.raises(SimulationError, match="event NoC engine"):
            net.state()

    def test_detailed_image_restores_into_array_engine(self) -> None:
        """An event-built detailed image carries the accounting the
        array engine shares: network stats, per-class flits, per-link
        loads, the watchdog anchor and the NI round-robin pointers."""
        params, wl_kwargs = resolve_point("cachebw", "ordpush", 4, iters=4)
        traces = build_trace_buffers("cachebw", num_cores=4, seed=1,
                                     **wl_kwargs)
        warm = System(params)
        warm.attach_workload(traces)
        warm.run_to_quiesce(2)
        state = json.loads(json.dumps(
            capture_state(warm, "cachebw", "ordpush")))
        snap = state["network"]
        assert any(snap["rr_vnet"]) and any(snap["link_load"])

        system = System(replace(params, noc=replace(params.noc,
                                                    engine="array")))
        system.attach_workload(traces)
        assert restore_system(system, state) == state["cycle"]
        net = system.network
        assert net.stats.state() == snap["stats"]
        assert net._traffic_flits.tolist() == snap["traffic_flits"]
        assert net._link_load.tolist() == snap["link_load"]
        assert net._ni_rr == snap["rr_vnet"]
        assert net.watchdog_deadline() == (snap["last_progress"]
                                           + DEADLOCK_WATCHDOG_CYCLES + 1)
        assert system.run() > state["cycle"]

    def test_checkpointed_run_restores_into_array_engine(
            self, tmp_path, monkeypatch) -> None:
        """Warm state builds on the event engine, measured region runs
        on the array engine (the sweep fast-forward contract)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_workload("cachebw", "ordpush", num_cores=4,
                              engine="array", iters=3, array_lines=64,
                              warmup_barriers=2,
                              warmup_mode="functional", **bench_kwargs())
        assert result.cycles > 0
        assert result.extra.get("engine") == "array"
        assert result.extra.get("warmup_mode") == "functional"
