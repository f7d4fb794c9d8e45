"""Warm-state checkpoint tests: bit-identity, store robustness, deltas.

The contract under test (see :mod:`repro.sim.checkpoint`): pausing a
system at a quiesced barrier and continuing **in-process** must be
bit-identical — same finish cycle, same full stats dump — to pausing,
serializing the capture through JSON, restoring it into a **fresh**
system, and continuing there.  That is what lets a sweep build one warm
phase and fork every config's measured region from it.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import SimulationError
from repro.store import Store
from repro.sim.checkpoint import (
    CKPT_SCHEMA_VERSION,
    CheckpointStore,
    _json_chunks,
    capture_state,
    checkpoint_key,
    restore_system,
)
from repro.sim.config import bench_kwargs
from repro.sim.runner import ensure_warm_states, resolve_point, run_workload
from repro.sim.statsdump import dump_stats
from repro.sim.system import System
from repro.sim.sweep import SweepPoint, point_key
from repro.workloads.registry import build_trace_buffers, build_traces

#: a fast point with real coherence traffic on both sides of the hold
FAST = dict(workload="cachebw", num_cores=4, seed=1, iters=4)

#: schemes that exercise every checkpointed structure: plain MESI,
#: push variants (directory shadows, PDRMap, in-network filters),
#: coalescing, and the dynamic push knob
SCHEMES = ("baseline", "coalesce", "msp", "pushack", "ordpush",
           "push_mc_filter")


#: the FAST workload at 16 cores on the scaled caches (cmesh needs 16
#: tiles to put 4 on each of several routers)
WIDE = dict(bench_kwargs(), array_lines=256, num_cores=16)


def _fresh_system(config: str, build=build_trace_buffers,
                  num_cores: int = FAST["num_cores"],
                  functional: bool = False, **hw):
    """A system on the FAST point; ``build`` is ``build_trace_buffers``
    (compiled buffers) or ``build_traces`` (live generators)."""
    params, wl_kwargs = resolve_point(FAST["workload"], config, num_cores,
                                      iters=FAST["iters"], **hw)
    traces = build(FAST["workload"], num_cores=num_cores,
                   seed=FAST["seed"], **wl_kwargs)
    system = System(params, functional_noc=functional)
    system.attach_workload(traces)
    return system


def _stats_lines(system) -> list:
    """Full stats dump minus the restore marker (absent on run A)."""
    return [line for line in dump_stats(system).splitlines()
            if not line.startswith("sim.restored_at")]


def _serialized(state: dict) -> bytes:
    return json.dumps(state, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class TestBitIdentity:
    @pytest.mark.parametrize("config, build, hw", [
        *(pytest.param(config, build_trace_buffers, {}, id=config)
          for config in SCHEMES),
        # generator-fed systems checkpoint like buffer-fed ones
        pytest.param("ordpush", build_traces, {}, id="ordpush-generators"),
        # every fabric: wraparound links, the radix-3 dateline ring, and
        # 4 tiles per router
        pytest.param("ordpush", build_trace_buffers, {"topology": "torus"},
                     id="ordpush-torus"),
        pytest.param("ordpush", build_trace_buffers, {"topology": "ring"},
                     id="ordpush-ring"),
        pytest.param("ordpush", build_trace_buffers,
                     dict(WIDE, topology="cmesh"), id="ordpush-cmesh")])
    def test_roundtrip_matches_inprocess_continue(self, config, build,
                                                  hw) -> None:
        continued = _fresh_system(config, build, **hw)
        continued.run_to_quiesce(2)
        finish_a = continued.run()

        paused = _fresh_system(config, build, **hw)
        paused.run_to_quiesce(2)
        state = json.loads(_serialized(capture_state(
            paused, FAST["workload"], config)))
        restored = _fresh_system(config, build, **hw)
        restore_system(restored, state)
        finish_b = restored.run()

        assert finish_a == finish_b
        assert _stats_lines(continued) == _stats_lines(restored)

    def test_capture_is_deterministic(self) -> None:
        captures = []
        for _ in range(2):
            system = _fresh_system("ordpush")
            system.run_to_quiesce(2)
            captures.append(_serialized(capture_state(
                system, FAST["workload"], "ordpush")))
        assert captures[0] == captures[1]

    def test_stored_text_is_canonical_json(self) -> None:
        """The store's sectioned writer emits exactly ``json.dumps``."""
        system = _fresh_system("ordpush")
        system.run_to_quiesce(2)
        state = capture_state(system, FAST["workload"], "ordpush")
        text = "".join(_json_chunks(state))
        assert text.encode("utf-8") == _serialized(state)
        assert "".join(_json_chunks({})) == "{}"

    def test_capture_does_not_perturb_the_source(self) -> None:
        undisturbed = _fresh_system("ordpush")
        undisturbed.run_to_quiesce(2)
        finish_a = undisturbed.run()

        captured = _fresh_system("ordpush")
        captured.run_to_quiesce(2)
        capture_state(captured, FAST["workload"], "ordpush")
        assert captured.run() == finish_a


class TestImageChecks:
    def _detailed_image(self) -> dict:
        system = _fresh_system("ordpush")
        system.run_to_quiesce(2)
        return json.loads(_serialized(capture_state(
            system, FAST["workload"], "ordpush")))

    @pytest.mark.parametrize("engine", ["event", "array"])
    @pytest.mark.parametrize("field", ["traffic_flits", "link_load"])
    def test_mismatched_accounting_length_raises(self, engine,
                                                 field) -> None:
        """A flat accounting array of the wrong length marks a corrupt
        or foreign image; restoring it must fail, naming the field."""
        state = self._detailed_image()
        state["network"][field].append(0)
        with pytest.raises(SimulationError, match=field):
            restore_system(_fresh_system("ordpush", engine=engine), state)

    def test_detailed_image_never_restores_functionally(self) -> None:
        state = self._detailed_image()
        with pytest.raises(SimulationError, match="detailed systems only"):
            restore_system(_fresh_system("ordpush", functional=True), state)

    @pytest.mark.parametrize("topology", ["mesh", "torus", "ring", "cmesh"])
    def test_memory_clocks_never_pass_the_capture_cycle(self,
                                                        topology) -> None:
        """Restore skips the clocks of image tiles without a controller
        (a functional image's canonical corners on ring and cmesh); that
        equals restoring them only while every clock is at most the
        capture cycle (see ``MemoryController.restore_state``)."""
        functional = _fresh_system("baseline", topology=topology,
                                   functional=True, **WIDE)
        detailed = _fresh_system("baseline", topology=topology, **WIDE)
        tiles = {"functional": sorted(functional.memories),
                 "detailed": sorted(detailed.memories)}
        if topology in ("ring", "cmesh"):
            assert tiles["functional"] != tiles["detailed"]
        for system in (functional, detailed):
            for barriers in (1, 2, 3):
                system.run_to_quiesce(barriers)
                state = capture_state(system, FAST["workload"], "baseline")
                clocks = [clock for _, clock in state["memories"]]
                assert len(clocks) == 4 and max(clocks) > 0
                assert max(clocks) <= state["cycle"], state["memories"]


class TestWarmRun:
    def test_measured_region_deltas(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = run_workload(**FAST, config="ordpush")
        warm = run_workload(**FAST, config="ordpush", warmup_barriers=2)
        assert 0 < warm.cycles < cold.cycles
        assert 0 < warm.instructions < cold.instructions
        assert warm.extra["warmup_barriers"] == 2
        assert warm.extra["warmup_mode"] == "detailed"
        assert warm.extra["warmup_cycles"] + warm.cycles == cold.cycles

    def test_store_hit_equals_miss(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = CheckpointStore()
        first = run_workload(**FAST, config="ordpush", warmup_barriers=2,
                             checkpoint=store)
        second = run_workload(**FAST, config="ordpush", warmup_barriers=2,
                              checkpoint=store)
        assert (store.misses, store.hits) == (1, 1)
        assert first.to_dict() == second.to_dict()

    def test_functional_mode_shares_image_across_topologies(
            self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = CheckpointStore()
        run_workload(**FAST, config="ordpush", warmup_barriers=2,
                     warmup_mode="functional", checkpoint=store)
        run_workload(**FAST, config="ordpush", warmup_barriers=2,
                     warmup_mode="functional", checkpoint=store,
                     topology="torus")
        # One build, one reuse: the torus point warms from the same image.
        assert (store.misses, store.hits) == (1, 1)

    def test_functional_warming_preserves_push_shape(
            self, tmp_path, monkeypatch) -> None:
        """The paper's push counters survive the functional stand-in."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kw = dict(bench_kwargs(), array_lines=512, iters=3)
        results = {mode: run_workload("cachebw", "ordpush", num_cores=16,
                                      warmup_barriers=1, warmup_mode=mode,
                                      **kw)
                   for mode in ("detailed", "functional")}
        detailed, functional = results["detailed"], results["functional"]
        assert detailed.pushes_triggered > 0
        assert functional.pushes_triggered == detailed.pushes_triggered
        assert functional.l2_demand_misses == pytest.approx(
            detailed.l2_demand_misses, rel=0.05)
        assert functional.total_flits == pytest.approx(
            detailed.total_flits, rel=0.05)


class TestWindowValidation:
    def test_warmup_past_the_trace_end_raises(self, tmp_path,
                                              monkeypatch) -> None:
        from repro.common.errors import ConfigError
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(ConfigError, match="too few barriers"):
            run_workload(**FAST, config="baseline", warmup_barriers=99)


class TestChainedImages:
    @pytest.mark.parametrize("mode", ["functional", "detailed"])
    def test_anchor_image_is_canonical(self, tmp_path, mode) -> None:
        """The chain builder holds and quiesces at every barrier, so the
        anchor-3 image is the same bytes whether it is built in one pass
        with anchors 1 and 2, alone, or chained from a stored anchor."""
        params, wl_kwargs = resolve_point(FAST["workload"], "ordpush",
                                          FAST["num_cores"],
                                          iters=FAST["iters"])
        traces = build_trace_buffers(FAST["workload"],
                                     num_cores=FAST["num_cores"],
                                     seed=FAST["seed"], **wl_kwargs)
        orders = {"one-pass": [[1, 2, 3]], "alone": [[3]],
                  "from-1": [[1], [3]], "from-2": [[2], [3]]}
        digests = {}
        for name, requests in orders.items():
            for barriers in requests:
                keys = ensure_warm_states(
                    FAST["workload"], "ordpush", params, traces,
                    FAST["num_cores"], FAST["seed"], wl_kwargs, barriers,
                    mode, CheckpointStore(tmp_path / name))
            digests[name] = Store(tmp_path / name).entry(
                "ckpt", keys[3])["digest"]
        assert len(set(digests.values())) == 1, digests


class TestStoreRobustness:
    def _warm_kwargs(self, store):
        return dict(FAST, config="ordpush", warmup_barriers=2,
                    checkpoint=store)

    def test_corrupt_checkpoint_falls_back_to_cold(
            self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = CheckpointStore()
        clean = run_workload(**self._warm_kwargs(store))
        unified = Store(tmp_path)
        ((key, entry),) = unified.entries("ckpt")
        # Flip bits in the stored object: digest verification must
        # reject it and the warm phase must rebuild from cold.
        unified.object_path(entry["digest"]).write_bytes(
            b"not gzip at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            rebuilt = run_workload(**self._warm_kwargs(store))
        assert rebuilt.to_dict() == clean.to_dict()

    def test_entry_schema_mismatch_falls_back_to_cold(
            self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = CheckpointStore()
        clean = run_workload(**self._warm_kwargs(store))
        unified = Store(tmp_path)
        ((key, _),) = unified.entries("ckpt")
        path = unified.entry_path("ckpt", key)
        entry = json.loads(path.read_text())
        entry["schema"] += 1
        path.write_text(json.dumps(entry))
        with pytest.warns(RuntimeWarning, match="schema"):
            rebuilt = run_workload(**self._warm_kwargs(store))
        assert rebuilt.to_dict() == clean.to_dict()

    def test_version_mismatch_falls_back_to_cold(
            self, tmp_path, monkeypatch) -> None:
        """A snapshot payload from a different layout generation (e.g.
        written by other tooling) warns and rebuilds cold."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = CheckpointStore()
        clean = run_workload(**self._warm_kwargs(store))
        unified = Store(tmp_path)
        ((key, _),) = unified.entries("ckpt")
        state = json.loads(unified.get("ckpt", key))
        state["version"] = CKPT_SCHEMA_VERSION + 1
        unified.set("ckpt", key, json.dumps(state).encode("utf-8"))
        with pytest.warns(RuntimeWarning, match="schema"):
            rebuilt = run_workload(**self._warm_kwargs(store))
        assert rebuilt.to_dict() == clean.to_dict()


class TestKeying:
    def test_key_covers_warm_relevant_fields(self) -> None:
        params, wl = resolve_point("cachebw", "ordpush", 4, iters=4)
        base = checkpoint_key(params, "cachebw", 4, 1, wl, 2, "detailed")
        assert base != checkpoint_key(params, "cachebw", 4, 2, wl, 2,
                                      "detailed")
        assert base != checkpoint_key(params, "cachebw", 4, 1, wl, 3,
                                      "detailed")
        assert base != checkpoint_key(params, "cachebw", 4, 1, wl, 2,
                                      "functional")

    def test_functional_key_ignores_noc_knobs(self) -> None:
        mesh, wl = resolve_point("cachebw", "ordpush", 4, iters=4)
        torus, _ = resolve_point("cachebw", "ordpush", 4, iters=4,
                                 topology="torus")
        key = checkpoint_key(mesh, "cachebw", 4, 1, wl, 2, "functional")
        assert key == checkpoint_key(torus, "cachebw", 4, 1, wl, 2,
                                     "functional")
        assert key != checkpoint_key(torus, "cachebw", 4, 1, wl, 2,
                                     "detailed")

    def test_point_key_separates_warmup_windows(self) -> None:
        """Regression: the sweep cache must not alias warm and cold runs."""
        cold = SweepPoint.make("cachebw", "ordpush", num_cores=4, iters=4)
        warm = SweepPoint.make("cachebw", "ordpush", num_cores=4, iters=4,
                               warmup_barriers=2)
        functional = SweepPoint.make("cachebw", "ordpush", num_cores=4,
                                     iters=4, warmup_barriers=2,
                                     warmup_mode="functional")
        keys = {point_key(p) for p in (cold, warm, functional)}
        assert len(keys) == 3
