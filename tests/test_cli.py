"""CLI tests."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _jobs_arg, _sampling_policy, build_parser, main


class TestParser:
    def test_run_parses(self) -> None:
        args = build_parser().parse_args(
            ["run", "cachebw", "ordpush", "--cores", "16", "--scaled"])
        assert args.workload == "cachebw"
        assert args.config == "ordpush"
        assert args.scaled

    def test_compare_defaults(self) -> None:
        args = build_parser().parse_args(["compare", "mv"])
        assert "ordpush" in args.configs

    def test_rejects_unknown_workload(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom", "ordpush"])

    def test_rejects_unknown_config(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cachebw", "warp"])


class TestCommands:
    def test_list(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cachebw" in out and "ordpush" in out

    def test_run_small(self, capsys) -> None:
        code = main(["run", "pathfinder", "noprefetch", "--cores", "4",
                     "--scaled"])
        assert code == 0
        out = capsys.readouterr().out
        assert "L2 MPKI" in out and "traffic breakdown" in out

    def test_compare_small(self, capsys) -> None:
        code = main(["compare", "pathfinder", "--cores", "4", "--scaled",
                     "--configs", "noprefetch", "ordpush"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "ordpush" in out

    def test_run_with_knobs(self, capsys) -> None:
        code = main(["run", "pathfinder", "ordpush", "--cores", "4",
                     "--scaled", "--tpc-threshold", "8",
                     "--time-window", "300", "--link-bits", "256"])
        assert code == 0

    def test_sweep_parses(self) -> None:
        args = build_parser().parse_args(
            ["sweep", "cachebw", "--configs", "baseline", "ordpush",
             "--seeds", "3", "--jobs", "4", "--no-cache"])
        assert args.workload == "cachebw"
        assert args.seeds == 3 and args.jobs == 4 and args.no_cache

    def test_jobs_rejects_negative_counts(self, capsys) -> None:
        assert _jobs_arg("auto") == 0 and _jobs_arg("0") == 0
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_arg("-3")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "cachebw", "--jobs", "-3"])
        assert "count >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    def test_seeds_rejects_counts_below_one(self, capsys, count) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "pathfinder", "--seeds", count])
        assert "count >= 1" in capsys.readouterr().err

    def test_sweep_small(self, capsys, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "sweep.json"
        code = main(["sweep", "pathfinder", "--configs", "noprefetch",
                     "ordpush", "--cores", "4", "--scaled", "--seeds", "2",
                     "--jobs", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "4 points" in printed and "ordpush" in printed
        import json
        records = json.loads(out.read_text())
        assert len(records) == 4
        assert {r["config"] for r in records} == {"noprefetch", "ordpush"}

    def test_sweep_no_cache_runs_fresh(self, capsys, tmp_path,
                                       monkeypatch) -> None:
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code = main(["sweep", "pathfinder", "--configs", "noprefetch",
                     "--cores", "4", "--scaled", "--no-cache"])
        assert code == 0
        assert not cache_dir.exists()


class TestWarmupFlags:
    def test_warmup_flags_parse(self) -> None:
        args = build_parser().parse_args(
            ["run", "cachebw", "ordpush", "--warmup-barriers", "2",
             "--warmup-mode", "functional"])
        assert args.warmup_barriers == 2
        assert args.warmup_mode == "functional"

    def test_rejects_unknown_warmup_mode(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "cachebw", "ordpush", "--warmup-mode", "turbo"])

    def test_warm_run_small(self, capsys, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["run", "cachebw", "ordpush", "--cores", "4",
                     "--warmup-barriers", "2", "--warmup-mode",
                     "functional"])
        assert code == 0
        assert "cycles" in capsys.readouterr().out
        from repro.store import Store
        assert list(Store(tmp_path / "cache").entries("ckpt"))


class TestSamplingFlags:
    @pytest.mark.parametrize("command", [["run", "pathfinder", "ordpush"],
                                         ["sweep", "pathfinder"]])
    @pytest.mark.parametrize("flag,value", [("--sample-cycles", "2000"),
                                            ("--detach-cycles", "500"),
                                            ("--ci-target", "0.05")])
    def test_rejected_without_samples(self, capsys, command, flag,
                                      value) -> None:
        """A full run would silently ignore them, so they are a parser
        error naming the flag (an explicit --sample-cycles too, even at
        its default value)."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--cores", "4", "--scaled", flag, value])
        assert exit_info.value.code == 2
        assert f"{flag} needs --samples" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["run", "pathfinder", "ordpush", "--samples", "-2"],
         "samples must be >= 1: -2"),
        (["run", "pathfinder", "ordpush", "--samples", "2",
          "--sample-cycles", "0"], "sample_cycles must be >= 1: 0"),
        (["run", "pathfinder", "ordpush", "--samples", "2",
          "--ci-target", "-1"], "ci_target must be >= 0"),
        (["sweep", "pathfinder", "--samples", "2",
          "--detach-cycles", "-5"], "detach_cycles must be >= 0: -5"),
        (["run", "pathfinder", "ordpush", "--warmup-barriers", "-1"],
         "--warmup-barriers must be >= 0"),
        (["compare", "pathfinder", "--warmup-barriers", "-1"],
         "--warmup-barriers must be >= 0"),
    ])
    def test_invalid_values_are_parser_errors(self, capsys, argv,
                                              message) -> None:
        """Values the sampling policy rejects, and a negative warmup
        (which used to run cold), exit 2 before any simulation runs."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cores", "4", "--scaled"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_sample_cycles_defaults_to_2000(self) -> None:
        args = build_parser().parse_args(
            ["run", "pathfinder", "ordpush", "--samples", "3"])
        assert _sampling_policy(args).sample_cycles == 2000
        args = build_parser().parse_args(
            ["run", "pathfinder", "ordpush", "--samples", "3",
             "--sample-cycles", "500"])
        assert _sampling_policy(args).sample_cycles == 500


class TestCacheCommand:
    def _populate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "pathfinder", "--configs", "noprefetch",
                     "--cores", "4", "--scaled",
                     "--warmup-barriers", "2"]) == 0

    def test_stats_reports_sections(self, capsys, tmp_path,
                                    monkeypatch) -> None:
        self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        for section in ("results", "traces", "checkpoints", "total"):
            assert section in out

    def test_gc_to_zero_empties_the_tree(self, capsys, tmp_path,
                                         monkeypatch) -> None:
        self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "gc", "--max-bytes", "0"]) == 0
        assert "removed" in capsys.readouterr().out
        from repro.store import Store
        assert Store().stats()["total"]["bytes"] == 0

    def test_push_pull_round_trip(self, capsys, tmp_path,
                                  monkeypatch) -> None:
        from repro.store import Store
        self._populate(tmp_path, monkeypatch)
        capsys.readouterr()
        remote = tmp_path / "remote"
        assert main(["cache", "push", "--remote", str(remote)]) == 0
        out = capsys.readouterr().out
        assert "objects" in out and str(remote) in out
        local = Store(tmp_path / "cache")
        assert dict(Store(remote).entries("results")).keys() == \
            dict(local.entries("results")).keys()
        # a second push finds nothing missing
        assert main(["cache", "push", "--remote", str(remote)]) == 0
        total = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("total")][0]
        assert total.split() == ["total", "0", "0", "0", "B"]
        # a fresh root pulls the full tree back
        other = tmp_path / "other"
        assert main(["cache", "pull", "--remote", str(remote),
                     "--dir", str(other)]) == 0
        assert dict(Store(other).entries("ckpt")).keys() == \
            dict(local.entries("ckpt")).keys()

    def test_gc_keeps_newest_entries(self, capsys, tmp_path) -> None:
        import os
        from repro.store import Store
        store = Store(tmp_path)
        store.set("results", "old", b"x" * 100)
        store.set("results", "new", b"y" * 100)
        old_digest = store.entry("results", "old")["digest"]
        os.utime(store.object_path(old_digest), (1, 1))
        assert main(["cache", "gc", "--max-bytes", "150",
                     "--dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert store.entry("results", "old") is None
        assert store.entry("results", "new") is not None
        assert not store.object_path(old_digest).exists()


    def test_push_refuses_a_file_url_without_a_path(self, capsys,
                                                    tmp_path) -> None:
        assert main(["cache", "push", "--remote", "file://relative-name",
                     "--dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestConfigErrors:
    """A configuration the simulator rejects ends in an ``error:`` line
    and exit status 1 from every subcommand, not a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "cachebw", "baseline", "--cores", "4", "--shape", "3x5"],
         "shape 3x5 holds 15 tiles"),
        (["compare", "cachebw", "--cores", "4", "--shape", "3x5"],
         "shape 3x5 holds 15 tiles"),
        (["sweep", "cachebw", "--topology", "cmesh", "--concentration",
          "3"], "16 tiles do not split into routers of 3"),
        (["topo", "mesh", "--cores", "0"], "core count must be >= 1"),
    ], ids=["run", "compare", "sweep", "topo"])
    def test_config_error_is_an_error_line(self, capsys, argv,
                                           message) -> None:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestTopologyFlags:
    def test_run_on_torus(self, capsys) -> None:
        code = main(["run", "pathfinder", "noprefetch", "--cores", "4",
                     "--scaled", "--topology", "torus"])
        assert code == 0
        assert "L2 MPKI" in capsys.readouterr().out

    def test_run_rejects_unknown_topology(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "cachebw", "ordpush", "--topology", "hypercube"])

    def test_shape_flag_threads_through(self, capsys) -> None:
        code = main(["run", "pathfinder", "noprefetch", "--cores", "4",
                     "--scaled", "--shape", "1x4", "--topology", "ring"])
        assert code == 0

    def test_sweep_topologies_axis(self, capsys, tmp_path,
                                   monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "sweep.json"
        code = main(["sweep", "pathfinder", "--configs", "noprefetch",
                     "--cores", "4", "--scaled",
                     "--topologies", "mesh", "cmesh",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cmesh" in printed
        import json
        records = json.loads(out.read_text())
        assert len(records) == 2
        kinds = {r.get("extra", {}).get("topology", "mesh")
                 for r in records}
        assert kinds == {"mesh", "cmesh"}


class TestTopoInspector:
    @pytest.mark.parametrize("topology,cores", [("mesh", 16),
                                                ("torus", 16),
                                                ("ring", 16),
                                                ("cmesh", 16)])
    def test_inspects_every_fabric(self, capsys, topology: str,
                                   cores: int) -> None:
        code = main(["topo", topology, "--cores", str(cores)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"topology          : {topology}" in out
        assert "tiles             : 16" in out
        assert "average hop count" in out

    def test_mesh_link_count(self, capsys) -> None:
        main(["topo", "mesh", "--cores", "16"])
        out = capsys.readouterr().out
        # 4x4 mesh: 24 bidirectional links, no datelines.
        assert "48 directed (24 bidirectional)" in out
        assert "dateline links    : 0" in out

    def test_torus_reports_datelines(self, capsys) -> None:
        main(["topo", "torus", "--cores", "16"])
        out = capsys.readouterr().out
        # 4x4 torus: 32 bidirectional links, 16 dateline crossings.
        assert "64 directed (32 bidirectional)" in out
        assert "dateline links    : 16 (2 VC classes per vnet)" in out

    def test_cmesh_concentration_flag(self, capsys) -> None:
        main(["topo", "cmesh", "--cores", "16", "--concentration", "2"])
        out = capsys.readouterr().out
        assert "routers           : 8" in out
