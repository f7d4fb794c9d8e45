"""Experiment-engine tests: spec validation, grid expansion, reports.

The engine's contract: a spec document expands to a deterministic
point grid, runs incrementally through the result store (re-running a
finished experiment is all cache hits), and renders error-bar reports
for sampled grids / plain tables for full runs.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.experiment import (
    ExperimentSpec,
    expand_grid,
    load_spec,
    run_experiment,
)
from repro.sim.sampling import SampledResult, SamplingPolicy
from repro.sim.sweep import ResultCache, derive_seed, last_sweep_stats

#: minimal valid document (single full-run point)
BASE = {"name": "t", "workload": "cachebw", "configs": ["baseline"],
        "num_cores": 4, "sizes": {"iters": 4}}


def _spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec.from_dict({**BASE, **overrides})


class TestSpecValidation:
    def test_minimal_roundtrip(self) -> None:
        spec = _spec()
        assert spec.workloads == ["cachebw"]
        assert spec.configs == ["baseline"]
        assert spec.num_cores == [4]
        assert spec.seeds == [derive_seed(1, 0)]
        assert spec.sampling is None

    def test_rejects_unknown_keys(self) -> None:
        with pytest.raises(ConfigError, match="unknown experiment spec"):
            _spec(typo=1)

    def test_workload_xor_workloads(self) -> None:
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentSpec.from_dict(
                {**BASE, "workloads": ["cachebw", "pathfinder"]})
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentSpec.from_dict(
                {k: v for k, v in BASE.items() if k != "workload"})

    def test_seed_count_derives_deterministic_seeds(self) -> None:
        spec = _spec(seeds=3)
        assert spec.seeds == [derive_seed(1, i) for i in range(3)]
        assert len(set(spec.seeds)) == 3
        explicit = _spec(seeds=[7, 9])
        assert explicit.seeds == [7, 9]
        with pytest.raises(ConfigError, match="seeds count"):
            _spec(seeds=0)

    def test_sampling_policy_is_parsed(self) -> None:
        spec = _spec(sampling={"samples": 3, "sample_cycles": 999})
        assert spec.sampling == SamplingPolicy(samples=3, sample_cycles=999)

    @pytest.mark.parametrize("sampling,message", [
        ({"samples": -1}, "samples must be >= 1"),
        ({"samples": 2, "sample_cyclez": 500},
         "unknown sampling-policy fields"),
    ])
    def test_invalid_sampling_is_a_config_error(self, sampling,
                                                message) -> None:
        with pytest.raises(ConfigError, match=message):
            _spec(sampling=sampling)

    @pytest.mark.parametrize("fields,message", [
        ({"sampling": {"samples": "3"}}, "samples must be of type int"),
        ({"sampling": 5}, "sampling policy must be a mapping"),
        ({"num_cores": "four"}, "'num_cores' must be an integer"),
        ({"seeds": [1, "x"]}, "'seeds' must be an integer"),
        ({"max_cycles": "lots"}, "'max_cycles' must be an integer"),
        ({"sizes": [1]}, "'sizes' must be a mapping"),
    ])
    def test_wrongly_typed_values_are_config_errors(self, fields,
                                                    message) -> None:
        with pytest.raises(ConfigError, match=message):
            _spec(**fields)

    def test_sampling_excludes_manual_warmup(self) -> None:
        with pytest.raises(ConfigError, match="mutually exclusive"):
            _spec(sampling={"samples": 2}, warmup_barriers=2)

    def test_report_stat_is_vetted(self) -> None:
        with pytest.raises(ConfigError, match="unknown report stat"):
            _spec(report={"stat": "nonsense"})
        assert _spec(report={"stat": "l2_mpki"}).report["stat"] == "l2_mpki"


class TestGridExpansion:
    def test_list_sizes_become_axes(self) -> None:
        spec = _spec(configs=["baseline", "ordpush"], num_cores=[4, 16],
                     seeds=2, sizes={"iters": 4,
                                     "array_lines": [256, 512]})
        points = expand_grid(spec)
        # 1 workload x 2 configs x 2 core counts x 2 array sizes x 2 seeds
        assert len(points) == 16
        assert len(set(points)) == 16
        kwargs = [dict(p.kwargs) for p in points]
        assert all(k["iters"] == 4 for k in kwargs)
        assert {k["array_lines"] for k in kwargs} == {256, 512}

    def test_expansion_order_is_deterministic(self) -> None:
        spec = _spec(configs=["baseline", "ordpush"], seeds=2)
        assert expand_grid(spec) == expand_grid(spec)
        # nesting order: workload, config, cores, sizes, seed
        points = expand_grid(spec)
        assert [p.config for p in points] == \
            ["baseline", "baseline", "ordpush", "ordpush"]

    def test_window_fields_flow_into_points(self) -> None:
        spec = _spec(warmup_barriers=2, warmup_mode="functional",
                     max_cycles=12345)
        (point,) = expand_grid(spec)
        assert point.warmup_barriers == 2
        assert point.warmup_mode == "functional"
        assert point.max_cycles == 12345


class TestLoadSpec:
    def test_json_file(self, tmp_path) -> None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE))
        assert load_spec(path).workloads == ["cachebw"]

    def test_json_in_yaml_suffix_still_loads(self, tmp_path) -> None:
        """YAML is a JSON superset; without a YAML parser installed the
        loader falls back to the json module — either way this works."""
        path = tmp_path / "spec.yaml"
        path.write_text(json.dumps(BASE))
        assert load_spec(path).workloads == ["cachebw"]

    def test_yaml_document(self, tmp_path) -> None:
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(BASE))
        assert load_spec(path).workloads == ["cachebw"]

    def test_garbage_raises_config_error(self, tmp_path) -> None:
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)


class TestRunExperiment:
    SIZES = {"iters": 4, "array_lines": 256, "l2_kb": 8, "l1_kb": 8}

    def test_sampled_end_to_end_and_resumable(self, tmp_path,
                                              monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = _spec(configs=["baseline", "ordpush"], sizes=self.SIZES,
                     sampling={"samples": 2, "sample_cycles": 1500},
                     report={"stat": "ipc"})
        cache = ResultCache(tmp_path / "results")
        outcome = run_experiment(spec, cache=cache)
        assert len(outcome.points) == 2
        assert all(isinstance(r, SampledResult) for r in outcome.results)
        assert last_sweep_stats()["executed"] == 4  # 2 points x 2 regions

        report = outcome.render()
        assert "t: ipc" in report
        assert "ci@95%" in report
        out = tmp_path / "report.txt"
        outcome.save_report(out)
        assert out.read_text().rstrip("\n") == report

        # Incremental re-run: nothing executes, bytes identical.
        again = run_experiment(spec, cache=cache)
        assert last_sweep_stats()["executed"] == 0
        assert last_sweep_stats()["cache_hits"] == 4
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in outcome.results]

    def test_full_run_report(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = _spec(sizes=self.SIZES, report={"stat": "ipc"})
        outcome = run_experiment(spec, cache=ResultCache(tmp_path / "r"))
        report = outcome.render()
        assert "cycles" in report and "flits" in report
        (result,) = outcome.results
        assert f"{result.ipc:.4f}" in report

    def test_spec_path_is_accepted(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**BASE, "sizes": self.SIZES}))
        outcome = run_experiment(path, cache=ResultCache(tmp_path / "r"))
        assert outcome.spec.name == "t"
        assert len(outcome.results) == 1


class TestCli:
    def test_experiment_subcommand_smoke(self, tmp_path, monkeypatch,
                                         capsys) -> None:
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = {**BASE,
                "sizes": TestRunExperiment.SIZES,
                "sampling": {"samples": 2, "sample_cycles": 1500},
                "report": {"stat": "ipc"}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "report.txt"
        code = main(["experiment", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "ci@95%" in captured.out
        assert out.exists()

    def test_experiment_subcommand_bad_spec(self, tmp_path, monkeypatch,
                                            capsys) -> None:
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**BASE, "typo": 1}))
        code = main(["experiment", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_experiment_subcommand_bad_sampling(self, tmp_path,
                                                monkeypatch,
                                                capsys) -> None:
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**BASE, "sampling": {"samples": -1}}))
        code = main(["experiment", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: sampling: samples must be >= 1" in captured.err
