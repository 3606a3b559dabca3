"""Integration tests of the baseline and E-morphic flows plus the CLI."""

from __future__ import annotations

import pytest

from repro.benchgen import epfl
from repro.cli import build_parser, main
from repro.costmodel.hoga import HogaConfig, HogaModel
from repro.flows.baseline import BaselineConfig, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow


def _fast_emorphic_config(**overrides) -> EmorphicConfig:
    """A configuration small enough for unit tests (seconds, not minutes)."""
    config = EmorphicConfig(
        rewrite_iterations=2,
        max_egraph_nodes=8_000,
        rewrite_time_limit=10.0,
        num_threads=2,
        sa_iterations=2,
        moves_per_iteration=2,
        verify=True,
        verify_conflict_budget=5_000,
    )
    config.baseline.use_choices = False
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestBaselineFlow:
    def test_produces_mapping_and_improves_depth(self, small_adder):
        result = run_baseline_flow(small_adder, BaselineConfig(use_choices=False))
        assert result.area > 0 and result.delay > 0
        assert result.levels <= small_adder.stats()["levels"]
        assert "sop_balance" in result.phase_runtimes and "dch_map" in result.phase_runtimes

    def test_choices_do_not_hurt_delay(self, small_sqrt):
        without = run_baseline_flow(small_sqrt, BaselineConfig(use_choices=False))
        with_choices = run_baseline_flow(small_sqrt, BaselineConfig(use_choices=True, choice_max_pairs=100))
        assert with_choices.delay <= without.delay + 1e-6

    def test_result_is_equivalent_to_input(self, small_mem_ctrl):
        from repro.verify.cec import check_equivalence

        result = run_baseline_flow(small_mem_ctrl, BaselineConfig(use_choices=False))
        assert check_equivalence(small_mem_ctrl, result.aig).equivalent


class TestEmorphicFlow:
    @pytest.fixture(scope="class")
    def emorphic_result(self, small_mem_ctrl):
        return run_emorphic_flow(small_mem_ctrl, _fast_emorphic_config())

    def test_result_fields(self, emorphic_result):
        assert emorphic_result.area > 0 and emorphic_result.delay > 0
        assert emorphic_result.num_candidates >= 1
        assert emorphic_result.rewrite_report is not None

    def test_equivalence_verified(self, emorphic_result):
        assert emorphic_result.equivalence is not None
        assert emorphic_result.equivalence.status == "equivalent"

    def test_runtime_breakdown_components(self, emorphic_result):
        breakdown = emorphic_result.runtime_breakdown()
        assert set(breakdown) == {"abc_flow", "egraph_conversion", "sa_extraction"}
        assert all(v >= 0 for v in breakdown.values())

    def test_delay_not_worse_than_pre_resynthesis(self, emorphic_result):
        # The flow keeps the pre-resynthesis mapping when no candidate beats it.
        assert emorphic_result.delay <= emorphic_result.baseline_delay_before_resynthesis + 1e-6

    def test_ml_mode_uses_model(self, small_mem_ctrl):
        import numpy as np

        model = HogaModel(HogaConfig(epochs=20, hidden_dim=8, seed=0))
        feats = np.stack([model.featurize(small_mem_ctrl), model.featurize(small_mem_ctrl) * 1.05])
        model.fit(feats, np.array([80.0, 100.0]))
        config = _fast_emorphic_config(use_ml_model=True, ml_model=model)
        result = run_emorphic_flow(small_mem_ctrl, config)
        assert result.equivalence.status == "equivalent"
        assert result.delay > 0


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "adder", "--preset", "test"])
        assert args.circuit == "adder"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "hyp" in out

    def test_stats_command(self, capsys):
        assert main(["stats", "mem_ctrl", "--preset", "test"]) == 0
        assert "ands=" in capsys.readouterr().out

    def test_stats_from_aag_file(self, tmp_path, capsys, small_mem_ctrl):
        from repro.aig.io_aiger import write_aag

        path = tmp_path / "c.aag"
        write_aag(small_mem_ctrl, path)
        assert main(["stats", str(path)]) == 0
        assert "ands=" in capsys.readouterr().out

    def test_baseline_command(self, capsys):
        assert main(["baseline", "mem_ctrl", "--preset", "test", "--no-choices"]) == 0
        out = capsys.readouterr().out
        assert "area=" in out and "delay=" in out


class TestTraceSearchEffort:
    def test_trace_prints_per_rule_trie_visits(self, capsys):
        script = "st; dag2eg; saturate(iters=1, max_nodes=3000)"
        assert main(["trace", script, "-c", "adder", "--preset", "test", "--depth", "8"]) == 0
        out = capsys.readouterr().out
        assert "trie_visits=" in out  # the batched-match span's counter
        assert "search effort" in out and "and-comm" in out


class TestUnverifiedExitStatus:
    """A flow whose ``cec`` does not prove equivalence fails the exit status."""

    @pytest.fixture
    def unknown_cec(self, monkeypatch):
        from repro.pipeline import passes
        from repro.verify.cec import CecResult

        monkeypatch.setattr(
            passes, "check_equivalence", lambda *args, **kwargs: CecResult(equivalent=False, status="unknown")
        )

    def test_scripted_commands_fail(self, unknown_cec, capsys):
        script = "st; balance; cec"
        circuit = ["-c", "mem_ctrl", "--preset", "test"]
        assert main(["pipeline", *circuit, "--script", script, "--no-ledger"]) == 1
        assert main(["trace", script, *circuit]) == 1
        assert main(["explain", script, *circuit]) == 1
        assert capsys.readouterr().out.count("equivalence check: unknown") == 3
        # No cec pass, no verdict to fail on.
        assert main(["pipeline", *circuit, "--script", "st; balance", "--no-ledger"]) == 0

    def test_run_fails_unless_verification_is_skipped(self, unknown_cec):
        argv = ["run", "mem_ctrl", "--preset", "test", "--iterations", "1", "--sa-iterations", "1"]
        argv += ["--no-choices", "--no-ledger"]
        assert main(argv) == 1
        assert main(argv + ["--no-verify"]) == 0

    def test_equivalent_run_succeeds(self):
        assert main(["pipeline", "-c", "mem_ctrl", "--preset", "test", "--script", "st; balance; cec", "--no-ledger"]) == 0


class TestRunTimePipelineErrors:
    """A ``PipelineError`` raised while the pipeline runs exits like a parse
    error: one ``pipeline error: ...`` line, no traceback."""

    @pytest.mark.parametrize(
        "script, message",
        [
            ("st; map; extract", "needs a circuit e-graph"),
            ("st; dag2eg; extract(bogus)", "unknown extraction method 'bogus'"),
            ("st; dag2eg; extract(cost=area)", "unknown extraction cost 'area'"),
        ],
    )
    def test_scripted_commands_exit_cleanly(self, script, message):
        circuit = ["-c", "mem_ctrl", "--preset", "test"]
        for argv in (
            ["pipeline", *circuit, "--script", script, "--no-ledger"],
            ["trace", script, *circuit],
            ["explain", script, *circuit],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert str(excinfo.value.code).startswith("pipeline error: ")
            assert message in str(excinfo.value.code)
