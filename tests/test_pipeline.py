"""Tests of the pass-pipeline layer: script parsing, the registry, execution
timing, flow re-implementation, and pipeline jobs in the orchestrator."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.flows import baseline_pipeline, emorphic_pipeline
from repro.flows.baseline import BaselineConfig
from repro.flows.emorphic import EmorphicConfig
from repro.orchestrate import make_pipeline_job, run_campaign, run_job, run_pipeline_sweep
from repro.pipeline import (
    Pipeline,
    PipelineError,
    Step,
    available_passes,
    parse_script,
    pass_table,
    resolve_pass,
)
from repro.verify.cec import check_equivalence

#: The acceptance-criteria script, scaled down for test runtime.
FAST_EMORPHIC_SCRIPT = (
    "st; sopb; dag2eg; saturate(iters=2, max_nodes=4000); "
    "extract(sa, threads=1, iters=1, moves=1); map"
)


class TestScriptParsing:
    def test_basic_statements_and_aliases(self):
        steps = parse_script("st; b; rw; rf; sopb")
        assert [name for name, _ in steps] == ["strash", "balance", "rewrite", "refactor", "sop_balance"]

    def test_positional_and_keyword_arguments(self):
        steps = parse_script("extract(sa, threads=2); saturate(iters=4, time_limit=2.5)")
        assert steps[0] == ("extract", {"method": "sa", "threads": 2})
        assert steps[1] == ("saturate", {"iters": 4, "time_limit": 2.5})

    def test_value_coercion(self):
        (name, params), = parse_script("rewrite(zero_gain=true, k=4)")
        assert params["zero_gain"] is True and params["k"] == 4

    def test_comments_whitespace_and_trailing_semicolons(self):
        steps = parse_script("st;\n# a comment\n  sopb() ;\n")
        assert [name for name, _ in steps] == ["strash", "sop_balance"]

    def test_unknown_pass_lists_available_names(self):
        with pytest.raises(PipelineError) as excinfo:
            parse_script("st; frobnicate")
        assert "unknown pass 'frobnicate'" in str(excinfo.value)
        assert "strash" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PipelineError, match="no parameter 'bogus'"):
            parse_script("saturate(bogus=1)")

    def test_excess_positional_rejected(self):
        with pytest.raises(PipelineError, match="positional"):
            parse_script("extract(sa, greedy)")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(PipelineError, match="twice"):
            parse_script("saturate(iters=1, iters=2)")

    def test_malformed_syntax_rejected(self):
        for bad in ("st(", "st)", "st; !", "saturate(iters=)", ""):
            with pytest.raises(PipelineError):
                parse_script(bad)


class TestPipelineSerialization:
    def test_script_round_trip_is_canonical(self):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        canonical = pipeline.to_script()
        assert Pipeline.from_script(canonical) == pipeline
        # Canonicalization is a fixed point.
        assert Pipeline.from_script(canonical).to_script() == canonical

    def test_spec_round_trip_through_json(self):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        spec = json.loads(json.dumps(pipeline.to_spec()))
        assert Pipeline.from_spec(spec) == pipeline
        # A bare script string is also an accepted spec.
        assert Pipeline.from_spec({"script": FAST_EMORPHIC_SCRIPT}) == pipeline

    def test_spelling_variants_normalize_identically(self):
        a = Pipeline.from_script("st; sopb(k=6); extract(sa)" .replace("extract(sa)", "dag2eg"))
        b = Pipeline.from_script("strash ; sop_balance( k = 6 ) ; dag2eg")
        assert a == b and a.to_spec() == b.to_spec()

    def test_programmatic_steps_match_parsed_steps(self):
        built = Pipeline([Step.make("strash"), Step.make("saturate", {"iters": 2})])
        parsed = Pipeline.from_script("st; saturate(iters=2)")
        assert built.to_script() == parsed.to_script()

    def test_default_equal_params_are_dropped(self):
        assert Pipeline.from_script("saturate(iters=5)") == Pipeline.from_script("saturate")
        assert Pipeline.from_script("dag2eg; extract(sa)") == Pipeline.from_script("dag2eg; extract")

    def test_numeric_types_normalize_to_the_default_type(self):
        a = Pipeline.from_script("dag2eg; extract(temperature=2000)")
        b = Pipeline.from_script("dag2eg; extract(temperature=2000.0)")
        assert a == b and a.to_spec() == b.to_spec()
        assert Pipeline.from_script("saturate(iters=2.0)") == Pipeline.from_script("saturate(iters=2)")

    def test_none_values_round_trip(self):
        pipeline = Pipeline.from_script("cec(conflict_budget=none)")
        assert Pipeline.from_script(pipeline.to_script()) == pipeline
        assert pipeline.steps[0].param_dict == {"conflict_budget": None}

    def test_pass_signatures_are_valid_script_syntax(self):
        for spec in pass_table():
            prefix = "dag2eg; " if spec.requires_egraph else ""
            parsed = Pipeline.from_script(prefix + spec.signature())
            assert parsed.steps[-1].pass_name == spec.name
            # Defaults written out explicitly normalize away entirely.
            assert parsed.steps[-1].params == ()

    def test_phase_tags_survive_spec_round_trip(self):
        pipeline = baseline_pipeline(BaselineConfig(use_choices=False))
        clone = Pipeline.from_spec(json.loads(json.dumps(pipeline.to_spec())))
        assert [step.phase for step in clone.steps] == [step.phase for step in pipeline.steps]

    def test_invalid_step_params_rejected_at_build_time(self):
        with pytest.raises(PipelineError):
            Step.make("strash", {"bogus": 1})
        with pytest.raises(PipelineError):
            Pipeline([])


class TestRegistry:
    def test_every_pass_is_resolvable_and_documented(self):
        for spec in pass_table():
            assert resolve_pass(spec.name) is spec
            assert spec.summary
            for alias in spec.aliases:
                assert resolve_pass(alias) is spec

    def test_registry_covers_the_flow_vocabulary(self):
        names = set(available_passes())
        assert {
            "strash", "balance", "rewrite", "refactor", "sop_balance",
            "dag2eg", "saturate", "extract", "map", "premap", "cec",
        } <= names

    @pytest.mark.parametrize("name", [spec.name for spec in pass_table()])
    def test_every_pass_runs_on_a_small_aig(self, name, small_adder):
        """Registry completeness: each pass executes (with prerequisites) and
        transforms preserve equivalence."""
        spec = resolve_pass(name)
        prefix = ""
        if spec.requires_egraph:
            prefix = "dag2eg; saturate(iters=1, max_nodes=2000); "
        elif name == "map":
            # Exercise the candidate-mapping path, not just direct mapping.
            prefix = "dag2eg; saturate(iters=1, max_nodes=2000); extract(greedy); "
        elif name == "stitch":
            # stitch consumes the plan a preceding partition pass parks.
            prefix = "partition(k=30); saturate(iters=1, max_nodes=2000); extract(greedy); "
        script = f"{prefix}{name}"
        ctx = Pipeline.from_script(script).run(small_adder)
        assert ctx.aig.num_pos == small_adder.num_pos
        if spec.kind in ("transform", "extract", "map"):
            assert check_equivalence(small_adder, ctx.aig).equivalent

    def test_egraph_passes_fail_cleanly_without_dag2eg(self, small_adder):
        with pytest.raises(PipelineError, match="dag2eg"):
            Pipeline.from_script("saturate").run(small_adder)

    def test_transforms_invalidate_the_egraph(self, small_adder):
        with pytest.raises(PipelineError, match="dag2eg"):
            Pipeline.from_script("dag2eg; b; saturate").run(small_adder)


class TestPipelineExecution:
    @pytest.fixture(scope="class")
    def run_result(self, small_adder):
        return Pipeline.from_script(FAST_EMORPHIC_SCRIPT).run_flow(small_adder)

    def test_end_to_end_produces_mapping_and_equivalence(self, run_result, small_adder):
        assert run_result.mapping is not None
        assert run_result.mapping.delay > 0 and run_result.mapping.area > 0
        assert check_equivalence(small_adder, run_result.aig).equivalent

    def test_cec_pass_records_solver_counters(self, small_adder):
        result = Pipeline.from_script("st; sopb; cec").run_flow(small_adder)
        metrics = result.metrics
        assert metrics["equivalence"] == "equivalent"
        assert metrics["cec_conflicts"] == result.equivalence.conflicts
        assert metrics["cec_sat_calls"] == result.equivalence.sat_calls
        assert metrics["cec_merged_pairs"] == result.equivalence.merged_pairs
        assert metrics["cec_sat_calls"] >= 2 * metrics["cec_merged_pairs"] > 0

    def test_per_pass_timings_cover_every_step_and_sum_to_total(self, run_result):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        assert [name for name, _ in run_result.pass_runtimes] == [
            step.pass_name for step in pipeline.steps
        ]
        total_pass_time = sum(seconds for _, seconds in run_result.pass_runtimes)
        assert sum(run_result.phase_runtimes.values()) == pytest.approx(total_pass_time)
        # Pass time accounts for (almost) all of the wall-clock runtime.
        assert total_pass_time <= run_result.runtime
        assert total_pass_time >= 0.5 * run_result.runtime

    def test_result_to_dict_is_json_ready(self, run_result):
        data = json.loads(json.dumps(run_result.to_dict()))
        assert data["flow"] == "pipeline"
        assert data["delay"] > 0 and data["area"] > 0
        assert data["metrics"]["num_candidates"] >= 1

    def test_hooks_fire_in_step_order(self, small_adder):
        events = []
        Pipeline.from_script("st; b; rw").run(
            small_adder,
            on_pass_start=lambda name, ctx: events.append(("start", name)),
            on_pass_end=lambda name, ctx, seconds: events.append(("end", name)),
        )
        assert events == [
            ("start", "strash"), ("end", "strash"),
            ("start", "balance"), ("end", "balance"),
            ("start", "rewrite"), ("end", "rewrite"),
        ]

    def test_unmapped_pipeline_has_no_qor_keys(self, small_adder):
        result = Pipeline.from_script("st; b").run_flow(small_adder)
        data = result.to_dict()
        assert "delay" not in data and "area" not in data
        assert data["levels"] > 0

    @pytest.mark.parametrize("use_ml", [False, True])
    def test_extract_use_ml_trains_a_default_model(self, small_mem_ctrl, use_ml):
        """extract(use_ml=true) must actually use a learned evaluator even
        when no model instance was handed to the run."""
        flag = "true" if use_ml else "false"
        script = (
            "st; dag2eg; saturate(iters=1, max_nodes=2000); "
            f"extract(sa, threads=1, iters=1, moves=1, use_ml={flag}); map"
        )
        result = Pipeline.from_script(script).run_flow(small_mem_ctrl)
        assert result.metrics["extraction_evaluator"] == ("ml" if use_ml else "mapping")
        assert result.mapping is not None


class TestFlowsAsPipelines:
    def test_baseline_pipeline_matches_recipe(self):
        pipeline = baseline_pipeline(BaselineConfig(sop_rounds=1, map_rounds=1, use_choices=False))
        names = [step.pass_name for step in pipeline.steps]
        assert names == ["strash", "strash", "sop_balance", "strash", "map"]
        assert {step.phase for step in pipeline.steps} == {"sop_balance", "dch_map"}

    def test_emorphic_pipeline_phase_tags_feed_fig9_buckets(self):
        config = EmorphicConfig.fast()
        pipeline = emorphic_pipeline(config)
        phases = [step.phase for step in pipeline.steps]
        assert phases[0] == "tech_independent"
        for expected in ("conversion", "rewriting", "extraction", "final_map"):
            assert expected in phases
        assert "verification" not in phases  # fast() skips CEC
        assert "verification" in [step.phase for step in emorphic_pipeline(EmorphicConfig()).steps]

    def test_flow_results_carry_pass_runtimes(self, small_mem_ctrl):
        from repro.flows import run_baseline_flow

        result = run_baseline_flow(small_mem_ctrl, BaselineConfig(use_choices=False))
        assert result.pass_runtimes
        assert sum(result.phase_runtimes.values()) == pytest.approx(
            sum(seconds for _, seconds in result.pass_runtimes)
        )
        assert sum(result.phase_runtimes.values()) <= result.runtime


class TestPipelineJobs:
    def test_spec_participates_in_job_hash(self):
        job_a = make_pipeline_job("adder", FAST_EMORPHIC_SCRIPT, preset="test")
        job_b = make_pipeline_job(
            "adder",
            "st ; sopb() ;dag2eg; saturate( iters = 2, max_nodes=4000 ); "
            "extract(method=sa, threads=1, iters=1, moves=1, temperature=2000); map",
            preset="test",
        )
        assert job_a.job_hash() == job_b.job_hash()
        different = make_pipeline_job("adder", "st; b; dag2eg; saturate(iters=2); map", preset="test")
        assert job_a.job_hash() != different.job_hash()

    def test_job_round_trips_and_runs(self):
        job = make_pipeline_job("adder", "st; sopb; premap", preset="test")
        from repro.orchestrate import JobSpec

        clone = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.job_hash() == job.job_hash()
        record = run_job(job)
        assert record["result"]["flow"] == "pipeline"
        assert record["result"]["levels"] > 0

    def test_campaign_cache_hit_on_second_submission(self, tmp_path):
        jobs = [make_pipeline_job("adder", FAST_EMORPHIC_SCRIPT, preset="test")]
        first = run_campaign(jobs, store=tmp_path / "store", max_workers=1)
        assert first.counts["completed"] == 1
        second = run_campaign(jobs, store=tmp_path / "store", max_workers=1)
        assert second.counts["cached"] == 1

    def test_pipeline_shape_sweep_frontier(self, tmp_path):
        report = run_pipeline_sweep(
            ["adder"],
            ["st; sopb; dag2eg; saturate(iters=1, max_nodes=2000); extract(greedy); map",
             "st; resyn2; premap"],
            preset="test",
            store=tmp_path / "store",
            max_workers=1,
        )
        assert report.campaign.counts["completed"] == 2
        frontier = report.frontier()
        assert "adder" in frontier
        assert "script" in frontier["adder"]["point"]


class TestPipelineCli:
    def test_pipeline_command_end_to_end(self, capsys):
        code = main(
            ["pipeline", "adder", "--preset", "test", "--script",
             "st; sopb; dag2eg; saturate(iters=2); extract(sa, threads=1, iters=1, moves=1); map; cec"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "area=" in out and "per-pass runtime:" in out
        assert "equivalence check: equivalent" in out

    def test_pipeline_command_rejects_bad_script(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "adder", "--preset", "test", "--script", "st; frobnicate"])
        assert "unknown pass" in str(excinfo.value)

    def test_batch_rejects_flows_combined_with_script(self):
        with pytest.raises(SystemExit, match="drop --flows"):
            main(["batch", "--preset", "test", "--circuits", "adder",
                  "--flows", "baseline", "--script", "st; premap"])

    def test_scripts_command_lists_passes_and_named_scripts(self, capsys):
        assert main(["scripts"]) == 0
        out = capsys.readouterr().out
        assert "saturate" in out and "extract" in out
        assert "resyn2" in out

    def test_run_command_exposes_remaining_config_knobs(self, capsys):
        code = main(
            ["run", "adder", "--preset", "test", "--rewrite-iterations", "1",
             "--max-egraph-nodes", "2000", "--sa-iterations", "1", "--threads", "1",
             "--no-verify", "--no-choices"]
        )
        assert code == 0
        assert "area=" in capsys.readouterr().out


class TestNamedScriptErrors:
    def test_run_script_raises_clean_unknown_script_error(self, small_adder):
        from repro.opt.scripts import UnknownScriptError, run_script

        with pytest.raises(UnknownScriptError) as excinfo:
            run_script(small_adder, "nope")
        message = str(excinfo.value)
        assert "unknown script 'nope'" in message and "resyn2" in message
        # Still a KeyError for callers that catch the old type.
        assert isinstance(excinfo.value, KeyError)
