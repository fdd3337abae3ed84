"""The repro-campaign CLI: run/report/compare and the other subcommands."""

import json

import pytest

from repro import scenarios
from repro.cli import main
from repro.core.store import CampaignStore

SMOKE = ["--months", "0.1", "--seeds", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_presets(capsys):
    code, out, _ = run_cli(capsys, "--list")
    assert code == 0
    for spec in scenarios.all_presets():
        assert spec.name in out


def test_legacy_list_with_positional(capsys):
    # --list is handled before parsing, so it wins over any other argument
    code, out, _ = run_cli(capsys, "tiny-smoke", "--list")
    assert code == 0
    assert "tiny-smoke" in out and "paper-baseline" in out


def test_run_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-preset", "--quiet")
    assert code == 2
    assert "no-such-preset" in err


def test_run_json_output(capsys):
    code, out, _ = run_cli(capsys, "run", "tiny-smoke", *SMOKE, "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert docs[0]["scenario"] == "tiny-smoke"
    assert docs[0]["error"] is None
    assert docs[0]["report"]["months"] == 0.1
    assert docs[0]["spec_hash"]


def test_run_with_store_then_resume(tmp_path, capsys):
    store = str(tmp_path / "s.jsonl")
    code, _, err = run_cli(capsys, "run", "tiny-smoke", *SMOKE,
                           "--store", store)
    assert code == 0
    assert "[1/1] tiny-smoke @ seed 0: ok" in err
    assert len(CampaignStore(store)) == 1

    code, _, err = run_cli(capsys, "run", "tiny-smoke", *SMOKE,
                           "--store", store, "--resume")
    assert code == 0
    assert "cached" in err


def test_resume_requires_store(capsys):
    code, _, err = run_cli(capsys, "run", "tiny-smoke", "--resume")
    assert code == 2
    assert "--store" in err


@pytest.mark.parametrize("flag", [["--cell-timeout", "0"],
                                  ["--cell-attempts", "0"],
                                  ["--workers", "0"]])
def test_run_rejects_out_of_range_supervision_knobs(tmp_path, capsys, flag):
    # a zero deadline would quarantine a healthy cell for good
    store = tmp_path / "s.jsonl"
    code, _, err = run_cli(capsys, "run", "tiny-smoke", "--months", "0.03",
                           "--store", str(store), *flag)
    assert code == 2
    assert err.startswith("error: ")
    assert not store.exists()


def test_report_subcommand(tmp_path, capsys):
    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, "run", "tiny-smoke", "--months", "0.1",
            "--seeds", "0,1", "--store", store, "--quiet")
    code, out, _ = run_cli(capsys, "report", store)
    assert code == 0
    assert "2 cells (2 ok, 0 failed)" in out
    assert "tiny-smoke" in out and "n=2" in out


def test_report_json_equals_the_service_store_answer(tmp_path, capsys):
    """``report --json`` and ``RPRT store`` print one document per cell."""
    from repro.service import CampaignService

    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, "run", "tiny-smoke", "--months", "0.1",
            "--seeds", "0,1", "--store", store, "--quiet")
    CampaignStore(store).record_failure(scenarios.get("tiny-smoke"), 5,
                                        "Traceback: boom", months=0.1)
    code, out, _ = run_cli(capsys, "report", store, "--json")
    assert code == 0
    docs = CampaignService(store).stored_runs()
    assert [d["error"] for d in docs] == [None, None, "Traceback: boom"]
    assert out == json.dumps(docs, sort_keys=True, indent=2) + "\n"


def test_report_empty_store(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 1
    assert "empty" in err


def test_report_missing_store(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "cannot load" in err


def test_run_with_incompatible_store_fails_cleanly(tmp_path, capsys):
    store = tmp_path / "future.jsonl"
    store.write_text(json.dumps({"v": 999, "key": "x"}) + "\n"
                     + json.dumps({"v": 999, "key": "y"}) + "\n")
    code, _, err = run_cli(capsys, "run", "tiny-smoke", *SMOKE,
                           "--store", str(store))
    assert code == 2
    assert "cannot load" in err


def test_report_mixed_horizons_disambiguates(tmp_path, capsys):
    # the same preset archived at two horizons is two different worlds;
    # report must summarize both (as distinct variants), not refuse or merge
    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, "run", "tiny-smoke", "--months", "0.1", "--seeds", "0",
            "--store", store, "--quiet")
    run_cli(capsys, "run", "tiny-smoke", "--months", "0.12", "--seeds", "0",
            "--store", store, "--quiet")
    code, out, _ = run_cli(capsys, "report", store)
    assert code == 0
    assert "tiny-smoke@0.1mo" in out
    assert "tiny-smoke@0.12mo" in out
    # the machine-readable form keeps the stable archived names
    code, out, _ = run_cli(capsys, "report", store, "--json")
    assert code == 0
    assert {d["scenario"] for d in json.loads(out)} == {"tiny-smoke"}


def test_report_tolerates_damaged_records(tmp_path, capsys):
    # valid-JSON-but-not-ours lines lose only themselves
    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, "run", "tiny-smoke", *SMOKE, "--store", store, "--quiet")
    with open(store, "a", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
        fh.write(json.dumps({"v": 1}) + "\n")  # right version, no fields
    code, out, _ = run_cli(capsys, "report", store)
    assert code == 0
    assert "1 cells (1 ok, 0 failed)" in out


def test_compare_subcommand(tmp_path, capsys):
    # compare works off the archived store alone; fill it via the API so
    # the test stays on small, fast scenarios instead of full presets
    from repro import run_campaigns
    from repro.oar import WorkloadConfig

    base = scenarios.ScenarioSpec(
        name="cli-base", months=0.1, clusters=("grisou",),
        families=("refapi",), backlog_faults=2,
        workload=WorkloadConfig(target_utilization=0.25))
    stormy = base.derive(name="cli-stormy", backlog_faults=30)
    store = str(tmp_path / "s.jsonl")
    run_campaigns([base, stormy], seeds=[0, 1], workers=1, store=store)

    code, out, _ = run_cli(capsys, "compare", store,
                           "--baseline", "cli-base")
    assert code == 0
    assert "baseline: cli-base" in out
    assert "cli-stormy" in out


def test_compare_unknown_baseline(tmp_path, capsys):
    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, "run", "tiny-smoke", *SMOKE, "--store", store, "--quiet")
    code, _, err = run_cli(capsys, "compare", store, "--baseline", "nope")
    assert code == 2
    assert "nope" in err


def test_trace_record_inspect_convert_roundtrip(tmp_path, capsys):
    trace_path = str(tmp_path / "rec.jsonl")
    code, _, err = run_cli(capsys, "trace", "record", "tiny-smoke",
                           "--out", trace_path, "--seed", "1",
                           "--months", "0.05")
    assert code == 0
    assert "recorded" in err

    code, out, _ = run_cli(capsys, "trace", "inspect", trace_path)
    assert code == 0
    assert "jobs" in out

    code, out, _ = run_cli(capsys, "trace", "inspect", trace_path, "--json")
    assert code == 0
    stats = json.loads(out)
    assert stats["jobs"] > 0

    swf_path = str(tmp_path / "rec.swf")
    code, _, err = run_cli(capsys, "trace", "convert", trace_path, swf_path)
    assert code == 0
    code, out, _ = run_cli(capsys, "trace", "inspect", swf_path, "--json")
    assert code == 0
    assert json.loads(out)["jobs"] == stats["jobs"]


def test_trace_inspect_builtin_name(capsys):
    code, out, _ = run_cli(capsys, "trace", "inspect", "tiny-g5k")
    assert code == 0
    assert "308 jobs" in out


def test_trace_inspect_missing_file(capsys):
    code, _, err = run_cli(capsys, "trace", "inspect", "missing.jsonl")
    assert code == 2
    assert "cannot load trace" in err


def test_trace_record_unknown_preset(tmp_path, capsys):
    code, _, err = run_cli(capsys, "trace", "record", "nope",
                           "--out", str(tmp_path / "t.jsonl"))
    assert code == 2
    assert "nope" in err


def test_run_with_trace_override(tmp_path, capsys):
    trace_path = str(tmp_path / "rec.jsonl")
    run_cli(capsys, "trace", "record", "tiny-smoke", "--out", trace_path,
            "--months", "0.05")
    code, out, _ = run_cli(capsys, "run", "tiny-smoke", "--trace", trace_path,
                           "--months", "0.05", "--seeds", "0", "--quiet")
    assert code == 0
    assert "tiny-smoke@trace" in out


def test_trace_inspect_incomplete_record_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"nodes": 1, "walltime_s": 5}\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "trace", "inspect", str(bad))
    assert code == 2
    assert "cannot load trace" in err and "submit_s" in err


def test_run_trace_bad_scale_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "run", "tiny-smoke", "--trace", "tiny-g5k",
                           "--time-scale", "0", *SMOKE)
    assert code == 2
    assert "time_scale must be positive" in err


def test_run_scale_flags_require_trace(capsys):
    code, _, err = run_cli(capsys, "run", "tiny-smoke",
                           "--load-scale", "2", *SMOKE)
    assert code == 2
    assert "--trace" in err


def test_run_trace_preset_end_to_end(capsys):
    code, out, _ = run_cli(capsys, "run", "trace-replay",
                           "--months", "0.1", "--seeds", "0", "--quiet")
    assert code == 0
    assert "trace-replay" in out


def test_run_with_strategy_override(capsys):
    code, out, _ = run_cli(capsys, "run", "tiny-smoke", "--months", "0.05",
                           "--seeds", "0", "--strategy", "easy-backfill",
                           "--json", "--quiet")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["report"]["strategy"] == "easy-backfill"


def test_run_with_unknown_strategy(capsys):
    code, _, err = run_cli(capsys, "run", "tiny-smoke", "--strategy",
                           "no-such-policy", "--quiet")
    assert code == 2
    assert "no-such-policy" in err
    assert "easy-backfill" in err  # the error lists the known names


def test_run_help_lists_strategies(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "easy-backfill" in out and "steal-agreement" in out


def test_scoreboard_subcommand(capsys):
    code, out, err = run_cli(
        capsys, "scoreboard", "elastic-burst", "--months", "0.05",
        "--seeds", "0", "--strategies", "easy-backfill,common-pool",
        "--quiet")
    assert code == 0
    lines = out.splitlines()
    assert "turnaround_mean_s" in lines[0]
    assert "►" in lines[1]
    # Both contenders present, keyed scenario+strategy.
    assert any("elastic-burst+easy-backfill" in l for l in lines)
    assert any("elastic-burst+common-pool" in l for l in lines)


def test_scoreboard_json_and_store_resume(tmp_path, capsys):
    store = str(tmp_path / "sb.jsonl")
    code, out, _ = run_cli(
        capsys, "scoreboard", "elastic-burst", "--months", "0.05",
        "--seeds", "0", "--strategies", "easy-backfill,common-pool",
        "--store", store, "--json")
    assert code == 0
    docs = json.loads(out)
    assert [d["rank"] for d in docs] == [1, 2]
    assert all(d["metric"] == "turnaround_mean_s" for d in docs)
    assert docs[0]["mean"] <= docs[1]["mean"]
    # Resume pays nothing: every cell comes back cached.
    code, _, err = run_cli(
        capsys, "scoreboard", "elastic-burst", "--months", "0.05",
        "--seeds", "0", "--strategies", "easy-backfill,common-pool",
        "--store", store, "--resume")
    assert code == 0
    assert err.count("cached") == 2


def test_scoreboard_unknown_strategy(capsys):
    code, _, err = run_cli(capsys, "scoreboard", "--strategies",
                           "easy-backfill,bogus")
    assert code == 2
    assert "bogus" in err


def test_scoreboard_empty_strategies(capsys):
    code, _, err = run_cli(capsys, "scoreboard", "--strategies", ",")
    assert code == 2
    assert "empty" in err
