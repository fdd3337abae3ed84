"""detlint: fixture-driven rule tests, suppression/baseline round-trips,
the src/repro self-check, and the CI-gate contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (
    RULES,
    analyze_file,
    analyze_paths,
    analyze_source,
    apply_baseline,
    baseline_from_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.static.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "detlint_fixtures"
_EXPECT = re.compile(r"#\s*EXPECT\((?P<rule>[A-Z0-9]+)\)")

FIXTURE_FILES = {
    "DET001": FIXTURES / "scheduling" / "det001_cases.py",
    "DET002": FIXTURES / "plain" / "det002_cases.py",
    "DET003": FIXTURES / "plain" / "det003_cases.py",
    "KRN101": FIXTURES / "plain" / "krn101_cases.py",
    "SER201": FIXTURES / "plain" / "ser201_cases.py",
    "ERR301": FIXTURES / "service" / "err301_cases.py",
    "ERR302": FIXTURES / "service" / "err302_cases.py",
    "PRF401": FIXTURES / "scheduling" / "prf401_cases.py",
}


def expected_lines(path: Path, rule: str) -> set:
    """Line numbers carrying an ``EXPECT(rule)`` marker."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT.search(line)
        if m and m.group("rule") == rule:
            out.add(lineno)
    return out


# -- rule catalogue ----------------------------------------------------------

def test_catalogue_is_complete():
    assert set(FIXTURE_FILES) == set(RULES), \
        "every registered rule needs a fixture file (and vice versa)"


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_FILES))
def test_rule_fixture(rule_id):
    """Positive lines are flagged, negative lines are not — exactly."""
    path = FIXTURE_FILES[rule_id]
    expected = expected_lines(path, rule_id)
    assert expected, f"fixture for {rule_id} has no EXPECT markers"
    findings, _ = analyze_file(str(path), rules=[RULES[rule_id]])
    assert {f.line for f in findings} == expected
    assert all(f.rule == rule_id for f in findings)


def test_scope_limits_rules():
    """ERR301 only runs under service/ and util/events.py paths."""
    source = FIXTURE_FILES["ERR301"].read_text()
    in_scope, _ = analyze_source(source, "service/err301_cases.py",
                                 rules=[RULES["ERR301"]])
    out_of_scope, _ = analyze_source(source, "plain/err301_cases.py",
                                     rules=[RULES["ERR301"]])
    assert in_scope and not out_of_scope
    kernel, _ = analyze_source(source, "util/events.py",
                               rules=[RULES["ERR301"]])
    assert {f.line for f in kernel} == {f.line for f in in_scope}


def test_det002_benchmarks_exempt():
    source = "import time\nt = time.time()\n"
    flagged, _ = analyze_source(source, "src/repro/foo.py")
    exempt, _ = analyze_source(source, "benchmarks/bench_x.py")
    assert [f.rule for f in flagged] == ["DET002"]
    assert not exempt


def test_det003_rng_module_exempt():
    source = "import numpy as np\ng = np.random.default_rng()\n"
    flagged, _ = analyze_source(source, "src/repro/faults/injector.py")
    exempt, _ = analyze_source(source, "src/repro/util/rng.py")
    assert [f.rule for f in flagged] == ["DET003"]
    assert not exempt


def test_syntax_error_is_a_finding():
    findings, _ = analyze_source("def broken(:\n", "bad.py")
    assert [f.rule for f in findings] == ["SYNTAX"]


# -- suppression comments ----------------------------------------------------

def test_line_suppression_by_rule():
    source = ("import time\n"
              "t = time.time()  # detlint: disable=DET002 — host-side\n")
    findings, suppressed = analyze_source(source, "x.py")
    assert not findings and suppressed == 1


def test_line_suppression_wrong_rule_does_not_hide():
    source = "import time\nt = time.time()  # detlint: disable=DET003\n"
    findings, suppressed = analyze_source(source, "x.py")
    assert [f.rule for f in findings] == ["DET002"] and suppressed == 0


def test_line_suppression_all_rules():
    source = "import time\nt = time.time()  # detlint: disable\n"
    findings, suppressed = analyze_source(source, "x.py")
    assert not findings and suppressed == 1


def test_skip_file():
    source = "# detlint: skip-file\nimport time\nt = time.time()\n"
    findings, suppressed = analyze_source(source, "x.py")
    assert not findings and suppressed == 0


# -- baseline round-trip -----------------------------------------------------

def _violations(tmp_path, body):
    p = tmp_path / "mod.py"
    p.write_text(body)
    return p


def test_baseline_roundtrip(tmp_path):
    mod = _violations(tmp_path, "import time\nt = time.time()\n"
                                "u = time.monotonic()\n")
    findings, _ = analyze_paths([str(mod)])
    assert len(findings) == 2
    doc = baseline_from_findings(findings)
    baseline_file = tmp_path / "baseline.json"
    save_baseline(str(baseline_file), doc)
    loaded = load_baseline(str(baseline_file))
    new, baselined, stale = apply_baseline(findings, loaded)
    assert not new and len(baselined) == 2 and not stale


def test_baseline_budget_counts_duplicates(tmp_path):
    mod = _violations(tmp_path, "import time\nt = time.time()\n")
    findings, _ = analyze_paths([str(mod)])
    doc = baseline_from_findings(findings)
    # The same line duplicated exceeds the count budget: one new finding.
    mod.write_text("import time\nt = time.time()\nt = time.time()\n")
    findings2, _ = analyze_paths([str(mod)])
    new, baselined, stale = apply_baseline(findings2, doc)
    assert len(baselined) == 1 and len(new) == 1 and not stale


def test_baseline_goes_stale_when_fixed(tmp_path):
    mod = _violations(tmp_path, "import time\nt = time.time()\n")
    findings, _ = analyze_paths([str(mod)])
    doc = baseline_from_findings(findings)
    mod.write_text("t = 0.0\n")
    findings2, _ = analyze_paths([str(mod)])
    new, baselined, stale = apply_baseline(findings2, doc)
    assert not new and not baselined and len(stale) == 1


def test_baseline_survives_line_shifts(tmp_path):
    """The fingerprint anchors on line *content*, not line number."""
    mod = _violations(tmp_path, "import time\nt = time.time()\n")
    findings, _ = analyze_paths([str(mod)])
    doc = baseline_from_findings(findings)
    mod.write_text("import time\n\n\n# padding\nt = time.time()\n")
    findings2, _ = analyze_paths([str(mod)])
    new, baselined, stale = apply_baseline(findings2, doc)
    assert not new and len(baselined) == 1 and not stale


# -- CLI ---------------------------------------------------------------------

def test_cli_update_baseline_then_clean(tmp_path, capsys):
    mod = _violations(tmp_path, "import time\nt = time.time()\n")
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(mod), "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    assert lint_main([str(mod), "--baseline", str(baseline)]) == 0
    # A fresh violation on top of the baseline fails the gate.
    mod.write_text("import time\nt = time.time()\nu = time.monotonic()\n")
    assert lint_main([str(mod), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "time.monotonic" in out and "1 new finding" in out


def test_cli_json_report(tmp_path, capsys):
    mod = _violations(tmp_path, "import time\nt = time.time()\n")
    assert lint_main([str(mod), "--no-baseline", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"new": 1, "baselined": 0, "suppressed": 0,
                                 "stale_baseline_entries": 0}
    (finding,) = report["findings"]
    assert finding["rule"] == "DET002" and not finding["baselined"]
    assert finding["fingerprint"]


def test_cli_select_and_unknown_rule(tmp_path, capsys):
    mod = _violations(tmp_path, "import time, random\n"
                                "t = time.time()\nr = random.random()\n")
    assert lint_main([str(mod), "--no-baseline", "--select", "DET003"]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out and "DET002" not in out
    assert lint_main([str(mod), "--select", "NOPE999"]) == 2


def test_cli_missing_path(capsys):
    assert lint_main(["definitely/not/here.py"]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


# -- the gates the CI lint job relies on ------------------------------------

def test_self_check_src_repro_is_clean():
    """src/repro has zero unbaselined findings — the CI gate cannot rot."""
    findings, _ = analyze_paths([str(REPO_ROOT / "src" / "repro")])
    baseline = load_baseline(str(REPO_ROOT / "detlint-baseline.json"))
    new, _, stale = apply_baseline(findings, baseline)
    assert not new, "\n".join(f.format() for f in new)
    assert not stale, "baseline has stale entries: run --update-baseline"


def test_committed_baseline_is_empty():
    """The baseline starts empty; growing it needs a justified diff."""
    baseline = load_baseline(str(REPO_ROOT / "detlint-baseline.json"))
    assert baseline["findings"] == []


def test_ci_gate_fails_on_deliberate_det002(tmp_path):
    """The exact CI invocation exits 1 on a planted wall-clock call."""
    bad = tmp_path / "planted.py"
    bad.write_text("import time\n\ndef tick():\n    return time.time()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.static", str(bad),
         "--no-baseline", "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert [f["rule"] for f in report["findings"]] == ["DET002"]


def test_ci_gate_passes_on_clean_tree(tmp_path):
    good = tmp_path / "clean.py"
    good.write_text("def tick(sim):\n    return sim.now\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.static", str(good),
         "--no-baseline"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
