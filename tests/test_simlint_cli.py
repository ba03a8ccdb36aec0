"""End-to-end tests for ``python -m repro lint``.

Covers the CLI surface (exit codes, --json schema, --select/--ignore,
--list-rules), the baseline workflow (write, ratchet, line-shift
tolerance, --no-baseline) in a throwaway project, and the self-scan
regression: the shipped ``src/`` tree must lint clean against the
committed (empty) baseline.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import run_lint
from repro.analysis import config as lint_config
from repro.analysis.config import LintConfig, load_config
from repro.analysis.registry import all_rules, get_rule

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

BAD_MODULE = (
    "import random\n"
    "\n"
    "\n"
    "def draw():\n"
    "    return random.random()\n"
)


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A minimal throwaway project with one SIM001 violation."""
    (tmp_path / "pyproject.toml").write_text(
        '[tool.simlint]\nbaseline = ".simlint-baseline.json"\n')
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(BAD_MODULE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Registry and --list-rules
# ---------------------------------------------------------------------------

def test_registry_ships_all_twelve_rules():
    ids = [rule.id for rule in all_rules()]
    assert ids == [f"SIM{i:03d}" for i in range(1, 13)]
    assert get_rule("SIM006").name == "cache-key-completeness"
    assert get_rule("SIM010").name == "float-sum"
    assert get_rule("SIM011").name == "iteration-order"
    assert get_rule("SIM012").name == "worker-purity"


def test_list_rules_prints_catalog(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 13):
        assert f"SIM{i:03d}" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--bogus-flag"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Exit codes and rule selection
# ---------------------------------------------------------------------------

def test_violation_exits_1_and_is_reported(project, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
    assert "src/mod.py:5" in out
    assert "1 new" in out


def test_clean_tree_exits_0(project, capsys):
    (project / "src" / "mod.py").write_text(
        "import random\n\nRNG = random.Random(7)\n")
    assert main(["lint", "src"]) == 0
    assert "— ok" in capsys.readouterr().out


def test_select_and_ignore_scope_the_run(project, capsys):
    assert main(["lint", "--select", "SIM003", "src"]) == 0
    assert main(["lint", "--ignore", "SIM001", "src"]) == 0
    assert main(["lint", "--select", "SIM001", "src"]) == 1
    capsys.readouterr()


def test_parse_error_exits_1(project, capsys):
    (project / "src" / "broken.py").write_text("def f(:\n")
    assert main(["lint", "src"]) == 1
    assert "parse error" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# JSON reporter schema
# ---------------------------------------------------------------------------

def test_json_report_schema(project, capsys):
    assert main(["lint", "--json", "src"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == 2
    assert data["tool"] == "simlint"
    summary = data["summary"]
    assert set(summary) == {"files_scanned", "total", "new", "baselined",
                            "suppressed", "fixable", "parse_errors",
                            "rules_run", "ok"}
    assert summary["files_scanned"] == 1
    assert summary["new"] == 1
    assert summary["fixable"] == 0  # SIM001 has no autofix
    assert summary["ok"] is False
    assert summary["rules_run"] == [f"SIM{i:03d}" for i in range(1, 13)]
    (finding,) = data["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col",
                            "message", "snippet", "key", "baselined",
                            "fixable"}
    assert finding["rule"] == "SIM001"
    assert finding["path"] == "src/mod.py"
    assert finding["snippet"] == "return random.random()"
    assert finding["baselined"] is False
    assert finding["fixable"] is False
    assert data["parse_errors"] == []


# ---------------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------------

def test_baseline_round_trip(project, capsys):
    assert main(["lint", "src"]) == 1

    assert main(["lint", "--write-baseline", "src"]) == 0
    baseline = project / ".simlint-baseline.json"
    assert baseline.is_file()
    entries = json.loads(baseline.read_text())["entries"]
    assert len(entries) == 1 and entries[0]["rule"] == "SIM001"

    # Grandfathered: reported, but the exit code ratchets on new only.
    assert main(["lint", "src"]) == 0
    out = capsys.readouterr().out
    assert "[baselined]" in out and "0 new, 1 baselined" in out

    # Keys are content-based: shifting the line does not un-baseline it.
    mod = project / "src" / "mod.py"
    mod.write_text("# a new leading comment\n" + BAD_MODULE)
    assert main(["lint", "src"]) == 0

    # A fresh violation still fails even though the old one is baselined.
    mod.write_text(BAD_MODULE + "\n\nKEY = hash('pc')\n")
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "SIM003" in out and "1 new, 1 baselined" in out


def test_no_baseline_flag_reports_everything(project, capsys):
    assert main(["lint", "--write-baseline", "src"]) == 0
    assert main(["lint", "--no-baseline", "src"]) == 1
    capsys.readouterr()


def test_editing_the_flagged_line_invalidates_its_baseline(project, capsys):
    assert main(["lint", "--write-baseline", "src"]) == 0
    # Same rule, same file, different source text => different key.
    (project / "src" / "mod.py").write_text(
        "import random\n\n\ndef draw():\n    return random.randint(0, 9)\n")
    assert main(["lint", "src"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Self-scan regression: the shipped tree lints clean
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_shipped_src_has_zero_non_baselined_findings():
    result = run_lint([SRC_ROOT], config=load_config(SRC_ROOT))
    assert result.parse_errors == []
    assert result.new_findings == [], \
        [f"{f.location()} {f.rule} {f.message}" for f in result.new_findings]
    assert result.ok


@pytest.mark.skipif(lint_config.tomllib is None,
                    reason="no TOML parser: defaults are all there is")
def test_lint_config_defaults_equal_shipped_section():
    # Interpreters without a TOML parser lint with the LintConfig
    # defaults, so they must say exactly what [tool.simlint] says.
    shipped = load_config(SRC_ROOT)
    assert shipped.project_root is not None
    defaults = LintConfig()
    for field in dataclasses.fields(LintConfig):
        if field.name == "project_root":
            continue
        assert getattr(defaults, field.name) == \
            getattr(shipped, field.name), field.name


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_cli_self_scan_exits_0(capsys):
    assert main(["lint", str(SRC_ROOT)]) == 0
    assert "— ok" in capsys.readouterr().out
