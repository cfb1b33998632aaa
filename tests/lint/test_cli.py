"""CLI behaviour: exit codes, JSON output, the one config and the self-check.

The self-check test is the PR's acceptance criterion made executable:
``python -m repro.lint check src/repro`` must exit 0 at head, and any
suppression in the tree must carry a justification.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import DEFAULT_CONFIG, LintConfig, check_paths
from repro.lint.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, main
from repro.lint.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


VIOLATING = """
    import random

    def sample():
        return random.random()
"""

CLEAN = """
    def sample(sim):
        return sim.random.stream("app").random()
"""


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", CLEAN)
        assert main(["check", str(tmp_path)]) == EXIT_OK
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", VIOLATING)
        assert main(["check", str(tmp_path)]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "net/app.py" in out and "RPR001" in out

    def test_unjustified_suppression_exits_one(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", """
            import random

            def sample():
                return random.random()  # lint: disable=RPR001
        """)
        assert main(["check", str(tmp_path)]) == EXIT_VIOLATIONS
        assert "RPR000" in capsys.readouterr().out

    def test_justified_suppression_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", """
            import random

            def sample():
                return random.random()  # lint: disable=RPR001 -- fixture: testing the suppression path
        """)
        assert main(["check", str(tmp_path)]) == EXIT_OK
        assert "1 justified" in capsys.readouterr().out

    def test_missing_path_exits_usage(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_explain_exits_usage(self, capsys):
        assert main(["explain", "RPR999"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err


class TestOutputs:
    def test_json_format_shape(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", VIOLATING)
        assert main(["check", str(tmp_path), "--format", "json"]) == EXIT_VIOLATIONS
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["checked_files"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "RPR001"
        assert violation["path"] == "net/app.py"
        assert payload["counts"]["by_rule"] == {"RPR001": 1}

    def test_output_file_written_for_ci_artifact(self, tmp_path, capsys):
        write(tmp_path, "repro/net/app.py", VIOLATING)
        report_path = tmp_path / "out" / "lint-report.json"
        main(["check", str(tmp_path), "--format", "json",
              "--output", str(report_path)])
        capsys.readouterr()
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["counts"]["violations"] == 1

    def test_list_rules_names_all_six(self, capsys):
        assert main(["list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
            assert rule_id in out

    def test_explain_prints_rationale_and_suppression_syntax(self, capsys):
        assert main(["explain", "RPR003"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sorted" in out
        assert "lint: disable=RPR003 --" in out


class TestConfig:
    def test_a_lint_toml_in_the_checked_tree_changes_nothing(self, tmp_path, capsys):
        # The contract is stated once, in repro/lint/config.py, and every
        # interpreter runs it: a settings file beside the code is not read.
        write(tmp_path, "repro/net/app.py", VIOLATING)
        write(tmp_path, "lint.toml", """
            [lint.RPR001]
            allow = ["net/*"]
        """)
        assert main(["check", str(tmp_path)]) == EXIT_VIOLATIONS
        assert "RPR001" in capsys.readouterr().out

    def test_every_rule_has_one_embedded_entry(self):
        assert sorted(DEFAULT_CONFIG) == sorted(RULES_BY_ID)

    def test_each_config_owns_a_copy_of_the_defaults(self):
        widened = LintConfig()
        widened.rules["RPR001"]["allow"].append("net/*")
        assert not widened.applies("RPR001", "net/app.py")
        assert LintConfig().applies("RPR001", "net/app.py")
        assert "net/*" not in DEFAULT_CONFIG["RPR001"]["allow"]


class TestSelfCheck:
    def test_src_repro_is_lint_clean_at_head(self):
        report = check_paths([SRC_REPRO])
        assert report.checked_files > 100
        problems = [f"{v.path}:{v.line}: {v.rule_id} {v.message}"
                    for v in report.violations]
        assert not problems, "\n".join(problems)
        assert all(s.justified for s in report.suppressions)

    def test_module_entry_point_exits_zero_on_head(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "check", str(SRC_REPRO)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
