"""``python -m repro.lint`` — check | list-rules | explain.

Exit codes: 0 clean, 1 violations (including unjustified suppressions via
the RPR000 meta-rule), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import LintConfig
from repro.lint.engine import LintReport, check_paths
from repro.lint.rules import RULES, RULES_BY_ID

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & hot-path contract checker for the repro codebase.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="lint files/directories")
    check.add_argument("paths", nargs="+", type=Path,
                       help="files or directories to lint (e.g. src/repro)")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    check.add_argument("--output", type=Path, default=None,
                       help="also write the report (in the chosen format) to "
                            "this file — used by CI to upload an artifact")

    sub.add_parser("list-rules", help="list rule ids and titles")

    explain = sub.add_parser("explain", help="show a rule's rationale")
    explain.add_argument("rule", help="rule id, e.g. RPR003")
    return parser


def _render_text(report: LintReport) -> str:
    lines: List[str] = []
    for violation in report.violations:
        lines.append(f"{violation.path}:{violation.line}:{violation.column + 1}: "
                     f"{violation.rule_id} {violation.message}")
    for error in report.errors:
        lines.append(f"error: {error}")
    justified = sum(1 for s in report.suppressions if s.justified)
    unjustified = len(report.suppressions) - justified
    lines.append(
        f"checked {report.checked_files} file(s): "
        f"{len(report.violations)} violation(s), "
        f"{len(report.suppressions)} suppression(s) "
        f"({justified} justified, {unjustified} unjustified)")
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    report = check_paths(args.paths, LintConfig())
    rendered = (json.dumps(report.as_dict(), indent=2)
                if args.format == "json" else _render_text(report))
    print(rendered)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n", encoding="utf-8")
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_list_rules() -> int:
    for rule in RULES:
        print(f"{rule.id}  {rule.title}")
    return EXIT_OK


def _cmd_explain(rule_id: str) -> int:
    rule = RULES_BY_ID.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(RULES_BY_ID))
        print(f"error: unknown rule {rule_id!r} (known: {known})", file=sys.stderr)
        return EXIT_USAGE
    print(f"{rule.id}: {rule.title}\n")
    print(rule.rationale)
    print("\nSuppress inline (justification required):")
    print(f"    offending_line  # lint: disable={rule.id} -- <why the rule "
          "does not apply here>")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "list-rules":
        return _cmd_list_rules()
    return _cmd_explain(args.rule)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
