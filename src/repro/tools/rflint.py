"""rflint — static analysis CLI for the repo's determinism/dtype invariants.

Usage::

    python -m repro.tools.rflint src/
    python -m repro.tools.rflint --project            # + whole-program RFD7xx
    python -m repro.tools.rflint src/ --format json
    python -m repro.tools.rflint src/ --json-out rflint-report.json
    python -m repro.tools.rflint --list-rules

``--project`` adds the whole-program pass (lock-order graph, shared
state audit, wire/metric vocabulary drift) on top of the per-module
rules; paths default to ``src`` and test files (``--tests``, default
``tests`` when present) are scanned as metric-name references without
being lint targets themselves.

Exit status: 0 when every finding is fixed or suppressed inline
(``# rfdump: noqa[RULE]``, next to the comment that says why); 1 when
any active finding remains; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint import (
    Finding,
    active_project_rules,
    active_rules,
    lint_paths,
    lint_project,
)

DEFAULT_PATHS = ("src",)
DEFAULT_TESTS = "tests"


def _parse_rule_list(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [r.strip().upper() for r in value.split(",") if r.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rflint",
        description="RFDump repo-specific static analysis "
                    "(determinism, dtype, concurrency, API contracts, typing)",
    )
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to analyze (e.g. src/; "
                             "defaults to src with --project)")
    parser.add_argument("--project", action="store_true",
                        help="also run the whole-program RFD7xx rules "
                             "(lock-order graph, shared-state audit, "
                             "wire/metric drift)")
    parser.add_argument("--tests", metavar="DIR", default=None,
                        help="test directory scanned as metric-name "
                             "references in --project mode (default: "
                             f"{DEFAULT_TESTS} if present)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout")
    parser.add_argument("--json-out", metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def _report(findings: List[Finding], files_hint: str) -> dict:
    return {
        "version": 1,
        "tool": "rflint",
        "paths": files_hint,
        "findings": [f.to_dict() for f in findings],
        "counts": {"active": len(findings)},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in active_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.description}")
        for rule in active_project_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.description}  "
                  f"(--project)")
        return 0
    if not args.paths:
        if args.project:
            args.paths = [p for p in DEFAULT_PATHS if os.path.exists(p)]
        if not args.paths:
            parser.error(
                "no paths given (try: python -m repro.tools.rflint src/)")

    select = _parse_rule_list(args.select)
    ignore = _parse_rule_list(args.ignore)
    findings = lint_paths(args.paths, select=select, ignore=ignore)
    if args.project:
        tests = args.tests
        if tests is None and os.path.isdir(DEFAULT_TESTS):
            tests = DEFAULT_TESTS
        reference_paths = [tests] if tests else []
        findings.extend(lint_project(
            args.paths, reference_paths=reference_paths,
            select=select, ignore=ignore,
        ))
        findings.sort(key=Finding.sort_key)

    report = _report(findings, " ".join(args.paths))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for finding in findings:
            print(finding.format())
        print(f"rflint: {len(findings)} active finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
