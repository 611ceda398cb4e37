"""Command-line entry point: ``python -m repro.analysis``.

Subcommands:

* ``lint [paths...]`` — run every analysis pass (the single-file TP0xx
  AST rules, the interprocedural TP1xx flow rules, the TP2xx
  domain/unit pass and the TP3xx typestate/protocol pass) over Python
  sources (default target: ``src``).  The tree is parsed exactly once
  into a shared project that all passes reuse; ``--stats`` prints the
  per-pass wall-clock split.  Exits non-zero when findings outside the
  committed baseline exist; ``--write-baseline`` regenerates the
  baseline from the current findings instead.  ``--format
  text|json|sarif`` picks the report format (SARIF 2.1.0 feeds GitHub
  code scanning); ``--fail-stale`` turns stale baseline entries into a
  failure; ``--disable``/``--exclude`` select rules and prune subtrees
  per invocation (tests legitimately use ``assert``, so CI lints them
  with ``--disable TP003``).
* ``mutants`` — self-validate the TP2xx domain pass and the TP3xx
  protocol pass: apply the seeded mutants from
  :mod:`repro.analysis.mutants` to an in-memory image of ``src`` and
  fail unless every mutant is flagged while the pristine tree stays
  clean.
* ``rules`` — print every rule family (TP0xx lint, TP1xx flow, TP2xx
  domain, TP3xx typestate, SAN sanitizer), grouped and sorted, with
  one-line descriptions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .checkers import SAN_RULES
from .flow import (DOMAIN_RULES, FLOW_RULES, PROTOCOL_RULES, Project,
                   analyze_tree, to_sarif)
from .flow.sarif import default_rule_table
from .lint import (Finding, RULES, load_baseline, partition_findings,
                   write_baseline)
from .mutants import MUTANTS, MutantApplyError, run_mutants

#: default baseline location, relative to the invocation directory
DEFAULT_BASELINE = ".analysis-baseline.json"

#: the report formats the lint subcommand can emit
FORMATS = ("text", "json", "sarif")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis (TP AST rules + "
                    "TP1xx interprocedural flow rules) and rule "
                    "listing for the FTLSan runtime sanitizer.")
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser(
        "lint", help="run every analysis pass over Python sources "
                     "(one shared parse)")
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    lint.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE})")
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new")
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0")
    lint.add_argument(
        "--fail-stale", action="store_true",
        help="exit non-zero when baseline entries no longer trigger "
             "(keeps the committed baseline honest in CI)")
    lint.add_argument(
        "--format", choices=FORMATS, default="text", dest="format_",
        metavar="FORMAT",
        help="report format: text (default), json, or sarif "
             "(SARIF 2.1.0 for GitHub code scanning)")
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the json/sarif document to FILE instead of stdout")
    lint.add_argument(
        "--disable", action="append", default=[], metavar="CODES",
        help="rule codes to skip (comma-separated, repeatable); e.g. "
             "--disable TP003 when linting test trees")
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="path prefixes to prune from the linted trees "
             "(repeatable); e.g. --exclude tests/fixtures")
    lint.add_argument(
        "--stats", action="store_true",
        help="print the per-pass wall-clock split (parse once, then "
             "lint/flow/domains/protocols over the shared project)")
    mutants = sub.add_parser(
        "mutants", help="self-validate the TP2xx domain and TP3xx "
                        "protocol passes against the seeded mutant "
                        "corpus")
    mutants.add_argument(
        "--src", default="src", metavar="DIR",
        help="source tree to mutate in memory (default: src)")
    mutants.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline used for the pristine-tree clean check "
             f"(default: {DEFAULT_BASELINE})")
    mutants.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="format_", metavar="FORMAT",
        help="report format: text (default) or json")
    mutants.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the json document to FILE instead of stdout")
    mutants.add_argument(
        "--list", action="store_true", dest="list_",
        help="print the mutant corpus without running the analysis")
    sub.add_parser(
        "rules", help="list every rule family (TP0xx lint, TP1xx "
                      "flow, TP2xx domain, TP3xx typestate, SAN "
                      "sanitizer)")
    return parser


def _disabled_codes(raw: Sequence[str]) -> Set[str]:
    codes: Set[str] = set()
    for chunk in raw:
        codes.update(c.strip() for c in chunk.split(",") if c.strip())
    return codes


def _collect_findings(args: argparse.Namespace,
                      ) -> Tuple[List[Finding], Dict[str, float]]:
    """Every pass over the requested trees, rule-filtered and sorted.

    The trees are read and parsed exactly once into a flow project;
    :func:`~repro.analysis.flow.analyze_tree` runs the TP0xx lint on
    the same trees and the TP1xx/TP2xx/TP3xx passes on the project.
    Returns the findings plus the per-pass wall-clock timings.
    """
    disabled = _disabled_codes(args.disable)
    timings: Dict[str, float] = {}
    started = time.perf_counter()  # tp: allow=TP002 - host-side stats
    project = Project.from_paths(args.paths, exclude=args.exclude)
    timings["parse"] = time.perf_counter() - started  # tp: allow=TP002 - host-side stats
    findings = [f for f in analyze_tree(project, timings=timings)
                if f.rule not in disabled]
    return findings, timings


def _emit_document(document: dict, output: Optional[str]) -> None:
    text = json.dumps(document, indent=2) + "\n"
    if output:
        pathlib.Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_document(new: List[Finding], grandfathered: List[Finding],
                   stale: Set[Tuple[str, str, str]]) -> dict:
    def _encode(finding: Finding, suppressed: bool) -> dict:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "snippet": finding.snippet,
            "suppressed": suppressed,
        }

    return {
        "version": 1,
        "tool": "repro.analysis",
        "findings": ([_encode(f, False) for f in new]
                     + [_encode(f, True) for f in grandfathered]),
        "summary": {
            "new": len(new),
            "grandfathered": len(grandfathered),
            "stale_baseline_entries": [
                {"rule": rule, "path": path, "snippet": snippet}
                for rule, path, snippet in sorted(stale)],
        },
    }


def _format_stats(timings: Dict[str, float]) -> str:
    order = ("parse", "lint", "flow", "domains", "protocols")
    parts = [f"{label} {timings[label]*1000.0:.0f}ms"
             for label in order if label in timings]
    total = sum(timings.values())
    return (f"stats: {' | '.join(parts)} "
            f"(total {total*1000.0:.0f}ms, one shared parse)")


def _run_lint(args: argparse.Namespace) -> int:
    findings, timings = _collect_findings(args)
    if args.stats:
        print(_format_stats(timings), file=sys.stderr)
    baseline_path = pathlib.Path(args.baseline)
    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0
    baseline = (set() if args.no_baseline
                else load_baseline(baseline_path))
    new, grandfathered = partition_findings(findings, baseline)
    stale = baseline - {f.key for f in findings}
    if args.format_ == "json":
        _emit_document(_json_document(new, grandfathered, stale),
                       args.output)
    elif args.format_ == "sarif":
        _emit_document(
            to_sarif(new, grandfathered,
                     default_rule_table({**FLOW_RULES,
                                         **DOMAIN_RULES,
                                         **PROTOCOL_RULES})),
            args.output)
    else:
        for finding in new:
            print(finding.render())
        if grandfathered:
            print(f"({len(grandfathered)} grandfathered finding(s) "
                  f"suppressed by {baseline_path})")
    status = sys.stdout if args.format_ == "text" else sys.stderr
    if stale:
        print(f"{'error' if args.fail_stale else 'note'}: {len(stale)} "
              "baseline entr(ies) no longer triggered; "
              "regenerate with --write-baseline", file=status)
    if new:
        print(f"{len(new)} new finding(s)", file=status)
        return 1
    if stale and args.fail_stale:
        return 1
    print(f"lint clean: {len(findings)} finding(s), all grandfathered"
          if findings else "lint clean", file=status)
    return 0


def _run_mutants(args: argparse.Namespace) -> int:
    if args.list_:
        for mutant in MUTANTS:
            print(f"{mutant.mid}  {mutant.rule}  {mutant.path}: "
                  f"{mutant.description}")
        return 0
    try:
        report = run_mutants(src_root=args.src, baseline=args.baseline)
    except MutantApplyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format_ == "json":
        _emit_document(report.to_json(), args.output)
    else:
        for finding in report.pristine_new:
            print(f"pristine: {finding.render()}")
        for result in report.results:
            verdict = "killed" if result.killed else "SURVIVED"
            rules = ",".join(sorted({f.rule for f in result.delta}))
            print(f"{result.mutant.mid}  {verdict:8s} "
                  f"{result.mutant.rule}  {result.mutant.path}: "
                  f"{result.mutant.description}"
                  + (f"  [{rules}]" if rules else ""))
    status = sys.stdout if args.format_ == "text" else sys.stderr
    if report.pristine_new:
        print(f"{len(report.pristine_new)} finding(s) on the pristine "
              "tree beyond the baseline", file=status)
    if report.survivors:
        print(f"{len(report.survivors)} mutant(s) survived",
              file=status)
    if report.ok:
        print(f"all {len(report.results)} mutant(s) killed; pristine "
              "tree clean", file=status)
    return 0 if report.ok else 1


#: the rule families the ``rules`` subcommand prints, in print order
_RULE_FAMILIES = (
    ("TP0xx AST lint rules (python -m repro.analysis lint):", RULES),
    ("TP1xx interprocedural flow rules (same lint subcommand):",
     FLOW_RULES),
    ("TP2xx domain/unit rules (same lint subcommand; self-validated "
     "by the mutants subcommand):", DOMAIN_RULES),
    ("TP3xx typestate/protocol rules (same lint subcommand; CFGs with "
     "exception edges, self-validated by the mutants subcommand):",
     PROTOCOL_RULES),
    ("SANxxx sanitizer rules (config.sanitizer / FTLSan):", SAN_RULES),
)


def _run_rules() -> int:
    for index, (title, table) in enumerate(_RULE_FAMILIES):
        if index:
            print()
        print(title)
        for code in sorted(table):
            print(f"  {code}  {table[code]}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "mutants":
        return _run_mutants(args)
    return _run_rules()


if __name__ == "__main__":
    sys.exit(main())
