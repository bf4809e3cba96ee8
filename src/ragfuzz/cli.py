"""Command-line front end for running and resuming fuzzing campaigns.

Exit codes: 0 = ran to the requested stage (findings may be nonzero),
1 = configuration or system error, 2 = campaign completed but some cases
were abandoned by internal faults (provider failures and the like).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .campaign import CampaignReport, load_config_file, resume, run_campaign
from .errors import RagfuzzError

# subcommand -> last stage to execute (None = all stages)
_HALT_AFTER = {
    "index": "index",
    "gen": "repair_mutants",
    "test": "classify",
    "report": None,
    "run": None,
}


def _add_paths(parser: argparse.ArgumentParser, config_required: bool) -> None:
    parser.add_argument("--config", type=Path, required=config_required,
                        help="campaign config file (YAML or JSON)")
    parser.add_argument("--campaign-dir", type=Path, required=True,
                        help="directory holding all campaign artifacts")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mock-providers", action="store_true",
                        help="force scripted mock providers (no network)")
    parser.add_argument("--seed", type=int, default=None, help="override campaign seed")
    parser.add_argument("--workers-llm", type=int, default=None,
                        help="worker lanes for LLM-bound stages")
    parser.add_argument("--workers-tool", type=int, default=None,
                        help="worker lanes for compile/run stages")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragfuzz",
        description="Retrieval-augmented LLM compiler fuzzing with differential testing. "
        "A subcommand run again on its campaign directory resumes it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("index", "build the documentation index and stop"),
        ("gen", "run extraction through generation, repair and mutation"),
        ("test", "additionally run the compile/run matrix and classification"),
        ("report", "run all stages and emit reports"),
        ("run", "run all stages (same as report)"),
    ):
        stage = sub.add_parser(name, help=help_text)
        _add_paths(stage, config_required=True)
        _add_overrides(stage)
    # a resume runs the config the directory is bound to, so it takes no overrides
    _add_paths(sub.add_parser("resume", help="complete an interrupted campaign"),
               config_required=False)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["campaign.seed"] = args.seed
    if args.workers_llm is not None:
        overrides["campaign.workers_llm"] = args.workers_llm
    if args.workers_tool is not None:
        overrides["campaign.workers_tool"] = args.workers_tool
    if args.mock_providers:
        overrides["providers.mode"] = "mock"
    return overrides


def _print_summary(report: CampaignReport | None, campaign_dir: Path) -> None:
    if report is None:
        print(f"stages complete; artifacts in {campaign_dir}")
        return
    for pass_name, counts in sorted(report.per_pass.items()):
        print(
            f"{pass_name}: functions={counts['functions']} "
            f"generated={counts['generated']} compiled={counts['compiled']} "
            f"failed={counts['failed']} abandoned={counts['abandoned']}"
        )
    print(
        f"findings: {report.findings['total_flagged']} flagged case(s); "
        f"per-axis {report.findings['per_axis']}"
    )
    try:
        from decimal import Decimal

        from .ledger import format_dollars

        dollars = format_dollars(Decimal(report.cost["total_dollars"]))
    except ArithmeticError:
        dollars = report.cost["total_dollars"]
    print(f"cost: {dollars} "
          f"({report.cost['input_tokens']} in / {report.cost['output_tokens']} out tokens)")
    print(f"artifacts: {campaign_dir}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "resume":
            config = None if args.config is None else load_config_file(args.config)
            report = resume(args.campaign_dir, config)
        else:
            config = load_config_file(args.config, _overrides(args))
            report = run_campaign(
                config, args.campaign_dir, halt_after=_HALT_AFTER[args.command]
            )
    except RagfuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(report, args.campaign_dir)
    if report is not None:
        internal_faults = sum(c["abandoned"] for c in report.per_pass.values())
        if internal_faults > 0:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
