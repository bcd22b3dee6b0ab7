"""Command-line front end.

Subcommands: test (random contract testing), complete (brute-force
soundness/completeness), adequacy (bounded observational adequacy),
export-boogie (theory files), report (combined JSON report).

Exit codes: 0 clean, 1 contract violations or untagged incompleteness
found (or a violation that its own replay does not confirm), 2 usage
errors (an ``--out`` path that cannot be written among them) or refused
enumerations.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import boogie_export, containers
from .autotest import UnconfirmedViolation, run_campaign
from .checkers import (
    MAX_UNIVERSE, EnumerationConfig, EnumerationRefused,
    check_observational_adequacy, classify_library, report_to_json,
)
from .contracts import REGISTRY


def _resolve_targets(args) -> list:
    """The named container types, each once, in the order first given."""
    if getattr(args, "all", False):
        return list(containers.CONTAINER_NAMES)
    if not args.target:
        raise SystemExit2("no target given; use --target NAME or --all")
    for t in args.target:
        if t not in REGISTRY:
            raise SystemExit2(f"unknown target {t!r}; known: "
                              + ", ".join(sorted(REGISTRY)))
    return list(dict.fromkeys(args.target))


# The least value of each bound flag; --universe is at most MAX_UNIVERSE.
_LEAST = {"calls": 0, "depth": 0, "max_size": 0, "universe": 1}


class SystemExit2(Exception):
    """Usage-level error reported with exit code 2."""


def _emit(args, text: str):
    """Write ``text`` to ``--out``, with ``\n`` line ends on every
    platform, else to stdout.  A file that cannot be written is a usage
    error."""
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise SystemExit2(f"cannot write {args.out}: {e.strerror or e}") from e


def cmd_test(args) -> int:
    targets = _resolve_targets(args)
    faults = containers.FaultSwitch(**dict.fromkeys(args.inject or [], True))
    result = run_campaign(targets, args.calls, args.seed, faults=faults,
                          mode=args.mode)
    _emit(args, result.to_json_lines())
    return 1 if result.violations else 0


def _enum_config(args) -> EnumerationConfig:
    return EnumerationConfig(universe=args.universe, max_size=args.max_size,
                             depth=getattr(args, "depth", 3))


def cmd_complete(args) -> int:
    targets = _resolve_targets(args)
    report = classify_library(_enum_config(args), names=targets)
    _emit(args, report_to_json(report) + "\n")
    return 1 if report["summary"]["errors"] else 0


def cmd_adequacy(args) -> int:
    targets = _resolve_targets(args)
    cfg = _enum_config(args)
    verdicts = [check_observational_adequacy(name, cfg).to_dict()
                for name in targets]
    _emit(args, report_to_json(verdicts) + "\n")
    return 0 if all(v["adequate"] for v in verdicts) else 1


def cmd_export_boogie(args) -> int:
    text = boogie_export.export_all_text()
    boogie_export.grammar_check(text)
    _emit(args, text)
    return 0


def cmd_report(args) -> int:
    targets = _resolve_targets(args)
    cfg = _enum_config(args)
    completeness = classify_library(cfg, names=targets)
    adequacy = [check_observational_adequacy(n, cfg).to_dict()
                for n in targets]
    campaign = run_campaign(targets, args.calls, args.seed)
    combined = {
        "completeness": completeness,
        "adequacy": adequacy,
        "testing": {"stats": campaign.stats,
                    "reports": [{"violation": r.violation, "trace": r.trace}
                                for r in campaign.reports]},
    }
    _emit(args, report_to_json(combined) + "\n")
    bad = (campaign.violations or completeness["summary"]["errors"]
           or not all(v["adequate"] for v in adequacy))
    return 1 if bad else 0


def _add_target_flags(p):
    p.add_argument("--target", action="append", metavar="NAME",
                   help="container type (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="all registered container types")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_enum_flags(p):
    p.add_argument("--universe", type=int, default=2,
                   help="element universe size (default 2)")
    p.add_argument("--max-size", type=int, default=3, dest="max_size",
                   help="max structure size (default 3)")


def _add_seed_flag(p):
    # argparse converts a string default with ``type``, so a malformed
    # MBC_SEED is a usage error (exit 2) unless --seed overrides it.
    p.add_argument("--seed", type=int, default=os.environ.get("MBC_SEED", "0"),
                   help="campaign seed (default $MBC_SEED, else 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbc", description="Model-based contract tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="random contract testing")
    _add_target_flags(p)
    p.add_argument("--calls", type=int, default=10_000)
    _add_seed_flag(p)
    p.add_argument("--inject", action="append", metavar="FAULT",
                   choices=[f.name for f in fields(containers.FaultSwitch)],
                   help="enable a named fault switch (repeatable)")
    p.add_argument("--mode", choices=["model", "classic"], default="model")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("complete", help="soundness/completeness checks")
    _add_target_flags(p)
    _add_enum_flags(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("adequacy", help="bounded observational adequacy")
    _add_target_flags(p)
    _add_enum_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_adequacy)

    p = sub.add_parser("export-boogie", help="write the Boogie theories")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_export_boogie)

    p = sub.add_parser("report", help="combined JSON report")
    _add_target_flags(p)
    _add_enum_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--calls", type=int, default=10_000)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_report)
    return parser


@functools.lru_cache(maxsize=1)  # built again when $MBC_SEED changes
def _parser(seed_env):
    return build_parser()


def main(argv=None) -> int:
    """Run a command; the parser is built once, ``$MBC_SEED`` read per call."""
    parser = _parser(os.environ.get("MBC_SEED"))
    try:
        args = parser.parse_args(argv)
        for name, lo in _LEAST.items():
            if getattr(args, name, lo) < lo:
                parser.error(f"argument --{name.replace('_', '-')}: "
                             f"must be at least {lo}")
        if getattr(args, "universe", 1) > MAX_UNIVERSE:
            parser.error(f"argument --universe: must be at most {MAX_UNIVERSE}")
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize others.
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except EnumerationRefused as e:
        sys.stderr.write(f"refused: {e}\n")
        return 2
    except UnconfirmedViolation as e:
        sys.stderr.write(f"unconfirmed: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
