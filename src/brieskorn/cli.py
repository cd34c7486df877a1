"""Command-line front end.

Commands:
    info <p> <q> <r> [--json] [--casson]
    family <id> <from> <to> [--csv|--json]
    replay <file> [--trace]
    gen-script <id> <n> -o <file>

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/input error,
3 script parse error.  All numeric output is exact decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import (
    BrieskornError,
    FinalMismatch,
    InadmissibleN,
    NonPositive,
    NotPairwiseCoprime,
    ScriptFormatError,
    StepIllegal,
    UnknownFamily,
    UnsupportedFamily,
)
from .kirby import replay, script_from_json, script_generator, script_to_json
from .plumbing import star_exceeds
from .report import (
    CSV_HEADER,
    MAX_INFO_VERTICES,
    family_notes,
    family_sweep,
    triple_summary,
)
from .seifert import validate_triple

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

#: Most lattice points `info --casson` counts, (p-1)(q-1)(r-1), checked
#: before counting.  The count runs at 4-6 million points/s (Python 3.11,
#: 2 shared cores): Sigma(7,11,833334), just below the cap, takes about 9 s.
MAX_CASSON_POINTS = 50_000_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Exact invariants and linking-matrix surgery scripts "
        "for Brieskorn sphere families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="invariants of a single triple")
    p_info.add_argument("p", type=int)
    p_info.add_argument("q", type=int)
    p_info.add_argument("r", type=int)
    p_info.add_argument("--json", action="store_true", help="emit one JSON object")
    p_info.add_argument(
        "--casson",
        action="store_true",
        help="force the lattice-point Casson computation (automatic for "
        "Sigma(2,3,6n+1), where it is cheap)",
    )

    p_family = sub.add_parser("family", help="sweep a built-in family against its claim table")
    p_family.add_argument("id")
    p_family.add_argument("n_from", type=int)
    p_family.add_argument("n_to", type=int)
    fmt = p_family.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="CSV rows")
    fmt.add_argument("--json", action="store_true", help="one JSON object per line")

    p_replay = sub.add_parser("replay", help="replay a move-script file")
    p_replay.add_argument("file")
    p_replay.add_argument("--trace", action="store_true", help="JSON-lines step log")

    p_gen = sub.add_parser("gen-script", help="generate a blow-down script for a family member")
    p_gen.add_argument("id")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("-o", "--output", required=True, metavar="FILE")

    return parser


_PARSER = _build_parser()  # every run parses once; parse_args leaves it unchanged


def _cmd_info(args) -> int:
    try:
        triple = validate_triple(args.p, args.q, args.r)
    except (NonPositive, NotPairwiseCoprime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not triple.is_degenerate and star_exceeds(triple, MAX_INFO_VERTICES):
        print(
            f"error: {triple} has more than {MAX_INFO_VERTICES} plumbing vertices, "
            "the cap for info",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.casson and (triple.p - 1) * (triple.q - 1) * (triple.r - 1) > MAX_CASSON_POINTS:
        print(
            f"error: {triple} has more than {MAX_CASSON_POINTS} lattice points, "
            "the cap for --casson",
            file=sys.stderr,
        )
        return EXIT_USAGE
    summary = triple_summary(triple, with_casson=args.casson)
    if args.json:
        print(_json(summary))
        return EXIT_OK
    p, q, r = summary["triple"]
    print(f"triple: Sigma({p},{q},{r})")
    if summary["degenerate"]:
        print("degenerate: yes (S^3)")
    else:
        s = summary["seifert"]
        legs = " ".join(f"({a},{b})" for a, b in s["legs"])
        print(f"seifert: b={s['b']} legs={legs}")
    print(f"plumbing weights: {summary['plumbing']['weights']}")
    print(f"plumbing edges: {summary['plumbing']['edges']}")
    print(f"determinant: {summary['determinant']}")
    print(f"signature: {summary['signature']}")
    print(f"negative_definite: {_fmt_bool(summary['negative_definite'])}")
    print(f"wu_class: {summary['wu_class']}")
    print(f"wu_square: {summary['wu_square']}")
    print(f"mubar: {summary['mubar']}")
    print(f"obstructs_integral_ball: {_fmt_bool(summary['obstructed'])}")
    if summary["casson"] is None:
        print("casson: skipped (pass --casson to enumerate)")
    else:
        print(f"casson: {summary['casson']}")
    return EXIT_OK


def _json(obj) -> str:
    """``json.dumps(obj)`` for `triple_summary` values, byte for byte, without
    the encoder's several pieces per list item.  Dicts have str keys, lists
    hold ints or lists of them, and ``str`` prints both as JSON does; bools
    and None go to `json.dumps`."""
    if type(obj) is dict:
        return "{" + ", ".join([_encode_str(k) + ": " + _json(v) for k, v in obj.items()]) + "}"
    if type(obj) in (list, int):
        return str(obj)
    return json.dumps(obj)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _cmd_family(args) -> int:
    reports = family_sweep(args.id, args.n_from, args.n_to)
    total = failed = 0
    if args.csv:
        print(CSV_HEADER)
    for rep in reports:
        total += 1
        failed += not rep.passed
        if args.csv:
            print(rep.to_csv_row())
        elif args.json:
            print(rep.to_json())
        else:
            p, q, r = rep.triple
            status = "pass" if rep.passed else "FAIL"
            print(
                f"{rep.family} n={rep.n} Sigma({p},{q},{r}) "
                f"vertices={rep.vertex_count} det={rep.determinant} "
                f"signature={rep.signature} wu_square={rep.wu_square} "
                f"mubar={rep.mubar} [{status}]"
            )
            for note in family_notes(rep.family, rep.n):
                print(f"  note: {note}")
            if not rep.passed:
                for check in rep.claims_checked:
                    if not check.passed:
                        print(
                            f"  claim {check.name}: expected {check.expected}, "
                            f"got {check.actual}"
                        )
    if not (args.csv or args.json):
        print(f"checked {total} members, {failed} failures")
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_replay(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read script: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        script = script_from_json(text)
    except ScriptFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _replay_and_print(script, args.trace)
    except ValueError as exc:  # an integer too long to print, see sys.set_int_max_str_digits
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def _replay_and_print(script, trace_steps: bool) -> int:
    try:
        trace = replay(script)
    except (StepIllegal, FinalMismatch) as exc:
        if trace_steps and exc.trace:
            for step in exc.trace:
                print(step.to_json())
        reason = f"final state mismatch: {exc.diff}" if isinstance(exc, FinalMismatch) else exc
        print(f"replay failed: {reason}", file=sys.stderr)
        return EXIT_VERIFICATION
    if trace_steps and trace.steps:
        print(trace.to_json_lines())
    print(f"replay ok: {script.name} ({len(script.moves)} moves)")
    return EXIT_OK


def _cmd_gen_script(args) -> int:
    try:
        script = script_generator(args.id, args.n)
    except (UnknownFamily, UnsupportedFamily, InadmissibleN) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(script_to_json(script))
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {script.name} ({len(script.moves)} moves) to {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "gen-script":
            return _cmd_gen_script(args)
    except BrieskornError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
