"""Command-line front end.

Commands:
    info <p> <q> <r> [--json] [--casson]
    family <id> <from> <to> [--csv|--json]
    replay <file> [--trace]
    gen-script <id> <n> -o <file>

Exit codes: 0 all checks pass, 1 verification failure or stdout closed early,
2 usage/input error, 3 script parse error.  All numeric output is exact decimal.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from .errors import BrieskornError, FinalMismatch, ScriptFormatError, StepIllegal
from .kirby import replay, script_from_json, script_generator, script_to_json
from .report import CSV_HEADER, family_notes, family_sweep, fmt_bool, triple_summary
from .seifert import validate_triple

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


_HELP, _OUTPUT, _EXCLUSIVE = ("-h", "--help"), ("-o", "--output"), {"--csv": "json", "--json": "csv"}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as positionals
_COMMANDS = (__doc__ or "\n\n").split("\n\n")[1]  # the block above; python -OO drops docstrings


def _fail(message: str):
    sys.stderr.write(f"usage: brieskorn <command> ... (-h lists them)\nbrieskorn: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _read(token: str, names):
    """How argparse read one token: None for a positional, else the option
    it names (None if unknown) and the argument attached to it, or None."""
    if token[:1] != "-" or token in ("-", "--") or token in names:
        return (token, None) if token in names else None
    name, eq, arg = token.partition("=")
    if eq and name in names:
        return name, arg
    if token[1] == "-":  # a long option, or a unique prefix of one
        hits, arg = [n for n in names if n.startswith(name)], arg if eq else None
    else:  # a short option and the rest of its token
        hits, arg = [n for n in names if n == token[:2]], token[2:]
    if len(hits) > 1:
        _fail(f"ambiguous option: {token!r} could match {', '.join(hits)}")
    if hits:
        return hits[0], arg
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its fields, accepted and refused as argparse did.
    -h exits 0, and a bad value or --csv with --json exits 2, where they stand;
    unknown options and surplus or missing arguments exit 2 at the end."""
    args, extras, names, todo = SimpleNamespace(), [], _HELP, [("command", str)]
    read, cut, i, after_positional = [_read(t, names) for t in argv], len(argv), 0, False
    while i < len(argv):
        token, opt, i = argv[i], read[i], i + 1
        if i - 1 == cut:  # the first "--" after the command belongs to a positional next to it
            if not (todo or after_positional):
                extras.append(token)
            continue
        after_positional = opt is None
        if opt is None and todo:
            name, kind = todo.pop(0)
            try:
                setattr(args, name, kind(token))
            except ValueError:
                _fail(f"argument {name}: invalid int value: {token!r}")
            if name == "command":
                if token not in _GRAMMAR:
                    _fail(f"argument command: invalid choice: {token!r}")
                _, positionals, options = _GRAMMAR[token]
                todo, names = list(positionals.items()), _HELP + options
                vars(args).update({o[2:]: None if o in _OUTPUT else False for o in options if o[1] == "-"})
                cut = argv.index("--", i) if "--" in argv[i:] else len(argv)
                read[i:] = [_read(t, names) for t in argv[i:cut]] + [None] * (len(argv) - cut)
        elif opt is None or opt[0] is None:
            extras.append(token)
        else:
            chain, arg = [opt[0]], opt[1]
            while arg is not None and chain[-1] not in _OUTPUT:  # -hh is -h -h, -hoF is -h -o F
                if chain[-1][1] == "-" or "-" + arg[:1] not in names:
                    _fail(f"argument {chain[-1]}: ignored explicit argument {arg!r}")
                chain, arg = chain + ["-" + arg[0]], arg[1:] or None
            if chain[-1] in _OUTPUT and arg is None:
                if i >= cut or read[i] is not None:
                    _fail("argument -o/--output: expected one argument")
                arg, i = argv[i], i + 1
            for name in chain:
                if name in _HELP:
                    print(_COMMANDS)
                    raise SystemExit(EXIT_OK)
                if name in _EXCLUSIVE and getattr(args, _EXCLUSIVE[name], False):
                    _fail(f"argument {name}: not allowed with argument --{_EXCLUSIVE[name]}")
                setattr(args, "output" if name in _OUTPUT else name[2:], arg if name in _OUTPUT else True)
    missing = [name for name, _ in todo] + ["-o/--output"] * (getattr(args, "output", "") is None)
    if missing or extras:
        _fail(f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return args


def _cmd_info(args) -> int:
    triple = validate_triple(args.p, args.q, args.r)
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
    print(f"negative_definite: {fmt_bool(summary['negative_definite'])}")
    print(f"wu_class: {summary['wu_class']}")
    print(f"wu_square: {summary['wu_square']}")
    print(f"mubar: {summary['mubar']}")
    print(f"obstructs_integral_ball: {fmt_bool(summary['obstructed'])}")
    if summary["casson"] is None:
        print("casson: skipped (pass --casson to enumerate)")
    else:
        print(f"casson: {summary['casson']}")
    return EXIT_OK


def _json(obj) -> str:
    """``json.dumps(obj)`` for `triple_summary` values, byte for byte, without
    the encoder's several pieces per list item.  Dicts have str keys, lists
    hold ints or lists of them, and ``str`` prints both as JSON does; bools
    and None go to `json.dumps`.  Kept for memory, not speed: the largest seed-1
    benchmark `info` summary peaks at 16.5 KB here against 130.6 KB in `json.dumps`,
    a step `info` `peak_rss_mb` reads (CONVENTIONS "Output formats")."""
    if type(obj) is dict:
        return "{" + ", ".join([_encode_str(k) + ": " + _json(v) for k, v in obj.items()]) + "}"
    if type(obj) in (list, int):
        return str(obj)
    return json.dumps(obj)


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
    script = script_generator(args.id, args.n)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(script_to_json(script))
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {script.name} ({len(script.moves)} moves) to {args.output}")
    return EXIT_OK


#: The Commands block above as data: each command's handler, positionals with
#: their types, and options.  tests/test_cli.py holds the argparse oracle.
_GRAMMAR = {
    "info": (_cmd_info, {"p": int, "q": int, "r": int}, ("--json", "--casson")),
    "family": (_cmd_family, {"id": str, "n_from": int, "n_to": int}, ("--csv", "--json")),
    "replay": (_cmd_replay, {"file": str}, ("--trace",)),
    "gen-script": (_cmd_gen_script, {"id": str, "n": int}, ("-o", "--output")),
}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _GRAMMAR[args.command][0](args)
        sys.stdout.flush()  # here, so that a pipe closed at the last write is caught below
        return code
    except BrieskornError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout closed early, as by `| head`: the recipe in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
