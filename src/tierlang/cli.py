"""Command-line front end.

Commands: check, run, forcheck, ops, desugar, in the table COMMANDS; read_args
reads a plain command line from it, and argparse, imported only for any other
line, prints help and usage errors.  A file's extension names its language: a
.tl2 file holds a second-order program, any other file a first-order one, and
a file of the other language is a parse error.  Every command can emit a
machine-readable report with --json (schema in report.schema.json at the
repository root); exit codes are a function of the report.

main pauses the cyclic garbage collector for the one command it runs and
restores the caller's setting afterwards, also when the command raises.  The
library functions (parser.parse, safety1.infer_safety and the rest) never
touch that setting: called directly, they run under the caller's.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import types
from json.encoder import encode_basestring_ascii as _quoted

from . import interp1, opreg, parser, safety1, secondorder, words
from .syntax import Program1, Program2

ENV_BUDGET = "TIERLANG_MAX_STEPS"

EXIT_OK = 0
EXIT_NEGATIVE = 1  # unsafe / criterion rejected
EXIT_FRONTEND = 2  # parse or guardedness errors; simple-type errors of run
EXIT_STOPPED = 3  # execution ended in a RuntimeStop
EXIT_IO = 4
EXIT_INTERNAL = 5  # a command raised an unexpected exception: a bug


def blank_report(command: str, file: str | None = None) -> dict:
    return {
        "command": command,
        "file": file,
        "verdicts": {
            "parse": None,
            "guarded": None,
            "simple_type": None,
            "safety": None,
            "for_program": None,
            "aperiodic": None,
            "ran": None,
        },
        "gamma": None,
        "loop_levels": None,
        "omega": None,
        "program_type": None,
        "result": None,
        "stats": None,
        "stop": None,
        "explanation": None,
        "operators": None,
        "validation": None,
        "source": None,  # desugar: the desugared program text
        # "io": an input could not be read or was malformed;
        # "internal": the command failed with an unexpected exception
        "error": None,
        "exit_code": EXIT_OK,
    }


def exit_code_for(report: dict) -> int:
    """Exit codes are a pure function of the report."""
    if report["error"] == "io":
        return EXIT_IO
    if report["error"] == "internal":
        return EXIT_INTERNAL
    v = report["verdicts"]
    cmd = report["command"]
    if v["parse"] is False or v["guarded"] is False:
        return EXIT_FRONTEND
    if cmd == "run" and v["simple_type"] is False:
        return EXIT_FRONTEND
    if report["stop"] is not None:
        return EXIT_STOPPED
    if cmd == "check":
        if v["simple_type"] is False or v["safety"] is False:
            return EXIT_NEGATIVE
        return EXIT_OK
    if cmd == "forcheck":
        if v["for_program"] and v["safety"]:
            return EXIT_OK
        return EXIT_NEGATIVE
    if cmd == "ops":
        if report["validation"] and report["validation"]["counterexamples"]:
            return EXIT_NEGATIVE
        return EXIT_OK
    return EXIT_OK


_LITERALS = {True: "true", False: "false", None: "null"}


def json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``, written directly.

    The json module indents only through its pure-Python encoder, which
    builds a nest of closures on every call.
    """
    kind, inner = type(value), indent + "  "
    if kind is str:
        return _quoted(value)
    if kind is int:
        return repr(value)
    if value is None or kind is bool:
        return _LITERALS[value]
    if kind is dict and value:
        items = [f"{_quoted(key)}: {json_text(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind in (list, tuple) and value:
        items = [json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)  # an empty dict or list, or a float


def emit(report: dict, as_json: bool, lines: list) -> int:
    report["exit_code"] = exit_code_for(report)
    if as_json:
        print(json_text(report))
    else:
        for line in lines:
            print(line)
    return report["exit_code"]


def front_end(report: dict, as_json: bool, load):
    """Run ``load()``, which reads and parses a command's inputs.

    Returns what it returns and sets the parse verdict.  On a parse error
    (exit 2) or an unreadable or malformed input (exit 4) it emits the
    report and returns None; the report then holds the exit code.
    """
    try:
        loaded = load()
    except parser.ParseError as exc:
        report["verdicts"]["parse"] = False
        report["explanation"] = str(exc)
        emit(report, as_json, [f"parse error: {exc}"])
        return None
    except (OSError, ValueError) as exc:
        report["error"] = "io"
        report["explanation"] = str(exc)
        emit(report, as_json, [f"error: {exc}"])
        return None
    report["verdicts"]["parse"] = True
    return loaded


def first_order_safety(report: dict, result: safety1.InferenceResult) -> None:
    """Fill the report fields of a first-order safety verdict."""
    details = result.report()
    report["verdicts"]["safety"] = result.safe
    report["gamma"] = details["gamma"]
    report["loop_levels"] = details["loop_levels"]
    report["explanation"] = result.explanation


def not_negative(n: int, source: str) -> int:
    """``n``, a count read from ``source``; a negative count is malformed."""
    if n < 0:
        raise ValueError(f"{source} must not be negative, got {n}")
    return n


def default_budget() -> int:
    value = os.environ.get(ENV_BUDGET)
    if not value:
        return interp1.DEFAULT_BUDGET
    try:
        budget = int(value)
    except ValueError:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {value!r}") from None
    return not_negative(budget, ENV_BUDGET)


def load_config(path: str | None) -> opreg.DeltaConfig | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return opreg.DeltaConfig.from_json(json.load(fh))
        except ValueError as exc:  # malformed JSON, or JSON of the wrong shape
            raise ValueError(f"{path}: {exc}") from None


def parse_input_word(text: str) -> str:
    if text[:1] == "u" and text[1:].isascii() and text[1:].isdigit():
        return words.unary_digits(text[1:])
    return words.word(text)


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    report = blank_report("check", args.file)
    lines = []
    loaded = front_end(report, args.json, lambda: (
        load_config(args.delta),
        parser.parse_file(args.file),
    ))
    if loaded is None:
        return report["exit_code"]
    config, program = loaded
    if isinstance(program, Program2):
        result = secondorder.infer_safety2(program, config)
        report["verdicts"]["guarded"] = result.stage != "guardedness"
        report["verdicts"]["simple_type"] = (
            None if result.stage == "guardedness" else result.stage != "simple-type"
        )
        report["verdicts"]["safety"] = result.safe
        report["explanation"] = result.explanation
        details = result.report()
        report["omega"] = details["omega"]
        report["program_type"] = details["program_type"]
        lines.append(
            "safe" if result.safe else f"unsafe ({result.stage}): {result.explanation}"
        )
        if result.safe:
            for name, entry in details["omega"].items():
                lines.append(f"  {name}: level {entry['level']}, gamma {entry['gamma']}")
    else:
        result = safety1.infer_safety(program, config)
        first_order_safety(report, result)
        if result.safe:
            lines.append(f"safe; gamma {report['gamma']}")
            lines.append(f"loop levels {report['loop_levels']}")
        else:
            lines.append(f"unsafe: {result.explanation}")
    return emit(report, args.json, lines)


def _stop_details(exc: interp1.RuntimeStop) -> dict:
    stop = {"kind": exc.subcode, "message": str(exc)}
    if isinstance(exc, interp1.AperiodicityViolation):
        stop["loop_id"] = exc.loop_id
        stop["iteration"] = exc.iteration
        stop["witness"] = exc.witness
    return stop


def cmd_run(args) -> int:
    report = blank_report("run", args.file)
    lines = []

    def load():
        if args.max_steps is None:
            budget = default_budget()
        else:
            budget = not_negative(args.max_steps, "--max-steps")
        program = parser.parse_file(args.file)
        inputs = {}
        for item in args.input or []:
            if "=" not in item:
                raise ValueError(f"--input expects name=word, got {item!r}")
            name, _, value = item.partition("=")
            inputs[name] = parse_input_word(value)
        oracles = {}
        for item in args.oracle or []:
            if "=" not in item:
                raise ValueError(f"--oracle expects Name=spec, got {item!r}")
            name, _, spec = item.partition("=")
            oracles[name] = secondorder.make_oracle(spec)
        if isinstance(program, Program1):
            return program, inputs, interp1.Interp(budget, args.monitor)
        return program, inputs, secondorder.Interp2(program, oracles, budget, args.monitor)

    loaded = front_end(report, args.json, load)
    if loaded is None:
        return report["exit_code"]
    program, inputs, interp = loaded

    if isinstance(program, Program1):
        param_names, start = program.params, functools.partial(interp.run, program)
    else:
        try:
            secondorder.simple_typecheck(program)
        except secondorder.SimpleTypeError as exc:
            report["verdicts"]["simple_type"] = False
            report["explanation"] = str(exc)
            return emit(report, args.json, [f"simple-type error: {exc}"])
        param_names, start = program.boxed_words, interp.run
    values = []
    for name in param_names:
        if name not in inputs:
            print(f"warning: input {name} missing, defaulting to eps", file=sys.stderr)
        values.append(inputs.get(name, words.EPSILON))
    try:
        result = start(values)
        report["verdicts"]["ran"] = True
        if args.monitor:
            report["verdicts"]["aperiodic"] = True
        report["result"] = result
        lines.append(f'result: "{result}"')
        lines.append(f"steps: {interp.stats.steps}")
        for loop, count in sorted(interp.stats.loop_iterations.items()):
            lines.append(f"loop {loop}: {count} iteration(s)")
        if args.monitor:
            lines.append("aperiodicity: no violation")
    except interp1.RuntimeStop as exc:
        report["verdicts"]["ran"] = False
        report["stop"] = _stop_details(exc)
        if isinstance(exc, interp1.AperiodicityViolation):
            report["verdicts"]["aperiodic"] = False
        lines.append(f"stopped ({exc.subcode}): {exc}")
    report["stats"] = interp.stats.as_dict()
    return emit(report, args.json, lines)


def cmd_forcheck(args) -> int:
    report = blank_report("forcheck", args.file)
    lines = []
    program = front_end(report, args.json, lambda: parser.parse_file(args.file))
    if program is None:
        return report["exit_code"]
    if not isinstance(program, Program1):
        report["verdicts"]["for_program"] = False
        report["explanation"] = "the for criterion applies to first-order programs"
        return emit(report, args.json, ["rejected: not a first-order program"])
    why_not = safety1.check_for_program(program)
    report["verdicts"]["for_program"] = why_not is None
    if why_not is None:
        result = safety1.infer_safety(program)
        first_order_safety(report, result)
        lines.append("accepted" if result.safe else f"rejected: {result.explanation}")
    else:
        report["explanation"] = why_not
        lines.append(f"rejected: {why_not}")
    return emit(report, args.json, lines)


def cmd_ops(args) -> int:
    report = blank_report("ops")
    if front_end(report, args.json, lambda: not_negative(args.validate, "--validate")) is None:
        return report["exit_code"]
    listing = [opreg.describe_entry(e) for e in opreg.BUILTINS]
    report["operators"] = listing
    lines = [
        f"{info['name']}/{info['arity']}: {info['class']}"
        + (f" (+{info['growth']})" if "growth" in info else "")
        + (f" (degree {info['degree']})" if "degree" in info else "")
        for info in listing
    ]
    if args.validate:
        cexs = opreg.validate_registry(args.validate, seed=args.seed)
        report["validation"] = {"samples": args.validate, "counterexamples": cexs}
        lines.append(
            f"validation: {args.validate} samples per operator, "
            f"{len(cexs)} counterexample(s)"
        )
        for c in cexs:
            lines.append(f"  {c['op']}{tuple(c['inputs'])} -> {c['output']!r}: {c['reason']}")
    return emit(report, args.json, lines)


def cmd_desugar(args) -> int:
    report = blank_report("desugar", args.file)
    program = front_end(report, args.json, lambda: parser.parse_file(args.file))
    if program is None:
        return report["exit_code"]
    report["source"] = parser.pretty_print(program)
    return emit(report, args.json, [report["source"].rstrip("\n")])


COMMANDS = {  # name -> (handler, help line, arguments); all take --json too
    "check": (cmd_check, "infer safety (exit 0 safe, 1 unsafe)", [
        ("file", {}),
        ("--delta", {"help": "JSON file restricting admissible operator levels"}),
    ]),
    "run": (cmd_run, "execute a program", [
        ("file", {}),
        ("--input", {"action": "append", "metavar": "NAME=WORD"}),
        ("--oracle", {"action": "append", "metavar": "NAME=SPEC"}),
        ("--max-steps", {"type": int}),
        ("--monitor", {"action": "store_true", "help": "stop on periodic loop states"}),
    ]),
    "forcheck": (cmd_forcheck, "accept only safe programs whose loops are all for loops",
                 [("file", {})]),
    "ops": (cmd_ops, "list the operator registry", [
        ("--validate", {"type": int, "metavar": "N", "default": 0}),
        ("--seed", {"type": int, "default": 0}),
    ]),
    "desugar": (cmd_desugar, "print the desugared program", [("file", {})]),
}


JSON_OPTION = ("--json", {"action": "store_true"})


def read_args(argv: list) -> types.SimpleNamespace | None:
    """The attributes argparse gives a plain command line, or None.

    A plain line is a command of COMMANDS and then, in any order, its one file
    (if it takes one) and its options, each in full as its own token; a value
    option's value is the next token and does not start with "-".
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, arguments = COMMANDS[argv[0]]
    args = types.SimpleNamespace(fn=fn, command=argv[0])
    options = {name: (name[2:].replace("-", "_"), spec)
               for name, spec in arguments + [JSON_OPTION] if name[0] == "-"}
    for dest, spec in options.values():
        setattr(args, dest, False if spec.get("action") == "store_true" else spec.get("default"))
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" and not hasattr(args, "file") and ("file", {}) in arguments:
            args.file = token
            continue
        if token not in options:  # a second file, or an option the reader leaves to argparse
            return None
        dest, spec = options[token]
        if spec.get("action") == "store_true":
            setattr(args, dest, True)
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:  # not an int
            return None
        if spec.get("action") == "append":
            value = (getattr(args, dest) or []) + [value]
        setattr(args, dest, value)
    return args if hasattr(args, "file") == (("file", {}) in arguments) else None


def command_parser(ap, command: str):
    """Give ``ap`` the arguments of ``command``, and its handler as ``fn``."""
    for name, options in COMMANDS[command][2] + [JSON_OPTION]:
        ap.add_argument(name, **options)
    ap.set_defaults(fn=COMMANDS[command][0], command=command)
    return ap


def parse_args(argv: list):
    """Read ``argv`` with argparse, which alone prints help and usage errors."""
    import argparse

    if argv and argv[0] in COMMANDS:
        ap = command_parser(argparse.ArgumentParser(prog=f"tierlang {argv[0]}"), argv[0])
        return ap.parse_args(argv[1:])
    ap = argparse.ArgumentParser(prog="tierlang", description="Safety inference, "
                                 "execution, and aperiodicity monitoring for the "
                                 "tiered toy languages.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _) in COMMANDS.items():
        command_parser(sub.add_parser(command, help=help_line), command)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_args(argv) or parse_args(argv)
    # A command builds trees that grow with its input but makes almost no
    # reference cycles, so the cyclic collector would only walk them again and
    # again; it is paused for this one command and left as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except Exception as exc:  # a bug; it still gets a report and its own exit code
        report = blank_report(args.command, getattr(args, "file", None))
        report["error"] = "internal"
        report["explanation"] = f"{type(exc).__name__}: {exc}"
        return emit(report, args.json, [f"internal error: {report['explanation']}"])
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
