import argparse
import gc
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import typing
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, corpus, straight_line
import tierlang
from tierlang import cli, interp1, opreg, parser, safety1, secondorder

SCHEMA = json.loads((ROOT / "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_code"] == code
    assert cli.exit_code_for(report) == code
    return code, report


def test_check_bubble(capsys):
    code, report = run_json(capsys, "check", corpus("bubble.tl"))
    assert code == 0
    assert report["verdicts"]["safety"] is True
    gamma = {k: int(v) for k, v in report["gamma"].items()}
    assert min(gamma[v] for v in ("list", "list1", "len1", "len2")) > max(
        gamma[v] for v in ("list2", "len", "x", "y", "r")
    )


def test_check_inc_loop(capsys):
    code, report = run_json(capsys, "check", corpus("inc_loop.tl"))
    assert code == 1
    assert report["verdicts"]["safety"] is False
    assert report["explanation"]


def test_check_second_order(capsys):
    code, report = run_json(capsys, "check", corpus("I.tl2"))
    assert code == 0
    assert report["verdicts"]["guarded"] is True
    assert report["verdicts"]["simple_type"] is True
    assert report["verdicts"]["safety"] is True
    assert report["program_type"] == "(W -> W) -> W -> W -> W -> W"
    assert report["omega"]["iterate"]["gamma"]["r"] == "2"


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tl"
    bad.write_text("prog(x){z := declass(y) return z}")
    code, report = run_json(capsys, "check", str(bad))
    assert code == 2
    assert report["verdicts"]["parse"] is False


@pytest.mark.parametrize("source, name", [
    ("prog(x, x){ y := x return y }", "x"),
    ("box[F, u] in declare p(X, a, a){ var y; y := a; return y } in call p(F, u, u)", "a"),
    ("box[F, u] in declare p(X, a){ var y; var y; y := a; return y } in call p(F, u)", "y"),
    ("box[F, u, u] in declare p(X, a){ var y; y := a; return y } in call p(F, u)", "u"),
    ("box[F, u] in declare p(X, a){ var y; y := a; return y } in call p(lambda(w, w). w, u)",
     "w"),
])
def test_a_name_bound_twice_exits_2_under_check_and_run(tmp_path, capsys, source, name):
    """Once, ``prog(x, x)`` checked safe and its run kept only the last input."""
    path = tmp_path / ("dup.tl" if source.startswith("prog") else "dup.tl2")
    path.write_text(source)
    for command in ("check", "run"):
        code, report = run_json(capsys, command, str(path))
        assert code == 2 and report["verdicts"]["parse"] is False
        assert report["explanation"].startswith(f"variable {name} is bound twice at 1:")


def test_check_missing_file(capsys):
    assert_io_error(capsys, "check", "no/such/file.tl")


def test_run_bad_word(capsys):
    assert_io_error(capsys, "run", corpus("exp2.tl"), "--input", "y=abc")
    for digits in ("\u0663", "\u00b2"):  # Arabic-Indic three, superscript two
        report = assert_io_error(capsys, "run", corpus("exp2.tl"), "--input", f"y=u{digits}")
        assert report["explanation"].startswith("not a word")


UNALLOCATABLE = """
import contextlib, io, json, resource, sys
from tierlang import cli

_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
outcomes = []
for argv in (["check", sys.argv[1]], ["run", sys.argv[2], "--input", "x=u9999999999"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    outcomes.append((code, json.loads(out.getvalue())))
print(json.dumps(outcomes))
"""


def test_unary_literals_too_long_to_allocate(tmp_path):
    # 10^10 symbols fit in sys.maxsize but not in the child's 1 GiB of address space.
    source = tmp_path / "big.tl"
    source.write_text("prog(x){x := u9999999999 return x}")
    proc = subprocess.run(
        [sys.executable, "-c", UNALLOCATABLE, str(source), corpus("exp1.tl")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    (check_code, check), (run_code, run) = json.loads(proc.stdout)
    for report in (check, run):
        VALIDATOR.validate(report)
        assert "u9999999999 is too long a word to allocate" in report["explanation"]
    assert check_code == 2 and check["verdicts"]["parse"] is False
    assert check["explanation"].endswith(" at 1:14")  # at the literal
    assert run_code == 4 and run["error"] == "io"


@pytest.mark.parametrize(
    "argv",
    [
        ("forcheck", "no/such/file.tl"),
        ("desugar", "no/such/file.tl"),
        ("run", "no/such/file.tl"),
        ("run", corpus("exp2.tl"), "--input", "y"),
        ("run", corpus("I.tl2"), "--oracle", "F=builtin:nope"),
        ("run", corpus("I.tl2"), "--oracle", "F"),
        ("run", corpus("I.tl2"), "--oracle", "F=prog:no/such/file.tl"),
        ("run", corpus("exp1.tl"), "--input", "x=u3", "--max-steps", "-5"),
        ("run", corpus("exp1.tl"), "--input", f"x=u{sys.maxsize + 1}"),
        ("run", corpus("exp1.tl"), "--input", "x=u99999999999999999999"),
        ("ops", "--validate", "-1"),
        ("check", corpus("bubble.tl"), "--delta", "{bad"),
        ("check", corpus("bubble.tl"), "--delta", "[1,2]"),
        ("check", corpus("bubble.tl"), "--delta", "null"),
        ("check", corpus("bubble.tl"), "--delta", "[]"),
        ("check", corpus("bubble.tl"), "--delta", "0"),
        ("check", corpus("bubble.tl"), "--delta", "false"),
        ("check", corpus("bubble.tl"), "--delta", '""'),
        ("check", corpus("bubble.tl"), "--delta", '{"nope": [[1, 1]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"const:2": [[1]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1, 1, 1]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1, 1.5]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1, true]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1, "1"]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": [[1, -1]]}'),
        ("check", corpus("bubble.tl"), "--delta", '{"dec": "11"}'),
    ],
)
def test_io_errors(tmp_path, capsys, argv):
    if "--delta" in argv:  # the last argument is the text of the --delta file
        delta = tmp_path / "delta.json"
        delta.write_text(argv[-1])
        argv = argv[:-1] + (str(delta),)
    assert_io_error(capsys, *argv)


def test_stop_kinds_are_the_runtime_stops():
    """The schema's stop kinds are exactly the subcodes a run can stop with."""
    kinds = SCHEMA["properties"]["stop"]["properties"]["kind"]["enum"]
    stops, subcodes = [interp1.RuntimeStop], set()
    while stops:
        for sub in stops.pop().__subclasses__():
            subcodes.add(sub.subcode)
            stops.append(sub)
    assert sorted(kinds) == sorted(subcodes)
    assert not hasattr(interp1.RuntimeStop, "subcode")


@pytest.mark.parametrize("command", ["check", "run", "forcheck", "desugar"])
def test_undecodable_file_is_an_io_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.tl"
    bad.write_bytes(b"prog(x){ skip return x }\xff")
    assert_io_error(capsys, command, str(bad))


def assert_io_error(capsys, *argv):
    code, report = run_json(capsys, *argv)
    assert code == cli.exit_code_for(report) == 4
    assert report["error"] == "io"
    assert report["explanation"]
    return report


def test_run_bubble(capsys):
    code, report = run_json(
        capsys, "run", corpus("bubble.tl"), "--input", "list=1100", "--monitor"
    )
    assert code == 0
    assert report["result"] == "0011"
    assert report["verdicts"]["aperiodic"] is True
    assert report["stats"]["steps"] > 0


def test_run_exp2_monitor(capsys):
    code, report = run_json(
        capsys, "run", corpus("exp2.tl"), "--input", "y=100", "--monitor"
    )
    assert code == 3
    assert report["stop"]["kind"] == "aperiodicity-violation"
    assert report["stop"]["iteration"] == 2
    assert report["verdicts"]["aperiodic"] is False


def test_run_exp2_budget(capsys):
    code, report = run_json(
        capsys, "run", corpus("exp2.tl"), "--input", "y=100", "--max-steps", "20"
    )
    assert code == 3
    assert report["stop"]["kind"] == "budget-exhausted"


def test_run_missing_input_defaults(capsys):
    code, report = run_json(capsys, "run", corpus("exp2.tl"))
    assert code == 0  # y defaults to eps; the loop exits after one pass
    assert report["result"] == ""


def test_run_unary_input_form(capsys):
    code, report = run_json(
        capsys, "run", corpus("exp1.tl"), "--input", "x=u4", "--input", "y=u0"
    )
    assert code == 0
    assert set(report["result"]) <= {"1"}


def test_run_second_order(capsys):
    code, report = run_json(
        capsys,
        "run",
        corpus("I.tl2"),
        "--oracle",
        "F=builtin:append1",
        "--input",
        "u=1",
        "--input",
        "v=1111",
        "--input",
        "w=111",
        "--monitor",
    )
    assert code == 0
    assert report["result"] == "1111"
    assert report["stats"]["oracle_calls"] > 0


def test_an_oracle_under_an_unboxed_name_binds_nothing(tmp_path, capsys):
    # G is not boxed, so the program does not simply type, and run refuses
    # it before it starts, whatever oracle the command line supplies under
    # that name.
    path = tmp_path / "unboxed.tl2"
    path.write_text("box[F, z] in\n"
                    "declare p(X, y){ var t; t := X(y) return t } in\n"
                    "call p(G, z)\n")
    argv = ["run", str(path), "--oracle", "F=builtin:double", "--input", "z=1"]
    code, report = run_json(capsys, *argv)
    assert (code, report["verdicts"]["simple_type"], report["verdicts"]["ran"]) == (2, False, None)
    assert report["explanation"] == "closure variable G is not a boxed oracle"
    assert (report["result"], report["stats"]) == (None, None)
    assert run_json(capsys, *argv, "--oracle", "G=builtin:append1") == (code, report)
    assert run_cli(capsys, *argv) == (
        2, "simple-type error: closure variable G is not a boxed oracle\n"
    )


def test_a_well_typed_run_leaves_the_type_verdict_open(capsys):
    # run types the program, but reports only a failure, as it leaves the
    # guardedness verdict to check.
    code, report = run_json(capsys, "run", corpus("I.tl2"), "--oracle", "F=builtin:append1")
    assert code == 0
    assert report["verdicts"] == {
        "parse": True, "guarded": None, "simple_type": None, "safety": None,
        "for_program": None, "aperiodic": None, "ran": True,
    }


@pytest.mark.parametrize("source, where", [
    ("prog(x){ y := truncate(F(x), x) return y }", "1:24"),
    ("prog(x, y){ break(|F(x)| > |F(y)|) return x }", "1:20"),
], ids=["truncate", "break"])
def test_a_first_order_oracle_node_is_unsafe_and_cannot_run(tmp_path, capsys, source, where):
    path = tmp_path / "oracle.tl"
    path.write_text(source + "\n")
    explanation = f"oracle calls cannot occur in first-order programs at {where}"
    for argv in (["check"], ["forcheck"], ["run", "--input", "x=1", "--input", "y=1"]):
        code, report = run_json(capsys, argv[0], str(path), *argv[1:])
        assert (code, report["verdicts"]["parse"]) == (2, False)
        assert report["explanation"] == explanation


def test_a_run_without_its_oracle_is_an_io_error(capsys):
    report = assert_io_error(capsys, "run", corpus("I.tl2"), "--input", "u=1")
    assert report["explanation"] == "no oracle supplied for F"
    assert report["verdicts"]["ran"] is None


def test_a_prog_oracle_of_the_wrong_arity_is_an_io_error(tmp_path, capsys):
    pair = tmp_path / "pair.tl"
    pair.write_text("prog(a, b){ c := a + b return c }\n")
    report = assert_io_error(capsys, "run", corpus("I.tl2"), "--oracle", f"F=prog:{pair}")
    assert report["explanation"] == "oracle for F must have arity 1, got 2"
    assert report["verdicts"]["ran"] is None


def readme_command_lines() -> list:
    """The ``tierlang`` lines of the README's Command line block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tierlang ")]


@pytest.mark.parametrize("line", readme_command_lines(),
                         ids=lambda line: " ".join(line.partition("#")[0].split()[1:]))
def test_the_readme_command_lines_run_as_documented(capsys, monkeypatch, line):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("TIERLANG_MAX_STEPS", raising=False)
    command, _, comment = line.partition("#")
    code, report = run_json(capsys, *command.split()[1:])
    assert code != 5, report
    if comment.strip().startswith("exit "):
        assert code == int(comment.split()[1].rstrip(","))


def test_forcheck(capsys):
    assert run_json(capsys, "forcheck", corpus("bubble_for.tl"))[0] == 0
    assert run_json(capsys, "forcheck", corpus("bubble.tl"))[0] == 1
    assert run_json(capsys, "forcheck", corpus("exp2.tl"))[0] == 1


def test_forcheck_rejects_a_for_loop_that_never_ends(capsys, tmp_path):
    # while(eps <= i) always holds: the run exhausts any budget
    path = tmp_path / "forever.tl"
    path.write_text("prog(n){for i = u0 to n { skip } return n}\n")
    code, report = run_json(capsys, "forcheck", str(path))
    assert code == 1 and report["verdicts"]["for_program"] is False
    assert report["explanation"] == (
        "the for loop at line 1 counts down to eps, which is not a constant "
        "non-empty word, so it need not end"
    )
    code, report = run_json(capsys, "run", str(path), "--input", "n=u2", "--max-steps", "5000")
    assert report["stop"]["kind"] == "budget-exhausted"


def test_forcheck_rejects_a_second_order_program(capsys):
    assert run_cli(capsys, "forcheck", corpus("I.tl2")) == (
        1, "rejected: not a first-order program\n"
    )
    code, report = run_json(capsys, "forcheck", corpus("I.tl2"))
    assert code == 1 and report["verdicts"]["for_program"] is False


@pytest.mark.parametrize("command", ["check", "run", "forcheck", "desugar"])
@pytest.mark.parametrize(
    "source, name, order", [("I.tl2", "I.tl", "first"), ("exp1.tl", "exp1.tl2", "second")]
)
def test_the_extension_names_the_language(tmp_path, capsys, command, source, name, order):
    mislabeled = tmp_path / name
    mislabeled.write_text(open(corpus(source)).read())
    code, report = run_json(capsys, command, str(mislabeled))
    assert code == 2
    assert report["verdicts"]["parse"] is False
    assert report["explanation"] == f"{mislabeled}: expected a {order}-order program"


TL2_ORACLE = "{} is a .tl2 file; a prog: oracle is a first-order program"


@pytest.mark.parametrize("source, name, code, explanation", [
    ("bubble.tl", "X.tl2", 4, TL2_ORACLE),
    ("I.tl2", "X.tl2", 4, TL2_ORACLE),
    ("I.tl2", "X.tl", 2, "{}: expected a first-order program"),
])
def test_the_extension_names_a_program_oracles_language(
    tmp_path, capsys, source, name, code, explanation
):
    """A .tl2 path is no oracle whatever it holds; a .tl path must hold a .tl program."""
    mislabeled = tmp_path / name
    mislabeled.write_text(open(corpus(source)).read())
    got, report = run_json(capsys, "run", corpus("I.tl2"), "--oracle", f"F=prog:{mislabeled}")
    assert got == code
    assert report["error"] == ("io" if code == 4 else None)
    assert report["verdicts"]["parse"] is (None if code == 4 else False)
    assert report["explanation"] == explanation.format(mislabeled)


@pytest.mark.parametrize("source, explanation", [
    pytest.param(
        "box[z] in declare p(,y){skip return y} in declare p(,x){skip return x} in call p(,z)",
        "procedure p declared more than once", id="duplicate-procedure"),
    pytest.param(
        "box[z] in declare p(,y){var y; skip return y} in call p(,z)",
        "name clash between parameters of p and locals of p: ['y']", id="parameter-is-a-local"),
    pytest.param(
        "box[F, z] in declare p(X, y){var t; t := G(y) return t} in call p(F, z)",
        "procedure p: oracle variable G is not a parameter", id="oracle-not-a-parameter"),
    pytest.param(
        "box[z] in declare p(,y){skip return y} in declare q(,y){skip return y} in call p(,z)",
        "name clash between parameters of p and parameters of q: ['y']", id="binder-clash"),
    pytest.param(
        "box[w] in declare p(,x){var y; y := x return y} in "
        "declare q(,y){var x; x := y return x} in call p(,w)",
        "name clash between parameters of p and locals of q: ['x']", id="first-clash-in-order"),
    pytest.param(
        "box[z] in declare p(,y){skip return y} in call p(,w)",
        "unbound term variable w", id="unbound-term-variable"),
    pytest.param(
        "box[z] in declare p(,y){skip return y} in call p(,y)",
        "unbound term variable y", id="unbound-name-of-a-parameter"),
    pytest.param(
        "box[F, z] in declare p(X, y){var t; t := X(y) return t} in call p(G, z)",
        "closure variable G is not a boxed oracle", id="closure-variable-not-boxed"),
    pytest.param(
        "box[F, z] in declare p(X, y){var t; t := X(y) return t} in call p(lambda(a, b). a, z)",
        "closure for X of p must take 1 argument(s), got 2", id="lambda-arity"),
    pytest.param(
        "box[z] in declare p(,y){skip return y} in call p(,z, z)",
        "p expects 1 word argument(s), got 2", id="word-argument-count"),
])
def test_simple_type_errors_are_explained(tmp_path, capsys, source, explanation):
    path = tmp_path / "ill_typed.tl2"
    path.write_text(source + "\n")
    code, report = run_json(capsys, "check", str(path))
    assert code == 1
    assert report["verdicts"]["simple_type"] is False
    assert report["explanation"] == explanation
    # run refuses the program with the same explanation, as a front-end error
    code, report = run_json(capsys, "run", str(path), "--oracle", "F=builtin:append1")
    assert (code, report["verdicts"]["simple_type"], report["verdicts"]["ran"]) == (2, False, None)
    assert report["explanation"] == explanation


def test_ops_listing(capsys):
    code, report = run_json(capsys, "ops")
    assert code == 0
    names = {o["name"] for o in report["operators"]}
    assert {"eq", "truncate", "cons", "pad", "inc", "dec", "len"} <= names
    assert len(report["operators"]) == 22


def test_ops_validation_clean(capsys):
    code, report = run_json(capsys, "ops", "--validate", "200")
    assert code == 0
    assert report["validation"]["counterexamples"] == []


def test_delta_config_restricts(tmp_path, capsys):
    config = tmp_path / "delta.json"
    config.write_text(json.dumps({"gt": [[1, 1, 1]]}))
    code, report = run_json(
        capsys, "check", corpus("bubble.tl"), "--delta", str(config)
    )
    assert code == 1
    assert "forbidden" in report["explanation"]


@pytest.mark.parametrize("name", ["bubble.tl", "inc_loop.tl", "I.tl2"])
def test_check_builds_no_derivation(capsys, monkeypatch, name):
    _, expected = run_json(capsys, "check", corpus(name))

    def refuse(*args):
        raise AssertionError("check built a derivation")

    monkeypatch.setattr(safety1._DerivationBuilder, "stmt", refuse)
    code, report = run_json(capsys, "check", corpus(name))
    assert report == expected
    assert code == (1 if name == "inc_loop.tl" else 0)


def test_desugar_prints_whiles(capsys):
    code, out = run_cli(capsys, "desugar", corpus("bubble_for.tl"))
    assert code == 0
    assert "while(" in out and "for " not in out
    assert parser.parse(out) == parser.parse_file(corpus("bubble_for.tl"))


def test_desugar_json_carries_the_source(tmp_path, capsys):
    _, out = run_cli(capsys, "desugar", corpus("bubble_for.tl"))
    code, report = run_json(capsys, "desugar", corpus("bubble_for.tl"))
    assert code == 0
    assert report["verdicts"]["parse"] is True
    assert report["source"] == out
    bad = tmp_path / "bad.tl"
    bad.write_text("prog(n){for i = u0 to n { i := n } return n}")
    code, report = run_json(capsys, "desugar", str(bad))
    assert code == 2
    assert report["verdicts"]["parse"] is False
    assert "must not occur" in report["explanation"]
    assert report["source"] is None


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "15")
    code, report = run_json(capsys, "run", corpus("bubble.tl"), "--input", "list=1100")
    assert code == 3
    assert report["stop"]["kind"] == "budget-exhausted"


def test_env_budget_not_a_number(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "abc")
    report = assert_io_error(capsys, "run", corpus("bubble.tl"), "--input", "list=1100")
    assert cli.ENV_BUDGET in report["explanation"]


def assert_zero_budget_stops_at_once(capsys, *argv):
    code, report = run_json(capsys, "run", corpus("exp1.tl"), "--input", "x=u3", *argv)
    assert code == 3
    assert report["stop"]["kind"] == "budget-exhausted"
    assert report["stats"]["steps"] == 1


def test_env_budget_negative(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "-3")
    report = assert_io_error(capsys, "run", corpus("exp1.tl"), "--input", "x=u3")
    assert cli.ENV_BUDGET in report["explanation"]
    assert report["stats"] is None
    monkeypatch.setenv(cli.ENV_BUDGET, "0")
    assert_zero_budget_stops_at_once(capsys)


def test_max_steps_negative(capsys):
    report = assert_io_error(
        capsys, "run", corpus("exp1.tl"), "--input", "x=u3", "--max-steps", "-5"
    )
    assert "--max-steps" in report["explanation"]
    assert report["stats"] is None
    assert_zero_budget_stops_at_once(capsys, "--max-steps", "0")


def test_ops_validation_reports_a_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(opreg.BUILTINS.lookup("inc"), "kind", "neutral")
    code, report = run_json(capsys, "ops", "--validate", "50")
    assert code == cli.EXIT_NEGATIVE
    cexs = report["validation"]["counterexamples"]
    assert cexs and {c["op"] for c in cexs} == {"inc"}
    code, out = run_cli(capsys, "ops", "--validate", "50")
    assert code == cli.EXIT_NEGATIVE
    assert f"{len(cexs)} counterexample(s)" in out
    assert any(line.startswith("  inc(") for line in out.splitlines())


def test_an_unknown_oracle_spec_is_an_io_error(capsys):
    report = assert_io_error(capsys, "run", corpus("I.tl2"), "--oracle", "F=nosuch")
    assert report["explanation"] == "unknown oracle spec 'nosuch'"


def test_an_oracle_of_no_arguments(tmp_path, capsys):
    oracle = tmp_path / "const.tl"
    oracle.write_text('prog(){ r := "11" return r }')
    program = tmp_path / "zero.tl2"
    program.write_text(
        "box[F, z] in declare p(X, s){ var y, t; y := s; while(y > u0){ "
        "break(|X()| > |X()|); t := truncate(X(), s); y := y - u1 }; return t } "
        "in call p(F, z)"
    )
    assert run_json(capsys, "check", str(program))[0] == cli.EXIT_OK
    code, report = run_json(capsys, "run", str(program), "--oracle", f"F=prog:{oracle}",
                            "--input", "z=111", "--monitor")
    assert code == cli.EXIT_OK
    assert report["result"] == "11"
    assert report["verdicts"]["aperiodic"] is True


def test_ops_validate_negative(capsys):
    report = assert_io_error(capsys, "ops", "--validate", "-1")
    assert "--validate" in report["explanation"]
    assert report["operators"] is None
    code, report = run_json(capsys, "ops", "--validate", "0")
    assert code == 0
    assert report["validation"] is None
    assert len(report["operators"]) == 22


def test_delta_levels_are_ints_or_inf(tmp_path, capsys):
    config = tmp_path / "delta.json"
    config.write_text(json.dumps({"gt": [[1, "inf", 0]], "dec": [], "const:1": [[0]]}))
    code, report = run_json(capsys, "check", corpus("bubble.tl"), "--delta", str(config))
    assert code == 1
    assert "const:1 with levels 0 is forbidden" in report["explanation"]
    config.write_text(json.dumps({"const:1": [[False]]}))
    assert_io_error(capsys, "check", corpus("bubble.tl"), "--delta", str(config))


def test_exit_codes_pure_function_of_report(tmp_path, capsys):
    ill_typed = tmp_path / "ill_typed.tl2"
    ill_typed.write_text("box[z] in declare p(,y){skip return y} in call p(,w)\n")
    cases = [
        ("check", corpus("bubble.tl")),
        ("check", corpus("inc_loop.tl")),
        ("forcheck", corpus("exp2.tl")),
        ("ops",),
        ("run", str(ill_typed)),
    ]
    for argv in cases:
        code, report = run_json(capsys, *argv)
        assert cli.exit_code_for(report) == code
    assert (code, report["verdicts"]["simple_type"]) == (2, False)


def test_internal_error_gets_a_report(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(safety1, "infer_safety", broken)
    code, report = run_json(capsys, "check", corpus("bubble.tl"))
    assert code == cli.EXIT_INTERNAL == 5
    assert report["error"] == "internal"
    assert report["explanation"] == "RuntimeError: boom"
    assert run_cli(capsys, "check", corpus("bubble.tl")) == (
        5, "internal error: RuntimeError: boom\n"
    )


def test_guardedness_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.tl2"
    bad.write_text(
        "box[F, z] in declare p(X, y){"
        " while(y > u0){ y := X(X(y)) }; return y } in call p(F, z)\n"
    )
    code, report = run_json(capsys, "check", str(bad))
    assert code == 2
    assert report["verdicts"]["guarded"] is False


# Keywords, identifiers, operators, braces, parentheses and ";", with a few
# program openings and an ending so that some streams get past the header
# (the empty stream after the fourth opening is a whole program).
FUZZ_TOKENS = [
    "prog", "skip", "if", "else", "while", "break", "for", "to", "return",
    "declass", "box", "in", "declare", "call", "lambda", "var", "true",
    "false", "eps", "and", "or", "x", "y", "tl", "cons", "truncate", "X", "F",
    '"01"', "u2", ":=", "=", "<", "<=", ">=", ">", "!=", "+", "-", "|", ",",
    ".", "[", "]", "{", "}", "(", ")", ";",
]
FUZZ_OPENINGS = [
    "", "prog(x){", "box[F, x] in declare p(X, y){ var z;",
    "box[F, x] in declare p(X, y){ var z; z := X(y)", "call p(",
]
FUZZ_ORACLES = ["F=builtin:append1", f"F=prog:{corpus('bubble.tl')}"]


def fuzz_report(argv) -> dict:
    """The schema-valid --json report of ``argv``, which exits with its code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json"])
    report = json.loads(out.getvalue())
    VALIDATOR.validate(report)
    assert code == cli.exit_code_for(report)
    assert report["error"] != "internal", report["explanation"]
    return report


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FUZZ_OPENINGS),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40),
    st.sampled_from(["", " return x }", " return z } in call p(F, x)"]),
)
def test_random_token_streams_get_a_report(tmp_path_factory, opening, tokens, ending):
    # Second-order openings go to a .tl2 file, so their streams reach the
    # checker; each one that parses is also run, with either kind of oracle.
    suffix = ".tl2" if opening.startswith(("box", "call")) else ".tl"
    path = tmp_path_factory.getbasetemp() / f"fuzz{suffix}"
    path.write_text(opening + " ".join(tokens) + ending)
    report = fuzz_report(["check", str(path)])
    if suffix == ".tl2" and report["verdicts"]["parse"]:
        for oracle in FUZZ_ORACLES:
            fuzz_report(["run", str(path), "--oracle", oracle, "--input", "x=u2",
                         "--max-steps", "500"])


def option_value_cases():
    """Budgets, validation counts and unary inputs, valid or malformed."""
    budget = st.integers(-10**20, 10**6)
    run = ["run", corpus("exp1.tl")]
    return st.one_of(
        budget.map(lambda n: (run + ["--input", "x=u3", "--max-steps", str(n)], None)),
        budget.map(lambda n: (run + ["--input", "x=u3"], str(n))),
        st.integers(-10**20, 3).map(lambda n: (["ops", "--validate", str(n)], None)),
        st.one_of(st.integers(0, 50), st.integers(sys.maxsize + 1, 10**30)).map(
            lambda n: (run + ["--input", f"x=u{n}"], None)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(option_value_cases())
def test_option_values_get_a_report(case):
    argv, env_budget = case
    out = io.StringIO()
    saved = os.environ.pop(cli.ENV_BUDGET, None)
    try:
        if env_budget is not None:
            os.environ[cli.ENV_BUDGET] = env_budget
        with redirect_stdout(out):
            code = cli.main(argv + ["--json"])
    finally:
        os.environ.pop(cli.ENV_BUDGET, None)
        if saved is not None:
            os.environ[cli.ENV_BUDGET] = saved
    report = json.loads(out.getvalue())
    VALIDATOR.validate(report)
    assert code == cli.exit_code_for(report)
    assert report["error"] != "internal", report["explanation"]


def test_long_straight_line_program(tmp_path, capsys, default_recursion_limit):
    n = 3000  # a right-nested chain of binary sequences hit the limit near 1000
    tl = tmp_path / "long.tl"
    tl.write_text(straight_line(n))
    program = parser.parse_file(str(tl))
    tl2 = tmp_path / "long.tl2"
    tl2.write_text(parser.pretty_print(secondorder.embed_program1(program)))
    for path in (str(tl), str(tl2)):
        assert run_json(capsys, "check", path)[0] == 0
        code, report = run_json(capsys, "run", path, "--input", "a=", "--monitor")
        assert code == 0
        assert report["result"] == "1" * (n // 3 - 1)
    assert run_json(capsys, "forcheck", str(tl))[0] == 0
    code, out = run_cli(capsys, "desugar", str(tl))
    assert code == cli.EXIT_OK
    assert parser.parse(out) == program


def nested_program(ifs: int, tls: int, wrap: str = "{}") -> str:
    """``ifs`` nested ifs around x := wrap(tl(...tl(x)...)), ``tls`` calls deep.

    The innermost x sits ifs + 1 + tls levels deep, plus what ``wrap`` adds.
    """
    expr = wrap.format("tl(" * tls + "x" + ")" * tls)
    stmt = f"x := {expr}"
    for _ in range(ifs):
        stmt = f"if(true){{ {stmt} }} else {{ skip }}"
    return f"prog(x){{ {stmt} return x }}"


def test_nesting_at_the_limit(tmp_path, capsys, default_recursion_limit):
    path = tmp_path / "deep.tl"
    path.write_text(nested_program(40, parser.MAX_NESTING - 41))
    assert run_json(capsys, "check", str(path))[0] == 0
    assert run_json(capsys, "forcheck", str(path))[0] == 0
    code, report = run_json(capsys, "run", str(path), "--input", "x=11", "--monitor")
    assert code == 0 and report["verdicts"]["aperiodic"] is True


@pytest.mark.parametrize(
    "ifs, tls, wrap",
    [
        (41, parser.MAX_NESTING - 41, "{}"),  # one more block
        (40, parser.MAX_NESTING - 40, "{}"),  # one more operand
        (40, parser.MAX_NESTING - 41, "({})"),  # parentheses
        (40, parser.MAX_NESTING - 41, "{} + u1"),  # a left operand
        (40, parser.MAX_NESTING - 41, "{} - u1"),
        (parser.MAX_NESTING + 1, 0, "{}"),  # blocks alone
    ],
)
def test_nesting_past_the_limit(tmp_path, capsys, default_recursion_limit, ifs, tls, wrap):
    assert_too_deep(tmp_path, capsys, "deep.tl", nested_program(ifs, tls, wrap))


def assert_too_deep(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    for command in ("check", "forcheck", "run"):
        code, report = run_json(capsys, command, str(path))
        assert code == 2
        assert report["verdicts"]["parse"] is False
        assert f"deeper than {parser.MAX_NESTING}" in report["explanation"]


def nested_calls(calls: int) -> str:
    """A main term of ``calls`` nested procedure calls; z sits ``calls + 1`` levels deep."""
    term = "call p(, " * calls + "z" + ")" * calls
    return f"box[z] in declare p(,y){{skip return y}} in {term}"


def test_nested_calls_at_the_limit(tmp_path, capsys, default_recursion_limit):
    path = tmp_path / "deep.tl2"
    path.write_text(nested_calls(parser.MAX_NESTING - 1))
    code, report = run_json(capsys, "run", str(path), "--input", "z=1")
    assert code == 0 and report["result"] == "1"


@pytest.mark.parametrize(
    "name, text",
    [
        # The while form of the for loop needs three levels below it.
        ("deep.tl", nested_program(98, 0).replace("x := x", "for i = u1 to x { skip }")),
        ("deep.tl2", nested_calls(parser.MAX_NESTING)),
    ],
    ids=["for-loop", "main-term"],
)
def test_nesting_past_the_limit_beyond_assignments(
    tmp_path, capsys, default_recursion_limit, name, text
):
    assert_too_deep(tmp_path, capsys, name, text)


# ---------------------------------------------------------------------------
# Usage errors and help: argparse exits before any command runs


def reference_parser() -> argparse.ArgumentParser:
    """The command line built the old way, every subcommand under one parser.

    Help and usage errors must read byte for byte as this parser prints them.
    """
    ap = argparse.ArgumentParser(
        prog="tierlang",
        description="Safety inference, execution, and aperiodicity monitoring "
        "for the tiered toy languages.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="infer safety (exit 0 safe, 1 unsafe)")
    p.add_argument("file")
    p.add_argument("--delta", help="JSON file restricting admissible operator levels")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("run", help="execute a program")
    p.add_argument("file")
    p.add_argument("--input", action="append", metavar="NAME=WORD")
    p.add_argument("--oracle", action="append", metavar="NAME=SPEC")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--monitor", action="store_true", help="stop on periodic loop states")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser(
        "forcheck", help="accept only safe programs whose loops are all for loops"
    )
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("ops", help="list the operator registry")
    p.add_argument("--validate", type=int, metavar="N", default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("desugar", help="print the desugared program")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    return ap


def usage_outcome(capsys, parse, argv):
    """The exit code, stdout and stderr of a call that argparse ends."""
    with pytest.raises(SystemExit) as stopped:
        parse(list(argv))
    captured = capsys.readouterr()
    return stopped.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        ((), 2),
        (("bogus",), 2),
        (("-h",), 0),
        (("check",), 2),
        (("check", "-h"), 0),
        (("run", "f.tl", "--max-steps", "abc"), 2),
    ],
)
def test_usage_and_help_are_unchanged(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    expected = usage_outcome(capsys, reference_parser().parse_args, argv)
    assert expected[0] == code
    assert usage_outcome(capsys, cli.main, argv) == expected


def test_help_lists_every_command(capsys):
    code, out, err = usage_outcome(capsys, cli.main, ["-h"])
    assert (code, err) == (0, "")
    text = " ".join(out.split())
    for name, help_line in [
        ("check", "infer safety (exit 0 safe, 1 unsafe)"),
        ("run", "execute a program"),
        ("forcheck", "accept only safe programs whose loops are all for loops"),
        ("ops", "list the operator registry"),
        ("desugar", "print the desugared program"),
    ]:
        assert f" {name} {help_line} " in text


def test_unknown_option_after_a_command(capsys):
    code, out, err = usage_outcome(capsys, cli.main, ["check", "f.tl", "--bogus"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --bogus\n")


def count_parsers(monkeypatch) -> list:
    """The ``prog`` of every ArgumentParser built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_a_plain_command_line_builds_no_parser(capsys, monkeypatch):
    built = count_parsers(monkeypatch)
    code, _ = run_json(capsys, "check", corpus("bubble.tl"))
    assert code == 0
    assert built == []


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = count_parsers(monkeypatch)
    code, _, _ = usage_outcome(capsys, cli.main, ["check", "f.tl", "--bogus"])
    assert code == 2
    assert built == ["tierlang check"]


def cyclic_garbage(work) -> list:
    """The objects that only the cyclic collector frees once ``work()`` is done."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            work()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def run_all(commands) -> None:
    for argv in commands:
        cli.main(list(argv))


def test_a_plain_command_leaves_no_parser_garbage():
    def from_argparse(obj):
        return "argparse" in (type(obj).__module__, getattr(obj, "__module__", None))

    garbage = cyclic_garbage(lambda: cli.main(["check", corpus("bubble.tl"), "--json"]))
    assert [obj for obj in garbage if from_argparse(obj)] == []


def test_commands_leave_no_cyclic_garbage(monkeypatch):
    """The collector is paused during a command, so the command must not need it.

    check of every corpus file and every run of runs.golden.json (each corpus
    file, with stops of every kind) leave nothing for it, with --json or without.
    """
    monkeypatch.chdir(ROOT)
    runs = json.loads((ROOT / "tests" / "runs.golden.json").read_text())
    commands = [["check", str(path)] for path in sorted((ROOT / "corpus").glob("*.tl*"))]
    commands += [case["argv"] for case in runs]
    assert {argv[1] for argv in commands if argv[0] == "run"} == {
        f"corpus/{path.name}" for path in (ROOT / "corpus").glob("*.tl*")
    }
    assert cyclic_garbage(lambda: run_all(commands)) == []
    assert cyclic_garbage(lambda: run_all(argv + ["--json"] for argv in commands)) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    during = []

    def broken(*args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["check", corpus("bubble.tl")]) == cli.EXIT_OK
        assert gc.isenabled() is enabled
        with monkeypatch.context() as patched:
            patched.setattr(safety1, "infer_safety", broken)
            assert cli.main(["check", corpus("bubble.tl")]) == cli.EXIT_INTERNAL
        assert (during, gc.isenabled()) == ([False], enabled)
        with pytest.raises(SystemExit):
            cli.main(["check", corpus("bubble.tl"), "--bogus"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_check_runs_no_collection(tmp_path):
    path = tmp_path / "long.tl"
    path.write_text(straight_line(20_000))
    collections = []

    def count(phase, info):
        # Only collections that start inside cli.main count: once it returns,
        # the collector is back on and may catch up on what main allocated.
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        assert cli.main(["check", str(path)]) == cli.EXIT_OK
    finally:
        gc.callbacks.remove(count)
    assert collections == []
    assert gc.isenabled()


def test_commands_do_not_leak():
    """A caller that collects between commands ends where it started."""
    ops = [
        ["check", corpus("I.tl2"), "--json"],
        ["run", corpus("I.tl2"), "--oracle", "F=builtin:append1",
         "--input", "u=1", "--input", "v=1111", "--input", "w=u3"],
        ["check", corpus("exp1.tl"), "--json"],
        ["run", corpus("exp1.tl"), "--input", "x=111", "--input", "y=1"],
    ]
    assert gc.isenabled()
    objects = {}
    with redirect_stdout(io.StringIO()):
        for i in range(1, 301):
            assert cli.main(list(ops[i % len(ops)])) == cli.EXIT_OK
            if i in (50, 300):
                gc.collect()
                objects[i] = len(gc.get_objects())
    assert objects[300] - objects[50] <= 10, objects


def command_lines():
    """argvs over commands, options in full, abbreviated and with =, and odd values.

    A command's line is its file (if it takes one) and some of its options,
    in any order, plus at most one stray token (one of its options alone, a
    value, or an odd token), so that many lines are plain ones the reader
    accepts and many are one token away from one.
    """
    options = sorted({name for _, _, arguments in cli.COMMANDS.values()
                      for name, _ in arguments if name[0] == "-"} | {"--json"})
    values = st.sampled_from(["5", "x=u3", "", "f.tl", "corpus/I.tl2", "d.json"])
    numbers = st.sampled_from(["5", "0", "12", "\u00b2"])
    odd = values | st.sampled_from(
        options
        + [name[:size] for name in options for size in (3, 5)]
        + [f"{name}={value}" for name in options for value in ("5", "x=u3")]
        + ["-h", "--help", "--", "-5", "-"]
    )

    def option(argument):
        name, spec = argument
        if spec.get("action") == "store_true":
            return st.just((name,))
        return st.tuples(st.just(name), numbers if "type" in spec else values)

    def line(command):
        arguments = cli.COMMANDS[command][2] + [cli.JSON_OPTION]
        own = [argument for argument in arguments if argument[0][0] == "-"]
        files = [values.map(lambda file: [(file,)])] * (("file", {}) in arguments)
        stray = st.sampled_from([name for name, _ in own]) | odd
        chunks = st.tuples(
            st.lists(st.sampled_from(own).flatmap(option), max_size=3),
            *files,
            st.lists(st.tuples(stray), max_size=1),
        ).map(lambda parts: sum(parts, [])).flatmap(st.permutations)
        return chunks.map(lambda cs: [command] + [token for c in cs for token in c])

    return st.one_of(
        st.lists(odd, max_size=3),
        st.sampled_from(sorted(cli.COMMANDS)).flatmap(line),
    )


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_read_args_agrees_with_argparse(argv):
    read = cli.read_args(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = cli.parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or vars(read) == vars(expected)


def test_module_entry_point_reads_sys_argv():
    proc = subprocess.run(
        [sys.executable, "-m", "tierlang.cli", "check", corpus("bubble.tl"), "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    report = json.loads(proc.stdout)
    jsonschema.validate(report, SCHEMA)
    assert proc.returncode == cli.exit_code_for(report) == 0


def test_commands_use_the_one_operator_set(capsys, monkeypatch):
    built = []
    build = opreg.builtin_registry

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(opreg, "builtin_registry", counting_build)
    for argv in (
        ["check", corpus("bubble.tl")],
        ["forcheck", corpus("bubble_for.tl")],
        ["run", corpus("bubble.tl")],
        ["ops"],
    ):
        run_json(capsys, *argv)
    assert built == []

    takers = [name for name, f in package_functions()
              if "registry" in inspect.signature(f).parameters]
    assert takers == []


def package_functions() -> list:
    """(qualified name, function) of every function and method of the package."""
    found = []
    for info in pkgutil.iter_modules(tierlang.__path__):
        module = __import__(f"tierlang.{info.name}", fromlist=["_"])
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in vars(obj).values() if inspect.isclass(obj) else [obj]:
                f = getattr(f, "__func__", getattr(f, "fget", f))  # static, class, property
                if inspect.isfunction(f):
                    found.append((f"{module.__name__}.{f.__qualname__}", f))
    return found


def test_every_annotation_resolves():
    # An annotation may only name what its module imports at module level.
    functions, unresolved = package_functions(), []
    for name, f in functions:
        try:
            typing.get_type_hints(f)
        except NameError:
            unresolved.append(name)
    assert len(functions) > 100 and unresolved == []
