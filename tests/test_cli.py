import json

import jsonschema
import pytest

from conftest import ROOT, corpus
from tierlang import cli

SCHEMA = json.loads((ROOT / "report.schema.json").read_text())


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


def test_check_missing_file(capsys):
    assert_io_error(capsys, "check", "no/such/file.tl")


def test_run_bad_word(capsys):
    assert_io_error(capsys, "run", corpus("exp2.tl"), "--input", "y=abc")


@pytest.mark.parametrize(
    "argv",
    [
        ("forcheck", "no/such/file.tl"),
        ("run", "no/such/file.tl"),
        ("run", corpus("exp2.tl"), "--input", "y"),
        ("run", corpus("I.tl2"), "--oracle", "F=builtin:nope"),
        ("run", corpus("I.tl2"), "--oracle", "F"),
        ("run", corpus("I.tl2"), "--oracle", "F=prog:no/such/file.tl"),
    ],
)
def test_io_errors(capsys, argv):
    assert_io_error(capsys, *argv)


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


def test_forcheck(capsys):
    assert run_json(capsys, "forcheck", corpus("bubble_for.tl"))[0] == 0
    assert run_json(capsys, "forcheck", corpus("bubble.tl"))[0] == 1
    assert run_json(capsys, "forcheck", corpus("exp2.tl"))[0] == 1


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


def test_desugar_prints_whiles(capsys):
    code, out = run_cli(capsys, "desugar", corpus("bubble_for.tl"))
    assert code == 0
    assert "while(" in out and "for " not in out
    from tierlang import parser

    assert parser.parse(out) == parser.parse_file(corpus("bubble_for.tl"))


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "15")
    code, report = run_json(capsys, "run", corpus("bubble.tl"), "--input", "list=1100")
    assert code == 3
    assert report["stop"]["kind"] == "budget-exhausted"


def test_env_budget_not_a_number(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "abc")
    report = assert_io_error(capsys, "run", corpus("bubble.tl"), "--input", "list=1100")
    assert cli.ENV_BUDGET in report["explanation"]


def test_exit_codes_pure_function_of_report(capsys):
    cases = [
        ("check", corpus("bubble.tl")),
        ("check", corpus("inc_loop.tl")),
        ("forcheck", corpus("exp2.tl")),
        ("ops",),
    ]
    for argv in cases:
        code, report = run_json(capsys, *argv)
        assert cli.exit_code_for(report) == code


def test_guardedness_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.tl2"
    bad.write_text(
        "box[F, z] in declare p(X, y){"
        " while(y > u0){ y := X(X(y)) }; return y } in call p(F, z)\n"
    )
    code, report = run_json(capsys, "check", str(bad))
    assert code == 2
    assert report["verdicts"]["guarded"] is False
