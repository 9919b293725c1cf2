import json
import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tierlang import cli, parser  # noqa: E402
from tierlang.interp1 import DEFAULT_BUDGET, Interp  # noqa: E402
from tierlang.secondorder import Interp2, simple_typecheck  # noqa: E402
from tierlang.syntax import (  # noqa: E402
    Assign, Break, Declass, For, If, OpApp, OracleBreak, OracleCall, Program2, Var, While,
)


def corpus(name: str) -> str:
    return str(ROOT / "corpus" / name)


def run(program, inputs, oracles=None, budget=DEFAULT_BUDGET, monitor=False):
    """(result, stats) of a run of either order that ends in a result.

    A second-order program is simply typed first, as ``tierlang run`` does:
    ``Interp2`` runs only typed programs.
    """
    if isinstance(program, Program2):
        simple_typecheck(program)
        interp = Interp2(program, oracles or {}, budget, monitor)
        return interp.run(inputs), interp.stats
    interp = Interp(budget, monitor)
    return interp.run(program, inputs), interp.stats


def iter_exprs(e):
    """Pre-order traversal of an expression tree, on an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (OpApp, OracleCall)):
            stack.extend(reversed(e.args))
        elif isinstance(e, Declass):
            stack += (e.bound, e.expr)


def stmt_exprs(s):
    """The expressions occurring directly in one statement node.

    An oracle break gives its call and its reference call.
    """
    if isinstance(s, Assign):
        yield s.expr
    elif isinstance(s, (If, While, Break)):
        yield s.guard
    elif isinstance(s, OracleBreak):
        yield OracleCall(s.oracle, s.call_args)
        yield OracleCall(s.oracle, tuple(Var(v) for v in s.ref_vars))
    elif isinstance(s, For):
        yield s.low
        yield s.high


def procedure(program, name: str):
    """The procedure of a second-order program called ``name``."""
    return next(p for p in program.procedures if p.name == name)


def straight_line(n: int) -> str:
    """A program of n assignments and no loops or branches.

    Run on a = eps it returns 1^(n // 3 - 1) when 3 divides n.
    """
    stmts = ["a := a + u1", "b := tl(a)", "c := declass(b, a)"]
    body = ";\n".join(f"  {stmts[i % 3]}" for i in range(n))
    return f"prog(a){{\n{body}\n  return c\n}}\n"


def assert_linear_growth(work, n: int) -> None:
    """Fail unless ``work`` takes less than 8 times as long at size 4n as at n.

    ``work(k)`` builds an input of size k and returns the thunk to time on it;
    each size reads the best of 3 runs of its thunk.  One pass over the input
    reads about 4 from n to 4n and a pass per element about 16.
    """
    best = []
    for k in (n, 4 * n):
        thunk, runs = work(k), []
        for _ in range(3):
            start = time.perf_counter()
            thunk()
            runs.append(time.perf_counter() - start)
        best.append(min(runs))
    ratio = best[1] / best[0]
    assert ratio < 8, f"n = {n}: {best[0]:.4f} s, 4n: {best[1]:.4f} s, ratio {ratio:.1f}"


# An oracle break whose call arguments hold operators and a declass.
ORACLE_BREAK_WITH_OPERATORS = """box[F, z] in
declare p(X, s, r){
  var y, i;
  y := s;
  i := s;
  while(y > u0){
    break(|X(tl(i), declass(hd(i), y))| > |X(r, s)|);
    i := truncate(X(tl(i), declass(hd(i), y)), r);
    if(hd(y) = u1){ y := y - u1 } else { y := tl(y) }
  };
  return y
} in
call p(F, z, z)"""


@pytest.fixture
def default_recursion_limit():
    """Run the test at Python's default recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def bubble():
    return parser.parse_file(corpus("bubble.tl"))


@pytest.fixture(scope="session")
def iterator_program():
    return parser.parse_file(corpus("I.tl2"))


@pytest.fixture(autouse=True)
def json_reports_read_as_json_dumps(monkeypatch):
    """Every --json report the CLI prints in a test is json.dumps(report, indent=2).

    Each report is kept as text, its compact ``json.dumps`` (the C encoder,
    which leaves no cyclic garbage) and what ``cli.json_text`` wrote, and
    judged once the test is done, so a test that counts the objects or the
    garbage a command leaves sees none of them.
    """
    reports, emit = [], cli.emit

    def kept(report, as_json, lines):
        code = emit(report, as_json, lines)
        if as_json:
            reports.append((json.dumps(report), cli.json_text(report)))
        return code

    monkeypatch.setattr(cli, "emit", kept)
    yield
    for compact, text in reports:
        assert text == json.dumps(json.loads(compact), indent=2)
