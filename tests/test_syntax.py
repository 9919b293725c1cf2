import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ORACLE_BREAK_WITH_OPERATORS, corpus, iter_exprs, stmt_exprs
from tierlang import genprog, parser
from tierlang.syntax import (
    Assign,
    Declass,
    For,
    If,
    INFINITY,
    OpApp,
    OracleBreak,
    OracleCall,
    Program1,
    Seq,
    Skip,
    Var,
    While,
    collect_names,
    iter_stmts,
)


def loop_nesting_depth(s) -> int:
    """Maximum number of nested While nodes along any path (no For allowed)."""
    if isinstance(s, For):
        raise ValueError("loop_nesting_depth requires desugared statements")
    if isinstance(s, Seq):
        return max(loop_nesting_depth(t) for t in s.stmts)
    if isinstance(s, If):
        return max(loop_nesting_depth(s.then), loop_nesting_depth(s.orelse))
    if isinstance(s, While):
        return 1 + loop_nesting_depth(s.body)
    return 0


def check_unique_loop_ids(program) -> bool:
    """Every loop has an id, and no two loops of the program share one."""
    bodies = (
        [program.body]
        if isinstance(program, Program1)
        else [p.body for p in program.procedures]
    )
    ids = [w.loop_id for b in bodies for w in _walk(b)]
    return min(ids, default=0) >= 0 and len(ids) == len(set(ids))


levels = st.one_of(st.integers(min_value=0, max_value=40), st.just(INFINITY))


@given(levels)
def test_infinity_lattice(tau):
    assert tau <= INFINITY
    assert min(tau, INFINITY) == tau
    assert max(tau, INFINITY) == INFINITY


@given(levels, levels, levels)
def test_level_order_total(a, b, c):
    assert a <= b or b <= a
    if a <= b <= c:
        assert a <= c


def test_loop_nesting_depth():
    assert loop_nesting_depth(Skip()) == 0
    w = While(Var("x"), While(Var("y"), Skip()))
    assert loop_nesting_depth(w) == 2
    assert loop_nesting_depth(Seq([w, While(Var("z"), Skip())])) == 2


def test_bubble_nesting_depth(bubble):
    assert loop_nesting_depth(bubble.body) == 2


def test_unique_loop_ids(bubble, iterator_program):
    assert check_unique_loop_ids(bubble)
    assert check_unique_loop_ids(iterator_program)


def test_loop_ids_preorder(bubble):
    loops = [s for s in _walk(bubble.body)]
    assert [w.loop_id for w in loops] == [1, 2, 3]


def _walk(s):
    return [st for st in iter_stmts(s) if isinstance(st, While)]


def test_opapp_structural_equality():
    assert OpApp("eq", [Var("x"), Var("y")]) == OpApp("eq", (Var("x"), Var("y")))
    assert Assign("x", Var("y")) == Assign("x", Var("y"))
    assert OpApp("eq", []) != OpApp("ne", [])


def test_for_origin_is_metadata_not_identity():
    a = While(Var("x"), Skip(), loop_id=1, for_origin=True)
    b = While(Var("x"), Skip(), loop_id=1, for_origin=False)
    assert a == b
    assert a.for_origin and not b.for_origin


def test_nesting_depth_rejects_sugar():
    with pytest.raises(ValueError):
        loop_nesting_depth(For("i", Var("a"), Var("b"), Skip()))


def recursive_exprs(e) -> list:
    """The pre-order of an expression tree, by recursion: the reference."""
    out = [e]
    if isinstance(e, (OpApp, OracleCall)):
        for a in e.args:
            out += recursive_exprs(a)
    elif isinstance(e, Declass):
        out += recursive_exprs(e.expr) + recursive_exprs(e.bound)
    return out


def same_nodes(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_iter_exprs_is_pre_order_on_generated_expressions():
    rng = random.Random(7)
    seen = 0
    for _ in range(200):
        program = genprog.random_program(rng)
        for stmt in iter_stmts(program.body):
            for e in stmt_exprs(stmt):
                assert same_nodes(list(iter_exprs(e)), recursive_exprs(e))
                seen += isinstance(e, (OpApp, Declass))
    assert seen > 200
    call = OracleCall("X", (OpApp("tl", [Var("a")]), Declass(Var("b"), Var("c")), Var("d")))
    assert same_nodes(list(iter_exprs(call)), recursive_exprs(call))


def test_iter_exprs_is_pre_order_at_the_nesting_limit():
    e = Var("x")
    for depth in range(parser.MAX_NESTING):
        kind = depth % 3
        if kind == 0:
            e = OpApp("append", [e, Var(f"y{depth}")])
        elif kind == 1:
            e = Declass(Var(f"y{depth}"), e)
        else:
            e = OracleCall("X", (e,))
    assert same_nodes(list(iter_exprs(e)), recursive_exprs(e))


def generic_names(body) -> tuple:
    """``collect_names`` of a statement tree, from the generic walks."""
    names, oracles = set(), []
    for s in iter_stmts(body):
        if isinstance(s, (Assign, For)):
            names.add(s.var)
        exprs = list(stmt_exprs(s))
        if isinstance(s, OracleBreak):
            names.update(s.ref_vars)
            exprs = exprs[:1]  # the reference call is the same oracle's
        for e in (sub for top in exprs for sub in iter_exprs(top)):
            if isinstance(e, Var):
                names.add(e.name)
            elif isinstance(e, OracleCall):
                oracles.append(e.oracle)
    return names, oracles


NESTED_CALLS = """box[F, G, H, z] in
declare p(X, Y, Z, y){ var t;
  if(Z(y)){ t := truncate(Y(X(y), Z(t)), y) } else { t := declass(X(Z(y)), Y(t, t)) };
  while(t){ break(|Y(Z(t), y)| > |Y(t, y)|); t := X(t) };
  for i = u1 to y { t := Z(t) }
  return t } in
call p(F, G, H, z)"""


def test_collect_names_agrees_with_the_generic_walks():
    rng = random.Random(5)
    bodies = [genprog.random_program(rng).body for _ in range(200)]
    for text in [open(corpus("I.tl2")).read(), ORACLE_BREAK_WITH_OPERATORS, NESTED_CALLS]:
        bodies += [p.body for p in parser.parse(text, desugar=False).procedures]
    calls = 0
    for body in bodies:
        names, oracles = set(), []
        collect_names(body, names, oracles)
        assert (names, oracles) == generic_names(body)
        calls += len(oracles)
    assert calls >= 17
