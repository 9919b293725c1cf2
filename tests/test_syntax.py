import pytest
from hypothesis import given
from hypothesis import strategies as st

from tierlang import parser
from tierlang.syntax import (
    Assign,
    INFINITY,
    OpApp,
    Seq,
    Skip,
    Var,
    While,
    check_unique_loop_ids,
    free_variables,
    loop_nesting_depth,
)

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


def test_free_variables_closed(iterator_program):
    assert free_variables(iterator_program) == set()


def test_free_variables_boxed_is_not_free():
    p = parser.parse("box[x] in x")
    assert free_variables(p) == set()


def test_free_variables_unbound_term_var():
    p = parser.parse("box[x] in call p(lambda(y). y, z)")
    assert free_variables(p) == {"z"}


def test_loop_ids_preorder(bubble):
    loops = [s for s in _walk(bubble.body)]
    assert [w.loop_id for w in loops] == [1, 2, 3]


def _walk(s):
    from tierlang.syntax import iter_stmts

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
    from tierlang.syntax import For

    with pytest.raises(ValueError):
        loop_nesting_depth(For("i", Var("a"), Var("b"), Skip()))
