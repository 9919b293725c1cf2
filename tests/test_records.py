"""The package's records: printed form, equality, hashing and copying.

One instance of every record class.  The printed forms are pinned, so
reports and error messages that embed a record keep their text.
"""

import copy
from collections import Counter

import pytest

from conftest import corpus
from tierlang import parser
from tierlang.interp1 import ExecStats, LoopMonitorState
from tierlang.opreg import OperatorEntry
from tierlang.safety1 import InferenceResult, Judgment
from tierlang.secondorder import Oracle, Safety2Result
from tierlang.syntax import (
    Assign,
    Break,
    Call,
    ClosureVar,
    Declass,
    For,
    If,
    Lambda,
    OpApp,
    OracleBreak,
    OracleCall,
    Procedure,
    Program1,
    Program2,
    Seq,
    Skip,
    TermVar,
    Var,
    While,
    iter_stmts,
)

X, Y = Var("x"), Var("y")
PROC = Procedure("p", [("X", 1)], ["s"], ["y"], Assign("y", Var("s")), "y")
CALL = Call("p", [ClosureVar("F"), Lambda(["w"], TermVar("w"))], [TermVar("z")])

# Immutable kinds: equal records hash equal.
FROZEN = [
    (X, "Var(name='x')"),
    (OpApp("append", [X, Y]), "OpApp(op='append', args=(Var(name='x'), Var(name='y')))"),
    (Declass(X, Y), "Declass(expr=Var(name='x'), bound=Var(name='y'))"),
    (OracleCall("X", [X]), "OracleCall(oracle='X', args=(Var(name='x'),))"),
    (TermVar("z"), "TermVar(name='z')"),
    (CALL, "Call(proc='p', closures=(ClosureVar(name='F'), Lambda(params=('w',), "
           "body=TermVar(name='w'))), args=(TermVar(name='z'),))"),
    (ClosureVar("F"), "ClosureVar(name='F')"),
    (Lambda(["w"], TermVar("w")), "Lambda(params=('w',), body=TermVar(name='w'))"),
]

# Mutable kinds: unhashable.
MUTABLE = [
    (Skip(), "Skip()"),
    (Assign("x", Y), "Assign(var='x', expr=Var(name='y'))"),
    (Seq([Assign("x", Y), Skip()]), "Seq(stmts=[Assign(var='x', expr=Var(name='y')), Skip()])"),
    (If(X, Skip(), Assign("y", X)),
     "If(guard=Var(name='x'), then=Skip(), orelse=Assign(var='y', expr=Var(name='x')))"),
    (While(X, Skip(), 3, True, 7),
     "While(guard=Var(name='x'), body=Skip(), loop_id=3, for_origin=True, line=7)"),
    (Break(X), "Break(guard=Var(name='x'))"),
    (OracleBreak("X", [X], ["y"]),
     "OracleBreak(oracle='X', call_args=(Var(name='x'),), ref_vars=('y',))"),
    (For("i", X, Y, Skip()), "For(var='i', low=Var(name='x'), high=Var(name='y'), body=Skip())"),
    (Program1(["x"], Skip(), "x"), "Program1(params=['x'], body=Skip(), ret='x')"),
    (PROC, "Procedure(name='p', oracle_params=[('X', 1)], params=['s'], locals=['y'], "
           "body=Assign(var='y', expr=Var(name='s')), ret='y')"),
    (Program2([("F", 1)], ["z"], [PROC], CALL),
     "Program2(boxed_oracles=[('F', 1)], boxed_words=['z'], procedures=[Procedure(name='p', "
     "oracle_params=[('X', 1)], params=['s'], locals=['y'], body=Assign(var='y', "
     "expr=Var(name='s')), ret='y')], main=Call(proc='p', closures=(ClosureVar(name='F'), "
     "Lambda(params=('w',), body=TermVar(name='w'))), args=(TermVar(name='z'),)))"),
    (OperatorEntry("len", 1, len, "positive"),
     "OperatorEntry(name='len', arity=1, fn=<built-in function len>, kind='positive', bound=0)"),
    (OperatorEntry("len", 1, len, "neutral"),
     "OperatorEntry(name='len', arity=1, fn=<built-in function len>, kind='neutral', bound=0)"),
    (OperatorEntry("cons", 2, len, "polynomial", 1),
     "OperatorEntry(name='cons', arity=2, fn=<built-in function len>, kind='polynomial', "
     "bound=1)"),
    (ExecStats(7, Counter({1: 2}), 3, 1, [((1, 0), "1", "11")]),
     "ExecStats(steps=7, loop_iterations=Counter({1: 2}), max_store_size=3, oracle_calls=1, "
     "obk_events=[((1, 0), '1', '11')])"),
    (ExecStats(), "ExecStats(steps=0, loop_iterations=Counter(), max_store_size=0, "
                  "oracle_calls=0, obk_events=[])"),
    (LoopMonitorState(1, ("x",), {("1",)}, 2),
     "LoopMonitorState(loop_id=1, uvars=('x',), seen={('1',)}, evaluations=2)"),
    (LoopMonitorState(1, ("x",)), "LoopMonitorState(loop_id=1, uvars=('x',), seen=set(), "
                                  "evaluations=0)"),
    (Judgment("VAR", X, 0, 0, 1),
     "Judgment(rule='VAR', subject=Var(name='x'), tin=0, tout=0, level=1, children=[])"),
    (InferenceResult(True, {"x": 0}, {1: 0}, 0, None, _build=len),
     "InferenceResult(safe=True, gamma={'x': 0}, loop_levels={1: 0}, body_level=0, "
     "explanation=None)"),
    (InferenceResult(False, explanation="no"),
     "InferenceResult(safe=False, gamma=None, loop_levels=None, body_level=None, "
     "explanation='no')"),
    (Safety2Result(True, None, None, "word", {"p": None}),
     "Safety2Result(safe=True, stage=None, explanation=None, program_type='word', "
     "checks={'p': None})"),
    (Safety2Result(False, "levels"),
     "Safety2Result(safe=False, stage='levels', explanation=None, program_type=None, "
     "checks={})"),
    (Oracle("F", 1, len), "Oracle(name='F', arity=1, fn=<built-in function len>, program=None)"),
]


def printed_forms(cases) -> list:
    """Test ids: each record's printed form, which starts with its class, so
    adding or removing one record leaves the other cases' ids as they were."""
    return [text for _, text in cases]


def test_every_record_class_has_an_instance():
    assert len({type(r) for r, _ in FROZEN + MUTABLE}) == 26


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE, ids=printed_forms(FROZEN + MUTABLE))
def test_printed_form(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE, ids=printed_forms(FROZEN + MUTABLE))
def test_a_copy_is_equal(record, text):
    twin = copy.deepcopy(record)
    assert twin is not record and twin == record and not twin != record


@pytest.mark.parametrize("record, text", FROZEN, ids=printed_forms(FROZEN))
def test_equal_frozen_records_hash_equal(record, text):
    assert hash(copy.deepcopy(record)) == hash(record)
    assert len({record, copy.deepcopy(record)}) == 1


@pytest.mark.parametrize("record, text", MUTABLE, ids=printed_forms(MUTABLE))
def test_mutable_records_are_unhashable(record, text):
    with pytest.raises(TypeError):
        hash(record)


def test_equality_is_by_class_and_fields():
    assert Var("x") != TermVar("x") and TermVar("x") != ClosureVar("x")
    assert OpApp("tl", [X]) == OpApp("tl", (X,)) != OpApp("tl", (Y,))
    assert Assign("x", Y) != Assign("y", Y)
    assert OperatorEntry("len", 1, len, "neutral") != OperatorEntry("len", 1, len, "positive")
    cubic = OperatorEntry("cons", 2, len, "polynomial", 3)
    assert OperatorEntry("cons", 2, len, "polynomial", 1) != cubic
    assert ExecStats() == ExecStats() != ExecStats(1)
    assert Var("x") != "x" and Skip() != None  # noqa: E711


def test_while_equality_ignores_provenance():
    assert While(X, Skip(), 3, True, 7) == While(X, Skip(), 3)
    assert While(X, Skip(), 3, True, 7) != While(X, Skip(), 4, True, 7)
    assert While(X, Skip(), 3) != While(Y, Skip(), 3)


def test_inference_result_equality_ignores_its_derivation():
    built = InferenceResult(True, {"x": 0}, {}, 0, None, _build=lambda: "d")
    plain = InferenceResult(True, {"x": 0}, {}, 0, None)
    assert built == plain
    assert built.derivation == "d" and built._build is None
    assert built == plain != InferenceResult(False, {"x": 0}, {}, 0, None)


def test_defaults_are_fresh_objects():
    a, b = ExecStats(), ExecStats()
    a.loop_iterations[1] += 1
    a.obk_events.append(None)
    assert b.loop_iterations == Counter() and b.obk_events == []
    assert LoopMonitorState(1, ()).seen is not LoopMonitorState(1, ()).seen
    assert Judgment("SKP", Skip(), 0, 0, 0).children == []
    assert Safety2Result(True).checks is not Safety2Result(True).checks


@pytest.mark.parametrize("name", ["I.tl2", "bubble_for.tl"])
def test_a_deep_copy_of_a_parsed_program_is_equal(name):
    # parse(pretty_print(p)) == p on the corpus is test_parser's round trip.
    program = parser.parse_file(corpus(name))
    twin = copy.deepcopy(program)
    assert twin == program
    bodies = [twin.body] if isinstance(twin, Program1) else [p.body for p in twin.procedures]
    loop = next(s for b in bodies for s in iter_stmts(b) if isinstance(s, While))
    loop.loop_id += 100
    assert twin != program
