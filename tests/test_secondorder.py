import copy
import random
from collections import Counter

import pytest

from conftest import ORACLE_BREAK_WITH_OPERATORS, corpus, iter_exprs, procedure, run, stmt_exprs
from guardcheck import reference_check_guarded
from tokencheck import tokenize_stepwise
from tierlang import interp1, parser, secondorder as so
from tierlang.interp1 import AperiodicityViolation, BudgetExhausted
from tierlang.safety1 import check_derivation
from tierlang.syntax import (
    Assign,
    Break,
    Call,
    ClosureVar,
    Declass,
    If,
    OpApp,
    OracleBreak,
    OracleCall,
    Procedure,
    Program2,
    Seq,
    TermVar,
    Var,
    While,
    iter_stmts,
    seq_chain,
)


def loop_of(proc):
    return next(s for s in iter_stmts(proc.body) if isinstance(s, While))


def reference_iterate(f, u, v, w):
    # independent implementation of the bounded iterator
    value = u
    for _ in range(len(w)):
        answer = f(value)
        value = answer if len(answer) <= len(v) else answer[: len(v)]
    return value


# ---------------------------------------------------------------------------
# Guardedness


def test_iterator_is_guarded(iterator_program):
    so.check_guarded(iterator_program)


def test_deleting_break_breaks_clause_two(iterator_program):
    variant = copy.deepcopy(iterator_program)
    loop = loop_of(procedure(variant, "iterate"))
    chain = seq_chain(loop.body)
    assert isinstance(chain[0], OracleBreak)
    loop.body = Seq([chain[1], chain[2]])
    with pytest.raises(so.GuardednessError) as err:
        so.check_guarded(variant)
    assert err.value.clause == 2


def test_nested_oracle_call_breaks_clause_one():
    src = """box[F, z] in
    declare p(X, y){
      while(y > u0){ y := X(X(y)) };
      return y
    } in
    call p(F, z)"""
    with pytest.raises(so.GuardednessError) as err:
        so.check_guarded(parser.parse(src))
    assert err.value.clause == 1


def test_oracle_in_guard_breaks_clause_one():
    src = """box[F, z] in
    declare p(X, y){ while(X(y)){ y := tl(y) }; return y } in
    call p(F, z)"""
    with pytest.raises(so.GuardednessError) as err:
        so.check_guarded(parser.parse(src))
    assert err.value.clause == 1


def test_break_on_different_call_rejected():
    src = """box[F, z] in
    declare p(X, y){
      var t;
      while(y > u0){
        break(|X(t)| > |X(y)|);
        t := truncate(X(y), y)
      };
      return t
    } in
    call p(F, z)"""
    with pytest.raises(so.GuardednessError) as err:
        so.check_guarded(parser.parse(src))
    assert err.value.clause == 2


def test_oracle_assignment_outside_loop_is_fine():
    src = """box[F, z] in
    declare p(X, y){ var t; t := X(y); return t } in
    call p(F, z)"""
    so.check_guarded(parser.parse(src))


def test_check_guarded_agrees_with_the_reference_walk(guard_mutants):
    # The generic-walk reference decides each mutant as check_guarded does,
    # with the same error text: a guard is checked before its branches,
    # clause (1) before clause (2), and earlier procedures first.
    clauses = Counter()
    for program in guard_mutants:
        outcomes = []
        for check in (so.check_guarded, reference_check_guarded):
            try:
                check(program)
                outcomes.append(None)
            except so.GuardednessError as exc:
                outcomes.append((exc.clause, exc.where, str(exc)))
        assert outcomes[0] == outcomes[1], parser.pretty_print(program)
        clauses[outcomes[0] and outcomes[0][0]] += 1
    assert min(clauses[None], clauses[1], clauses[2]) > 30, clauses


def oracle_operands(body) -> list:
    """The oracle calls of a body in a guard or as an operand, but truncate's first."""
    found = []
    for s in iter_stmts(body):
        if isinstance(s, (If, While, Break)):
            found += [e for e in iter_exprs(s.guard) if isinstance(e, OracleCall)]
        for e in (sub for top in stmt_exprs(s) for sub in iter_exprs(top)):
            if isinstance(e, (OpApp, OracleCall)):
                operands = e.args[1:] if isinstance(e, OpApp) and e.op == "truncate" else e.args
            elif isinstance(e, Declass):
                operands = (e.bound,)
            else:
                continue
            found += [a for a in operands if isinstance(a, OracleCall)]
    return found


def test_guarded_bodies_give_level_inference_no_oracle_operand(guard_mutants):
    # Guardedness settles where oracle calls sit, so level inference never
    # decides it again: in a guarded body no guard holds an oracle call, and
    # none is an operand but truncate's first, so no truncate or declass
    # bound is one; inference takes every such body without error.
    guarded = passing(guard_mutants, so.check_guarded, so.GuardednessError)
    assert len(guarded) > 1000
    calls = 0
    for program in guarded:
        for proc in program.procedures:
            assert oracle_operands(proc.body) == [], parser.pretty_print(program)
            calls += sum(isinstance(e, OracleCall) for s in iter_stmts(proc.body)
                         for top in stmt_exprs(s) for e in iter_exprs(top))
            so.infer_procedure_levels(proc)
    assert calls > 1000


# ---------------------------------------------------------------------------
# Simple types


def test_iterator_simple_type(iterator_program):
    assert so.simple_typecheck(iterator_program) == "(W -> W) -> W -> W -> W -> W"


def test_boxed_identity_type():
    assert so.simple_typecheck(parser.parse("box[x] in x")) == "W -> W"


def test_closure_arity_mismatch_rejected():
    # F fills a unary closure position and a binary one: the parser gives
    # each oracle variable one arity, so simple typing never sees this
    src = """box[F, z] in
    declare p(X, y){ var t; t := X(y) return t } in
    declare q(Y, a){ var b; b := Y(a, a) return b } in
    call p(F, call q(F, z))"""
    with pytest.raises(parser.ParseError, match="inconsistent arity for oracle variable F"):
        parser.parse(src)


def test_term_typing_rejects_free_names():
    # Term typing is the one judge of free names: a lambda binds its
    # parameter, a box its words, and any other term name is unbound.
    bound = "box[x] in declare p(X, y){ var t; t := X(y) return t } in call p(lambda(y). y, x)"
    assert so.simple_typecheck(parser.parse(bound)) == "W -> W"
    free = "box[x] in declare p(X, y){ var t; t := X(y) return t } in call p(lambda(y). y, z)"
    with pytest.raises(so.SimpleTypeError, match="unbound term variable z"):
        so.simple_typecheck(parser.parse(free))


def test_call_of_undeclared_procedure_rejected():
    with pytest.raises(so.SimpleTypeError):
        so.simple_typecheck(parser.parse("box[x] in call nope(, x)"))


def test_unclosed_procedure_rejected():
    src = "box[x] in declare p(, y){ z := stray return z } in call p(, x)"
    program = parser.parse(src)
    with pytest.raises(so.SimpleTypeError) as err:
        so.simple_typecheck(program)
    assert "not closed" in str(err.value)


def test_order_confusion_rejected():
    # terms are order-0 by the grammar; a bare oracle name is not a term
    with pytest.raises(parser.ParseError):
        parser.parse("box[F] in F")
    # and an order-1 variable cannot slide into a word argument position
    src = """box[F, x] in
    declare p(X, a){ var b; b := X(a) return b } in
    call p(F, F)"""
    with pytest.raises(so.SimpleTypeError):
        so.simple_typecheck(parser.parse(src))


# ---------------------------------------------------------------------------
# Level typing


def test_iterator_is_safe(iterator_program):
    result = so.infer_safety2(iterator_program)
    assert result.safe
    gamma_it = result.checks["iterate"].gamma
    assert gamma_it["s"] == 1 and gamma_it["r"] == 2
    assert gamma_it["p"] == 1 and gamma_it["i"] == 0
    entry = result.report()["omega"]["iterate"]
    assert (entry["tin"], entry["tout"]) == ("0", "0")
    gamma_dr = result.checks["drive"].gamma
    assert gamma_dr["n"] == 1 and gamma_dr["b"] == 1
    assert gamma_dr["l0"] == 2 and gamma_dr["n0"] == 2


def test_iterate_checks_under_documented_environment(iterator_program):
    result = so.infer_safety2(iterator_program)
    check = result.checks["iterate"]
    assert check.gamma == {"s": 1, "r": 2, "p": 1, "i": 0, "q": 0, "acc": 0}
    assert check.body_level == 1
    # the loop types at level 1 with inner and outer context levels 1
    loop_node = next(
        j for j in _walk_judgments(result.derivations["iterate"])
        if j.rule in ("WI", "WH")
    )
    assert loop_node.rule == "WI"
    assert loop_node.level == 1
    guard = loop_node.children[0]
    assert (guard.tin, guard.tout) == (1, 1)


def _walk_judgments(j):
    yield j
    for c in j.children:
        yield from _walk_judgments(c)


def test_loop_guarded_by_oracle_unsafe():
    src = """box[F, z] in
    declare p(X, y){ while(X(y)){ y := tl(y) }; return y } in
    call p(F, z)"""
    result = so.infer_safety2(parser.parse(src))
    assert (result.safe, result.stage) == (False, "guardedness")
    assert result.explanation.startswith("clause (1) at procedure p, while(X(y)): ")


def test_raw_oracle_assignment_in_loop_unsafe():
    src = """box[F, z] in
    declare p(X, y){
      var t;
      while(y > u0){
        break(|X(y)| > |X(y)|);
        t := X(y);
        y := y - u1
      };
      return t
    } in
    call p(F, z)"""
    program = parser.parse(src)
    check = so.infer_procedure_levels(program.procedures[0])
    assert not check.safe
    assert "cannot be assigned directly" in check.explanation


def test_loop_free_oracle_juggling_is_safe():
    src = """box[F, z] in
    declare p(X, y){
      var t, s;
      t := truncate(X(y), y);
      s := truncate(X(t), t);
      return s
    } in
    call p(F, z)"""
    result = so.infer_safety2(parser.parse(src))
    assert result.safe


def test_declass_of_raw_oracle_answer_unsafe():
    src = """box[F, z] in
    declare p(X, y){ var t; t := declass(X(y), y) return t } in
    call p(F, z)"""
    program = parser.parse(src)
    so.check_guarded(program)  # syntactically fine
    check = so.infer_procedure_levels(program.procedures[0])
    assert not check.safe


@pytest.mark.parametrize("body", [
    "x := truncate(X(y), X(y))",
    "i := y; while(i > u0){ break(|X(i)| > |X(y)|); x := truncate(X(i), X(y)); i := i - u1 }",
], ids=["loop-free", "in-loop"])
def test_an_oracle_call_as_truncation_bound_is_unsafe(body):
    # Guardedness rejects these bodies first; level inference called on its
    # own explains them too, and never passes the bound's infinite level on.
    program = parser.parse(f"box[F, z] in declare p(X, y){{ var x, i; {body}; return x }} "
                           "in call p(F, z)")
    with pytest.raises(so.GuardednessError):
        so.check_guarded(program)
    check = so.infer_procedure_levels(program.procedures[0])
    assert not check.safe
    assert check.explanation.endswith("the truncation bound cannot be an oracle call")


def test_drive_without_declass_unsafe(iterator_program):
    variant = copy.deepcopy(iterator_program)
    for s in iter_stmts(procedure(variant, "drive").body):
        if isinstance(s, Assign) and s.var == "n" and isinstance(s.expr, Declass):
            s.expr = s.expr.expr
    result = so.infer_safety2(variant)
    assert not result.safe
    assert result.stage == "levels"
    assert "n := hd(tl(t))" in result.explanation


# ---------------------------------------------------------------------------
# Evaluation


def oracles(**kw):
    return {k: so.make_oracle(v) for k, v in kw.items()}


def test_iterator_matches_reference(iterator_program):
    out, stats = run(iterator_program, ["1", "1111", "111"], oracles(F="builtin:append1"))
    assert out == "1111"
    assert out == reference_iterate(lambda w: w + "1", "1", "1111", "111")
    assert stats.oracle_calls > 0


def test_iterator_with_constant_empty_oracle(iterator_program):
    out, _ = run(iterator_program, ["1", "1111", "111"], oracles(F="builtin:const:"))
    assert out == reference_iterate(lambda w: "", "1", "1111", "111") == ""


def test_iterator_randomized_against_reference(iterator_program):
    rng = random.Random(4242)
    makers = [
        ("builtin:append1", lambda w: w + "1"),
        ("builtin:double", lambda w: w + w),
        ("builtin:bitflip", lambda w: w.translate(str.maketrans("01", "10"))),
        ("builtin:const:101", lambda w: "101"),
        ("builtin:const:", lambda w: ""),
    ]
    for trial in range(20):
        spec, pyfn = makers[trial % len(makers)]
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        w = "1" * rng.randint(0, 5)
        out, _ = run(iterator_program, [u, v, w], oracles(F=spec))
        assert out == reference_iterate(pyfn, u, v, w), (spec, u, v, w)


def test_identity_through_call():
    program = parser.parse("box[x] in declare p(,x){skip return x} in call p(,x)")
    out, _ = run(program, ["10"])
    assert out == "10"


def test_lambda_closure_shadows_store():
    src = """box[x] in
    declare p(X, a){ var t; t := X(a) return t } in
    call p(lambda(x). x, x)"""
    out, _ = run(parser.parse(src), ["111"])
    assert out == "111"  # the binder wins over the boxed x


def test_program_oracle(tmp_path):
    path = tmp_path / "dup.tl"
    path.write_text("prog(x){y := cons(x, x) return y}\n")
    oracle = so.make_oracle(f"prog:{path}")
    assert oracle.arity == 1
    program = parser.parse(
        "box[F, a] in declare p(X, b){ var t; t := X(b) return t } in call p(F, a)"
    )
    out, stats = run(program, ["10"], {"F": oracle})
    assert out == "10#10"
    assert stats.oracle_calls == 1


def test_program_oracle_budget_propagates(tmp_path):
    path = tmp_path / "loop.tl"
    path.write_text("prog(x){while(true){skip} return x}\n")
    oracle = so.make_oracle(f"prog:{path}")
    program = parser.parse(
        "box[F, a] in declare p(X, b){ var t; t := X(b) return t } in call p(F, a)"
    )
    with pytest.raises(BudgetExhausted):
        so.Interp2(program, {"F": oracle}, budget=500).run(["1"])


def call_p(body, closure):
    """box[F, z] in declare p(X, y){ var t; body return t } in call p(closure, z)"""
    proc = Procedure("p", [("X", 1)], ["y"], ["t"], body, "t")
    return Program2([("F", 1)], ["z"], [proc], Call("p", (closure,), (TermVar("z"),)))


APPLY_X = Assign("t", OracleCall("X", (Var("y"),)))
APPEND1 = {"F": so.make_oracle("builtin:append1")}


FIRST_ORDER_ORACLE = "oracle calls cannot occur in first-order programs"


@pytest.mark.parametrize(
    "program, oracles, error, match",
    [
        pytest.param(
            call_p(APPLY_X, ClosureVar("F")), {},
            ValueError, "no oracle supplied for F",
            id="missing-oracle",
        ),
        pytest.param(
            call_p(APPLY_X, ClosureVar("F")),
            {"F": so.Oracle("pair", 2, lambda a, b: a + b)},
            ValueError, "must have arity 1, got 2",
            id="oracle-of-wrong-arity",
        ),
        pytest.param(
            call_p(APPLY_X, ClosureVar("z")), APPEND1,
            so.SimpleTypeError, "closure variable z is not a boxed oracle",
            id="closure-names-a-word",
        ),
        pytest.param(
            call_p(APPLY_X, ClosureVar("G")), APPEND1,
            so.SimpleTypeError, "closure variable G is not a boxed oracle",
            id="unbound-closure-variable",
        ),
        pytest.param(
            "prog(x){ y := F(x) return y }", None,
            parser.ParseError, f"{FIRST_ORDER_ORACLE} at 1:15",
            id="oracle-call-in-first-order-run",
        ),
        pytest.param(
            "prog(x){ while(x){ break(|F(x)| > |F(x)|) } return x }", None,
            parser.ParseError, f"{FIRST_ORDER_ORACLE} at 1:27",
            id="oracle-break-in-first-order-run",
        ),
    ],
)
def test_runtime_errors(program, oracles, error, match):
    # Each fault is found before a run starts: by the parser, by simple
    # typing (which ``run`` applies first, as ``tierlang run`` does), or as
    # a ``ValueError`` of the supplied oracles.
    with pytest.raises(error, match=match):
        run(parser.parse(program) if isinstance(program, str) else program, ["1"], oracles)


@pytest.mark.parametrize(
    "program, explanation",
    [
        (call_p(Assign("t", Var("F")), ClosureVar("F")), "is not closed"),
        (call_p(APPLY_X, ClosureVar("z")), "is not a boxed oracle"),
    ],
    ids=["word-variable-names-an-oracle", "closure-names-a-word"],
)
def test_checker_rejects_what_the_evaluator_no_longer_guards(program, explanation):
    # The evaluator runs only typed programs and checks neither; the
    # checker rejects both.
    result = so.infer_safety2(program)
    assert (result.safe, result.stage) == (False, "simple-type")
    assert explanation in result.explanation


PROGRESS_MUTANTS = 5000
PROGRESS_SEED = 7
PROGRESS_BUDGET = 2000
# Closures of both kinds, two of which ignore a parameter.
CLOSURES = """box[F, z, w] in
declare p(X, y){ var t; t := X(y) return t } in
declare q(Y, G, a){ var b; b := Y(a, a); b := G(b) return b } in
call q(lambda(x, c). call p(F, x), lambda(d). call p(lambda(e). z, d), w)"""


def parsed_mutants() -> list:
    """Seeded mutants of three .tl2 sources that parse.

    A mutant deletes, duplicates or inserts a run of 1-3 tokens, or renames
    one name or unary literal to another of the same order.  Renames are
    drawn twice as often as each of the others: far more of them parse.
    """
    sources = [open(corpus("I.tl2")).read(), ORACLE_BREAK_WITH_OPERATORS, CLOSURES]
    tokens = [[t[1] for t in tokenize_stepwise(text)[:-1]] for text in sources]
    vocabulary = sorted({t for ts in tokens for t in ts})
    names = [t for t in vocabulary if t[0].isalpha() and t not in parser.KEYWORDS]
    rng = random.Random(PROGRESS_SEED)
    parsed = []
    for _ in range(PROGRESS_MUTANTS):
        ts = list(rng.choice(tokens))
        i, k = rng.randrange(len(ts)), rng.randint(1, 3)
        how = rng.choice(["delete", "duplicate", "insert", "rename", "rename"])
        if how == "delete":
            del ts[i:i + k]
        elif how == "duplicate":
            ts[i:i] = ts[i:i + k]
        elif how == "insert":
            ts[i:i] = [rng.choice(vocabulary) for _ in range(k)]
        else:
            i = rng.choice([j for j, t in enumerate(ts) if t in names])
            ts[i] = rng.choice([t for t in names if t[0].isupper() == ts[i][0].isupper()])
        try:
            parsed.append(parser.parse(" ".join(ts)))
        except parser.ParseError:
            pass
    return parsed


def passing(programs: list, check, error) -> list:
    """The programs on which ``check`` raises no ``error``."""
    kept = []
    for program in programs:
        try:
            check(program)
        except error:
            continue
        kept.append(program)
    return kept


def oracle_tables(program, bubble_oracle) -> tuple:
    """Oracles of the program's boxed arities: builtin ones, then prog: ones."""
    builtin, prog = {}, {}
    for name, arity in program.boxed_oracles:
        if arity == 1:
            builtin[name], prog[name] = so.make_oracle("builtin:append1"), bubble_oracle
        else:
            params = ", ".join(f"a{i}" for i in range(arity))
            builtin[name] = so.Oracle("concat", arity, lambda *ws: "".join(ws))
            first = parser.parse(f"prog({params}){{ skip return a0 }}")
            prog[name] = so.Oracle("first", arity, program=first)
    return builtin, prog


def replaced(e, target, new):
    """Expression ``e`` with its subexpression ``target`` (by identity) replaced by ``new``."""
    if e is target:
        return new
    if isinstance(e, OpApp):
        return OpApp(e.op, [replaced(a, target, new) for a in e.args])
    if isinstance(e, OracleCall):
        return OracleCall(e.oracle, [replaced(a, target, new) for a in e.args])
    if isinstance(e, Declass):
        return Declass(replaced(e.expr, target, new), replaced(e.bound, target, new))
    return e


EXPRESSION_FIELDS = {Assign: "expr", If: "guard", While: "guard", Break: "guard",
                     OracleBreak: "call_args"}


def wrap_oracle_calls(program, rng, times: int):
    """A copy of ``program`` with ``times`` seeded subexpressions wrapped in oracle calls.

    One after another, a subexpression e of a body becomes X(e, ..., e) for
    an oracle parameter X of its procedure; an oracle break's arguments
    count, not its call.
    """
    program = copy.deepcopy(program)
    for _ in range(times):
        sites = [(proc, s) for proc in program.procedures if proc.oracle_params
                 for s in iter_stmts(proc.body) if type(s) in EXPRESSION_FIELDS]
        if not sites:
            break
        proc, s = rng.choice(sites)
        field = EXPRESSION_FIELDS[type(s)]
        if field == "call_args":
            top = OracleCall(s.oracle, s.call_args)
            subs = list(iter_exprs(top))[1:]
        else:
            top = getattr(s, field)
            subs = list(iter_exprs(top))
        if subs:
            target = rng.choice(subs)
            oracle, arity = rng.choice(proc.oracle_params)
            top = replaced(top, target, OracleCall(oracle, (target,) * arity))
            setattr(s, field, top.args if field == "call_args" else top)
    return program


@pytest.fixture(scope="module")
def mutant_programs() -> list:
    return parsed_mutants()


@pytest.fixture(scope="module")
def guard_mutants(mutant_programs) -> list:
    """The parsed mutants, each followed by a copy with 1-3 oracle calls wrapped in."""
    rng = random.Random(PROGRESS_SEED)
    wrapped = [wrap_oracle_calls(p, rng, rng.randint(1, 3)) for p in mutant_programs]
    return [p for pair in zip(mutant_programs, wrapped) for p in pair]


@pytest.fixture(scope="module")
def typed_programs(mutant_programs) -> list:
    return passing(mutant_programs, so.simple_typecheck, so.SimpleTypeError)


@pytest.mark.parametrize("kind", [0, 1], ids=["builtin", "prog"])
def test_well_typed_programs_make_progress(typed_programs, kind):
    # Milner's "well-typed programs cannot go wrong": a run of a program
    # that passes simple typing, with builtin oracles or with prog: oracles,
    # ends in a result or a RuntimeStop and raises nothing else.
    bubble_oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}")
    assert len(typed_programs) > 300
    stops = set()
    for program in typed_programs:
        inputs = ["1" * (1 + i % 3) for i in range(len(program.boxed_words))]
        table = oracle_tables(program, bubble_oracle)[kind]
        try:
            run(program, inputs, table, budget=PROGRESS_BUDGET)
            stops.add("result")
        except interp1.RuntimeStop as stop:
            stops.add(stop.subcode)
        except Exception as exc:
            raise AssertionError(parser.pretty_print(program)) from exc
    assert "result" in stops


PAIR = so.Oracle("pair", 2, lambda a, b: a + b)
STORE_RUNS = [
    pytest.param("I.tl2", spec, inputs, id=f"I.tl2-{spec}-{'-'.join(inputs)}")
    for spec in ["builtin:append1", "builtin:double", "builtin:bitflip",
                 "builtin:const:101", "prog:bubble.tl"]
    for inputs in (["1", "1111", "111"], ["10", "110100", "11"], ["", "11", "1"])
] + [
    pytest.param(ORACLE_BREAK_WITH_OPERATORS, "pair", [z], id=f"oracle-break-with-operators-{z}")
    for z in ["", "1", "11#0"]
]


@pytest.mark.parametrize("source, spec, inputs", STORE_RUNS)
def test_no_store_holds_a_non_word(monkeypatch, source, spec, inputs):
    # Every procedure frame (note_store) and every store a term is evaluated
    # in (eval_term, closure bodies included) holds words only.
    seen, non_words = [], []

    def watched(method):
        def watch(m, store, *rest):
            seen.append(len(store))
            non_words.extend(v for v in store.values() if not isinstance(v, str))
            return method(m, store, *rest)
        return watch
    monkeypatch.setattr(interp1.Interp, "note_store", watched(interp1.Interp.note_store))
    monkeypatch.setattr(so.Interp2, "eval_term", watched(so.Interp2.eval_term))
    if source == "I.tl2":
        program = parser.parse_file(corpus(source))
        oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}" if spec == "prog:bubble.tl" else spec)
    else:
        program, oracle = parser.parse(source), PAIR
    try:
        run(program, inputs, {"F": oracle}, budget=20_000)
    except interp1.RuntimeStop:
        pass
    assert seen and non_words == []


def test_stop_inside_program_oracle_reports_whole_run(iterator_program):
    # bubble.tl as the oracle of I.tl2: the budget runs out inside a nested
    # first-order run, and the interpreter holds the stats of the whole run
    oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}")
    interp = so.Interp2(iterator_program, {"F": oracle}, budget=2000)
    with pytest.raises(BudgetExhausted) as err:
        interp.run(["10", "110100110101", "111111"])
    stats = interp.stats
    assert stats.steps == 2001  # budget + 1, as in a first-order budget stop
    assert set(stats.loop_iterations) <= {1, 2}  # I.tl2's loops, not bubble's
    assert stats.oracle_calls > 0
    assert "budget of 2000" in str(err.value)


def test_program_oracle_answers_from_one_sub_interpreter(iterator_program, bubble):
    # one run reuses a single sub-interpreter, which compiles bubble.tl once;
    # each of its answers must be what a fresh first-order run gives
    class Recording(so.Interp2):
        def call_external(self, oracle, args):
            answer = super().call_external(oracle, args)
            answers.append((list(args), answer))
            return answer

    answers = []
    oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}")
    interp = Recording(iterator_program, {"F": oracle})
    out = interp.run(["101", "011010011010110101", "111111111"])
    assert out == "011"
    assert interp.stats.steps == 27292  # the whole run, nested oracle runs included
    assert len(answers) > 10
    for args, answer in answers:
        assert answer == interp1.Interp().run(bubble, args), args
    assert len(interp.sub.code) == 1


class FreshOracleRuns(so.Interp2):
    """The reference: every prog: call is a fresh first-order run, with no table."""

    def call_external(self, oracle, args):
        if oracle.program is None:
            return super().call_external(oracle, args)
        sub = self.sub
        sub.budget, sub.stats = self.budget - self.stats.steps, interp1.ExecStats()
        try:
            return sub.run(oracle.program, list(args))
        except BudgetExhausted:
            raise BudgetExhausted(f"step budget of {self.budget} exhausted") from None
        finally:
            self.stats.steps += sub.stats.steps


def append1_oracle(tmp_path):
    path = tmp_path / "append1.tl"
    path.write_text('prog(x){ x := x + "1" return x }\n')
    return so.make_oracle(f"prog:{path}")


def outcome(cls, program, table, inputs, budget, monitor):
    interp = cls(program, table, budget, monitor)
    try:
        result = interp.run(inputs)
    except interp1.RuntimeStop as stop:
        result = (stop.subcode, str(stop))
    return result, interp.stats.as_dict(), interp.stats.obk_events


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("spec, inputs, budgets", [
    ("bubble.tl", ["1", "01", "11"], None),
    (None, ["1", "111", "11"], None),
    ("inc_loop.tl", ["1", "01", "11"], 300),  # every oracle run exhausts the budget
], ids=["bubble", "append1", "inc_loop"])
def test_repeated_program_oracle_calls_match_fresh_runs(
        iterator_program, tmp_path, spec, inputs, budgets, monitor):
    # At every budget a run answering repeats from its table reports what a
    # run of fresh oracle runs reports: result or stop, message and stats.
    oracle = append1_oracle(tmp_path) if spec is None else so.make_oracle(f"prog:{corpus(spec)}")
    if budgets is None:
        interp = FreshOracleRuns(iterator_program, {"F": oracle})
        interp.run(inputs)
        budgets = interp.stats.steps + 1
    for budget in range(budgets + 1):
        args = iterator_program, {"F": oracle}, inputs, budget, monitor
        assert outcome(so.Interp2, *args) == outcome(FreshOracleRuns, *args), budget


class FreshClosureRuns(so.Interp2):
    """The reference: every closure application is evaluated afresh, with no table."""

    def apply_oracle(self, store, name, args):
        closure = self.env[name]
        if isinstance(closure, ClosureVar):
            return super().apply_oracle(store, name, args)
        self.stats.oracle_calls += 1
        self.tick()
        inner = dict(store)
        inner.update(zip(closure.params, args))
        return self.eval_term(inner, closure.body)


def same_at_every_budget(program, table, inputs, monitor):
    """A run answering repeated applications from its table reports what fresh ones report."""
    fresh = FreshClosureRuns(program, table)
    try:
        fresh.run(inputs)
    except interp1.RuntimeStop:
        pass
    for budget in range(fresh.stats.steps + 2):
        args = program, table, inputs, budget, monitor
        assert outcome(so.Interp2, *args) == outcome(FreshClosureRuns, *args), budget


# p's oracle break lies outside p's own loops, so its events take the label
# of the activation running at the application: none at q's first line, a
# new one of q's inner loop on each pass of q's outer loop.
OUTER_BREAK = """box[F, z, k] in
declare p(X, y, c){ var t; break(|X(y)| > |X(c)|); t := X(y); return t } in
declare q(Y, a, m){
  var b, n, j;
  b := Y(a);
  j := m;
  while(j > u0){
    n := m;
    while(n > u0){ break(|Y(a)| > |Y(a)|); b := Y(a); n := n - u1 };
    j := j - u1
  };
  return b
} in
call q(lambda(x). call p(F, x, k), z, k)"""


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("spec", [
    "builtin:append1", "builtin:double", "builtin:bitflip", "builtin:const:101",
    "prog:bubble.tl", "prog:append1.tl",
])
def test_repeated_closure_applications_match_fresh_runs(iterator_program, tmp_path, spec, monitor):
    # I.tl2 with each oracle kind of the so-oracle workload: the closure
    # drive applies starts iterate's loop, whose activations and oracle-break
    # events a repeat must account for as a fresh evaluation does.
    if spec == "prog:append1.tl":
        oracle = append1_oracle(tmp_path)
    else:
        oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}" if spec == "prog:bubble.tl" else spec)
    for inputs in (["1", "01", "11"], ["", "1011", "1111"]):
        same_at_every_budget(iterator_program, {"F": oracle}, inputs, monitor)


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
def test_a_repeat_relabels_events_of_the_running_activation(monitor):
    program = parser.parse(OUTER_BREAK)
    table = {"F": so.make_oracle("builtin:append1")}
    for inputs in (["1", "11"], ["11", "1"], ["", "111"]):
        same_at_every_budget(program, table, inputs, monitor)

    class Evaluating(so.Interp2):
        def eval_term(self, store, t):
            evaluated.append(t)
            return super().eval_term(store, t)

    evaluated = []
    interp = Evaluating(program, table)
    assert interp.run(["1", "11"]) == "11"
    serials = [serial for _, serial, _, _ in interp.stats.obk_events]
    assert serials == [2] * 8 + [3] * 8  # two inner activations, each one's own
    # Of 13 applications, the first outside the loops and the first inside
    # them are evaluated; the 11 repeats are answered from the table.
    assert interp.stats.oracle_calls == 13 + 13 * 3
    assert [t for t in evaluated if isinstance(t, Call) and t.proc == "p"] == [Call(
        "p", (ClosureVar("F"),), (TermVar("x"), TermVar("k")))] * 2


# r applies its closure to a short word, then to a long one, and each time q
# applies the same closure to the same z, with t bound to what r passed.
# Only t tells the two applications apart: the closure reads it, or it
# shadows it by p's parameter or local, by its own parameter, or by the
# parameter of a lambda inside it.  The second application's frames are the
# run's largest.
SHADOWED = """box[F, z, w] in
declare p(X, {param}){{ var {local}; {local} := X({param}); return {local} }} in
declare h(o){{ var v; v := o; return v }} in
declare q(Y, a, g){{ var b; b := Y(a); return b }} in
declare r(W, c, e){{ var d; d := W(e); d := W(c); return d }} in
call r(lambda(t). call q({closure}, z, t), z, w)"""


@pytest.mark.parametrize("param, local, closure", [
    ("y", "s", "lambda(x). call p(F, t)"),
    ("t", "s", "lambda(x). call p(F, x)"),
    ("y", "t", "lambda(x). call p(F, x)"),
    ("y", "s", "lambda(t). call p(F, z)"),
    ("y", "s", "lambda(x). call p(lambda(t). call h(x), x)"),
], ids=["read", "procedure-parameter", "local", "parameter", "inner-parameter"])
def test_a_repeat_keys_on_every_name_it_reads_or_shadows(param, local, closure):
    program = parser.parse(SHADOWED.format(param=param, local=local, closure=closure))
    table = {"F": so.make_oracle("builtin:append1")}
    for monitor in (False, True):
        same_at_every_budget(program, table, ["1111", "1"], monitor)


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("kind", [0, 1], ids=["builtin", "prog"])
def test_typed_mutants_match_fresh_closure_runs(typed_programs, kind, monitor):
    bubble_oracle = so.make_oracle(f"prog:{corpus('bubble.tl')}")
    for program in typed_programs[::4]:
        inputs = ["1" * (1 + i % 3) for i in range(len(program.boxed_words))]
        table = oracle_tables(program, bubble_oracle)[kind]
        for budget in (40, 300, PROGRESS_BUDGET):
            args = program, table, inputs, budget, monitor
            assert outcome(so.Interp2, *args) == outcome(FreshClosureRuns, *args), (
                parser.pretty_print(program), budget)


def test_the_answer_table_is_bounded_and_per_run(iterator_program, tmp_path):
    class Counting(so.Interp2):
        def call_external(self, oracle, args):
            answer = super().call_external(oracle, args)
            sizes.append(len(self.answers))
            return answer

        def apply_oracle(self, store, name, args):
            answer = super().apply_oracle(store, name, args)
            applied.append(len(self.applied))
            return answer

    oracles = {"F": append1_oracle(tmp_path)}
    sizes, applied = [], []
    first = Counting(iterator_program, oracles)
    out = first.run(["1", "1" * 12, "1" * 10])
    assert max(sizes) == so.PROG_ANSWERS == 8  # many distinct arguments, 8 kept
    assert max(applied) == so.PROG_ANSWERS  # and 8 closure applications
    second = Counting(iterator_program, oracles)
    assert second.answers == second.applied == {}  # nothing carries over from the first run
    assert second.run(["1", "1" * 12, "1" * 10]) == out
    assert second.stats == first.stats

    # Under bubble.tl the sub-interpreter runs fewer programs than calls come in.
    runs = []
    interp = Counting(iterator_program, {"F": so.make_oracle(f"prog:{corpus('bubble.tl')}")})
    sub_run = interp.sub.run
    interp.sub.run = lambda program, inputs: runs.append(inputs) or sub_run(program, inputs)
    sizes = []
    interp.run(["101", "011010011010110101", "111111111"])
    assert 0 < len(runs) < len(sizes)


def test_first_order_embedding_agrees(bubble):
    rng = random.Random(77)
    embedded = so.embed_program1(bubble)
    assert so.simple_typecheck(embedded) == "W -> W"
    for _ in range(10):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 9)))
        direct, _ = run(bubble, [w])
        via2, _ = run(embedded, [w])
        assert direct == via2


# ---------------------------------------------------------------------------
# Monitoring and the length-revision discipline


def test_iterator_monitor_clean(iterator_program):
    for spec in ("builtin:append1", "builtin:double", "builtin:const:101"):
        out, _ = run(iterator_program, ["1", "1111", "111"], oracles(F=spec), monitor=True)


def test_stuck_counter_triggers_monitor(iterator_program):
    variant = copy.deepcopy(iterator_program)
    loop = loop_of(procedure(variant, "iterate"))
    chain = seq_chain(loop.body)
    # drop the counter decrement: the guard variable never changes
    loop.body = Seq([chain[0], chain[1]])
    with pytest.raises(AperiodicityViolation) as err:
        so.Interp2(variant, oracles(F="builtin:const:101"), monitor=True).run(
            ["1", "1111", "111"]
        )
    assert err.value.iteration == 2


def test_loop_free_procedure_vacuously_clean():
    program = parser.parse(
        "box[F, z] in declare p(X, y){ var t; t := truncate(X(y), y) return t } in call p(F, z)"
    )
    out, _ = run(program, ["101"], oracles(F="builtin:append1"), monitor=True)
    assert out == "101"  # truncated back to |y|


def test_post_break_answers_bounded_by_reference(iterator_program):
    # within one activation the reference-side size never changes, and
    # passing checks have left size at most the reference size
    _, stats = run(
        iterator_program, ["1", "11111111", "1111"], oracles(F="builtin:double"), monitor=True
    )
    per_activation = {}
    for loop_id, serial, left, right in stats.obk_events:
        per_activation.setdefault(serial, []).append((left, right))
    assert per_activation
    for events in per_activation.values():
        rights = {r for _, r in events}
        assert len(rights) == 1
        for left, right in events[:-1]:
            assert left <= right  # all but the last check passed


def test_environment_fixed_per_call(iterator_program):
    # two calls of iterate in one run get distinct environments; the oracle
    # identity inside each call never changes (exercised by the randomized
    # reference agreement); here we check the activation bookkeeping
    _, stats = run(iterator_program, ["1", "1111", "111"], oracles(F="builtin:append1"))
    serials = {serial for _, serial, _, _ in stats.obk_events}
    assert len(serials) >= 2


def assert_procedure_derivations_recheck(program):
    result = so.infer_safety2(program)
    assert result.safe
    for name, deriv in result.derivations.items():
        gamma = result.checks[name].gamma
        assert check_derivation(procedure(program, name), gamma, deriv), name


def test_inferred_procedure_derivations_recheck(iterator_program):
    assert_procedure_derivations_recheck(iterator_program)


def test_oracle_break_with_operators_derivations_recheck():
    assert_procedure_derivations_recheck(parser.parse(ORACLE_BREAK_WITH_OPERATORS))


def test_a_run_needs_one_input_per_boxed_word():
    program = parser.parse_file(corpus("I.tl2"))
    interp = so.Interp2(program, {"F": so.make_oracle("builtin:append1")})
    with pytest.raises(ValueError, match=r"program expects 3 word input\(s\), got 2"):
        interp.run(["1", "1"])
