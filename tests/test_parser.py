import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, corpus, iter_exprs, procedure, stmt_exprs, straight_line
from test_levels import GENPROG_CASES, GENPROG_SEED
from tokencheck import tokenize_stepwise
from tierlang import genprog, parser
from tierlang.opreg import BUILTINS
from tierlang.parser import DesugarError, ParseError, desugar_for, parse, pretty_print
from tierlang.syntax import (
    Assign,
    For,
    OpApp,
    OracleBreak,
    Program1,
    Program2,
    Seq,
    Skip,
    Var,
    While,
    assign_loop_ids,
    iter_stmts,
    stmt_vars,
)


def test_minimal_program():
    p = parse("prog(x){skip return x}")
    assert p == Program1(["x"], Skip(), "x")


def test_single_argument_declass_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("prog(x){z := declass(y) return z}")
    assert "two arguments" in str(err.value)


def test_bubble_shape(bubble):
    assert isinstance(bubble, Program1)
    assert bubble.params == ["list"]
    assert bubble.ret == "r"
    loops = [s for s in iter_stmts(bubble.body) if isinstance(s, While)]
    assert len(loops) == 3


def test_literals():
    p = parse('prog(x){y := "101"; z := u3; w := u0; v := eps return y}')
    assert isinstance(p.body, Seq)
    chain = p.body.stmts
    assert chain[0].expr == OpApp("const:101")
    assert chain[1].expr == OpApp("const:111")
    assert chain[2].expr == OpApp("eps")
    assert chain[3].expr == OpApp("eps")


def test_operator_surface_forms():
    p = parse("prog(x){y := x + u1; z := x - u1; w := decb(x); v := not(x) return y}")
    exprs = [s.expr for s in iter_stmts(p.body) if isinstance(s, Assign)]
    assert exprs[0] == OpApp("append", [Var("x"), OpApp("const:1")])
    assert exprs[1] == OpApp("dec", [Var("x")])
    assert exprs[2] == OpApp("decb", [Var("x")])
    assert exprs[3] == OpApp("not", [Var("x")])


def test_minus_requires_literal_one():
    with pytest.raises(ParseError):
        parse("prog(x){y := x - x return y}")


def test_ge_gets_helpful_error():
    with pytest.raises(ParseError) as err:
        parse("prog(x){while(x >= u1){skip} return x}")
    assert "<=" in str(err.value)


def test_unknown_operator_rejected():
    with pytest.raises(ParseError) as err:
        parse("prog(x){y := frob(x) return y}")
    assert "frob" in str(err.value)


def test_wrong_arity_rejected():
    with pytest.raises(ParseError):
        parse("prog(x){y := cons(x) return y}")


def test_precedence():
    p = parse("prog(x){y := x + u1 = x and x < x or x return y}")
    expr = p.body.expr
    assert expr.op == "or"
    assert expr.args[0].op == "and"
    assert expr.args[0].args[0].op == "eq"
    assert expr.args[0].args[0].args[0].op == "append"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("prog(x){\n  y := ;\n  return x}")
    assert err.value.line == 2


def test_unary_literal_past_the_longest_word_is_a_parse_error():
    big = sys.maxsize + 1
    with pytest.raises(ParseError) as err:
        parse(f"prog(x){{\n  x := u{big}\nreturn x}}")
    assert (err.value.line, err.value.col) == (2, 8)
    assert f"u{big}" in err.value.message
    with pytest.raises(ParseError):
        parse(f"prog(x){{x := u{'9' * 5000} return x}}")
    assert parse(f"prog(x){{x := u{'0' * 5000}3 return x}}").body.expr == OpApp("const:111")


def test_comments_ignored():
    p = parse("// header\nprog(x){skip // trailing\nreturn x}")
    assert p.body == Skip()


# -- second order syntax


def test_second_order_detection(iterator_program):
    assert isinstance(iterator_program, Program2)
    assert [n for n, _ in iterator_program.boxed_oracles] == ["F"]
    assert iterator_program.boxed_words == ["u", "v", "w"]
    assert [p.name for p in iterator_program.procedures] == ["iterate", "drive"]


def test_oracle_arity_inference(iterator_program):
    it = procedure(iterator_program, "iterate")
    dr = procedure(iterator_program, "drive")
    assert it.oracle_params == [["X", 1]]
    assert dr.oracle_params == [["Y", 2]]
    assert iterator_program.boxed_oracles == [["F", 1]]


def assert_arity_clash_at(src: str, line: int, col: int, name: str):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.message == f"inconsistent arity for oracle variable {name}"
    assert (err.value.line, err.value.col) == (line, col)


def test_oracle_calls_of_one_body_agree_on_arity():
    src = """box[F, x] in
declare p(X, x){
  y := X(x);
  z := X(x, x)
  return y } in
call p(F, x)"""
    assert_arity_clash_at(src, 4, 8, "X")


def test_oracle_break_sides_agree_on_arity():
    src = """box[F, x] in
declare p(X, x){
  while(x){ break(|X(x)| > |X(x, x)|); skip }
  return x } in
call p(F, x)"""
    assert_arity_clash_at(src, 3, 29, "X")


def test_boxed_oracle_closure_positions_agree_on_arity():
    src = """box[F, x] in
declare p(X, x){ y := X(x) return y } in
declare q(Y, x){ y := Y(x, x) return y } in
call p(F,
  call q(F, x))"""
    assert_arity_clash_at(src, 5, 10, "F")


def test_unused_oracles_get_arity_one():
    p = parse(
        "box[F, G, x] in declare p(X, Y, x){ y := X(x, x) return y } in call p(F, x)"
    )
    assert p.procedures[0].oracle_params == [["X", 2], ["Y", 1]]
    assert p.boxed_oracles == [["F", 2], ["G", 1]]


def test_first_order_oracle_calls_have_no_arity_rule():
    # A first-order program calls no oracle: its first oracle call is a
    # parse error at that call, before any arity could disagree.
    with pytest.raises(ParseError, match="oracle calls cannot occur in first-order programs") as err:
        parse("prog(x){\n y := F(x); z := F(x, x) return y }")
    assert (err.value.line, err.value.col) == (2, 7)


def test_empty_closure_list_syntax():
    p = parse("box[x] in declare p(,x){skip return x} in call p(,x)")
    assert p.procedures[0].oracle_params == []
    assert p.procedures[0].params == ["x"]


def test_oracle_break_requires_same_oracle():
    src = """box[F, x] in
    declare p(X, x){ while(x){ break(|X(x)| > |F(x)|); skip } return x } in
    call p(F, x)"""
    with pytest.raises(ParseError):
        parse(src)


def test_oracle_break_ast(iterator_program):
    it = procedure(iterator_program, "iterate")
    breaks = [s for s in iter_stmts(it.body) if isinstance(s, OracleBreak)]
    assert len(breaks) == 1
    assert breaks[0].oracle == "X"
    assert breaks[0].call_args == (Var("i"),)
    assert breaks[0].ref_vars == ("r",)


# -- desugaring


def test_desugar_for_shape():
    p = parse("prog(n){for i = u0 to n { skip } return n}", desugar=False)
    body = desugar_for(p.body)
    assert isinstance(body, Seq)
    init, loop = body.stmts
    assert init == Assign("i", Var("n"))
    assert isinstance(loop, While)
    assert loop.guard == OpApp("le", [OpApp("eps"), Var("i")])
    assert loop.for_origin
    assert loop.body == Seq([Skip(), Assign("i", OpApp("dec", [Var("i")]))])


def test_long_program_round_trip(default_recursion_limit):
    p = parse(straight_line(3000))
    assert isinstance(p.body, Seq) and len(p.body.stmts) == 3000
    assert parse(pretty_print(p)) == p


def test_a_parsed_program_holds_little_memory():
    n = 30_000
    text = straight_line(n)
    gc.collect()
    tracemalloc.start()
    try:
        program = parse(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(program.body.stmts) == n
    assert held <= 256 * n, f"{held / n:.1f} bytes per statement"


def test_parsing_peaks_at_little_memory():
    """Tokens and parser state on top of the tree stay small while parsing."""
    n = 30_000
    text = straight_line(n)
    gc.collect()
    tracemalloc.start()
    try:
        program = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(program.body.stmts) == n
    assert peak <= 700 * n, f"{peak / n:.1f} bytes per statement"


def test_desugar_identity_on_for_free():
    text = open(corpus("bubble.tl")).read()
    assert parse(text, desugar=False) == parse(text)


def test_desugar_idempotent():
    p = parse(open(corpus("bubble_for.tl")).read())
    assert parse(pretty_print(p)) == p


def test_desugar_rejects_bound_variable_in_body():
    for desugar in (False, True):
        with pytest.raises(DesugarError) as info:
            parse("prog(n){for i = u0 to n { i := n } return n}", desugar=desugar)
        assert isinstance(info.value, ParseError)
        assert (info.value.line, info.value.col) == (1, 9)


@pytest.mark.parametrize("text, rejected", [
    ("prog(n){for i = u0 to n { n := tl(n) } return n}", False),
    ("prog(n){for i = i to i { skip }; i := n return i}", False),
    ("prog(n){for i = u0 to n { skip }; for i = u0 to n { skip } return n}", False),
    ("prog(n){for i = u0 to n { n := i } return n}", True),
    ("prog(n){for i = u0 to n { while(i > eps){ skip } } return n}", True),
    ("prog(n){for i = u0 to n { if(n){ skip } else { break(tl(i)) } } return n}", True),
    ("prog(n){for i = u0 to n { for i = u0 to n { skip } } return n}", True),
    ("prog(n){for i = u0 to n { for j = u0 to i { skip } } return n}", True),
    ("box[F, z] in declare p(X, y){ var r; for i = u0 to y { "
     "break(|X(y)| > |X(i)|) }; return y } in call p(F, z)", True),
])
def test_for_variable_is_rejected_only_in_its_body(text, rejected):
    """Accepted loops are those whose body a ``stmt_vars`` walk finds free of it."""
    for desugar in (False, True):
        if rejected:
            with pytest.raises(DesugarError):
                parse(text, desugar=desugar)
            continue
        loops = [s for s in iter_stmts(parse(text, desugar=False).body) if isinstance(s, For)]
        assert loops and all(s.var not in stmt_vars(s.body) for s in loops)
        parse(text, desugar=desugar)


# Each binder list binds a name at most once: prog parameters, procedure
# parameters of either order, a body's var clauses together, the box
# clauses together, and lambda parameters.
DUPLICATE_BINDERS = [
    ("prog(x, x){ y := x return y }", "x", 9),
    ("box[F, u] in declare p(X, a, a){ var y; y := a; return y } in call p(F, u, u)", "a", 30),
    ("box[F, u] in declare p(X, X, a){ var y; y := a; return y } in call p(F, F, u)", "X", 27),
    ("box[F, u] in declare p(, a, a){ var y; y := a; return y } in call p(, u, u)", "a", 29),
    ("box[F, u] in declare p(X, a){ var y, z; var y; y := a; return y } in call p(F, u)",
     "y", 45),
    ("box[F, u, u] in declare p(X, a){ var y; y := a; return y } in call p(F, u)", "u", 11),
    ("box[F] in box[F, u] in declare p(X, a){ var y; y := a; return y } in call p(F, u)",
     "F", 15),
    ("box[F, u] in declare p(X, a){ var y; y := a; return y } in call p(lambda(w, w). w, u)",
     "w", 77),
]


@pytest.mark.parametrize("text, name, col", DUPLICATE_BINDERS)
def test_a_name_bound_twice_is_a_parse_error_at_its_second_binding(text, name, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"variable {name} is bound twice", 1, col
    )


def test_names_that_bind_nothing_may_repeat():
    """Reference variables and arguments are uses, and distinct lists may share a name."""
    text = ("box[F, u] in declare p(X, a){ var y; while(a > eps){ break(|X(a, a)| > |X(y, y)|); "
            "a := tl(a) }; return y } in call p(lambda(v, w). w, u)")
    loop = parse(text).procedures[0].body
    assert loop.body.stmts[0].ref_vars == ("y", "y")
    text = ("box[F, u] in declare p(X, a, b){ var y; y := a; return y } "
            "in call p(lambda(a, b). a, u, u)")
    assert parse(text).main.closures[0].params == ("a", "b")
    assert parse("prog(x, y){ y := cons(x, x) return y }").params == ["x", "y"]


def test_for_never_survives_parse():
    p = parse("prog(n){for i = u0 to n { skip } return n}")
    assert not any(isinstance(s, For) for s in iter_stmts(p.body))


# -- round trips


@pytest.mark.parametrize(
    "name",
    ["bubble.tl", "bubble_for.tl", "exp1.tl", "exp2.tl", "inc_loop.tl", "I.tl2"],
)
def test_corpus_round_trip(name):
    text = open(corpus(name)).read()
    once = parse(text)
    again = parse(pretty_print(once))
    assert once == again
    assert pretty_print(again) == pretty_print(once)


def test_sugar_is_not_reconstructed():
    text = open(corpus("bubble_for.tl")).read()
    printed = pretty_print(parse(text))
    assert "for" not in printed.split()
    assert "while(" in printed


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_program_round_trip(seed):
    rng = random.Random(seed)
    program = genprog.random_program(rng)
    printed = pretty_print(program)
    assert parse(printed) == program


# -- the scanner against the step-by-step tokenizer in tokencheck.py


def positioned(text: str) -> list:
    """parser.tokenize's tokens with the line and column ``Tokens.line_col`` gives each."""
    tokens = parser.tokenize(text)
    out = [
        (kind, value, *tokens.line_col(i))
        for i, (kind, value) in enumerate(zip(tokens.kinds, tokens.values))
    ]
    assert len(tokens) == len(out)
    return out


def assert_same_tokens(text: str):
    try:
        expected = tokenize_stepwise(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parser.tokenize(text)
        assert (got.value.message, got.value.line, got.value.col) == (
            err.message, err.line, err.col
        )
        return
    assert positioned(text) == expected


CORPUS_FILES = sorted(
    p.name for p in (ROOT / "corpus").iterdir() if p.suffix in (".tl", ".tl2")
)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_tokens_match_the_stepwise_tokenizer(name):
    assert_same_tokens(open(corpus(name)).read())


LEXEMES = [
    "prog", "progx", "while", "while_", "whileé", "in", "int", "eps", "x", "y1",
    "Fo", "X", "u0", "u12", "u12x", "u", '"01#"', '""', '"012"', '"01', ":=",
    "<=", ">=", "!=", "=", "<", ">", "+", "-", "(", ")", "{", "}", "[", "]",
    ";", ",", ".", "|", ":", "@", "é", "\x00", " ", "  ", "\t", "\n", "\r\n",
    "\n\n  ", "// note", "// note\n", "/", "\u00a0", "\u0663", "\u00df", "U1",
    "u1_", "x9", "//",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), max_size=30))
def test_random_texts_match_the_stepwise_tokenizer(parts):
    assert_same_tokens("".join(parts))


MULTILINE = """// a header comment
prog(x){
  // a comment line
  while(x > eps){   // trailing
    x := tl(x)
  };
{bad}
  return x
}
"""


@pytest.mark.parametrize(
    "bad, message, line, col",
    [
        ("  y := x @ x", "unexpected character '@'", 7, 10),
        ('  y := "0120"', "word literals may only contain 0, 1, #", 7, 8),
        ("  y := x; // no end\n  z := (x", "unexpected 'return'", 9, 3),
    ],
)
def test_parse_error_positions_across_lines(bad, message, line, col):
    text = MULTILINE.replace("{bad}", bad)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_unexpected_end_of_input_position():
    text = "// header\nprog(x){\n  x := tl(x)  // unfinished\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == ("unexpected ''", 4, 1)
    assert err.value.expected == {"return"}


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_while_lines_are_source_lines(name):
    text = open(corpus(name)).read()
    program = parse(text, desugar=False)
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    lines = [s.line for b in bodies for s in iter_stmts(b) if isinstance(s, While)]
    source_lines = text.split("\n")
    for line in lines:
        assert source_lines[line - 1].lstrip().startswith("while")
    expected = [t[2] for t in tokenize_stepwise(text) if t[0] == "while"]
    assert lines == expected


@pytest.mark.parametrize("desugar", [False, True])
@pytest.mark.parametrize("name", CORPUS_FILES)
def test_loops_are_numbered_in_pre_order_as_read(name, desugar):
    """The ids the parser gives as it reads are those of a pre-order walk."""
    program = parse(open(corpus(name)).read(), desugar=desugar)
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    loops = [s for b in bodies for s in iter_stmts(b) if isinstance(s, While)]
    read = [s.loop_id for s in loops]
    assign_loop_ids(program)
    assert read == [s.loop_id for s in loops] and len(set(read)) == len(read)


# -- the scanner on noisy texts: whitespace and comments between the tokens

BLANKS = [" ", "\t", "\r\n", "\n\n", " \n\t "]
COMMENT_BITS = [" ", "\t", "x", "while", "for", "for(", "//", '"01"', '"', "\u00e9", "{", "u1"]
BAD = ["@", "\u00e9", "\x00", "$", '"012"', '"0 1"', '"']


def comment(rng) -> str:
    return "//" + "".join(rng.choice(COMMENT_BITS) for _ in range(rng.randint(0, 5)))


def noisy(values: list, rng) -> str:
    """``values`` with random whitespace and comments before, between and after them."""
    def gap():
        parts = [rng.choice(BLANKS) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            parts.insert(rng.randint(0, len(parts) - 1), comment(rng) + "\n")
        return "".join(parts)
    middle = "".join(value + gap() for value in values[:-1])
    return gap() + middle + values[-1] + rng.choice(["", gap(), comment(rng)])


OPS = {entry.name for entry in BUILTINS}


def loop_source(rng) -> list:
    """The tokens of a corpus or genprog program whose order-0 names hold loop keywords.

    A name such as ``forx`` or ``x_while`` holds a loop keyword that is no token.
    """
    if rng.random() < 0.4:
        text = open(corpus(rng.choice(CORPUS_FILES))).read()
    else:
        text = pretty_print(genprog.random_program(rng))
    tokens = tokenize_stepwise(text)[:-1]
    names = {value for kind, value, _, _ in tokens if kind == "ident" and value not in OPS}
    renamed = {name: rng.choice([f"for{name}", f"{name}_while", name]) for name in names}
    return [renamed.get(t[1], t[1]) for t in tokens]


def loop_lines(program) -> list:
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    loops = [s for b in bodies for s in iter_stmts(b) if isinstance(s, While)]
    return [s.line for s in sorted(loops, key=lambda s: s.loop_id)]


def judged_error(text: str):
    try:
        tokenize_stepwise(text)
    except ParseError as err:
        return err.message, err.line, err.col
    return None


def test_noisy_texts_parse_as_their_clean_form():
    """Seeded: the tree, the loop lines, and the place of a bad character or of a parse error."""
    rng, bad_places, errors = random.Random(41), 0, 0
    for _ in range(400):
        values = loop_source(rng)
        clean, text = " ".join(values), noisy(values, rng)
        judged = tokenize_stepwise(text)
        assert [t[1] for t in judged[:-1]] == values
        for desugar, keywords in ((True, ("while", "for")), (False, ("while",))):
            program = parse(text, desugar)
            assert program == parse(clean, desugar)
            assert loop_lines(program) == [t[2] for t in judged if t[0] in keywords]
        at = rng.randint(0, len(text))
        spoiled = text[:at] + rng.choice(BAD) + text[at:]
        expected = judged_error(spoiled)
        if expected is None:  # inside a comment
            parse(spoiled)
        else:
            with pytest.raises(ParseError) as err:
                parse(spoiled)
            assert (err.value.message, err.value.line, err.value.col) == expected
            bad_places += 1
        # With one token dropped, the parse error falls on the token it falls on in clean text.
        i = rng.randrange(len(values))
        dropped = values[:i] + values[i + 1:]
        try:
            parse(" ".join(dropped))
            continue
        except ParseError as first:
            at = [t[2:] for t in tokenize_stepwise(" ".join(dropped))].index((first.line, first.col))
            expected = first.message
        text = noisy(dropped, rng)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.line, err.value.col) == (
            expected, *tokenize_stepwise(text)[at][2:]
        )
        errors += 1
    assert bad_places >= 250 and errors >= 300, (bad_places, errors)


# -- the parser is the one gate: what it returns, the evaluator can run


def assert_well_formed(program):
    """Every operator is known and applied at its arity, and no for loop is left."""
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    for s in (s for b in bodies for s in iter_stmts(b)):
        assert not isinstance(s, For)
        for e in (e for top in stmt_exprs(s) for e in iter_exprs(top)):
            if isinstance(e, OpApp):
                assert BUILTINS.lookup(e.op).arity == len(e.args), e


CORPUS_TOKENS = [
    parser.tokenize(open(corpus(name)).read()).values[:-1] for name in CORPUS_FILES
]
VOCABULARY = sorted({t for tokens in CORPUS_TOKENS for t in tokens} | {"frob", "for", "to"})


@st.composite
def mutated_sources(draw) -> str:
    """A corpus source with a run of 1-3 tokens deleted, inserted or duplicated."""
    tokens = list(draw(st.sampled_from(CORPUS_TOKENS)))
    i, k = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(1, 3))
    how = draw(st.sampled_from(["delete", "insert", "duplicate"]))
    if how == "delete":
        del tokens[i:i + k]
    elif how == "duplicate":
        tokens[i:i] = tokens[i:i + k]
    else:
        tokens[i:i] = draw(st.lists(st.sampled_from(VOCABULARY), min_size=k, max_size=k))
    return " ".join(tokens)


@settings(max_examples=500, deadline=None)
@given(mutated_sources())
def test_a_mutated_source_parses_only_to_a_well_formed_program(text):
    try:
        program = parse(text)
    except ParseError:
        return
    assert_well_formed(program)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_a_corpus_file_parses_well_formed(name):
    assert_well_formed(parse(open(corpus(name)).read()))


def test_generated_programs_parse_well_formed():
    rng = random.Random(GENPROG_SEED)  # the genprog programs of the levels golden file
    for _ in range(GENPROG_CASES):
        assert_well_formed(parse(pretty_print(genprog.random_program(rng))))
