"""Concrete syntax: tokenizer, recursive-descent parser, pretty printer.

Surface conventions (ASCII only):

* lowercase-initial identifiers are order-0 variables, operator names, and
  procedure names; uppercase-initial identifiers are order-1 (oracle)
  variables;
* ``uN`` is the unary numeral 1^N (``u0`` is the empty word ``eps``);
  quoted strings over {0,1,#} are word literals;
* ``a + b`` appends, ``a - u1`` decrements a unary numeral (any other
  right operand of ``-`` is rejected); other operators use function form,
  e.g. ``decb(y)``, ``cons(a, b)``, ``truncate(X(i), p)``;
* ``for x = e to d { s }`` is sugar for counting x down from d to e; the
  bound variable must not occur in the body;
* blocks and expressions nest at most ``MAX_NESTING`` levels deep.

First- versus second-order input is detected from the leading keyword
(``prog`` versus ``box``/``declare``/``call``).  A file's extension names
its language, and ``parse_file`` rejects a file holding the other one.

Each fact is settled where it is read: a ``for`` loop is expanded once its
body is parsed, and an order-1 variable takes the arity of its uses in its
procedure body or in the main term (1 if it has none); a use that disagrees
is a parse error, and so is any oracle call in a first-order program.

The scanner reads the text with one ``findall`` of one regular expression,
which takes each candidate token with the whitespace and comments after it,
classifies each distinct candidate once, and gives the tokens as flat lists
of kinds and values; it builds no object per token.  Positions are worked
out only where they are read: for a ``ParseError``, by scanning up to the
token again with the same expression, and for ``While.line``, by a cursor
that moves forward through the text from one loop keyword to the next.  The
parser indexes the lists directly, passes the nesting depth down as an
argument, and numbers the while loops in pre-order as it reads them.
"""

from __future__ import annotations

import re

from . import opreg, words
from .syntax import (
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
    seq_of,
)


class ParseError(Exception):
    def __init__(self, message, line=0, col=0, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        where = f" at {line}:{col}" if line else ""
        hint = f" (expected one of: {', '.join(sorted(self.expected))})" if expected else ""
        super().__init__(f"{message}{where}{hint}")


class DesugarError(ParseError):
    """A ``for`` loop whose variable occurs in its body."""


# The deepest a program may nest.  A statement of an if, while or for body
# sits one level below the statement that owns the body; an expression
# (parenthesized or not) sits one level below the statement or expression
# that contains it, and a term one level below the term that contains it.
# Blocks and expressions count together, so the level of a point is the
# number of bodies and expressions around it; a for loop counts as the while
# loop it desugars to.  A point deeper than this is a parse error; the bound
# keeps every recursive pass over a parsed program, the parser's own
# included, well inside Python's default recursion limit.
MAX_NESTING = 100


KEYWORDS = {
    "prog", "skip", "if", "else", "while", "break", "for", "to", "return",
    "declass", "box", "in", "declare", "call", "lambda", "var",
    "true", "false", "eps", "and", "or",
}

_SYMBOLS = {":=", "<=", ">=", "!=", *"=<>+-(){}[];,.|"}

# Whitespace and comments, which separate tokens and are no token.
_SKIP = r"\s*(?://[^\n]*\s*)*"
_SKIP_RE = re.compile(_SKIP)
# A candidate token and the whitespace and comments after it: a word (a
# keyword, a name or a ``uN`` literal), a two-character symbol, a quoted
# string, or any other single character; ``_kind`` tells which of them are
# tokens.  Every non-space character that starts no comment starts a
# candidate, so once the text's leading whitespace and comments are
# skipped, the matches of ``findall`` follow one another to the end.
_TOKEN_RE = re.compile(r'((?a:[A-Za-z]\w*)|:=|<=|>=|!=|"[^"\n]*"|\S)' + _SKIP)
# A loop keyword that is a whole word.
_LOOP_WORD_RE = re.compile(r"(?a)\b(?:while|for)\b")
_OWN_KINDS = {t: t for t in (*KEYWORDS, *_SYMBOLS)}


def _kind(text: str) -> str:
    """The kind of a candidate token; bad and badstring are no token's."""
    kind = _OWN_KINDS.get(text)
    if kind is not None:
        return kind
    first = text[0]
    if first.isascii() and first.isalpha():
        if first == "u" and text[1:].isdigit():
            return "ulit"
        return "ident" if first.islower() else "ovar"
    if first == '"' and len(text) > 1:
        return "badstring" if text.strip('"01#') else "string"
    return "bad"


class Tokens:
    """The tokens of a text as flat lists, ending in one eof token.

    Token i has kind ``kinds[i]`` (a keyword or symbol is its own kind; the
    other kinds are ident, ovar, string and ulit) and text ``values[i]``.
    Positions are worked out from the text only where they are read.
    """

    __slots__ = ("text", "kinds", "values")

    def __init__(self, text, kinds, values):
        self.text = text
        self.kinds = kinds
        self.values = values

    def __len__(self) -> int:  # the number of tokens, eof included
        return len(self.kinds)

    def line_col(self, i: int) -> tuple:
        """The 1-based line and column of token i, found by scanning up to it again."""
        text = self.text
        offset = _SKIP_RE.match(text).end()
        for _ in range(i):
            offset = _TOKEN_RE.match(text, offset).end()
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> Tokens:
    """The tokens of ``text``, from one ``findall`` pass; see ``Tokens``.

    Each distinct candidate is classified once, and equal names are one
    string, shared by the tokens and the tree.
    """
    found = _TOKEN_RE.findall(text, _SKIP_RE.match(text).end())
    one = {}  # each distinct candidate -> its first occurrence
    values = list(map(one.setdefault, found, found))
    kind_of = {t: _kind(t) for t in one}
    bad = [values.index(t) for t, kind in kind_of.items() if kind in ("bad", "badstring")]
    tokens = Tokens(text, None, values)
    if bad:  # the first bad candidate is the error
        i = min(bad)
        if kind_of[values[i]] == "bad":
            raise ParseError(f"unexpected character {values[i]!r}", *tokens.line_col(i))
        raise ParseError("word literals may only contain 0, 1, #", *tokens.line_col(i))
    tokens.kinds = list(map(kind_of.__getitem__, values))
    tokens.kinds.append("eof")
    values.append("")
    return tokens


class _Parser:
    """Recursive descent over the flat token lists.

    Each method that reads a block or an expression takes the nesting
    level of the point it reads from, ``depth``.  Positions are token
    indexes; ``line`` turns one into a source line with a cursor that only
    moves forward.
    """

    def __init__(self, tokens, desugar):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.desugar = desugar  # expand each for loop as it is parsed
        self.pos = 0
        self.loops = 0  # while loops numbered so far, in pre-order
        self.cursor = (0, 1)  # the offset and line of the last loop keyword found
        # Oracle variable -> arity of its uses in the procedure body or main
        # term being parsed; None in a first-order program, which has none.
        self.arities = None
        self.procedures = {}  # name -> Procedure, for the main term's calls
        self.last_use = {}  # order-0 variable -> position of its last use so far

    # -- token plumbing

    def expect(self, kind) -> str:
        """The value of the next token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(f"unexpected {self.values[pos]!r}", pos, expected={kind})
        self.pos = pos + 1
        return self.values[pos]

    def accept(self, kind) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def line(self, pos) -> int:
        """The line of the loop keyword at ``pos``, found after the last one.

        Its token is its next occurrence that is a whole word in no comment.
        In a text that scans cleanly every ``//`` starts a comment, and one
        holding the occurrence starts on its line, after the last keyword.
        """
        word, text = self.values[pos], self.tokens.text
        last, line = self.cursor
        found = text.find(word, last)
        while not _LOOP_WORD_RE.match(text, found) or (
            text.find("//", max(text.rfind("\n", last, found) + 1, last), found) >= 0
        ):
            found = text.find(word, found + len(word))
        line += text.count("\n", last, found)
        self.cursor = (found + len(word), line)
        return line

    def error(self, message, pos, expected=()) -> ParseError:
        return ParseError(message, *self.tokens.line_col(pos), expected=expected)

    def fail(self, message, expected=()):
        raise self.error(message, self.pos, expected)

    def record_arity(self, pos, arity):
        """Note a use of the oracle variable at ``pos`` at ``arity``."""
        name = self.values[pos]
        if self.arities is None:
            raise self.error("oracle calls cannot occur in first-order programs", pos)
        if self.arities.setdefault(name, arity) != arity:
            raise self.error(f"inconsistent arity for oracle variable {name}", pos)

    def distinct(self, names, start) -> list:
        """``names``, the binders read since token ``start``, if none is bound twice."""
        if len(set(names)) < len(names):
            seen = set()
            for pos in range(start, self.pos):
                name = self.values[pos]
                if self.kinds[pos] in ("ident", "ovar") and name in seen:
                    raise self.error(f"variable {name} is bound twice", pos)
                seen.add(name)
        return names

    def too_deep(self, pos) -> ParseError:
        return self.error(f"blocks and expressions nest deeper than {MAX_NESTING} levels", pos)

    # -- programs

    def parse_program(self):
        first = self.kinds[0]
        if first == "prog":
            return self.parse_program1()
        if first in ("box", "declare", "call") or (first == "ident" and self.kinds[1] == "eof"):
            return self.parse_program2()
        self.fail("expected a program", expected={"prog", "box", "declare", "call"})

    def parse_program1(self) -> Program1:
        self.expect("prog")
        self.expect("(")
        start = self.pos
        params = self.distinct(self.parse_idlist(")"), start)
        self.expect("{")
        body = self.parse_stmts(0, "return")
        self.expect("return")
        ret = self.expect("ident")
        self.expect("}")
        self.expect("eof")
        return Program1(params, body, ret)

    def parse_program2(self) -> Program2:
        oracle_names, boxed_words = [], []
        start = self.pos
        while self.accept("box"):
            self.expect("[")
            while True:
                kind = self.kinds[self.pos]
                if kind == "ovar":
                    oracle_names.append(self.expect("ovar"))
                elif kind == "ident":
                    boxed_words.append(self.expect("ident"))
                else:
                    self.fail("expected a boxed variable", expected={"ident", "ovar"})
                if not self.accept(","):
                    break
            self.expect("]")
            self.expect("in")
        self.distinct(oracle_names + boxed_words, start)
        procedures = []
        while self.accept("declare"):
            procedures.append(self.parse_procedure())
            self.expect("in")
        self.procedures = {p.name: p for p in procedures}
        self.arities = {}
        main = self.parse_term(0)
        self.expect("eof")
        boxed_oracles = [[n, self.arities.get(n, 1)] for n in oracle_names]
        return Program2(boxed_oracles, boxed_words, procedures, main)

    def parse_procedure(self) -> Procedure:
        name = self.expect("ident")
        self.expect("(")
        start = self.pos
        oracle_names, params = [], []
        if self.accept(","):  # explicit empty order-1 list: p(, x, y)
            params = self.parse_idlist(")")
        elif not self.accept(")"):
            while True:
                kind = self.kinds[self.pos]
                if kind == "ovar":
                    if params:
                        self.fail("order-1 parameters must precede order-0 ones")
                    oracle_names.append(self.expect("ovar"))
                elif kind == "ident":
                    params.append(self.expect("ident"))
                else:
                    self.fail("expected a parameter", expected={"ident", "ovar"})
                if not self.accept(","):
                    break
            self.expect(")")
        self.distinct(oracle_names + params, start)
        self.expect("{")
        local_vars, start = [], self.pos
        while self.accept("var"):
            local_vars.extend(self.parse_idlist(";"))
        self.distinct(local_vars, start)
        self.arities = {}
        body = self.parse_stmts(0, "return")
        self.expect("return")
        ret = self.expect("ident")
        self.expect("}")
        oracle_params = [[n, self.arities.get(n, 1)] for n in oracle_names]
        return Procedure(name, oracle_params, params, local_vars, body, ret)

    def parse_term(self, depth):
        """A term, one level below ``depth``, the level of the term containing it."""
        depth += 1
        if depth > MAX_NESTING:
            raise self.too_deep(self.pos)
        kind = self.kinds[self.pos]
        if kind == "ident":
            return TermVar(self.expect("ident"))
        if kind == "call":
            self.pos += 1
            return self.parse_call(depth)
        self.fail("expected a term", expected={"ident", "call"})

    def parse_call(self, depth) -> Call:
        name = self.expect("ident")
        callee = self.procedures.get(name)
        self.expect("(")
        closures, args = [], []
        self.accept(",")  # an explicit empty closure list
        if self.kinds[self.pos] != ")":
            while True:
                pos = self.pos
                kind = self.kinds[pos]
                if kind in ("ovar", "lambda") and args:
                    self.fail("closures must precede order-0 arguments")
                if kind == "ovar":
                    self.pos += 1
                    if callee is not None and len(closures) < len(callee.oracle_params):
                        self.record_arity(pos, callee.oracle_params[len(closures)][1])
                    closures.append(ClosureVar(self.values[pos]))
                elif kind == "lambda":
                    self.pos += 1
                    self.expect("(")
                    lam_params = self.distinct(self.parse_idlist(")"), pos)
                    self.expect(".")
                    closures.append(Lambda(lam_params, self.parse_term(depth)))
                else:
                    args.append(self.parse_term(depth))
                if not self.accept(","):
                    break
        self.expect(")")
        return Call(name, closures, args)

    def parse_idlist(self, closer) -> list:
        """Comma-separated order-0 names up to ``closer``, which is read too."""
        names = []
        if not self.accept(closer):
            names.append(self.expect("ident"))
            while self.accept(","):
                names.append(self.expect("ident"))
            self.expect(closer)
        return names

    # -- statements

    def parse_stmts(self, depth, stop):
        """Statements at ``depth`` up to ``stop`` or ``}``, as one statement."""
        kinds = self.kinds
        stmts = []
        self.parse_statement(depth, stmts)
        while kinds[self.pos] == ";":
            self.pos += 1
            kind = kinds[self.pos]
            if kind == stop or kind == "}":
                break  # tolerate a trailing semicolon
            self.parse_statement(depth, stmts)
        return Seq(stmts) if len(stmts) > 1 else stmts[0]

    def parse_block(self, depth):
        """``{ statements }``, one level below ``depth``, that of the statement owning it."""
        self.expect("{")
        body = self.parse_stmts(depth + 1, "}")
        self.expect("}")
        return body

    def parse_guard(self, depth):
        self.expect("(")
        guard = self.parse_expr(depth)[0]
        self.expect(")")
        return guard

    def parse_statement(self, depth, stmts):
        """Append the statement at ``depth`` that starts here to ``stmts``.

        A desugared for loop appends the two statements it expands to.
        """
        pos = self.pos
        kinds = self.kinds
        kind = kinds[pos]
        self.pos = pos + 1
        if kind == "ident" and kinds[pos + 1] == ":=":
            var = self.values[pos]
            self.last_use[var] = pos
            self.pos = pos + 2
            stmts.append(Assign(var, self.parse_expr(depth)[0]))
        elif kind == "skip":
            stmts.append(Skip())
        elif kind == "if":
            guard, then = self.parse_guard(depth), self.parse_block(depth)
            self.expect("else")
            stmts.append(If(guard, then, self.parse_block(depth)))
        elif kind == "while":
            self.loops += 1
            line, loop_id = self.line(pos), self.loops
            guard = self.parse_guard(depth)
            stmts.append(While(guard, self.parse_block(depth), loop_id, line=line))
        elif kind == "for":
            if self.desugar:
                self.loops += 1
                line, loop_id = self.line(pos), self.loops
            # Counted as the while form it desugars to, so that form parses
            # back: e moves into the guard e <= x, and x := x - u1 needs
            # three levels below the loop.
            var_pos = self.pos
            var = self.expect("ident")
            self.last_use[var] = var_pos
            self.expect("=")
            low = self.parse_expr(depth + 1)[0]
            self.expect("to")
            high = self.parse_expr(depth)[0]
            if depth + 3 > MAX_NESTING:
                raise self.too_deep(pos)
            brace = self.pos
            loop = For(var, low, high, self.parse_block(depth))
            if self.last_use[var] >= brace:  # a use inside the body
                message = f"for-loop variable {var!r} must not occur in the loop body"
                raise DesugarError(message, *self.tokens.line_col(pos))
            if self.desugar:
                stmts += desugar_for(loop, line, loop_id).stmts
            else:
                stmts.append(loop)
        elif kind == "break":
            self.expect("(")
            if kinds[self.pos] == "|":
                stmts.append(self.parse_oracle_break(depth))
            else:
                stmts.append(Break(self.parse_expr(depth)[0]))
            self.expect(")")
        else:
            self.pos = pos
            self.fail(
                "expected a statement",
                expected={"skip", "if", "while", "for", "break", "ident"},
            )

    def parse_oracle_break(self, depth) -> OracleBreak:
        self.expect("|")
        left = self.pos
        oracle = self.expect("ovar")
        call_args = self.parse_args(depth)[0]
        self.record_arity(left, len(call_args))
        self.expect("|")
        self.expect(">")
        self.expect("|")
        right = self.pos
        if self.expect("ovar") != oracle:
            raise self.error("both sides of an oracle break must call the same oracle", right)
        self.expect("(")
        ref_vars = self.parse_idlist(")")
        self.last_use.update(dict.fromkeys(ref_vars, right))  # any position in the break
        self.record_arity(right, len(ref_vars))
        self.expect("|")
        return OracleBreak(oracle, call_args, ref_vars)

    # -- expressions
    #
    # Each returns (expression, low): how many levels below its own level
    # the deepest part of the expression sits.  Left operands of binary
    # operators only move down once the operator is seen, so the limit is
    # checked again as each binary node is built.

    def parse_args(self, depth) -> tuple:
        """``(e, ...)``: the arguments, each one level below ``depth``, and their low."""
        self.expect("(")
        args, low = [], 0
        if not self.accept(")"):
            while True:
                arg, arg_low = self.parse_expr(depth)
                args.append(arg)
                low = max(low, 1 + arg_low)
                if not self.accept(","):
                    break
            self.expect(")")
        return args, low

    def parse_expr(self, depth, prec=1) -> tuple:
        """An expression one level below ``depth``, binding at ``prec`` or tighter."""
        depth += 1
        pos = self.pos
        if depth > MAX_NESTING:
            raise self.too_deep(pos)
        kinds = self.kinds
        if kinds[pos] == "ident" and kinds[pos + 1] != "(":  # a variable, the commonest operand
            name = self.values[pos]
            self.last_use[name] = pos
            self.pos = pos + 1
            node, low = Var(name), 0
        else:
            node, low = self.parse_primary(depth)
        while True:
            pos = self.pos
            op = _SURFACE_OP.get(kinds[pos])
            if op is None:
                if kinds[pos] == ">=":
                    raise self.error("there is no >= operator; swap the operands and use <=", pos)
                break
            if _PREC[op] < prec:
                break
            self.pos = pos + 1
            rhs, rhs_low = self.parse_expr(depth, _PREC[op] + 1)  # left associative
            if op != "dec":
                node, low = OpApp(op, (node, rhs)), 1 + max(low, rhs_low)
            elif type(rhs) is OpApp and rhs.op == opreg.CONST_PREFIX + "1":
                node, low = OpApp("dec", (node,)), 1 + low
            else:
                raise self.error(
                    "only decrement by one is supported; write e - u1 "
                    "(or decb(e) for binary numerals)",
                    pos,
                )
            if depth + low > MAX_NESTING:
                raise self.too_deep(pos)
        return node, low

    def parse_primary(self, depth) -> tuple:
        """The operand at ``depth`` that starts here, and its low."""
        pos = self.pos
        kind, value = self.kinds[pos], self.values[pos]
        self.pos = pos + 1
        if kind == "ident":  # an operator call: parse_expr reads a variable itself
            args, low = self.parse_args(depth)
            try:
                arity = opreg.BUILTINS.lookup(value).arity
            except opreg.UnknownOperator:
                raise self.error(f"unknown operator {value!r}", pos) from None
            if arity != len(args):
                raise self.error(
                    f"operator {value} expects {arity} argument(s), got {len(args)}", pos
                )
            return OpApp(value, args), low
        if kind == "ulit":
            try:
                return _literal(words.unary_digits(value[1:])), 0
            except words.WordError as exc:
                raise self.error(str(exc), pos) from None
        if kind == "string":
            return _literal(value[1:-1]), 0
        if kind == "(":
            node, low = self.parse_expr(depth)
            self.expect(")")
            return node, 1 + low
        if kind == "true" or kind == "false" or kind == "eps":
            return OpApp(kind), 0
        if kind == "declass":
            self.expect("(")
            first, low1 = self.parse_expr(depth)
            if self.kinds[self.pos] == ")":
                raise self.error("declass requires two arguments: declass(e, bound)", pos)
            self.expect(",")
            second, low2 = self.parse_expr(depth)
            self.expect(")")
            return Declass(first, second), 1 + max(low1, low2)
        if kind == "ovar":
            args, low = self.parse_args(depth)
            self.record_arity(pos, len(args))
            return OracleCall(value, args), low
        self.pos = pos
        self.fail("expected an expression", expected={"ident", "string", "("})


def _literal(text: str) -> OpApp:
    return OpApp(opreg.CONST_PREFIX + text) if text else OpApp("eps")


def parse(text: str, desugar: bool = True):
    """Parse source text into a Program1 or Program2.

    Each for loop is rewritten into its while form as it is parsed, unless
    ``desugar`` is False; every while loop is numbered in pre-order, from 1,
    as it is read.
    """
    return _Parser(tokenize(text), desugar).parse_program()


def parse_file(path: str):
    """The program in ``path``: second-order in a .tl2 file, else first-order."""
    with open(path, "r", encoding="utf-8") as fh:
        program = parse(fh.read())
    if path.endswith(".tl2") != isinstance(program, Program2):
        order = "second" if path.endswith(".tl2") else "first"
        raise ParseError(f"{path}: expected a {order}-order program")
    return program


# ---------------------------------------------------------------------------
# For-loop desugaring


def desugar_for(loop: For, line: int = 0, loop_id: int = -1) -> Seq:
    """Expand for x = e to d { body } into x := d; while(e <= x){ body; x := x - u1 }.

    The parser expands each loop as it reads it, after its body, once it has
    checked that the loop variable does not occur there.  The produced While
    carries a for-origin mark, the ``for``'s line and the loop id taken when
    the ``for`` was read, so the decidable aperiodicity criterion can
    recognize and name it; the parser splices the two statements into the
    enclosing sequence, so desugared code has the same shape its printed
    form reparses to.
    """
    guard = OpApp("le", [loop.low, Var(loop.var)])
    body = seq_of([loop.body, Assign(loop.var, OpApp("dec", [Var(loop.var)]))])
    return Seq([Assign(loop.var, loop.high), While(guard, body, loop_id, True, line)])


# ---------------------------------------------------------------------------
# Pretty printing

_BINOP_SURFACE = {
    "eq": "=", "lt": "<", "le": "<=", "gt": ">", "ne": "!=",
    "and": "and", "or": "or", "append": "+",
}
_PREC = {
    "or": 1, "and": 2, "eq": 3, "lt": 3, "le": 3, "gt": 3, "ne": 3, "append": 4, "dec": 4,
}
_SURFACE_OP = {surface: op for op, surface in _BINOP_SURFACE.items()} | {"-": "dec"}


def pp_expr(e, parent_prec=0) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Declass):
        return f"declass({pp_expr(e.expr)}, {pp_expr(e.bound)})"
    if isinstance(e, OracleCall):
        return f"{e.oracle}({', '.join(pp_expr(a) for a in e.args)})"
    if isinstance(e, OpApp):
        if e.op.startswith(opreg.CONST_PREFIX):
            return f'"{e.op[len(opreg.CONST_PREFIX):]}"'
        if e.op in ("true", "false", "eps"):
            return e.op
        if e.op == "dec":
            inner = f"{pp_expr(e.args[0], _PREC['dec'])} - u1"
            return f"({inner})" if parent_prec > _PREC["dec"] else inner
        if e.op in _BINOP_SURFACE:
            prec = _PREC[e.op]
            left = pp_expr(e.args[0], prec)
            right = pp_expr(e.args[1], prec + 1)
            text = f"{left} {_BINOP_SURFACE[e.op]} {right}"
            return f"({text})" if parent_prec > prec else text
        return f"{e.op}({', '.join(pp_expr(a) for a in e.args)})"
    raise TypeError(f"not an expression: {e!r}")


def _pp_stmt(s, indent) -> list:
    pad = "  " * indent
    if isinstance(s, Seq):
        lines = []
        for st in s.stmts:
            if lines:
                lines[-1] += ";"
            lines += _pp_stmt(st, indent)
        return lines
    if isinstance(s, Skip):
        return [pad + "skip"]
    if isinstance(s, Assign):
        return [pad + f"{s.var} := {pp_expr(s.expr)}"]
    if isinstance(s, If):
        lines = [pad + f"if({pp_expr(s.guard)}){{"]
        lines += _pp_stmt(s.then, indent + 1)
        lines.append(pad + "} else {")
        lines += _pp_stmt(s.orelse, indent + 1)
        lines.append(pad + "}")
        return lines
    if isinstance(s, While):
        lines = [pad + f"while({pp_expr(s.guard)}){{"]
        lines += _pp_stmt(s.body, indent + 1)
        lines.append(pad + "}")
        return lines
    if isinstance(s, Break):
        return [pad + f"break({pp_expr(s.guard)})"]
    if isinstance(s, OracleBreak):
        call = f"{s.oracle}({', '.join(pp_expr(a) for a in s.call_args)})"
        ref = f"{s.oracle}({', '.join(s.ref_vars)})"
        return [pad + f"break(|{call}| > |{ref}|)"]
    raise TypeError(f"not a statement: {s!r}")


def _pp_closure(c) -> str:
    if isinstance(c, ClosureVar):
        return c.name
    return f"lambda({', '.join(c.params)}). {_pp_term(c.body)}"


def _pp_term(t) -> str:
    if isinstance(t, TermVar):
        return t.name
    parts = [_pp_closure(c) for c in t.closures] + [_pp_term(a) for a in t.args]
    return f"call {t.proc}({', '.join(parts)})"


def pretty_print(program) -> str:
    """Canonical source text; parse(pretty_print(p)) is structurally p."""
    if isinstance(program, Program1):
        lines = [f"prog({', '.join(program.params)}){{"]
        lines += _pp_stmt(program.body, 1)
        lines.append(f"  return {program.ret}")
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines = []
    boxed = [n for n, _ in program.boxed_oracles] + list(program.boxed_words)
    if boxed:
        lines.append(f"box[{', '.join(boxed)}] in")
    for proc in program.procedures:
        params = [n for n, _ in proc.oracle_params] + list(proc.params)
        header = f"declare {proc.name}({', '.join(params)}){{"
        if not proc.oracle_params and proc.params:
            header = f"declare {proc.name}(, {', '.join(proc.params)}){{"
        lines.append(header)
        if proc.locals:
            lines.append(f"  var {', '.join(proc.locals)};")
        lines += _pp_stmt(proc.body, 1)
        lines.append(f"  return {proc.ret}")
        lines.append("} in")
    lines.append(_pp_term(program.main))
    return "\n".join(lines) + "\n"
