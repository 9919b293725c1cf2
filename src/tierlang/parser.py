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
is a parse error.

The scanner makes one regular-expression pass and gives each token as a
(kind, value, offset) triple.  Lines and columns are worked out from the
offset only where they are read: for a ``ParseError`` and for
``While.line``, from a table of newline offsets built at most once per
parse.
"""

from __future__ import annotations

import bisect
import re
import sys

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
    assign_loop_ids,
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

# One match per token: the whitespace and comments before it, then exactly
# one token, the end of the input, or one character no token starts with.
# Keywords and symbols form one group, whose kind is their own text.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (?:
        (?P<string>"[01\#]*")
      | (?P<ulit>u[0-9]+\b)
      | (?P<literal>(?:"""
    + "|".join(sorted(KEYWORDS))
    + r""")(?![A-Za-z0-9_])|:=|<=|>=|!=|[=<>+\-(){}\[\];,.|])
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<ovar>[A-Z][A-Za-z0-9_]*)
      | (?P<eof>\Z)
      | (?P<badstring>"[^"\n]*")
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_NEWLINE_RE = re.compile("\n")


def tokenize(text: str) -> list:
    """The tokens of ``text`` as (kind, value, offset) triples, ending in eof.

    A keyword or symbol is its own kind; the other kinds are ident, ovar,
    string and ulit.  The offset is where the token starts in ``text``; the
    eof token sits at ``len(text)``.  Lines and columns are worked out from
    offsets only for an error or a while loop (see ``_line_col``).
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "literal":
            append((value, value, m.start(kind)))
        elif kind == "eof":
            break
        elif kind == "bad" or kind == "badstring":
            offset = m.start(kind)
            raise ParseError(
                f"unexpected character {value!r}" if kind == "bad"
                else "word literals may only contain 0, 1, #",
                *_line_col(_newlines(text[:offset]), offset),
            )
        else:  # names repeat: one string each for the tokens and the tree
            append((kind, sys.intern(value), m.start(kind)))
    append(("eof", "", len(text)))
    return tokens


def _newlines(text: str) -> list:
    """The offsets of the newlines of ``text``, in order."""
    return [m.start() for m in _NEWLINE_RE.finditer(text)]


def _line_col(newlines: list, offset: int) -> tuple:
    """The 1-based line and column of ``offset``, given the newline offsets."""
    line = bisect.bisect_left(newlines, offset)  # newlines before the offset
    return line + 1, offset - (newlines[line - 1] if line else -1)


class _Parser:
    def __init__(self, text, tokens, desugar):
        self.text = text
        self.desugar = desugar  # expand each for loop as it is parsed
        # One eof more, so that looking one token past eof needs no bound.
        self.tokens = tokens + [tokens[-1]]
        self.pos = 0
        self.depth = 0  # nesting level of the block or expression being parsed
        self.newlines = None  # built on the first position asked for
        # Oracle variable -> arity of its uses in the procedure body or main
        # term being parsed; None in a first-order program (no arity rule).
        self.arities = None
        self.procedures = {}  # name -> Procedure, for the main term's calls
        self.last_use = {}  # order-0 variable -> offset of its last use so far

    # -- token plumbing; a token is a (kind, value, offset) triple

    def peek(self, ahead=0) -> tuple:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"unexpected {tok[1]!r}", tok, expected={kind})
        self.pos += 1
        return tok

    def accept(self, kind) -> tuple | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def line_col(self, tok) -> tuple:
        if self.newlines is None:
            self.newlines = _newlines(self.text)
        return _line_col(self.newlines, tok[2])

    def error(self, message, tok, expected=()) -> ParseError:
        return ParseError(message, *self.line_col(tok), expected=expected)

    def fail(self, message, expected=()):
        raise self.error(message, self.peek(), expected)

    def record_arity(self, tok, arity):
        """Note a use of the oracle variable ``tok`` at ``arity``."""
        if self.arities is not None and self.arities.setdefault(tok[1], arity) != arity:
            raise self.error(f"inconsistent arity for oracle variable {tok[1]}", tok)

    def check_depth(self, tok, low=0):
        """Fail if a point ``low`` levels below the current one is too deep."""
        if self.depth + low > MAX_NESTING:
            raise self.error(
                f"blocks and expressions nest deeper than {MAX_NESTING} levels", tok
            )

    # -- programs

    def parse_program(self):
        first = self.peek()[0]
        if first == "prog":
            return self.parse_program1()
        if first in ("box", "declare", "call") or (
            first == "ident" and self.peek(1)[0] == "eof"
        ):
            return self.parse_program2()
        self.fail("expected a program", expected={"prog", "box", "declare", "call"})

    def parse_program1(self) -> Program1:
        self.expect("prog")
        self.expect("(")
        params = self.parse_idlist(closer=")")
        self.expect(")")
        self.expect("{")
        body = self.parse_stmts(stop={"return"})
        self.expect("return")
        ret = self.expect("ident")[1]
        self.expect("}")
        self.expect("eof")
        return Program1(params, body, ret)

    def parse_program2(self) -> Program2:
        oracle_names, boxed_words = [], []
        while self.accept("box"):
            self.expect("[")
            while True:
                tok = self.peek()
                if tok[0] == "ovar":
                    oracle_names.append(self.next()[1])
                elif tok[0] == "ident":
                    boxed_words.append(self.next()[1])
                else:
                    self.fail("expected a boxed variable", expected={"ident", "ovar"})
                if not self.accept(","):
                    break
            self.expect("]")
            self.expect("in")
        procedures = []
        while self.accept("declare"):
            procedures.append(self.parse_procedure())
            self.expect("in")
        self.procedures = {p.name: p for p in procedures}
        self.arities = {}
        main = self.parse_term()
        self.expect("eof")
        boxed_oracles = [[n, self.arities.get(n, 1)] for n in oracle_names]
        return Program2(boxed_oracles, boxed_words, procedures, main)

    def parse_procedure(self) -> Procedure:
        name = self.expect("ident")[1]
        self.expect("(")
        oracle_names, params = [], []
        if self.accept(","):  # explicit empty order-1 list: p(, x, y)
            params = self.parse_idlist(closer=")")
        elif self.peek()[0] != ")":
            while True:
                tok = self.peek()
                if tok[0] == "ovar":
                    if params:
                        self.fail("order-1 parameters must precede order-0 ones")
                    oracle_names.append(self.next()[1])
                elif tok[0] == "ident":
                    params.append(self.next()[1])
                else:
                    self.fail("expected a parameter", expected={"ident", "ovar"})
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("{")
        local_vars = []
        while self.peek()[0] == "var":
            self.next()
            local_vars.extend(self.parse_idlist(closer=";"))
            self.expect(";")
        self.arities = {}
        body = self.parse_stmts(stop={"return"})
        self.expect("return")
        ret = self.expect("ident")[1]
        self.expect("}")
        oracle_params = [[n, self.arities.get(n, 1)] for n in oracle_names]
        return Procedure(name, oracle_params, params, local_vars, body, ret)

    def parse_term(self):
        """A term, one level below the term that contains it."""
        tok = self.peek()
        self.depth += 1
        self.check_depth(tok)
        if tok[0] == "ident":
            term = TermVar(self.next()[1])
        elif self.accept("call"):
            term = self.parse_call()
        else:
            self.fail("expected a term", expected={"ident", "call"})
        self.depth -= 1
        return term

    def parse_call(self) -> Call:
        name = self.expect("ident")[1]
        callee = self.procedures.get(name)
        self.expect("(")
        closures, args = [], []
        self.accept(",")  # an explicit empty closure list
        if self.peek()[0] != ")":
            while True:
                tok = self.peek()
                if tok[0] in ("ovar", "lambda") and args:
                    self.fail("closures must precede order-0 arguments")
                if tok[0] == "ovar":
                    self.pos += 1
                    if callee is not None and len(closures) < len(callee.oracle_params):
                        self.record_arity(tok, callee.oracle_params[len(closures)][1])
                    closures.append(ClosureVar(tok[1]))
                elif tok[0] == "lambda":
                    self.next()
                    self.expect("(")
                    lam_params = self.parse_idlist(closer=")")
                    self.expect(")")
                    self.expect(".")
                    closures.append(Lambda(lam_params, self.parse_term()))
                else:
                    args.append(self.parse_term())
                if not self.accept(","):
                    break
        self.expect(")")
        return Call(name, closures, args)

    def parse_idlist(self, closer) -> list:
        names = []
        if self.peek()[0] == closer:
            return names
        names.append(self.expect("ident")[1])
        while self.accept(","):
            names.append(self.expect("ident")[1])
        return names

    # -- statements

    def parse_stmts(self, stop):
        stmts = [self.parse_statement()]
        while self.accept(";"):
            kind = self.peek()[0]
            if kind in stop or kind == "}":
                break  # tolerate a trailing semicolon
            stmts.append(self.parse_statement())
        return seq_of(stmts)

    def parse_block(self):
        """``{ statements }``, one level below the statement that owns it."""
        tok = self.expect("{")
        self.depth += 1
        self.check_depth(tok)
        body = self.parse_stmts(stop=set())
        self.depth -= 1
        self.expect("}")
        return body

    def parse_guard(self):
        self.expect("(")
        guard = self.parse_expr()[0]
        self.expect(")")
        return guard

    def parse_statement(self):
        tok = self.next()
        kind = tok[0]
        if kind == "ident" and self.peek()[0] == ":=":
            self.pos += 1
            self.last_use[tok[1]] = tok[2]
            return Assign(tok[1], self.parse_expr()[0])
        if kind == "skip":
            return Skip()
        if kind == "if":
            guard, then = self.parse_guard(), self.parse_block()
            self.expect("else")
            return If(guard, then, self.parse_block())
        if kind == "while":
            guard = self.parse_guard()
            return While(guard, self.parse_block(), line=self.line_col(tok)[0])
        if kind == "for":
            # Counted as the while form it desugars to, so that form parses
            # back: e moves into the guard e <= x, and x := x - u1 needs
            # three levels below the loop.
            _, var, offset = self.expect("ident")
            self.last_use[var] = offset
            self.expect("=")
            self.depth += 1
            low = self.parse_expr()[0]
            self.depth -= 1
            self.expect("to")
            high = self.parse_expr()[0]
            self.check_depth(tok, 3)
            brace = self.peek()[2]
            loop = For(var, low, high, self.parse_block())
            if self.last_use[var] >= brace:  # a use inside the body
                message = f"for-loop variable {var!r} must not occur in the loop body"
                raise DesugarError(message, *self.line_col(tok))
            return desugar_for(loop, self.line_col(tok)[0]) if self.desugar else loop
        if kind == "break":
            self.expect("(")
            if self.peek()[0] == "|":
                stmt = self.parse_oracle_break()
            else:
                stmt = Break(self.parse_expr()[0])
            self.expect(")")
            return stmt
        self.pos -= 1
        self.fail(
            "expected a statement",
            expected={"skip", "if", "while", "for", "break", "ident"},
        )

    def parse_oracle_break(self) -> OracleBreak:
        self.expect("|")
        left = self.expect("ovar")
        self.expect("(")
        call_args = self.parse_exprlist()[0]
        self.expect(")")
        self.record_arity(left, len(call_args))
        self.expect("|")
        self.expect(">")
        self.expect("|")
        right = self.expect("ovar")
        if right[1] != left[1]:
            raise self.error(
                "both sides of an oracle break must call the same oracle",
                right,
            )
        self.expect("(")
        ref_vars = self.parse_idlist(closer=")")
        self.last_use.update(dict.fromkeys(ref_vars, right[2]))  # any offset in the break
        self.expect(")")
        self.record_arity(right, len(ref_vars))
        self.expect("|")
        return OracleBreak(left[1], call_args, ref_vars)

    # -- expressions
    #
    # Each returns (expression, low): how many levels below its own level
    # the deepest part of the expression sits.  Left operands of binary
    # operators only move down once the operator is seen, so the limit is
    # checked again as each binary node is built.

    def parse_exprlist(self) -> tuple:
        args, low = [], 0
        if self.peek()[0] == ")":
            return args, low
        while True:
            arg, arg_low = self.parse_expr()
            args.append(arg)
            low = max(low, 1 + arg_low)
            if not self.accept(","):
                return args, low

    def parse_expr(self, prec=1) -> tuple:
        """An expression one level down whose binary operators bind at ``prec`` or tighter."""
        self.depth += 1
        self.check_depth(self.peek())
        node, low = self.parse_primary()
        while True:
            tok = self.peek()
            op = _SURFACE_OP.get(tok[0])
            if op is None:
                if tok[0] == ">=":
                    raise self.error(
                        "there is no >= operator; swap the operands and use <=", tok
                    )
                break
            if _PREC[op] < prec:
                break
            self.pos += 1
            rhs, rhs_low = self.parse_expr(_PREC[op] + 1)  # left associative
            if op != "dec":
                node, low = OpApp(op, [node, rhs]), 1 + max(low, rhs_low)
            elif rhs == OpApp("const:1", []):
                node, low = OpApp("dec", [node]), 1 + low
            else:
                raise self.error(
                    "only decrement by one is supported; write e - u1 "
                    "(or decb(e) for binary numerals)",
                    tok,
                )
            self.check_depth(tok, low)
        self.depth -= 1
        return node, low

    def parse_primary(self) -> tuple:
        tok = self.next()
        kind, value = tok[0], tok[1]
        if kind == "ident":
            if self.peek()[0] != "(":
                self.last_use[value] = tok[2]
                return Var(value), 0
            self.pos += 1
            args, low = self.parse_exprlist()
            self.expect(")")
            entry = self._op_entry(tok)
            if entry.arity != len(args):
                raise self.error(
                    f"operator {value} expects {entry.arity} "
                    f"argument(s), got {len(args)}",
                    tok,
                )
            return OpApp(value, args), low
        if kind == "ulit":
            try:
                return self._literal(words.unary_digits(value[1:])), 0
            except words.WordError as exc:
                raise self.error(str(exc), tok) from None
        if kind == "string":
            return self._literal(value[1:-1]), 0
        if kind == "(":
            node, low = self.parse_expr()
            self.expect(")")
            return node, 1 + low
        if kind == "true" or kind == "false" or kind == "eps":
            return OpApp(kind, []), 0
        if kind == "declass":
            self.expect("(")
            first, low1 = self.parse_expr()
            if self.peek()[0] == ")":
                raise self.error("declass requires two arguments: declass(e, bound)", tok)
            self.expect(",")
            second, low2 = self.parse_expr()
            self.expect(")")
            return Declass(first, second), 1 + max(low1, low2)
        if kind == "ovar":
            self.expect("(")
            args, low = self.parse_exprlist()
            self.expect(")")
            self.record_arity(tok, len(args))
            return OracleCall(value, args), low
        self.pos -= 1
        self.fail("expected an expression", expected={"ident", "string", "("})

    def _literal(self, text: str):
        if text == "":
            return OpApp("eps", [])
        return OpApp("const:" + text, [])

    def _op_entry(self, tok):
        try:
            return opreg.BUILTINS.lookup(tok[1])
        except opreg.UnknownOperator:
            raise self.error(f"unknown operator {tok[1]!r}", tok)


def parse(text: str, desugar: bool = True):
    """Parse source text into a Program1 or Program2.

    Each for loop is rewritten into its while form as it is parsed, unless
    ``desugar`` is False; loop ids are then assigned in pre-order.
    """
    program = _Parser(text, tokenize(text), desugar).parse_program()
    assign_loop_ids(program)
    return program


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


def desugar_for(loop: For, line: int = 0) -> Seq:
    """Expand for x = e to d { body } into x := d; while(e <= x){ body; x := x - u1 }.

    The parser expands each loop as it reads it, after its body, once it has
    checked that the loop variable does not occur there.  The produced While
    carries a for-origin mark and the ``for``'s line, so the decidable
    aperiodicity criterion can recognize and name it; the enclosing ``seq_of``
    splices the two statements into its sequence, so desugared code has the
    same shape its printed form reparses to.
    """
    guard = OpApp("le", [loop.low, Var(loop.var)])
    body = seq_of([loop.body, Assign(loop.var, OpApp("dec", [Var(loop.var)]))])
    return Seq([Assign(loop.var, loop.high), While(guard, body, for_origin=True, line=line)])


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
        if e.op in _BINOP_SURFACE and len(e.args) == 2:
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
    if isinstance(s, For):
        lines = [pad + f"for {s.var} = {pp_expr(s.low)} to {pp_expr(s.high)} {{"]
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
