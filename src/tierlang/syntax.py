"""Abstract syntax for both languages, plus the level lattice.

First-order programs are ``Program1``; second-order programs with
procedures, closures, and oracle calls are ``Program2``.  Statements and
expressions are shared between the two (``OracleCall`` and ``OracleBreak``
only ever occur in second-order code).  Nodes are treated as immutable
after parsing; structural equality is dataclass equality.

A sequence is one ``Seq`` node holding the list of its statements, built
by ``seq_of``; no pass over a program recurses along a sequence, so
recursion depth follows only the nesting of blocks and expressions, which
the parser bounds (``parser.MAX_NESTING``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# Levels

# Finite levels are ints; the top element is float("inf").  The natural
# Python ordering and max/min implement the lattice operations.
Level = Union[int, float]

INFINITY: Level = float("inf")


def is_finite(level: Level) -> bool:
    return level != INFINITY


def level_str(level: Level) -> str:
    return "inf" if level == INFINITY else str(int(level))


def level_from_json(value) -> Level:
    if value == "inf":
        return INFINITY
    return int(value)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class OpApp:
    op: str
    args: tuple

    def __init__(self, op: str, args=()):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Declass:
    expr: "Expr"
    bound: "Expr"


@dataclass(frozen=True)
class OracleCall:
    oracle: str
    args: tuple

    def __init__(self, oracle: str, args=()):
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "args", tuple(args))


Expr = Union[Var, OpApp, Declass, OracleCall]


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Skip:
    pass


@dataclass
class Assign:
    var: str
    expr: Expr


@dataclass
class Seq:
    """Statements run in order; build it with ``seq_of``.

    A Seq holds at least two statements and none of them is a Seq.
    """

    stmts: list


@dataclass
class If:
    guard: Expr
    then: "Stmt"
    orelse: "Stmt"


@dataclass
class While:
    guard: Expr
    body: "Stmt"
    loop_id: int = -1
    # Provenance metadata (sugar origin, source line); not part of the
    # structural identity, since printing never reconstructs for syntax.
    for_origin: bool = field(default=False, compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class Break:
    guard: Expr


@dataclass
class OracleBreak:
    """break(|X(args)| > |X(ref_vars)|): the dedicated oracle-guarded break."""

    oracle: str
    call_args: tuple
    ref_vars: tuple

    def __init__(self, oracle: str, call_args=(), ref_vars=()):
        self.oracle = oracle
        self.call_args = tuple(call_args)
        self.ref_vars = tuple(ref_vars)


@dataclass
class For:
    """Parser-level sugar; never survives desugaring."""

    var: str
    low: Expr
    high: Expr
    body: "Stmt"


Stmt = Union[Skip, Assign, Seq, If, While, Break, OracleBreak, For]


# ---------------------------------------------------------------------------
# Programs


@dataclass
class Program1:
    params: list
    body: Stmt
    ret: str


@dataclass
class Procedure:
    name: str
    oracle_params: list  # [(name, arity)]
    params: list
    locals: list
    body: Stmt
    ret: str


@dataclass(frozen=True)
class TermVar:
    name: str


@dataclass(frozen=True)
class Call:
    proc: str
    closures: tuple
    args: tuple

    def __init__(self, proc: str, closures=(), args=()):
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "closures", tuple(closures))
        object.__setattr__(self, "args", tuple(args))


Term = Union[TermVar, Call]


@dataclass(frozen=True)
class ClosureVar:
    name: str


@dataclass(frozen=True)
class Lambda:
    params: tuple
    body: Term

    def __init__(self, params, body):
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "body", body)


Closure = Union[ClosureVar, Lambda]


@dataclass
class Program2:
    boxed_oracles: list  # [(name, arity)]
    boxed_words: list
    procedures: list
    main: Term


Program = Union[Program1, Program2]


# ---------------------------------------------------------------------------
# Walkers


def iter_exprs(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree, on an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (OpApp, OracleCall)):
            stack.extend(reversed(e.args))
        elif isinstance(e, Declass):
            stack += (e.bound, e.expr)


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    """The expressions occurring directly in one statement node."""
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


def iter_stmts(s: Stmt) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree, on an explicit stack."""
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Seq):
            stack.extend(reversed(s.stmts))
        elif isinstance(s, If):
            stack += (s.orelse, s.then)
        elif isinstance(s, (While, For)):
            stack.append(s.body)


def stmt_oracle_calls(s: Stmt) -> Iterator[OracleCall]:
    """The oracle calls of a statement tree in pre-order.

    An oracle break gives both of its calls, the reference call included.
    """
    for st in iter_stmts(s):
        for e in stmt_exprs(st):
            for sub in iter_exprs(e):
                if isinstance(sub, OracleCall):
                    yield sub


def seq_chain(s: Stmt) -> list:
    """The statements of a sequence in order; any other statement alone."""
    return s.stmts if isinstance(s, Seq) else [s]


def seq_of(parts: list) -> Stmt:
    """The one constructor of sequences: ``parts`` in order, Seqs flattened.

    No parts give Skip() and one part gives that statement itself, so a
    Seq always holds at least two statements, none of them a Seq.
    """
    stmts = []
    for p in parts:
        stmts.extend(seq_chain(p))
    if len(stmts) > 1:
        return Seq(stmts)
    return stmts[0] if stmts else Skip()


def expr_vars(e: Expr) -> set:
    out = set()
    for sub in iter_exprs(e):
        if isinstance(sub, Var):
            out.add(sub.name)
    return out


def undeclassified_vars(e) -> frozenset:
    """The variables of e that are not shielded by a declass first operand."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (OpApp, OracleCall)):
        out = frozenset()
        for a in e.args:
            out |= undeclassified_vars(a)
        return out
    if isinstance(e, Declass):
        return undeclassified_vars(e.bound)
    raise TypeError(f"not an expression: {e!r}")


def stmt_vars(s: Stmt) -> set:
    """All order-0 variable names occurring in a statement tree."""
    out = set()
    for st in iter_stmts(s):
        if isinstance(st, Assign):
            out.add(st.var)
        elif isinstance(st, OracleBreak):
            out.update(st.ref_vars)
        elif isinstance(st, For):
            out.add(st.var)
        for e in stmt_exprs(st):
            out.update(expr_vars(e))
    return out


def program_vars(p: Program1) -> set:
    return set(p.params) | stmt_vars(p.body) | {p.ret}


def assign_loop_ids(program: Program) -> None:
    """Number every While node in pre-order, starting from 1.

    Deterministic, so re-parsing pretty-printed output reproduces ids.
    """
    counter = 1

    def number(s: Stmt):
        nonlocal counter
        for st in iter_stmts(s):
            if isinstance(st, While):
                st.loop_id = counter
                counter += 1

    if isinstance(program, Program1):
        number(program.body)
    else:
        for proc in program.procedures:
            number(proc.body)


# ---------------------------------------------------------------------------
# Free variables of second-order programs


def _term_vars(t: Term, bound: set, free: set) -> None:
    if isinstance(t, TermVar):
        if t.name not in bound:
            free.add(t.name)
        return
    for c in t.closures:
        if isinstance(c, ClosureVar):
            if c.name not in bound:
                free.add(c.name)
        else:
            _term_vars(c.body, bound | set(c.params), free)
    for a in t.args:
        _term_vars(a, bound, free)


def free_variables(p: Program2) -> set:
    """Variables of the main term neither boxed nor bound by a lambda binder.

    Procedure bodies are not walked: the simple-type check requires each to
    be closed over its own parameters and locals.
    """
    free: set = set()
    _term_vars(p.main, {n for n, _ in p.boxed_oracles} | set(p.boxed_words), free)
    return free
