"""Abstract syntax for both languages, plus the level lattice.

First-order programs are ``Program1``; second-order programs with
procedures, closures, and oracle calls are ``Program2``.  Statements and
expressions are shared between the two, but the parser admits
``OracleCall`` and ``OracleBreak`` only in a second-order program.
Nodes are treated as immutable after parsing, though nothing enforces it;
every node is a ``Record``, equal to another of its class with equal
fields, and the expressions and terms are ``Frozen``, so they hash.

A sequence is one ``Seq`` node holding the list of its statements, built
by ``seq_of``; no pass over a program recurses along a sequence, so
recursion depth follows only the nesting of blocks and expressions, which
the parser bounds (``parser.MAX_NESTING``).
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Records


class Record:
    """A record whose fields are its ``__slots__``, set by its ``__init__``.

    Records are equal when they are of one class and their ``_compared``
    fields are equal; the printed form names the ``_shown`` fields.  Both
    are all the slots unless a class lists fewer.  Records are unhashable;
    the immutable kinds derive from ``Frozen``.
    """

    __slots__ = ()
    _compared = _shown = None

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared or self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown or self.__slots__)
        return f"{type(self).__name__}({shown})"


class Frozen(Record):
    """A record never changed after it is built, hashed by its compared fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())


# ---------------------------------------------------------------------------
# Expressions


class Var(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class OpApp(Frozen):
    __slots__ = ("op", "args")

    def __init__(self, op: str, args=()):
        self.op = op
        self.args = tuple(args)


class Declass(Frozen):
    __slots__ = ("expr", "bound")

    def __init__(self, expr: "Expr", bound: "Expr"):
        self.expr = expr
        self.bound = bound


class OracleCall(Frozen):
    __slots__ = ("oracle", "args")

    def __init__(self, oracle: str, args=()):
        self.oracle = oracle
        self.args = tuple(args)


Expr = Union[Var, OpApp, Declass, OracleCall]


# ---------------------------------------------------------------------------
# Statements


class Skip(Record):
    __slots__ = ()


class Assign(Record):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        self.var = var
        self.expr = expr


class Seq(Record):
    """Statements run in order; build it with ``seq_of``.

    A Seq holds at least two statements and none of them is a Seq.
    """

    __slots__ = ("stmts",)

    def __init__(self, stmts: list):
        self.stmts = stmts


class If(Record):
    __slots__ = ("guard", "then", "orelse")

    def __init__(self, guard: Expr, then: "Stmt", orelse: "Stmt"):
        self.guard = guard
        self.then = then
        self.orelse = orelse


class While(Record):
    __slots__ = ("guard", "body", "loop_id", "for_origin", "line")
    # Provenance metadata (sugar origin, source line); not part of the
    # structural identity, since printing never reconstructs for syntax.
    _compared = ("guard", "body", "loop_id")

    def __init__(self, guard: Expr, body: "Stmt", loop_id: int = -1,
                 for_origin: bool = False, line: int = 0):
        self.guard = guard
        self.body = body
        self.loop_id = loop_id
        self.for_origin = for_origin
        self.line = line


class Break(Record):
    __slots__ = ("guard",)

    def __init__(self, guard: Expr):
        self.guard = guard


class OracleBreak(Record):
    """break(|X(args)| > |X(ref_vars)|): the dedicated oracle-guarded break."""

    __slots__ = ("oracle", "call_args", "ref_vars")

    def __init__(self, oracle: str, call_args=(), ref_vars=()):
        self.oracle = oracle
        self.call_args = tuple(call_args)
        self.ref_vars = tuple(ref_vars)


class For(Record):
    """Parser-level sugar; never survives desugaring."""

    __slots__ = ("var", "low", "high", "body")

    def __init__(self, var: str, low: Expr, high: Expr, body: "Stmt"):
        self.var = var
        self.low = low
        self.high = high
        self.body = body


Stmt = Union[Skip, Assign, Seq, If, While, Break, OracleBreak, For]


# ---------------------------------------------------------------------------
# Programs


class Program1(Record):
    __slots__ = ("params", "body", "ret")

    def __init__(self, params: list, body: Stmt, ret: str):
        self.params = params
        self.body = body
        self.ret = ret


class Procedure(Record):
    __slots__ = ("name", "oracle_params", "params", "locals", "body", "ret")

    def __init__(self, name: str, oracle_params: list, params: list, locals: list,
                 body: Stmt, ret: str):
        self.name = name
        self.oracle_params = oracle_params  # [(name, arity)]
        self.params = params
        self.locals = locals
        self.body = body
        self.ret = ret


class TermVar(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Call(Frozen):
    __slots__ = ("proc", "closures", "args")

    def __init__(self, proc: str, closures=(), args=()):
        self.proc = proc
        self.closures = tuple(closures)
        self.args = tuple(args)


Term = Union[TermVar, Call]


class ClosureVar(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Lambda(Frozen):
    __slots__ = ("params", "body")

    def __init__(self, params, body: Term):
        self.params = tuple(params)
        self.body = body


Closure = Union[ClosureVar, Lambda]


class Program2(Record):
    __slots__ = ("boxed_oracles", "boxed_words", "procedures", "main")

    def __init__(self, boxed_oracles: list, boxed_words: list, procedures: list, main: Term):
        self.boxed_oracles = boxed_oracles  # [(name, arity)]
        self.boxed_words = boxed_words
        self.procedures = procedures
        self.main = main


Program = Union[Program1, Program2]


# ---------------------------------------------------------------------------
# Walkers


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


def collect_names(node, names: set, oracles: list) -> None:
    """Add the names a statement or expression tree uses to ``names`` and ``oracles``.

    ``names`` gets its order-0 variables, and ``oracles`` the oracle of each
    of its oracle calls in pre-order, an oracle break counting as one call.
    """
    kind = type(node)
    if kind is Var:
        names.add(node.name)
    elif kind is OpApp:
        for a in node.args:
            collect_names(a, names, oracles)
    elif kind is Assign:
        names.add(node.var)
        collect_names(node.expr, names, oracles)
    elif kind is Seq:
        for st in node.stmts:
            collect_names(st, names, oracles)
    elif kind is OracleCall:
        oracles.append(node.oracle)
        for a in node.args:
            collect_names(a, names, oracles)
    elif kind is Declass:
        collect_names(node.expr, names, oracles)
        collect_names(node.bound, names, oracles)
    elif kind is If:
        collect_names(node.guard, names, oracles)
        collect_names(node.then, names, oracles)
        collect_names(node.orelse, names, oracles)
    elif kind is While:
        collect_names(node.guard, names, oracles)
        collect_names(node.body, names, oracles)
    elif kind is Break:
        collect_names(node.guard, names, oracles)
    elif kind is OracleBreak:
        oracles.append(node.oracle)
        for a in node.call_args:
            collect_names(a, names, oracles)
        names.update(node.ref_vars)
    elif kind is For:
        names.add(node.var)
        collect_names(node.low, names, oracles)
        collect_names(node.high, names, oracles)
        collect_names(node.body, names, oracles)


def stmt_vars(node) -> set:
    """All order-0 variable names occurring in a statement or expression tree."""
    names = set()
    collect_names(node, names, [])
    return names


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
